//! Randomized differential test: the dedup/index/trie engine must render
//! byte-identical UCQs to the pre-change (PR 5) engine.
//!
//! The reference below re-implements that engine's decision procedure
//! from public APIs only — linear alive-set sweeps, core minimization
//! *before* the subsumption check, no structural dedup, no predicate-set
//! trie, sequential FIFO windows — so any behavioural drift introduced by
//! the generation-side dedup machinery (seen-set, piece-unifier index,
//! trie-filtered sweeps, core-on-accept) shows up as a render/counter
//! mismatch on seeded random theories.

use std::collections::{HashSet, VecDeque};
use std::rc::Rc;

use qr_hom::kernel::{HomKernel, QueryEntry};
use qr_rewrite::{piece_rewritings, rewrite, RewriteBudget, RewriteOutcome, Rewriting};
use qr_syntax::{parse_query, parse_theory, ConjunctiveQuery, Symbol, Theory, Var};
use qr_testkit::{check, Rng};

/// Local copy of the engine's canonical renaming (existentials become
/// `U0, U1, …` in variable-index order; answer names survive).
fn canonical_named(q: &ConjunctiveQuery) -> ConjunctiveQuery {
    let answer: HashSet<Var> = q.answer_vars().iter().copied().collect();
    let reserved: HashSet<&str> = q
        .answer_vars()
        .iter()
        .map(|v| q.var_name(*v).as_str())
        .collect();
    let mut names = q.var_names().to_vec();
    let mut next = 0usize;
    for (i, slot) in names.iter_mut().enumerate() {
        if answer.contains(&Var(i as u32)) {
            continue;
        }
        let name = loop {
            let cand = format!("U{next}");
            next += 1;
            if !reserved.contains(cand.as_str()) {
                break cand;
            }
        };
        *slot = Symbol::intern(&name);
    }
    ConjunctiveQuery::new(q.answer_vars().to_vec(), q.atoms().to_vec(), names)
}

/// What both engines must agree on, byte for byte.
#[derive(Debug, PartialEq)]
struct Snapshot {
    renders: Vec<String>,
    outcome: RewriteOutcome,
    generated: usize,
    oversized: usize,
    depth: usize,
}

impl Snapshot {
    fn of(r: &Rewriting) -> Snapshot {
        Snapshot {
            renders: r.ucq.disjuncts().iter().map(|d| d.render()).collect(),
            outcome: r.outcome,
            generated: r.generated,
            oversized: r.oversized_discarded,
            depth: r.depth,
        }
    }
}

/// The PR 5 saturation loop, sequential barrier windows, rebuilt from
/// public kernel primitives: every candidate is core-minimized up front,
/// checked against a *linear* scan of the alive kept set, and no
/// structural dedup exists — isomorphic regenerations go through the full
/// subsumption sweep every time.
fn reference_rewrite(theory: &Theory, query: &ConjunctiveQuery, budget: RewriteBudget) -> Snapshot {
    let kernel = HomKernel::new();
    let seed = canonical_named(&kernel.query_core(query));
    // (query, entry, alive), in insertion order.
    let mut kept: Vec<(ConjunctiveQuery, Rc<QueryEntry>, bool)> = Vec::new();
    let entry = kernel.entry(&seed);
    kept.push((seed.clone(), entry, true));
    let mut queue: VecDeque<(ConjunctiveQuery, usize)> = VecDeque::new();
    queue.push_back((seed, 0));
    let (mut generated, mut oversized, mut depth, mut truncated) = (0usize, 0usize, 0usize, false);
    'outer: while !queue.is_empty() {
        let batch: Vec<(ConjunctiveQuery, usize)> = queue.drain(..).collect();
        for (q, d) in batch {
            // Evicted before its merge turn: dropped without generating.
            if !kept.iter().any(|(kq, _, alive)| *alive && *kq == q) {
                continue;
            }
            for rule in theory.rules() {
                for pu in piece_rewritings(&q, rule) {
                    generated += 1;
                    if generated > budget.max_generated {
                        truncated = true;
                        break 'outer;
                    }
                    if pu.result.size() > budget.max_atoms {
                        oversized += 1;
                        continue;
                    }
                    let cand = canonical_named(&kernel.query_core(&pu.result));
                    let cand_entry = kernel.entry(&cand);
                    let alive: Vec<usize> = (0..kept.len()).filter(|&i| kept[i].2).collect();
                    let refs: Vec<&Rc<QueryEntry>> = alive.iter().map(|&i| &kept[i].1).collect();
                    if kernel.subsumed_by_any(&cand_entry, &refs) {
                        continue;
                    }
                    let covered = kernel.covered_by(&refs, &cand_entry);
                    let mut evicted = 0usize;
                    for (flag, &i) in covered.iter().zip(&alive) {
                        if *flag {
                            kept[i].2 = false;
                            evicted += 1;
                        }
                    }
                    let alive_now = kept.iter().filter(|(_, _, a)| *a).count();
                    if alive_now >= budget.max_queries {
                        truncated = true;
                        if evicted > 0 {
                            depth = depth.max(d + 1);
                            kept.push((cand, cand_entry, true));
                        }
                        break 'outer;
                    }
                    depth = depth.max(d + 1);
                    queue.push_back((cand.clone(), d + 1));
                    kept.push((cand, cand_entry, true));
                }
            }
        }
    }
    let outcome = if truncated {
        RewriteOutcome::Budget
    } else if oversized > 0 {
        RewriteOutcome::AtomCapped
    } else {
        RewriteOutcome::Complete
    };
    Snapshot {
        renders: kept
            .into_iter()
            .filter(|(_, _, alive)| *alive)
            .map(|(q, _, _)| q.render())
            .collect(),
        outcome,
        generated,
        oversized,
        depth,
    }
}

const BODY_VARS: [&str; 4] = ["X", "Y", "Z", "W"];
const QUERY_TERMS: [&str; 4] = ["A", "B", "C", "a"];
// (name, arity) — small alphabet so random rules actually interact.
const PREDS: [(&str, usize); 4] = [("p", 1), ("q", 1), ("e", 2), ("f", 2)];

fn atom(rng: &mut Rng, terms: &[&str]) -> String {
    let (name, arity) = *rng.pick(&PREDS);
    let args: Vec<&str> = (0..arity).map(|_| *rng.pick(terms)).collect();
    format!("{name}({})", args.join(","))
}

/// 1–3 constant-free rules, 1–2 body atoms, single-atom head. Head
/// variables not in the body are existential; that is exactly what the
/// piece-unifier's admissibility checks must navigate.
fn random_theory(rng: &mut Rng) -> String {
    let nrules = rng.range(1, 4);
    let mut rules = Vec::new();
    for _ in 0..nrules {
        let nbody = rng.range(1, 3);
        let body: Vec<String> = (0..nbody).map(|_| atom(rng, &BODY_VARS)).collect();
        let head = atom(rng, &BODY_VARS);
        rules.push(format!("{} -> {}.", body.join(", "), head));
    }
    rules.join("\n")
}

/// 1–2 atoms over variables `A, B, C` and the constant `a`; at most one
/// answer variable, drawn from the variables actually used.
fn random_query(rng: &mut Rng) -> String {
    let natoms = rng.range(1, 3);
    let atoms: Vec<String> = (0..natoms).map(|_| atom(rng, &QUERY_TERMS)).collect();
    let body = atoms.join(", ");
    let used: Vec<&str> = ["A", "B", "C"]
        .into_iter()
        .filter(|v| {
            atoms
                .iter()
                .any(|a| a.split(['(', ',', ')']).any(|t| t == *v))
        })
        .collect();
    if !used.is_empty() && rng.bool() {
        format!("?({}) :- {body}.", rng.pick(&used))
    } else {
        format!("? :- {body}.")
    }
}

#[test]
fn new_engine_matches_reference_on_random_theories() {
    let budget = RewriteBudget {
        max_queries: 10,
        max_generated: 60,
        max_atoms: 5,
    };
    check("differential-reference", 20, |rng| {
        let tsrc = random_theory(rng);
        let qsrc = random_query(rng);
        let theory = parse_theory(&tsrc).expect("generated theory parses");
        let query = parse_query(&qsrc).expect("generated query parses");
        let expect = reference_rewrite(&theory, &query, budget);
        let r = rewrite(&theory, &query, budget).expect("no builtin bodies generated");
        assert_eq!(Snapshot::of(&r), expect, "theory:\n{tsrc}\nquery: {qsrc}");
    });
}

//! Randomized differential tests: the compiled [`HomKernel`] against the
//! historical one-shot homomorphism path.
//!
//! The reference implementations below are the pre-kernel code paths,
//! re-stated verbatim on the raw matcher primitives: freeze the target per
//! call, plan the join per call, search. The kernel (freeze/plan caches,
//! prefilters, component decomposition, fold-based core) must agree with
//! them on every generated input — including constants, repeated
//! variables, duplicate atoms, and answer-variable anchoring.
//!
//! Each loop also checks a warm kernel, owned across all cases, against
//! the free function, which runs on a cold kernel built for the one call:
//! what a kernel has memoized never changes an answer.

use std::collections::HashMap;

use qr_hom::kernel::HomKernel;
use qr_hom::matcher::{exists_match, holds_ucq};
use qr_syntax::parser::{parse_instance, parse_query};
use qr_syntax::query::{ConjunctiveQuery, QAtom, Var};
use qr_syntax::{Instance, Symbol, TermId, Ucq};
use qr_testkit::{check, Rng};

/// Predicates with fixed arities, shared by queries and instances.
const PREDS: &[(&str, usize)] = &[("p", 1), ("e", 2), ("f", 2), ("t", 3)];
const CONSTS: &[&str] = &["a", "b", "c"];

/// A random conjunctive query over up to 4 variables: small pools make
/// repeated variables, duplicate atoms, and non-trivial folds common.
fn random_query(rng: &mut Rng, answer_arity: usize) -> ConjunctiveQuery {
    loop {
        let natoms = rng.range(1, 5);
        let mut atoms = Vec::new();
        for _ in 0..natoms {
            let (name, arity) = *rng.pick(PREDS);
            let args: Vec<String> = (0..arity)
                .map(|_| {
                    if rng.below(10) < 7 {
                        format!("V{}", rng.below(4))
                    } else {
                        rng.pick(CONSTS).to_string()
                    }
                })
                .collect();
            atoms.push(format!("{name}({})", args.join(",")));
        }
        // Answer variables must occur in the body.
        let mut used: Vec<String> = (0..4)
            .map(|i| format!("V{i}"))
            .filter(|v| atoms.iter().any(|a| a.contains(v.as_str())))
            .collect();
        if used.len() < answer_arity {
            continue;
        }
        // Random (possibly repeating) answer tuple over the used variables.
        let answer: Vec<String> = (0..answer_arity)
            .map(|_| used[rng.below(used.len())].clone())
            .collect();
        used.sort();
        let head = if answer.is_empty() {
            "?".to_string()
        } else {
            format!("?({})", answer.join(","))
        };
        let src = format!("{head} :- {}.", atoms.join(", "));
        return parse_query(&src).expect("generated query parses");
    }
}

fn random_instance(rng: &mut Rng) -> Instance {
    let nfacts = rng.range(1, 9);
    let mut facts = Vec::new();
    for _ in 0..nfacts {
        let (name, arity) = *rng.pick(PREDS);
        let args: Vec<&str> = (0..arity).map(|_| *rng.pick(CONSTS)).collect();
        facts.push(format!("{name}({})", args.join(",")));
    }
    parse_instance(&format!("{}.", facts.join(". "))).expect("generated instance parses")
}

fn random_answer(rng: &mut Rng, arity: usize) -> Vec<TermId> {
    (0..arity)
        .map(|_| {
            let c = rng.pick(CONSTS);
            TermId::constant(Symbol::intern(c))
        })
        .collect()
}

/// The pre-kernel `contains`: freeze `phi` per call, one-shot search.
fn contains_ref(phi: &ConjunctiveQuery, psi: &ConjunctiveQuery) -> bool {
    let (frozen, var_map): (Instance, HashMap<Var, TermId>) = phi.freeze();
    let fixed: Vec<(Var, TermId)> = psi
        .answer_vars()
        .iter()
        .zip(phi.answer_vars())
        .map(|(sv, gv)| (*sv, var_map[gv]))
        .collect();
    exists_match(psi.atoms(), psi.var_names().len(), &frozen, &fixed)
}

/// The pre-kernel `holds`: bind the answer tuple, one-shot search.
fn holds_ref(q: &ConjunctiveQuery, inst: &Instance, ans: &[TermId]) -> bool {
    let fixed: Vec<(Var, TermId)> = q
        .answer_vars()
        .iter()
        .copied()
        .zip(ans.iter().copied())
        .collect();
    exists_match(q.atoms(), q.var_names().len(), inst, &fixed)
}

/// The pre-kernel greedy `query_core`: n² full `equivalent` round-trips.
fn query_core_ref(q: &ConjunctiveQuery) -> ConjunctiveQuery {
    let mut current = q.canonical();
    'outer: loop {
        if current.size() <= 1 {
            return current;
        }
        for skip in 0..current.size() {
            let atoms: Vec<QAtom> = current
                .atoms()
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != skip)
                .map(|(_, a)| a.clone())
                .collect();
            if !current
                .answer_vars()
                .iter()
                .all(|v| atoms.iter().any(|a| a.mentions(*v)))
            {
                continue;
            }
            let candidate = ConjunctiveQuery::new(
                current.answer_vars().to_vec(),
                atoms,
                current.var_names().to_vec(),
            );
            if contains_ref(&current, &candidate) && contains_ref(&candidate, &current) {
                current = candidate.canonical();
                continue 'outer;
            }
        }
        return current;
    }
}

#[test]
fn kernel_contains_matches_one_shot_reference() {
    let kernel = HomKernel::new();
    check("kernel_contains", 400, |rng| {
        let arity = rng.below(3);
        let phi = random_query(rng, arity);
        let psi = random_query(rng, arity);
        let warm = kernel.contains_queries(&phi, &psi);
        let ctx = format!("phi={} psi={}", phi.render(), psi.render());
        assert_eq!(warm, contains_ref(&phi, &psi), "{ctx}");
        assert_eq!(qr_hom::contains(&phi, &psi), warm, "cold vs warm: {ctx}");
    });
    // The sweep must actually have exercised the caches and prefilters.
    let s = kernel.stats();
    assert!(s.freeze_cache_hits > 0, "repeated shapes hit the cache");
    assert!(
        s.prefilter_rejects > 0,
        "disjoint predicates get prefiltered"
    );
}

#[test]
fn kernel_equivalent_matches_one_shot_reference() {
    let kernel = HomKernel::new();
    check("kernel_equivalent", 200, |rng| {
        let arity = rng.below(2);
        let a = random_query(rng, arity);
        let b = random_query(rng, arity);
        let cold = qr_hom::equivalent(&a, &b);
        let ctx = format!("a={} b={}", a.render(), b.render());
        assert_eq!(cold, contains_ref(&a, &b) && contains_ref(&b, &a), "{ctx}");
        assert_eq!(kernel.equivalent(&a, &b), cold, "warm vs cold: {ctx}");
    });
}

#[test]
fn kernel_holds_matches_one_shot_reference() {
    let kernel = HomKernel::new();
    check("kernel_holds", 400, |rng| {
        let arity = rng.below(3);
        let q = random_query(rng, arity);
        let inst = random_instance(rng);
        let ans = random_answer(rng, arity);
        let warm = kernel.holds(&q, &inst, &ans);
        let ctx = format!("q={} inst has {} facts", q.render(), inst.len());
        assert_eq!(warm, holds_ref(&q, &inst, &ans), "{ctx}");
        assert_eq!(qr_hom::holds(&q, &inst, &ans), warm, "cold vs warm: {ctx}");
    });
}

#[test]
fn kernel_holds_ucq_matches_one_shot_reference() {
    check("kernel_holds_ucq", 200, |rng| {
        let arity = rng.below(2);
        let disjuncts: Vec<ConjunctiveQuery> = (0..rng.range(1, 4))
            .map(|_| random_query(rng, arity))
            .collect();
        let u = Ucq::new(disjuncts);
        let inst = random_instance(rng);
        let ans = random_answer(rng, arity);
        let expect = u.disjuncts().iter().any(|d| holds_ref(d, &inst, &ans));
        assert_eq!(holds_ucq(&u, &inst, &ans), expect);
    });
}

#[test]
fn kernel_query_core_matches_greedy_reference() {
    // The fold makes the same drop decisions in the same order as the
    // greedy loop (one banned-fact search per attempt replaces a full
    // `equivalent` round-trip), so the results are identical — not merely
    // equivalent.
    let kernel = HomKernel::new();
    check("kernel_query_core", 300, |rng| {
        let arity = rng.below(3);
        let q = random_query(rng, arity);
        let expect = query_core_ref(&q);
        let got = kernel.query_core(&q);
        assert_eq!(got, expect, "q={}", q.render());
        assert!(
            contains_ref(&q, &got) && contains_ref(&got, &q),
            "core is equivalent to the input: q={}",
            q.render()
        );
        assert_eq!(
            qr_hom::query_core(&q),
            got,
            "cold vs warm: q={}",
            q.render()
        );
    });
}

#[test]
fn kernel_subsumption_sweeps_match_reference() {
    let kernel = HomKernel::new();
    check("kernel_sweeps", 100, |rng| {
        let arity = rng.below(2);
        let cand = random_query(rng, arity);
        let kept: Vec<ConjunctiveQuery> = (0..rng.range(1, 6))
            .map(|_| random_query(rng, arity))
            .collect();
        let expect_any = kept.iter().any(|r| contains_ref(&cand, r));
        let expect_cov: Vec<bool> = kept.iter().map(|r| contains_ref(r, &cand)).collect();
        let cand_entry = kernel.entry(&cand);
        let entries: Vec<_> = kept.iter().map(|r| kernel.entry(r)).collect();
        let refs: Vec<_> = entries.iter().collect();
        assert_eq!(
            kernel.subsumed_by_any(&cand_entry, &refs),
            expect_any,
            "cand={}",
            cand.render()
        );
        assert_eq!(
            kernel.covered_by(&refs, &cand_entry),
            expect_cov,
            "cand={}",
            cand.render()
        );
    });
}

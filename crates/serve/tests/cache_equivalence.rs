//! Cache hits are invisible: an isomorphic variant of an already-served
//! query must answer byte-identically to (a) the base query's cold answers
//! and (b) a fresh engine's cold run of the variant. An α-renamed variant (same atom order) is *guaranteed* to land
//! on the same freeze key, so it must be a cache hit; an atom-permuted
//! variant may or may not collapse under the kernel's two-round
//! canonicalization, but its answers must be identical either way. A final
//! cross-check ties the served answers back to Theorem 1: for complete
//! rewritings they equal the constant-only certain answers read off a
//! chase prefix.

use qr_chase::{chase, ChaseBudget};
use qr_hom::all_answers;
use qr_serve::{CqRequest, Engine, EngineConfig, Response, ResponseStatus, Tier};
use qr_syntax::{parse_instance, parse_query, parse_theory};
use qr_testkit::{check, Rng};

const THEORY: &str = "human(Y) -> mother(Y,Z).\nmother(X,Y) -> human(Y).";
const DATA: &str = "mother(ann,bob). mother(bob,carol). human(dave).";
const CONSTS: [&str; 4] = ["ann", "bob", "carol", "dave"];

fn family_engine() -> Engine {
    let mut e = Engine::new(EngineConfig::default());
    e.register("family", THEORY, DATA).unwrap();
    e
}

/// A term slot in a generated atom: variable index or constant index.
#[derive(Clone, Copy)]
enum Slot {
    V(usize),
    C(usize),
}

/// A random CQ over the family signature, as structure (not text), so the
/// same query can be rendered under different variable names and atom
/// orders. Returns `(atoms, answer_vars)`.
fn random_query(rng: &mut Rng) -> (Vec<(&'static str, Vec<Slot>)>, Vec<usize>) {
    let natoms = rng.range(1, 4);
    let nvars = rng.range(1, 5);
    let mut atoms = Vec::new();
    for _ in 0..natoms {
        let slot = |rng: &mut Rng| {
            if rng.below(4) == 0 {
                Slot::C(rng.below(CONSTS.len()))
            } else {
                Slot::V(rng.below(nvars))
            }
        };
        if rng.bool() {
            atoms.push(("mother", vec![slot(rng), slot(rng)]));
        } else {
            atoms.push(("human", vec![slot(rng)]));
        }
    }
    let mut used = Vec::new();
    for (_, args) in &atoms {
        for s in args {
            if let Slot::V(v) = s {
                if !used.contains(v) {
                    used.push(*v);
                }
            }
        }
    }
    let mut answers = Vec::new();
    if !used.is_empty() && rng.bool() {
        answers.push(*rng.pick(&used));
    }
    (atoms, answers)
}

/// Renders the structured query with variable `v` named `names(v)` and
/// atoms emitted in `order`. Answer positions are untouched, so any two
/// renderings are isomorphic in the freeze-key sense.
fn render(
    atoms: &[(&'static str, Vec<Slot>)],
    answers: &[usize],
    names: &dyn Fn(usize) -> String,
    order: &[usize],
) -> String {
    let term = |s: &Slot| match s {
        Slot::V(v) => names(*v),
        Slot::C(c) => CONSTS[*c].to_owned(),
    };
    let head = if answers.is_empty() {
        "?".to_owned()
    } else {
        let vars: Vec<String> = answers.iter().map(|v| names(*v)).collect();
        format!("?({})", vars.join(","))
    };
    let body: Vec<String> = order
        .iter()
        .map(|&i| {
            let (pred, args) = &atoms[i];
            let rendered: Vec<String> = args.iter().map(term).collect();
            format!("{pred}({})", rendered.join(","))
        })
        .collect();
    format!("{head} :- {}.", body.join(", "))
}

fn req(query: &str) -> CqRequest {
    CqRequest {
        theory: "family".to_owned(),
        query: query.to_owned(),
    }
}

/// Unpacks an answered response; panics on rejection.
fn answered(r: &Response) -> (Tier, bool, Vec<Vec<String>>) {
    match &r.status {
        ResponseStatus::Answered {
            tier,
            complete,
            answers,
            ..
        } => (*tier, *complete, answers.clone()),
        ResponseStatus::Rejected { reason } => panic!("rejected: {reason}"),
        ResponseStatus::Written { .. } => panic!("write response to a query"),
    }
}

#[test]
fn cache_hits_answer_byte_identically_to_cold_runs() {
    check("serve-cache-equivalence", 32, |rng| {
        let (atoms, answers) = random_query(rng);
        let identity: Vec<usize> = (0..atoms.len()).collect();
        let base = render(&atoms, &answers, &|v| format!("X{v}"), &identity);

        // α-renamed variant: same atom order, fresh variable names. The
        // parser numbers variables by first occurrence, so this parses to
        // the same structure and *must* share the base's freeze key.
        let offset = rng.range(1, 9);
        let renamed = render(
            &atoms,
            &answers,
            &|v| format!("Ren{}", v * 13 + offset),
            &identity,
        );

        // Atom-permuted variant: may or may not collapse to the base's
        // key (the two-round canonicalization is a heuristic for
        // same-predicate symmetries) — but answers must match regardless.
        let shift = rng.below(atoms.len());
        let rotated: Vec<usize> = (0..atoms.len())
            .map(|i| (i + shift) % atoms.len())
            .collect();
        let permuted = render(&atoms, &answers, &|v| format!("P{v}"), &rotated);

        // Warm path: base cold, then the renamed variant must hit the
        // cache and answer identically; the permuted variant must answer
        // identically whichever tier serves it.
        let mut warm = family_engine();
        let rs = warm.run(vec![req(&base), req(&renamed), req(&permuted)]);
        let (t0, complete, served) = answered(&rs[0]);
        let (t1, _, renamed_answers) = answered(&rs[1]);
        let (_, _, permuted_answers) = answered(&rs[2]);
        assert_eq!(t0, Tier::Miss, "first sighting of {base}");
        assert_eq!(t1, Tier::Hit, "{renamed} is an α-renaming of {base}");
        assert_eq!(
            renamed_answers, served,
            "hit answers diverge for {renamed} vs {base}"
        );
        assert_eq!(
            permuted_answers, served,
            "permuted answers diverge for {permuted} vs {base}"
        );

        // Cold path: a fresh engine rewriting the renamed variant from
        // scratch lands on the same answers.
        let mut fresh = family_engine();
        let (t2, _, fresh_answers) = answered(&fresh.submit(req(&renamed)));
        assert_eq!(t2, Tier::Miss);
        assert_eq!(
            fresh_answers, served,
            "cold variant answers diverge for {renamed}"
        );

        // Theorem 1 cross-check: a complete rewriting's answers over D are
        // exactly the constant-only answers over a (deep enough) chase
        // prefix of (T, D).
        if complete {
            let theory = parse_theory(THEORY).unwrap();
            let db = parse_instance(DATA).unwrap();
            let ch = chase(&theory, &db, ChaseBudget::rounds(8));
            let q = parse_query(&base).unwrap();
            let mut expect: Vec<Vec<String>> = all_answers(&q, &ch.instance, 0)
                .into_iter()
                .filter(|tuple| tuple.iter().all(|t| t.is_const()))
                .map(|tuple| tuple.iter().map(|t| t.to_string()).collect())
                .collect();
            expect.sort();
            let mut got = served.clone();
            got.sort();
            assert_eq!(
                got, expect,
                "served answers disagree with chase certain answers for {base}"
            );
        }
    });
}

//! Determinism contract of the parallel chase: for every thread count the
//! engine must replay the sequential run exactly — same fact stream in the
//! same order (hence the same Skolem term assignments), same provenance,
//! and the same per-round trigger/candidate counters.

use std::cell::Cell;

use qr_chase::{chase_all_with, chase_with, Chase, ChaseAll, ChaseBudget};
use qr_exec::Executor;
use qr_syntax::{parse_instance, parse_theory, Instance, Theory};
use qr_testkit::{check, Rng};

fn edge_instance(rng: &mut Rng) -> Instance {
    let n = rng.range(1, 8);
    let mut src = String::new();
    for _ in 0..n {
        let a = rng.below(5);
        let b = rng.below(5);
        src.push_str(&format!("e(w{a}, w{b}).\n"));
    }
    parse_instance(&src).unwrap()
}

/// Theories covering every parallel task shape: per-predicate delta
/// chunks, dom-variable term sweeps (including ground-dom bodies), and
/// multi-delta-atom triggers. The first two rules of the last theory
/// share a head predicate, so any vertex with an edge in and an edge out
/// gets its `p` fact staged by two tasks in one round.
fn small_theory(rng: &mut Rng) -> Theory {
    let sources = [
        "e(X,Y) -> e(Y,Z).",
        "e(X,Y), e(Y,Z) -> e(X,Z).",
        "e(X,Y) -> p(Y).\np(X) -> e(X,W).",
        "true -> r(X,X).\ndom(X) -> r(X,Z).",
        "dom(w1) -> p(w1).\np(X) -> e(X,W).",
        "e(X,Y) -> e(Y,Z).\ndom(w0), dom(X) -> q(X).",
        "e(X,Y), e(Y,Z) -> f(X,Z).\nf(X,Y), f(Y,Z) -> g(X,Z).",
        "e(X,Y), dom(Z) -> h(Y,Z).\nh(X,Y) -> e(Y,W).",
        "e(X,Y) -> p(X).\ne(X,Y) -> p(Y).\np(X) -> e(X,W).",
    ];
    parse_theory(rng.pick::<&str>(&sources)).unwrap()
}

/// `true` iff two rules staged the same fact in the round that added it,
/// so the merge met a staging of a fact it had just written.
fn staged_by_two_rules(all: &ChaseAll) -> bool {
    let round_of = &all.chase.round_of;
    all.all_derivations.iter().enumerate().any(|(i, ds)| {
        let mut rules = ds.iter().filter(|d| d.round == round_of[i]).map(|d| d.rule);
        rules
            .next()
            .is_some_and(|first| rules.any(|rule| rule != first))
    })
}

/// Deep equality of two runs: fact stream (order included), first
/// derivations, rounds, outcome, storage footprint and the deterministic
/// stats counters (everything except wall times and the thread count
/// itself).
fn assert_runs_identical(seq: &Chase, par: &Chase, ctx: &str) {
    let sf: Vec<_> = seq.instance.iter().collect();
    let pf: Vec<_> = par.instance.iter().collect();
    assert_eq!(sf, pf, "fact stream differs: {ctx}");
    assert_eq!(seq.round_of, par.round_of, "rounds of facts differ: {ctx}");
    assert_eq!(seq.rounds, par.rounds, "round count differs: {ctx}");
    assert_eq!(seq.outcome, par.outcome, "outcome differs: {ctx}");
    assert_eq!(
        seq.derivations, par.derivations,
        "first derivations differ: {ctx}"
    );
    assert_eq!(
        seq.instance.stats(),
        par.instance.stats(),
        "storage stats differ: {ctx}"
    );
    assert_eq!(
        seq.stats.rounds.len(),
        par.stats.rounds.len(),
        "stats rounds differ: {ctx}"
    );
    for (s, p) in seq.stats.rounds.iter().zip(&par.stats.rounds) {
        assert_eq!(s.round, p.round, "{ctx}");
        assert_eq!(s.triggers, p.triggers, "round {} triggers: {ctx}", s.round);
        assert_eq!(
            s.candidates, p.candidates,
            "round {} candidates: {ctx}",
            s.round
        );
        assert_eq!(
            s.dom_sweeps, p.dom_sweeps,
            "round {} dom_sweeps: {ctx}",
            s.round
        );
        assert_eq!(
            s.dom_pruned, p.dom_pruned,
            "round {} dom_pruned: {ctx}",
            s.round
        );
        assert_eq!(
            s.facts_added, p.facts_added,
            "round {} facts_added: {ctx}",
            s.round
        );
        assert_eq!(
            s.terms_added, p.terms_added,
            "round {} terms_added: {ctx}",
            s.round
        );
    }
}

#[test]
fn parallel_chase_replays_sequential_run() {
    check("parallel_chase_replays_sequential_run", 40, |rng| {
        let theory = small_theory(rng);
        let db = edge_instance(rng);
        let budget = ChaseBudget {
            max_rounds: 4,
            max_facts: 50_000,
        };
        let seq = chase_with(&theory, &db, budget, &Executor::sequential());
        for threads in [2, 4] {
            let par = chase_with(&theory, &db, budget, &Executor::with_threads(threads));
            assert_eq!(par.stats.threads, threads);
            assert_runs_identical(
                &seq,
                &par,
                &format!("{} threads, theory {}\ndb {}", threads, theory.render(), db),
            );
        }
    });
}

#[test]
fn parallel_chase_all_records_identical_provenance() {
    let duplicate_cases = Cell::new(0);
    check(
        "parallel_chase_all_records_identical_provenance",
        30,
        |rng| {
            let theory = small_theory(rng);
            let db = edge_instance(rng);
            let budget = ChaseBudget {
                max_rounds: 3,
                max_facts: 20_000,
            };
            let seq = chase_all_with(&theory, &db, budget, &Executor::sequential());
            if staged_by_two_rules(&seq) {
                duplicate_cases.set(duplicate_cases.get() + 1);
            }
            for threads in [2, 4] {
                let par = chase_all_with(&theory, &db, budget, &Executor::with_threads(threads));
                let ctx = format!("{} threads, theory {}\ndb {}", threads, theory.render(), db);
                assert_runs_identical(&seq.chase, &par.chase, &ctx);
                assert_eq!(
                    seq.all_derivations, par.all_derivations,
                    "derivation sets differ: {ctx}"
                );
            }
        },
    );
    assert!(
        duplicate_cases.get() > 0,
        "no case staged one fact from two rules in a round"
    );
}

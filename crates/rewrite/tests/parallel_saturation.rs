//! Determinism contract of parallel saturation: for every thread count,
//! `rewrite_with` must return exactly the sequential rewriting — the same
//! disjuncts (same renderings, in the same order), the same generation
//! count, depth, outcome, trace stream and per-window stats counters — on
//! randomized (theory, query) pairs covering both saturating and
//! budget-truncated runs.

use qr_exec::Executor;
use qr_rewrite::{rewrite_with, rewrite_with_trace_on, RewriteBudget, RewriteStats};
use qr_syntax::{parse_query, parse_theory};
use qr_testkit::check;

/// Piece-rewritable theories (no builtin bodies): bounded-derivation-depth
/// shapes, sticky shapes, and divergent Datalog to exercise truncation.
const THEORIES: [&str; 5] = [
    "human(Y) -> mother(Y,Z).\nmother(X,Y) -> human(Y).",
    "e(X,Y) -> e(Y,Z).",
    "e(X,Y,Y1,T), r(X,T1) -> e(X,Y1,Y2,T1).",
    "p(X), e(X,Y) -> p(Y).\nq(X) -> p(X).",
    "e(X,Y), e(Y,Z) -> e(X,Z).",
];

const QUERIES: [&str; 4] = [
    "? :- e(A,B), e(B,C).",
    "?(A) :- e(A,B), e(B,C).",
    "? :- e(A,B).",
    "?(A) :- e(A,B).",
];

/// The deterministic slice of the stats: every per-window counter, walls
/// stripped.
#[allow(clippy::type_complexity)]
fn counter_rows(
    s: &RewriteStats,
) -> Vec<(
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
)> {
    s.windows
        .iter()
        .map(|w| {
            (
                w.window,
                w.items,
                w.merged,
                w.dead_skipped,
                w.generated,
                w.subsumption_hits,
                w.evictions,
                w.oversized,
                w.accepted,
                w.kept,
            )
        })
        .collect()
}

#[test]
fn parallel_saturation_equals_sequential_ucq() {
    check("parallel_saturation_equals_sequential_ucq", 25, |rng| {
        let theory = parse_theory(rng.pick::<&str>(&THEORIES)).unwrap();
        // Queries over predicates the theory may not mention still rewrite
        // (to themselves); arity mismatches are avoided by using binary
        // `e` queries only against binary-`e` theories.
        let query_src = if theory.render().contains("e(X,Y,Y1,T)") {
            "?(A,D) :- e(A,B,C,D)."
        } else {
            rng.pick::<&str>(&QUERIES)
        };
        let query = parse_query(query_src).unwrap();
        // Small budgets keep divergent theories cheap while still hitting
        // the truncation paths.
        let budget = RewriteBudget {
            max_queries: rng.range(4, 32),
            max_generated: rng.range(50, 400),
            max_atoms: rng.range(4, 10),
        };
        let mut seq_trace: Vec<(usize, String)> = Vec::new();
        let seq =
            rewrite_with_trace_on(&theory, &query, budget, &Executor::sequential(), |d, cq| {
                seq_trace.push((d, cq.render()))
            })
            .unwrap();
        let seq_renders: Vec<String> = seq.ucq.disjuncts().iter().map(|d| d.render()).collect();
        let seq_counters = counter_rows(&seq.stats);
        for threads in [2, 4] {
            let exec = Executor::with_threads(threads);
            let mut par_trace: Vec<(usize, String)> = Vec::new();
            let par = rewrite_with_trace_on(&theory, &query, budget, &exec, |d, cq| {
                par_trace.push((d, cq.render()))
            })
            .unwrap();
            let ctx = format!(
                "{threads} threads, theory {}, query {query_src}, budget {budget:?}",
                theory.render()
            );
            assert_eq!(par.outcome, seq.outcome, "outcome: {ctx}");
            assert_eq!(par.generated, seq.generated, "generated: {ctx}");
            assert_eq!(
                par.oversized_discarded, seq.oversized_discarded,
                "oversized: {ctx}"
            );
            assert_eq!(par.depth, seq.depth, "depth: {ctx}");
            let par_renders: Vec<String> = par.ucq.disjuncts().iter().map(|d| d.render()).collect();
            assert_eq!(par_renders, seq_renders, "saturated set: {ctx}");
            assert_eq!(par_trace, seq_trace, "trace stream: {ctx}");
            assert_eq!(counter_rows(&par.stats), seq_counters, "stats: {ctx}");
        }
        // `rewrite_with` (the default pipelined entry point) agrees.
        let plain = rewrite_with(&theory, &query, budget, &Executor::with_threads(3)).unwrap();
        let plain_renders: Vec<String> = plain.ucq.disjuncts().iter().map(|d| d.render()).collect();
        assert_eq!(plain_renders, seq_renders, "rewrite_with @3");
    });
}

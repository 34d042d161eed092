//! Rewriting workloads behind `BENCH_rewrite.json`.
//!
//! Two families, mirroring the chase workloads in `e11_chase_engine`:
//!
//! * **Saturation fixtures** — the (theory, query, budget) triples pinned
//!   by `qr-rewrite`'s engine tests, plus a wider transitive-closure run
//!   whose BFS windows hold dozens of queries. Saturation runs on the
//!   caller thread, so the reported [`qr_rewrite::RewriteStats`] and
//!   [`qr_hom::HomStats`] counters are all deterministic.
//! * **Marked-query runs** — `rewrite_td` on the paper's `φ_R^n` queries,
//!   reporting the frontier counters of the marked process.

use std::rc::Rc;
use std::time::Instant;

use qr_core::marked::rewrite_td;
use qr_core::theories::phi_r_n;
use qr_hom::kernel::{HomKernel, QueryEntry};
use qr_rewrite::{rewrite, RewriteBudget};
use qr_syntax::{parse_query, parse_theory, ConjunctiveQuery};

use crate::report::{MarkedCounters, RewriteRun};

/// The saturation fixtures: label, theory, query, budget. All but
/// `tc-wide` are exactly the engine's pinned-fixture suite; `tc-wide`
/// scales the transitive-closure run up until its windows hold dozens of
/// queries.
pub fn fixtures() -> Vec<(&'static str, &'static str, &'static str, RewriteBudget)> {
    vec![
        (
            "t_a",
            "human(Y) -> mother(Y,Z).\nmother(X,Y) -> human(Y).",
            "?(X) :- mother(X, M).",
            RewriteBudget::default(),
        ),
        (
            "t_p",
            "e(X,Y) -> e(Y,Z).",
            "?(A) :- e(A,B), e(B,C).",
            RewriteBudget::default(),
        ),
        (
            "ex39",
            "e(X,Y,Y1,T), r(X,T1) -> e(X,Y1,Y2,T1).",
            "?(A,D) :- e(A,B,C,D).",
            RewriteBudget::default(),
        ),
        (
            "guarded",
            "p(X), e(X,Y) -> p(Y).\nq(X) -> p(X).",
            "? :- p(A).",
            RewriteBudget::default(),
        ),
        (
            "tc-budget",
            "e(X,Y), e(Y,Z) -> e(X,Z).",
            "? :- e(a, b).",
            RewriteBudget {
                max_queries: 64,
                max_generated: 2_000,
                max_atoms: 12,
            },
        ),
        (
            "tc-wide",
            "e(X,Y), e(Y,Z) -> e(X,Z).",
            "? :- e(a, b).",
            RewriteBudget {
                max_queries: 256,
                max_generated: 8_000,
                max_atoms: 16,
            },
        ),
        // Pins the eviction-to-dead-skip path in the committed baseline:
        // the first rule's accepted candidate is evicted by the second
        // rule's more general one before its requeued item merges, so
        // `dead_skipped` is nonzero here (it is zero on every workload
        // above).
        (
            "evict-requeue",
            "q(X), b(X) -> p(X).\nq(X) -> p(X).",
            "? :- p(a).",
            RewriteBudget::default(),
        ),
    ]
}

/// Runs one saturation fixture and reports its counters and wall time.
fn saturation_run(
    label: &str,
    theory_src: &str,
    query_src: &str,
    budget: RewriteBudget,
) -> RewriteRun {
    let theory = parse_theory(theory_src).expect("fixture theory parses");
    let query = parse_query(query_src).expect("fixture query parses");
    // Two timed runs, keeping the faster wall: single samples on a shared
    // box swing widely (counters are run-invariant, so only the wall needs
    // the second sample; the first run doubles as process warmup).
    let t0 = Instant::now();
    let first = rewrite(&theory, &query, budget).expect("no builtin bodies");
    let first_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let r = rewrite(&theory, &query, budget).expect("no builtin bodies");
    let wall_ms = (t1.elapsed().as_secs_f64() * 1e3).min(first_ms);
    assert_eq!(first.outcome, r.outcome, "{label}: reruns disagree");
    RewriteRun {
        workload: label.to_owned(),
        engine: "saturation",
        wall_ms,
        outcome: format!("{:?}", r.outcome),
        disjuncts: r.ucq.len(),
        rs: r.rs(),
        generated: r.generated,
        oversized_discarded: r.oversized_discarded,
        depth: r.depth,
        stats: Some(r.stats),
        process: None,
        hom: Some(r.hom),
    }
}

/// Runs `rewrite_td` on `φ_R^n` and reports the process counters, plus a
/// sequential pairwise containment sweep over the query and the produced
/// disjuncts on a fresh [`HomKernel`] — the equivalence-assertion pattern
/// of the `T_d` experiments.
fn marked_run(n: usize) -> RewriteRun {
    let query = phi_r_n(n);
    let t0 = Instant::now();
    let mr = rewrite_td(&query, 10_000_000).expect("process terminates");
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let kernel = HomKernel::new();
    let mut all: Vec<&ConjunctiveQuery> = vec![&query];
    all.extend(
        mr.disjuncts
            .iter()
            .filter(|d| d.answer_vars().len() == query.answer_vars().len()),
    );
    for (i, phi) in all.iter().enumerate() {
        for (j, psi) in all.iter().enumerate() {
            if i != j {
                kernel.contains_queries(phi, psi);
            }
        }
    }
    RewriteRun {
        workload: format!("T_d marked phi_R^{n}"),
        engine: "marked",
        wall_ms,
        outcome: "Complete".into(),
        disjuncts: mr.disjuncts.len(),
        rs: mr.max_disjunct_size(),
        generated: 0,
        oversized_discarded: 0,
        depth: 0,
        stats: None,
        process: Some(MarkedCounters {
            steps: mr.stats.steps,
            max_frontier: mr.stats.max_frontier,
            dropped: mr.stats.dropped,
            has_true: mr.has_true_disjunct,
        }),
        hom: Some(kernel.stats()),
    }
}

/// The `hom` microbench: a repeated subsumption sweep over a pinned
/// kept-set on a fresh kernel, so kernel regressions show up apart from
/// the saturation loop. The kept-set mirrors the
/// transitive-closure shape (the ground edge `e(a,b)` plus anchored chains
/// of every length up to 12); the extra probes pin the component plan
/// cache and the core cache.
pub fn hom_microbench() -> RewriteRun {
    const CHAIN_MAX: usize = 12;
    const ROUNDS: usize = 40;
    let kernel = HomKernel::new();
    let mut kept: Vec<ConjunctiveQuery> = vec![parse_query("? :- e(a, b).").unwrap()];
    for k in 2..=CHAIN_MAX {
        let atoms: Vec<String> = (0..k)
            .map(|i| {
                let src = if i == 0 { "a".into() } else { format!("U{i}") };
                let dst = if i + 1 == k {
                    "b".into()
                } else {
                    format!("U{}", i + 1)
                };
                format!("e({src}, {dst})")
            })
            .collect();
        kept.push(parse_query(&format!("? :- {}.", atoms.join(", "))).unwrap());
    }
    let t0 = Instant::now();
    let entries: Vec<Rc<QueryEntry>> = kept.iter().map(|q| kernel.entry(q)).collect();
    let refs: Vec<&Rc<QueryEntry>> = entries.iter().collect();
    let mut subsumed = 0usize;
    for _ in 0..ROUNDS {
        for q in &kept {
            let cand = kernel.entry(q);
            if kernel.subsumed_by_any(&cand, &refs) {
                subsumed += 1;
            }
        }
    }
    // Multi-component probes sharing one component shape: pins the
    // cross-query plan cache.
    let mc1 = parse_query("? :- e(X,Y), e(Y,Z), f(W,W).").unwrap();
    let mc2 = parse_query("? :- e(X,Y), e(Y,Z), g(W,W).").unwrap();
    kernel.contains_queries(&mc1, &mc2);
    kernel.contains_queries(&mc2, &mc1);
    // Repeated core of a redundant query: pins the core cache.
    let redundant = parse_query("?(X) :- e(X,Y), e(X,Z).").unwrap();
    let c1 = kernel.query_core(&redundant);
    let c2 = kernel.query_core(&redundant);
    assert_eq!(c1, c2, "core cache returns the cached core");
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    RewriteRun {
        workload: "hom kernel microbench".into(),
        engine: "hom",
        wall_ms,
        outcome: "Complete".into(),
        disjuncts: kept.len(),
        rs: CHAIN_MAX,
        generated: subsumed,
        oversized_discarded: 0,
        depth: 0,
        stats: None,
        process: None,
        hom: Some(kernel.stats()),
    }
}

/// All rewrite runs for `BENCH_rewrite.json`: every saturation fixture,
/// the marked-query runs for `n = 1..=3`, then the `hom` kernel
/// microbench.
pub fn stats_runs() -> Vec<RewriteRun> {
    let mut out: Vec<RewriteRun> = fixtures()
        .into_iter()
        .map(|(label, t, q, budget)| saturation_run(label, t, q, budget))
        .collect();
    out.extend((1..=3).map(marked_run));
    out.push(hom_microbench());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cheap fixtures only (debug-mode friendly): the run's totals
    /// must reconcile with the returned rewriting.
    #[test]
    fn totals_reconcile_on_cheap_fixtures() {
        for (label, t, q, budget) in fixtures().into_iter().take(4) {
            let r = saturation_run(label, t, q, budget);
            let s = r.stats.unwrap();
            assert_eq!(s.generated(), r.generated, "{label}: totals reconcile");
            assert_eq!(s.oversized(), r.oversized_discarded, "{label}");
        }
    }

    /// The `evict-requeue` fixture exists to keep the eviction-to-dead-skip
    /// propagation observable in the committed baseline: exactly one
    /// requeued item must be found dead at its merge turn.
    #[test]
    fn evict_requeue_fixture_pins_nonzero_dead_skipped() {
        let (label, t, q, budget) = fixtures().pop().unwrap();
        assert_eq!(label, "evict-requeue");
        let s = saturation_run(label, t, q, budget).stats.unwrap();
        assert_eq!(s.dead_skipped(), 1, "{label}: dead skip must fire");
        assert_eq!(s.evictions(), 1, "{label}");
    }

    #[test]
    fn marked_run_reports_process_counters() {
        let r = marked_run(1);
        assert_eq!(r.engine, "marked");
        assert!(r.disjuncts > 0);
        let p = r.process.unwrap();
        assert!(p.steps > 0);
        assert!(p.max_frontier > 0);
        // The pairwise containment sweep is fully sequential and must
        // exercise the kernel's caches and prefilters (acceptance gate for
        // the T_d marked workloads).
        let h = r.hom.unwrap();
        assert!(h.freezes > 0);
        assert!(h.freeze_cache_hits > 0, "entries are re-acquired");
        assert!(
            h.prefilter_rejects > 0,
            "g-only disjuncts cannot absorb the r/g query"
        );
    }

    /// Acceptance gate for `tc-wide` (run here on the structurally
    /// identical `tc-budget` shrink so debug-mode CI stays fast): the
    /// saturation engine's kernel must report cache hits, prefilter
    /// rejects, searches and core folds, identically on a second run.
    #[test]
    fn saturation_runs_report_hom_activity() {
        let (label, t, q, budget) = fixtures().remove(4);
        assert_eq!(label, "tc-budget");
        let h = saturation_run(label, t, q, budget).hom.unwrap();
        assert!(h.freezes > 0);
        assert!(h.freeze_cache_hits > 0, "{label}: cache hits");
        assert!(
            h.prefilter_rejects > 0,
            "{label}: the ground seed rejects chain candidates"
        );
        assert!(h.searches > 0, "{label}: subsumption searches");
        assert!(h.core_rounds > 0, "{label}: accepted candidates are cored");
        let again = saturation_run(label, t, q, budget).hom.unwrap();
        assert_eq!(h, again, "{label}: every kernel counter is deterministic");
    }

    #[test]
    fn hom_microbench_exercises_every_cache() {
        let r = hom_microbench();
        assert_eq!(r.engine, "hom");
        let s = r.hom.unwrap();
        assert!(s.freezes > 0);
        assert!(s.freeze_cache_hits > 0, "sweep re-acquires pinned entries");
        assert!(s.plan_compiles > 0);
        assert!(s.plan_cache_hits > 0, "shared component shape is reused");
        assert!(
            s.prefilter_rejects > 0,
            "the ground edge rejects longer chains by anchored probe"
        );
        assert!(s.components > 0);
        assert!(s.searches > 0);
        assert!(s.core_cache_hits > 0, "repeated core hits the core cache");
        // Deterministic end to end: a second run reports identical counters.
        let r2 = hom_microbench();
        assert_eq!(s, r2.hom.unwrap());
        assert_eq!(r.generated, r2.generated);
    }
}

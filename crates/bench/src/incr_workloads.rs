//! The `chase-incr` workloads: incremental chase maintenance on the
//! E11-scale transitive-closure instances.
//!
//! Each workload starts from a cold chase of one of E11's random graphs,
//! then absorbs a pinned sequence of write batches through
//! [`qr_chase::IncrementalChase`]: eight insert batches that each attach a
//! brand-new pendant node via one existing→fresh edge, followed by one
//! retraction of an earlier insert. The pendant shape pins the
//! seeded-insert fast path by construction: with no edge *leaving* the
//! fresh node, every derivable fact ends in it, so the batch derives only
//! genuinely new facts and no recorded first derivation can change. (An
//! edge *between* existing nodes may instead re-derive an old fact along
//! an earlier path, which correctly falls back to a re-chase.) The final
//! retraction is a re-chase of the shrunken base, which also counts the
//! retracted edge's provenance cone.
//!
//! The measured claim is the tentpole's: amortized per-batch maintenance
//! cost stays below one full re-chase of the final base. Wall times carry
//! the machine-dependent version; `candidates_incr` vs `candidates_cold`
//! (matcher candidates enumerated across the insert batches vs by one cold
//! chase of the final fact set) carries the deterministic, drift-gated
//! version of the same comparison.

use std::time::Instant;

use qr_chase::{chase_with, Chase, ChaseBudget, IncrementalChase, WriteBatch};
use qr_exec::Executor;
use qr_syntax::{parse_theory, Fact, Instance, Pred, Symbol, TermId};

use crate::experiments::e11_chase_engine::random_graph;
use crate::report::IncrRun;

/// Insert batches per workload (the final retraction batch rides on top).
const INSERT_BATCHES: usize = 8;

fn edge(a: &str, b: &str) -> Fact {
    Fact::new(
        Pred::new("e", 2),
        vec![
            TermId::constant(Symbol::intern(a)),
            TermId::constant(Symbol::intern(b)),
        ],
    )
}

fn candidates(ch: &Chase) -> u64 {
    ch.stats.rounds.iter().map(|r| r.candidates).sum()
}

/// The pinned incremental-maintenance runs the harness's `--incr` mode
/// measures and `--json` writes into `BENCH_chase.json` (schema `qr-bench/v6`).
/// Everything but the wall times is deterministic at any thread count: the
/// batch modes, replay/rederive/cone counters and candidate totals are
/// pure functions of (theory, base, batch sequence, budget).
pub fn stats_runs(exec: &Executor) -> Vec<IncrRun> {
    let tc = parse_theory("e(X,Y), e(Y,Z) -> e(X,Z).").expect("parses");
    let budget = ChaseBudget {
        max_rounds: 12,
        max_facts: 2_000_000,
    };
    let mut out = Vec::new();
    for (n, m) in [(24usize, 40usize), (40, 80), (60, 120)] {
        let base = random_graph(n, m, 0xC0FFEE + n as u64);
        let mut inc = IncrementalChase::new(&tc, &base, budget, exec);
        let mut candidates_incr = 0u64;
        let t0 = Instant::now();
        for i in 0..INSERT_BATCHES {
            let batch =
                WriteBatch::insert([edge(&format!("v{}", (i * 5 + 1) % n), &format!("w{i}"))]);
            inc.apply(&tc, &batch, budget, exec);
            candidates_incr += candidates(inc.chase());
        }
        let retract = WriteBatch::retract([edge("v1", "w0")]);
        inc.apply(&tc, &retract, budget, exec);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let batches = INSERT_BATCHES + 1;

        // Baseline: one cold chase of the final base — what every single
        // batch would cost if writes re-chased the world.
        let mut db = Instance::new();
        for i in 0..inc.chase().round_snapshots[0].facts() {
            db.insert(inc.chase().instance.fact(i).to_fact());
        }
        let t1 = Instant::now();
        let cold = chase_with(&tc, &db, budget, exec);
        let rechase_ms = t1.elapsed().as_secs_f64() * 1e3;
        debug_assert_eq!(cold.instance, *inc.instance());

        out.push(IncrRun {
            workload: format!("TC incr on G({n},{m})"),
            threads: exec.threads(),
            batches,
            wall_ms,
            batch_ms: wall_ms / batches as f64,
            rechase_ms,
            facts_out: inc.instance().len(),
            rounds_run: inc.chase().rounds,
            counters: inc.stats(),
            candidates_incr,
            candidates_cold: candidates(&cold),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs() -> Vec<IncrRun> {
        stats_runs(&Executor::sequential())
    }

    #[test]
    fn every_insert_takes_the_seeded_fast_path() {
        for r in runs() {
            let c = r.counters;
            assert_eq!(c.batches as usize, r.batches, "{}", r.workload);
            assert_eq!(
                c.seeded_inserts as usize, INSERT_BATCHES,
                "{}: pendant-node inserts must seed, not re-chase",
                r.workload
            );
            assert_eq!(c.noops, 0, "{}", r.workload);
            assert_eq!(
                c.rechases, 1,
                "{}: the TC retraction re-chases the surviving base",
                r.workload
            );
            assert!(
                c.cone_facts > 0,
                "{}: retracting an absorbed edge invalidates derived paths",
                r.workload
            );
            assert!(c.rederived_facts > 0, "{}", r.workload);
        }
    }

    #[test]
    fn incremental_enumeration_beats_per_batch_rechase() {
        for r in runs() {
            // The deterministic form of the amortized-cost claim: all the
            // insert batches together enumerate fewer candidates than
            // re-chasing the final base once per batch would.
            assert!(
                r.candidates_incr < r.candidates_cold * INSERT_BATCHES as u64,
                "{}: incremental candidates {} vs {} per-batch-rechase",
                r.workload,
                r.candidates_incr,
                r.candidates_cold * INSERT_BATCHES as u64
            );
            assert!(r.candidates_cold > 0, "{}", r.workload);
        }
    }

    #[test]
    fn counters_are_thread_invariant() {
        let seq = runs();
        let par = stats_runs(&Executor::with_threads(4));
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.workload, b.workload);
            assert_eq!(a.counters, b.counters, "{}", a.workload);
            assert_eq!(a.candidates_incr, b.candidates_incr, "{}", a.workload);
            assert_eq!(a.candidates_cold, b.candidates_cold, "{}", a.workload);
            assert_eq!(a.facts_out, b.facts_out, "{}", a.workload);
            assert_eq!(a.rounds_run, b.rounds_run, "{}", a.workload);
        }
    }
}

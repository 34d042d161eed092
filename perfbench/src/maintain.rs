//! `maintain`: a closed loop of write batches through
//! `IncrementalChase::apply` on a transitive-closure chase. Each cycle
//! inserts `K` pendant edges, one batch each (primary op kind), then
//! retracts them in one batch (secondary op kind), which returns the chase
//! to its starting state.

use std::time::Instant;

use qr_chase::{chase_with, BatchMode, ChaseBudget, IncrementalChase, WriteBatch};
use qr_exec::Executor;
use qr_syntax::{parse_theory, Instance};

use crate::gen::{self, CycleStream};
use crate::trace::Tracer;
use crate::{
    median, peak_rss_mb, ratio, record_overhead, traced_op, Args, Outcome, Samples, SetupTimer,
};

/// Worker-pool width of the cold chase and every batch. Batches are small;
/// on a 2-wide pool each one waited for the slower of two shared cores,
/// which made the figures far less steady.
const POOL_WIDTH: usize = 1;
/// Vertices and edges of the base graph: a strongly connected graph of a
/// fixed shape, so the closure has `VERTICES²` facts whatever the seed,
/// and sized so that one cold chase takes tens of milliseconds.
const VERTICES: usize = 48;
const EDGES: usize = 144;
/// Pendant inserts per cycle.
const K: usize = 8;

fn budget() -> ChaseBudget {
    ChaseBudget {
        max_rounds: 12,
        max_facts: 2_000_000,
    }
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let theory = parse_theory(gen::TC_RULES).expect("tc rules parse");
    let base = gen::random_graph(args.seed, VERTICES, EDGES);
    let exec = Executor::with_threads(POOL_WIDTH);

    // Set-up: the cold chase of the base.
    let mut setup = || chase_with(&theory, &base, budget(), &exec);
    let (cold, mut setup_timer) = SetupTimer::start(&mut setup);
    let start_len = cold.instance.len();
    let mut inc = IncrementalChase::from_chase(cold);

    let (mut inserts, mut retracts) = (Samples::default(), Samples::default());
    let (mut replayed, mut cone, mut rederived) = (0u64, 0u64, 0u64);
    let mut cycles = 0usize;
    let start = Instant::now();
    for pendants in CycleStream::new(args.seed, VERTICES, K) {
        if cycles > 0 && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        setup_timer.between_ops(&mut setup);
        let traced = traced_op(args, cycles, 1);
        tracer.set_on(traced);
        let req = cycles as u64;
        for fact in &pendants {
            let batch = WriteBatch::insert([fact.clone()]);
            let s = tracer.begin("chase.incremental.insert", req);
            let t0 = Instant::now();
            let bs = inc.apply(&theory, &batch, budget(), &exec);
            inserts.push(traced, t0.elapsed().as_secs_f64());
            tracer.end(s);
            replayed += bs.replayed_facts;
            if bs.mode == BatchMode::Noop {
                out.failed += 1;
                out.errors.push(format!(
                    "cycle {cycles}: insert of a fresh edge was a no-op"
                ));
            }
        }
        let batch = WriteBatch::retract(pendants);
        let s = tracer.begin("chase.incremental.retract", req);
        let t0 = Instant::now();
        let bs = inc.apply(&theory, &batch, budget(), &exec);
        retracts.push(traced, t0.elapsed().as_secs_f64());
        tracer.end(s);
        cone += bs.cone_facts;
        rederived += bs.rederived_facts;
        cycles += 1;

        // Output checks, outside the timed calls: the retraction
        // invalidates derived facts, and the cycle ends where it started.
        let back = inc.instance().len() == start_len;
        if bs.cone_facts == 0 || !back {
            out.failed += 1;
            out.errors.push(format!(
                "cycle {cycles}: cone {} facts, {} facts after the cycle (started at {start_len})",
                bs.cone_facts,
                inc.instance().len()
            ));
        }
    }
    let wall = start.elapsed().as_secs_f64() - setup_timer.paused();
    tracer.set_on(false);
    let setup_s = setup_timer.finish(&mut setup);
    let rss = peak_rss_mb();
    let batches = cycles * (K + 1);
    out.attempted = batches as u64;

    // The maintained chase must equal a cold chase of the final base.
    let ch = inc.chase();
    let mut final_base = Instance::new();
    for f in ch.instance.iter().take(ch.round_snapshots[0].facts()) {
        final_base.insert(f.to_fact());
    }
    let fresh = chase_with(&theory, &final_base, budget(), &exec);
    let same = fresh.instance.len() == ch.instance.len()
        && fresh
            .instance
            .iter()
            .zip(ch.instance.iter())
            .all(|(a, b)| a == b)
        && fresh.round_of == ch.round_of
        && fresh.rounds == ch.rounds;
    out.check(same, || {
        "maintained chase differs from a cold chase of its base".into()
    });
    out.check(final_base == base, || {
        "the final base is not the generated base".into()
    });

    out.metrics.insert("setup_s", setup_s);
    out.metrics.insert("peak_rss_mb", rss);
    out.metrics.insert("ops_per_s", batches as f64 / wall);
    out.metrics
        .insert("primary_p50_ms", median(&inserts.all()) * 1e3);
    out.metrics
        .insert("secondary_p50_ms", median(&retracts.all()) * 1e3);
    eprintln!(
        "maintain: base {} edges, chase {start_len} facts; {cycles} cycles ({batches} batches) in {wall:.2} s; insert p50 {:.4} ms, retract p50 {:.4} ms",
        base.len(),
        median(&inserts.all()) * 1e3,
        median(&retracts.all()) * 1e3
    );

    if args.trace {
        let st = inc.stats();
        let per_cycle = |n: u64| ratio(n as f64, cycles as f64);
        let l = &mut out.layers;
        // The set-up is the cold chase, timed around `chase_with`.
        l.insert("chase.cold_s", setup_s);
        l.insert("chase.incremental.rechases", per_cycle(st.rechases));
        l.insert(
            "chase.incremental.seeded_inserts",
            per_cycle(st.seeded_inserts),
        );
        l.insert(
            "chase.incremental.truncated_retracts",
            per_cycle(st.truncated_retracts),
        );
        l.insert("chase.incremental.cone_facts", per_cycle(cone));
        l.insert("chase.incremental.rederived_facts", per_cycle(rederived));
        l.insert(
            "chase.incremental.rederived_per_cone",
            ratio(rederived as f64, cone as f64),
        );
        l.insert(
            "chase.incremental.replayed_facts",
            ratio(replayed as f64, (cycles * K) as f64),
        );
        record_overhead(&mut out, &inserts, &retracts);
    }
    out
}

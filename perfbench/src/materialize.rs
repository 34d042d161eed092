//! `materialize`: batch materialisation of one seeded bulk instance,
//! alternating `chase_with` (primary op kind, the monolithic control) and
//! `chase_sharded` (secondary op kind) on the same 2-worker pool.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use qr_bench::bulk_workloads::{
    bulk_shallow_instance, bulk_shallow_theory, bulk_tc_instance, bulk_tc_theory,
};
use qr_chase::{chase_sharded, chase_with, Chase, ChaseBudget, ChaseStats, ShardMode};
use qr_exec::Executor;
use qr_syntax::{Instance, Theory};

use crate::trace::Tracer;
use crate::{
    median, peak_rss_mb, ratio, record_overhead, traced_op, Args, Outcome, Samples, SetupTimer,
};

/// Worker-pool width of both entry points.
const POOL_WIDTH: usize = 2;
/// `bulk-tc` path components and `bulk-shallow` individuals, scaled so one
/// monolithic op takes about a second. Each `bulk-tc` component is a
/// 22-node path with one seeded chord, as in the repository's zoo.
const TC_COMPONENTS: usize = 200;
const TC_NODES: usize = 22;
const TC_CHORDS: usize = 1;
const SHALLOW_INDIVIDUALS: usize = 16_000;

fn budget() -> ChaseBudget {
    ChaseBudget {
        max_rounds: 24,
        max_facts: 4_000_000,
    }
}

/// The `bulk-tc` ∪ `bulk-shallow` input under the union of their
/// theories. Every rule keeps its head terms inside one body atom's terms
/// or fresh nulls, so the union is term-safe and Gaifman sharding engages.
/// The seed places the `bulk-tc` chords.
pub fn bulk_input(seed: u64) -> (Theory, Instance) {
    let rules = bulk_tc_theory()
        .rules()
        .iter()
        .chain(bulk_shallow_theory().rules())
        .cloned()
        .collect();
    let mut db = bulk_tc_instance(TC_COMPONENTS, TC_NODES, TC_CHORDS, seed);
    db.union_in_place(&bulk_shallow_instance(SHALLOW_INDIVIDUALS));
    (Theory::new("bulk-tc+bulk-shallow", rules), db)
}

/// Fingerprint of a chase's observable output: the fact stream in order,
/// each fact's round, and the round count.
fn fingerprint(ch: &Chase) -> u64 {
    let mut h = DefaultHasher::new();
    ch.instance.len().hash(&mut h);
    for f in ch.instance.iter() {
        f.pred.hash(&mut h);
        f.args.hash(&mut h);
    }
    ch.round_of.hash(&mut h);
    ch.rounds.hash(&mut h);
    h.finish()
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();

    let mut setup = || bulk_input(args.seed);
    let ((theory, db), mut setup_timer) = SetupTimer::start(&mut setup);
    let exec = Executor::with_threads(POOL_WIDTH);

    let (mut mono, mut sharded) = (Samples::default(), Samples::default());
    let mut reference: Option<u64> = None;
    let (mut partition, mut shard, mut merge) = (vec![], vec![], vec![]);
    let (mut enum_s, mut round_merge) = (vec![], vec![]);
    // The last monolithic op's stats, rounds, facts and stored bytes.
    let mut last_mono: Option<(ChaseStats, usize, usize, usize)> = None;
    let mut last_shards = (0usize, 0usize);
    // One untimed op of each kind first: the allocator and page tables
    // reach their steady state before anything is measured.
    drop(chase_with(&theory, &db, budget(), &exec));
    drop(chase_sharded(&theory, &db, budget(), &exec));

    let start = Instant::now();
    let mut ops = 0usize;
    // Closed loop; always at least one op of each kind.
    while ops < 2 || start.elapsed().as_secs_f64() < args.seconds {
        setup_timer.between_ops(&mut setup);
        let traced = traced_op(args, ops, 2);
        tracer.set_on(traced);
        let is_mono = ops.is_multiple_of(2);
        let (ch, stats) = if is_mono {
            let s = tracer.begin("chase.mono", ops as u64);
            let t0 = Instant::now();
            let ch = chase_with(&theory, &db, budget(), &exec);
            mono.push(traced, t0.elapsed().as_secs_f64());
            tracer.end(s);
            (ch, None)
        } else {
            let s = tracer.begin("chase.sharded", ops as u64);
            let t0 = Instant::now();
            let (ch, stats) = chase_sharded(&theory, &db, budget(), &exec);
            sharded.push(traced, t0.elapsed().as_secs_f64());
            tracer.end(s);
            (ch, Some(stats))
        };
        ops += 1;

        // Output checks, outside the timed call.
        let fp = fingerprint(&ch);
        let same = *reference.get_or_insert(fp) == fp;
        let mut ok = same && ch.terminated();
        if let Some(st) = &stats {
            let gaifman = st.mode == ShardMode::Gaifman && st.shards >= 2;
            out.check(gaifman, || {
                format!(
                    "sharded op ran as {} with {} shards",
                    st.mode.as_str(),
                    st.shards
                )
            });
            ok &= gaifman;
            if traced {
                partition.push(st.partition_wall.as_secs_f64());
                shard.push(st.shard_wall.as_secs_f64());
                merge.push(st.merge_wall.as_secs_f64());
            }
            last_shards = (st.shards, st.components);
        } else {
            let s = &ch.stats;
            if traced {
                enum_s.push(s.enum_wall().as_secs_f64());
                round_merge.push(s.merge_wall().as_secs_f64());
            }
            last_mono = Some((
                s.clone(),
                ch.rounds,
                ch.instance.len(),
                ch.instance.stats().bytes_total(),
            ));
        }
        out.check(same, || {
            format!("op {ops}: fact stream or round_of differs from the first monolithic chase")
        });
        out.check(ch.terminated(), || {
            format!("op {ops}: chase hit its budget")
        });
        if !ok {
            out.failed += 1;
        }
        drop(ch);
    }
    let wall = start.elapsed().as_secs_f64() - setup_timer.paused();
    tracer.set_on(false);
    out.attempted = ops as u64;
    let setup_s = setup_timer.finish(&mut setup);

    out.metrics.insert("setup_s", setup_s);
    out.metrics.insert("peak_rss_mb", peak_rss_mb());
    out.metrics.insert("ops_per_s", ops as f64 / wall);
    out.metrics
        .insert("primary_p50_ms", median(&mono.all()) * 1e3);
    out.metrics
        .insert("secondary_p50_ms", median(&sharded.all()) * 1e3);
    eprintln!(
        "materialize: {} base facts; {ops} ops in {wall:.2} s; mono {:?} s; sharded {:?} s",
        db.len(),
        mono.all(),
        sharded.all()
    );

    if args.trace {
        let (stats, rounds, facts, bytes) = last_mono.expect("the first op is monolithic");
        let triggers = stats.triggers();
        let l = &mut out.layers;
        l.insert("chase.sharded.partition_s", median(&partition));
        l.insert("chase.sharded.shard_s", median(&shard));
        l.insert("chase.sharded.merge_s", median(&merge));
        l.insert("chase.sharded.shards", last_shards.0 as f64);
        l.insert("chase.sharded.components", last_shards.1 as f64);
        l.insert(
            "chase.sharded_over_mono",
            ratio(median(&sharded.all()), median(&mono.all())),
        );
        l.insert("chase.enum_s", median(&enum_s));
        l.insert("chase.round_merge_s", median(&round_merge));
        l.insert("chase.triggers", triggers as f64);
        l.insert("chase.candidates", stats.candidates() as f64);
        l.insert("chase.rounds", rounds as f64);
        l.insert(
            "chase.fire_ratio",
            ratio(stats.facts_added() as f64, triggers as f64),
        );
        l.insert("storage.facts", facts as f64);
        l.insert("storage.bytes_total", bytes as f64);
        record_overhead(&mut out, &mono, &sharded);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulk_input_is_deterministic_per_seed_and_differs_across_seeds() {
        assert_eq!(bulk_input(7), bulk_input(7));
        assert_ne!(bulk_input(1).1, bulk_input(2).1);
    }
}

//! The `bulk-*` workloads: bulk-instance chases behind the harness's
//! `--shard` mode and `BENCH_chase.json`'s `shard_runs` array (schema
//! `qr-bench/v6`).
//!
//! Each workload is a deterministic seeded generator producing a bulk
//! instance of many disconnected Gaifman components, chased twice through
//! [`qr_chase::chase_sharded`]: once on a 1-thread pool (which
//! bypasses to the monolithic engine — the `"chase"` rows) and once on a
//! 4-thread pool (the `"sharded"` rows). The pool widths are pinned
//! inside this module, not taken from the harness's `--threads`, because
//! the pair *is* the measurement: same instance, same counters
//! (byte-identity is the sharded engine's contract), different wall
//! clock. Two pinned classes:
//!
//! * `bulk-tc` — thousands of disconnected transitive-closure graphs
//!   (~1M facts after the chase). The monolithic engine drags a
//!   million-entry fact index through every probe; the sharded engine
//!   chases each cache-resident component alone and splices the results.
//! * `bulk-shallow` — an OWL 2 QL-style shallow chase (class chain,
//!   role existential, range) over ~10^5 single-individual components.
//!
//! Everything but the `*_ms` fields is deterministic and drift-gated by
//! `bench_diff`: the chase counters because sharding is byte-identical,
//! the partition counters because component analysis and packing are
//! deterministic functions of the instance.

use std::time::Instant;

use qr_chase::{chase_sharded, Chase, ChaseBudget};
use qr_exec::Executor;
use qr_syntax::{parse_theory, Fact, Instance, Pred, Symbol, TermId, Theory};

use crate::report::ShardRun;

/// `bulk-tc` scale: components × path nodes ≈ 4000 × 22 → ~1M facts
/// after closure — insert-dominated, where the monolithic run pays for
/// growing (and re-hashing) a million-entry fact index while every
/// shard's index stays small.
const TC_COMPONENTS: usize = 4000;
const TC_NODES: usize = 22;
const TC_CHORDS: usize = 1;

/// `bulk-shallow` scale: individuals, each its own Gaifman component.
const SHALLOW_INDIVIDUALS: usize = 120_000;

fn bulk_budget() -> ChaseBudget {
    ChaseBudget {
        max_rounds: 24,
        max_facts: 4_000_000,
    }
}

fn edge(pred: Pred, a: String, b: String) -> Fact {
    Fact::new(
        pred,
        vec![
            TermId::constant(Symbol::intern(&a)),
            TermId::constant(Symbol::intern(&b)),
        ],
    )
}

/// `components` disconnected graphs, each a path of `nodes` constants
/// plus `chords` seeded random chord edges. Constants are namespaced per
/// component (`g{c}n{i}`), so no edge ever crosses graphs.
pub fn bulk_tc_instance(components: usize, nodes: usize, chords: usize, seed: u64) -> Instance {
    let mut state = seed;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let e = Pred::new("e", 2);
    let mut inst = Instance::new();
    for c in 0..components {
        for i in 0..nodes - 1 {
            inst.insert(edge(e, format!("g{c}n{i}"), format!("g{c}n{}", i + 1)));
        }
        for _ in 0..chords {
            let a = next() % nodes;
            let b = next() % nodes;
            if a != b {
                inst.insert(edge(e, format!("g{c}n{a}"), format!("g{c}n{b}")));
            }
        }
    }
    inst
}

/// The `bulk-tc` theory: plain transitive closure.
pub fn bulk_tc_theory() -> Theory {
    parse_theory("e(X,Y), e(Y,Z) -> e(X,Z).").expect("parses")
}

/// `individuals` single-individual components: every third individual
/// also gets a base `r`-edge to a sibling constant (still inside its own
/// component).
pub fn bulk_shallow_instance(individuals: usize) -> Instance {
    let a = Pred::new("a", 1);
    let r = Pred::new("r", 2);
    let mut inst = Instance::new();
    for i in 0..individuals {
        inst.insert(Fact::new(
            a,
            vec![TermId::constant(Symbol::intern(&format!("p{i}")))],
        ));
        if i % 3 == 0 {
            inst.insert(edge(r, format!("p{i}"), format!("q{i}")));
        }
    }
    inst
}

/// The `bulk-shallow` theory: an OWL 2 QL-flavoured fragment — a class
/// chain (`a ⊑ b ⊑ c`), a role existential (`a ⊑ ∃r`) and a range axiom
/// (`∃r⁻ ⊑ s`). The chase is shallow (depth ≤ 3) and terminating.
pub fn bulk_shallow_theory() -> Theory {
    parse_theory("a(X) -> b(X). b(X) -> c(X). a(X) -> r(X,Y). r(X,Y) -> s(Y). s(X) -> c(X).")
        .expect("parses")
}

fn run_one(label: &str, theory: &Theory, db: &Instance, threads: usize) -> (Chase, ShardRun) {
    let exec = Executor::with_threads(threads);
    let t0 = Instant::now();
    let (ch, stats) = chase_sharded(theory, db, bulk_budget(), &exec);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let engine = if threads <= 1 { "chase" } else { "sharded" };
    let dur_ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let run = ShardRun {
        workload: format!("{label}/{engine}"),
        engine,
        threads,
        mode: stats.mode.as_str().to_owned(),
        components: stats.components,
        shards: stats.shards,
        wall_ms,
        partition_ms: dur_ms(stats.partition_wall),
        shard_ms: dur_ms(stats.shard_wall),
        merge_ms: dur_ms(stats.merge_wall),
        facts_out: ch.instance.len(),
        rounds_run: ch.rounds,
        triggers: ch.stats.triggers(),
        candidates: ch.stats.candidates(),
    };
    (ch, run)
}

/// The pinned bulk runs the harness's `--shard` mode measures: each
/// workload on a 1-thread pool (monolithic bypass) and a 4-thread pool
/// (sharded). The pool widths are deliberately NOT the harness's
/// `--threads` — the 1-vs-4 pair is the speedup measurement itself.
/// `filters` selects workloads by id (`"bulk-tc"`, ...); empty runs all.
pub fn stats_runs(filters: &[String]) -> Vec<ShardRun> {
    let mut out = Vec::new();
    type Gen = fn() -> (Theory, Instance);
    let workloads: [(&str, Gen); 2] = [
        ("bulk-tc", || {
            (
                bulk_tc_theory(),
                bulk_tc_instance(TC_COMPONENTS, TC_NODES, TC_CHORDS, 0xB07C),
            )
        }),
        ("bulk-shallow", || {
            (
                bulk_shallow_theory(),
                bulk_shallow_instance(SHALLOW_INDIVIDUALS),
            )
        }),
    ];
    for (label, gen) in workloads {
        if !filters.is_empty() && !filters.iter().any(|f| f == label) {
            continue;
        }
        let (theory, db) = gen();
        let (theory, db) = (&theory, &db);
        let (mono, mono_run) = run_one(label, theory, db, 1);
        let (shard, shard_run) = run_one(label, theory, db, 4);
        // The sharded engine's contract, asserted before anything is
        // written: byte-identical merges.
        assert_eq!(
            shard
                .instance
                .iter()
                .map(|f| f.to_fact())
                .collect::<Vec<_>>(),
            mono.instance
                .iter()
                .map(|f| f.to_fact())
                .collect::<Vec<_>>(),
            "{label}: sharded fact stream"
        );
        assert_eq!(shard.round_of, mono.round_of, "{label}: rounds");
        assert_eq!(shard_run.triggers, mono_run.triggers, "{label}: triggers");
        out.push(mono_run);
        out.push(shard_run);
    }
    out
}

/// The workload ids `--shard` accepts (and `--list` prints).
pub fn workload_labels() -> Vec<&'static str> {
    vec!["bulk-tc", "bulk-shallow"]
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_chase::chase_with;

    // The pinned scales chase ~10^6 facts — release-harness territory.
    // The tests pin the same properties at toy scale instead.

    #[test]
    fn generators_are_deterministic() {
        let a = bulk_tc_instance(8, 6, 14, 42);
        let b = bulk_tc_instance(8, 6, 14, 42);
        assert_eq!(a, b);
        assert_ne!(a, bulk_tc_instance(8, 6, 14, 43));
        assert_eq!(bulk_shallow_instance(30), bulk_shallow_instance(30));
        // Namespaced constants: one Gaifman component per graph.
        assert_eq!(qr_syntax::gaifman::components_of(&a).len(), 8);
    }

    #[test]
    fn small_bulk_tc_shards_byte_identically() {
        let t = bulk_tc_theory();
        let db = bulk_tc_instance(12, 7, 18, 7);
        let (ch, run) = run_one("bulk-tc", &t, &db, 4);
        assert_eq!(run.engine, "sharded");
        assert_eq!(run.mode, "gaifman");
        assert_eq!(run.components, 12);
        assert!(run.shards >= 2);
        let reference = chase_with(&t, &db, bulk_budget(), &Executor::sequential());
        assert_eq!(ch.instance, reference.instance);
        assert_eq!(ch.round_of, reference.round_of);
        assert_eq!(ch.derivations, reference.derivations);
        assert_eq!(run.triggers, reference.stats.triggers());
        assert_eq!(run.candidates, reference.stats.candidates());
    }

    #[test]
    fn small_bulk_shallow_shards_byte_identically() {
        let t = bulk_shallow_theory();
        let db = bulk_shallow_instance(40);
        let (ch, run) = run_one("bulk-shallow", &t, &db, 4);
        assert_eq!(run.mode, "gaifman");
        let reference = chase_with(&t, &db, bulk_budget(), &Executor::sequential());
        assert_eq!(ch.instance, reference.instance);
        assert_eq!(ch.round_of, reference.round_of);
        assert_eq!(run.triggers, reference.stats.triggers());
    }

    #[test]
    fn monolithic_rows_bypass() {
        let t = bulk_tc_theory();
        let db = bulk_tc_instance(6, 5, 12, 1);
        let (_, run) = run_one("bulk-tc", &t, &db, 1);
        assert_eq!(run.engine, "chase");
        assert_eq!(run.workload, "bulk-tc/chase");
        assert_eq!(run.mode, "bypass");
        assert_eq!(run.shards, 0);
    }
}

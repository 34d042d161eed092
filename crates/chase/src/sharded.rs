//! Sharded chase: partition the base instance, chase each shard
//! independently, merge into one [`Chase`] byte-identical to the
//! unsharded run (~S24).
//!
//! The monolithic engine already parallelizes *within* a round
//! ([`chase_with`] schedules per-round tasks on the executor), but every
//! task still probes one global fact store whose postings interleave all
//! components. For bulk instances — thousands of disconnected Gaifman
//! components, millions of facts (the shallow-chase ontology shapes of
//! Kikot et al., the frontier-guarded theories of Barceló et al.) — the
//! chase is embarrassingly parallel *across* components, and each
//! per-component store is small enough to stay cache-resident. This
//! module exploits that:
//!
//! 1. **Partition.** Compute the connected components of the base
//!    instance's Gaifman graph ([`gaifman::components_of`], straight off
//!    the columnar postings) and bin-pack them deterministically into at
//!    most `exec.threads() × SHARDS_PER_THREAD` shards (largest first,
//!    least-loaded bin, all ties by index).
//! 2. **Chase.** Run the existing sequential engine on each shard,
//!    scheduling whole shards on the executor's workers
//!    ([`qr_exec::Executor::map_weighted`], largest shard first).
//! 3. **Merge.** Splice the shard runs back into a single [`Chase`] —
//!    facts, round snapshots, provenance, per-round counters — that is
//!    **byte-identical** to `chase_with(theory, db, budget, exec)` on the
//!    whole instance. No re-chasing, no re-matching: the merge is a
//!    deterministic re-sort of the shards' per-round deltas into the
//!    global engine's emission order, with fact indices renumbered
//!    through per-shard monotone `local → global` maps.
//!
//! Byte-identity holds because the engine visits round work in a fixed
//! order (rules in theory order; per rule, regular body atoms in body
//! order; per atom, the delta posting list in fact-index order) and
//! merges task outputs in submission order. Under the safety predicate
//! below, every complete body match lives inside one shard, so the
//! global round-`r` fresh sequence is exactly the shard round-`r` fresh
//! sequences stably sorted by `(rule, canonical path atom, global index
//! of the forced delta fact)` — the same key the sequential engine
//! enumerates by. Engine counters (`triggers`, `candidates`, …) are
//! posting-local under the same predicate and therefore sum exactly.
//!
//! **Term-local theories** (mode [`ShardMode::Gaifman`]): every rule has
//! a nonempty, variable-connected body, no `dom` atoms, and every body
//! and head atom has at least one argument, all variables — plus the
//! base domain is all constants. Then every match stays inside one
//! component, every derived fact embeds a frontier term of its
//! component (directly or inside a Skolem term), and components never
//! collide.
//!
//! **Every other theory** (a `dom` atom ranges over the whole active
//! domain; an empty body fires everywhere; a head constant or a
//! disconnected body joins components) cannot be chased
//! component-locally, and runs on the monolithic engine unchanged
//! ([`ShardMode::Fallback`]). So every mode is byte-identical to
//! [`chase_with`].

use std::collections::HashSet;
use std::time::{Duration, Instant};

use qr_exec::Executor;
use qr_syntax::gaifman;
use qr_syntax::query::{QAtom, QTerm, Var};
use qr_syntax::{tuple_hash, FactIdx, FxMap, Instance, TermId, Theory};

use crate::engine::{chase_with, Chase, ChaseBudget, ChaseLog};
use crate::stats::RoundStats;

/// Bin-packing target: at most `exec.threads() × SHARDS_PER_THREAD`
/// shards. More shards than threads keeps workers busy when component
/// sizes are skewed.
const SHARDS_PER_THREAD: usize = 4;

/// How the sharded entry point actually ran.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShardMode {
    /// Sharding would not help (one thread, one component, empty base):
    /// the run was handed to the monolithic engine unchanged.
    #[default]
    Bypass,
    /// Term-local theory, partitioned by Gaifman component.
    Gaifman,
    /// Theory not term-local (or a base with nulls): ran the monolithic
    /// engine.
    Fallback,
}

impl ShardMode {
    /// Stable lowercase name (serialized into `BENCH_chase.json`).
    pub fn as_str(self) -> &'static str {
        match self {
            ShardMode::Bypass => "bypass",
            ShardMode::Gaifman => "gaifman",
            ShardMode::Fallback => "fallback",
        }
    }
}

/// Observability for one sharded run, alongside the merged [`Chase`].
#[derive(Clone, Debug, Default)]
pub struct ShardStats {
    /// How the run was actually executed.
    pub mode: ShardMode,
    /// Gaifman components found (the nullary-fact pen excluded). 0 when
    /// partitioning was skipped.
    pub components: usize,
    /// Shards actually chased (0 on bypass/fallback).
    pub shards: usize,
    /// Wall time partitioning the base (component analysis + packing +
    /// splitting).
    pub partition_wall: Duration,
    /// Wall time chasing the shards (the parallel region).
    pub shard_wall: Duration,
    /// Wall time merging shard results.
    pub merge_wall: Duration,
}

/// Sharded chase: Gaifman-partitioned when the theory is term-local on a
/// constants-only base, the monolithic engine otherwise. The returned
/// [`Chase`] is byte-identical — fact stream, domain order, round
/// snapshots, provenance, drift-gated counters — to
/// `chase_with(theory, db, budget, exec)` in every mode.
pub fn chase_sharded(
    theory: &Theory,
    db: &Instance,
    budget: ChaseBudget,
    exec: &Executor,
) -> (Chase, ShardStats) {
    let t0 = Instant::now();
    let mut stats = ShardStats::default();
    if exec.threads() <= 1 || db.is_empty() {
        stats.partition_wall = t0.elapsed();
        return (chase_with(theory, db, budget, exec), stats);
    }
    if !term_safe(theory) || !db.domain().iter().all(|t| t.is_const()) {
        stats.mode = ShardMode::Fallback;
        stats.partition_wall = t0.elapsed();
        return (chase_with(theory, db, budget, exec), stats);
    }

    let (unit_of_fact, units) = gaifman_units(db);
    stats.components = units - 1; // minus the nullary pen
    let mut size = vec![0usize; units];
    for &u in &unit_of_fact {
        size[u] += 1;
    }
    if size.iter().filter(|&&s| s > 0).count() <= 1 {
        // Single-component base: sharding buys nothing.
        stats.partition_wall = t0.elapsed();
        return (chase_with(theory, db, budget, exec), stats);
    }
    let bins_max = exec.threads().saturating_mul(SHARDS_PER_THREAD);
    let (bin_of_unit, bins) = pack(&size, bins_max);
    stats.mode = ShardMode::Gaifman;
    stats.shards = bins;
    let shard_of: Vec<usize> = unit_of_fact.iter().map(|&u| bin_of_unit[u]).collect();
    let parts = db.split_by(&shard_of, bins);
    let mut loc2glob: Vec<Vec<FactIdx>> = vec![Vec::new(); bins];
    for (i, &s) in shard_of.iter().enumerate() {
        loc2glob[s].push(i);
    }
    stats.partition_wall = t0.elapsed();

    let t1 = Instant::now();
    let shard_chases: Vec<Chase> = exec.map_weighted(
        &parts,
        |p| p.len() as u64,
        |p| chase_with(theory, p, budget, &Executor::sequential()),
    );
    stats.shard_wall = t1.elapsed();

    let t2 = Instant::now();
    let merged = merge_shards(db, budget, exec.threads(), &shard_chases, &mut loc2glob);
    stats.merge_wall = t2.elapsed();
    (merged, stats)
}

/// `true` iff every rule confines its matches and its derived facts to
/// one Gaifman component of a constants-only base: nonempty
/// variable-connected body, no `dom` atoms anywhere, every body and head
/// atom of arity ≥ 1 with all-variable arguments, and a nonempty
/// frontier (some variable shared body ↔ head). See the module docs for
/// why each clause is load-bearing.
fn term_safe(theory: &Theory) -> bool {
    fn atom_ok(a: &QAtom) -> bool {
        !a.pred.is_dom() && !a.args.is_empty() && a.args.iter().all(|t| matches!(t, QTerm::Var(_)))
    }
    theory.rules().iter().all(|r| {
        let body = r.body();
        if body.is_empty() || !body.iter().all(atom_ok) || !r.head().iter().all(atom_ok) {
            return false;
        }
        if !gaifman::atoms_connected(body) {
            return false;
        }
        let body_vars: HashSet<Var> = body.iter().flat_map(|a| a.vars()).collect();
        r.head()
            .iter()
            .flat_map(|a| a.vars())
            .any(|v| body_vars.contains(&v))
    })
}

/// Partition units for term-local theories: one unit per Gaifman
/// component (numbered in first-occurrence domain order), plus a final
/// pen for nullary facts (inert under term-local rules — no atom of
/// arity 0 can appear in a body or head). Returns `(unit per fact,
/// number of units)`.
fn gaifman_units(db: &Instance) -> (Vec<usize>, usize) {
    let comps = gaifman::components_of(db);
    let mut unit_of_term: FxMap<TermId, usize> =
        FxMap::with_capacity_and_hasher(db.domain().len(), Default::default());
    for (c, comp) in comps.iter().enumerate() {
        for &t in comp {
            unit_of_term.insert(t, c);
        }
    }
    let nullary = comps.len();
    let unit_of_fact: Vec<usize> = (0..db.len())
        .map(|i| db.fact(i).args.first().map_or(nullary, |t| unit_of_term[t]))
        .collect();
    (unit_of_fact, nullary + 1)
}

/// Deterministic bin-packing of partition units into at most `bins_max`
/// shards: units sorted by (size desc, unit id asc), each assigned to
/// the least-loaded bin (ties to the lowest bin index). Zero-size units
/// place no facts and are ignored. Returns `(bin per unit, bin count)`.
fn pack(size: &[usize], bins_max: usize) -> (Vec<usize>, usize) {
    let mut order: Vec<usize> = (0..size.len()).filter(|&u| size[u] > 0).collect();
    let bins = bins_max.min(order.len()).max(1);
    order.sort_by_key(|&u| (std::cmp::Reverse(size[u]), u));
    let mut load = vec![0usize; bins];
    let mut bin_of = vec![0usize; size.len()];
    for u in order {
        let b = (0..bins)
            .min_by_key(|&b| (load[b], b))
            .expect("at least one bin");
        bin_of[u] = b;
        load[b] += size[u];
    }
    (bin_of, bins)
}

/// Splices shard chases into the [`Chase`] the monolithic engine would
/// have produced on the whole base.
///
/// Per round `r`, the global engine's fresh sequence is the shards'
/// round-`r` fresh sequences stably sorted by the enumeration key
/// `(rule, canonical path atom k*, global index of the forced delta
/// fact)`, where `k*` is the first regular trigger slot holding a
/// previous-delta fact — exactly the engine's canonical-path rule. The
/// per-shard `local → global` index maps are monotone (built from the
/// order-preserving [`Instance::split_by`] and extended here in merge
/// order), so intra-shard relative order — which the key does not
/// discriminate — is already global order, and a stable sort suffices.
/// Counters sum; fact/term growth and the round/outcome bookkeeping are
/// re-measured on the merged instance by the same [`ChaseLog`] the engine
/// writes through (fixpoint probe row, budget break after the round's
/// snapshot).
fn merge_shards(
    db: &Instance,
    budget: ChaseBudget,
    threads: usize,
    shard_chases: &[Chase],
    loc2glob: &mut [Vec<FactIdx>],
) -> Chase {
    let mut log = ChaseLog::new(db.clone(), threads);
    let mut trigger: Vec<FactIdx> = Vec::new();

    for round in 1..=budget.max_rounds {
        // Shard events of this round, keyed for the global emission order.
        let mut events: Vec<((usize, usize, FactIdx), usize, FactIdx)> = Vec::new();
        for (s, ch) in shard_chases.iter().enumerate() {
            if let Some(range) = ch.delta_range(round) {
                for i in range {
                    let d = ch
                        .derivations
                        .get(i)
                        .expect("derived facts carry provenance");
                    let kstar = d
                        .trigger
                        .iter()
                        .position(|&fi| ch.round_of[fi] + 1 == round)
                        .expect("semi-naive triggers use a previous-delta fact");
                    events.push(((d.rule, kstar, loc2glob[s][d.trigger[kstar]]), s, i));
                }
            }
        }
        // Engine counters sum across shards: every trigger, candidate
        // scan and staging decision of the global round happened in
        // exactly one shard (matches and probes are shard-local under
        // the safety predicates). A shard has a row for round `r` iff
        // its own run executed round `r`; absent rows contribute 0,
        // mirroring the empty deltas those shards would have globally.
        let mut row = RoundStats {
            round,
            ..RoundStats::default()
        };
        for ch in shard_chases {
            if let Some(r) = ch.stats.rounds.get(round - 1) {
                debug_assert_eq!(r.round, round);
                row.triggers += r.triggers;
                row.candidates += r.candidates;
                row.dom_sweeps += r.dom_sweeps;
                row.dom_pruned += r.dom_pruned;
                row.enum_wall += r.enum_wall;
                row.merge_wall += r.merge_wall;
            }
        }
        row.wall = row.enum_wall + row.merge_wall;

        // Stable sort: intra-shard order survives. With no events, every
        // still-active shard ran its fixpoint probe this round and the
        // summed row is the global probe row.
        events.sort_by_key(|&(key, _, _)| key);
        // A shard event's facts stay adjacent under the stable sort (they
        // share its key, and no other shard's event has that key), so one
        // global row opens per shard row.
        let mut open: Option<(usize, usize)> = None;
        for &(_, s, i) in &events {
            let ch = &shard_chases[s];
            let row = ch.derivations.event_index(i).expect("checked above");
            if open != Some((s, row)) {
                let d = ch.derivations.get(i).expect("checked above");
                // Triggers point at earlier rounds, already mapped.
                trigger.clear();
                trigger.extend(d.trigger.iter().map(|&fi| loc2glob[s][fi]));
                log.open_event(d.rule, &trigger, d.frontier);
                open = Some((s, row));
            }
            let fact = ch.instance.fact(i);
            let gi = log
                .push(fact, tuple_hash(fact.args))
                .expect("shards stage disjoint fresh facts");
            debug_assert_eq!(loc2glob[s].len(), i, "shard facts merge in local order");
            loc2glob[s].push(gi);
        }
        if !log.close_round(row) || log.instance().len() > budget.max_facts {
            break;
        }
    }
    log.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ChaseOutcome;
    use qr_syntax::{parse_instance, parse_theory};

    /// Field-by-field byte-identity of two chase runs (walls excluded:
    /// they are measurements, not outputs).
    fn assert_identical(a: &Chase, b: &Chase) {
        let facts_a: Vec<_> = a.instance.iter().map(|f| f.to_fact()).collect();
        let facts_b: Vec<_> = b.instance.iter().map(|f| f.to_fact()).collect();
        assert_eq!(facts_a, facts_b, "fact streams");
        assert_eq!(a.instance.domain(), b.instance.domain(), "domain order");
        assert_eq!(a.round_of, b.round_of, "rounds of facts");
        assert_eq!(a.rounds, b.rounds, "round count");
        assert_eq!(a.outcome, b.outcome, "outcome");
        assert_eq!(a.derivations, b.derivations, "provenance");
        assert_eq!(
            a.round_snapshots.len(),
            b.round_snapshots.len(),
            "snapshots"
        );
        for (sa, sb) in a.round_snapshots.iter().zip(&b.round_snapshots) {
            assert_eq!(sa.facts(), sb.facts(), "snapshot facts");
            assert_eq!(sa.terms(), sb.terms(), "snapshot terms");
        }
        assert_eq!(a.stats.rounds.len(), b.stats.rounds.len(), "stat rows");
        for (ra, rb) in a.stats.rounds.iter().zip(&b.stats.rounds) {
            assert_eq!(ra.round, rb.round);
            assert_eq!(ra.triggers, rb.triggers, "round {} triggers", ra.round);
            assert_eq!(
                ra.candidates, rb.candidates,
                "round {} candidates",
                ra.round
            );
            assert_eq!(ra.dom_sweeps, rb.dom_sweeps);
            assert_eq!(ra.dom_pruned, rb.dom_pruned);
            assert_eq!(ra.facts_added, rb.facts_added, "round {} facts", ra.round);
            assert_eq!(ra.terms_added, rb.terms_added, "round {} terms", ra.round);
        }
        assert_eq!(a.instance.stats(), b.instance.stats(), "storage");
    }

    #[test]
    fn classifies_theories() {
        let term = parse_theory("e(X,Y), e(Y,Z) -> e(X,Z). h(X) -> m(X,Y).").unwrap();
        assert!(term_safe(&term));
        // Constant in the head.
        assert!(!term_safe(&parse_theory("e(X,Y) -> p(X,a).").unwrap()));
        // Disconnected body.
        assert!(!term_safe(&parse_theory("p(X), q(Y) -> r(X,Y).").unwrap()));
        // dom atom.
        assert!(!term_safe(
            &parse_theory("e(X,Y), dom(Z) -> t(X,Z).").unwrap()
        ));
        // No frontier (head shares no variable with the body).
        assert!(!term_safe(&parse_theory("p(X) -> q(Y).").unwrap()));
    }

    #[test]
    fn packing_is_deterministic_and_balanced() {
        let (bin_of, bins) = pack(&[10, 1, 1, 1, 1, 10, 0, 4], 2);
        assert_eq!(bins, 2);
        // Largest units split across bins; the zero unit places nothing.
        assert_ne!(bin_of[0], bin_of[5]);
        let mut load = vec![0usize; bins];
        for (u, &b) in bin_of.iter().enumerate() {
            load[b] += [10, 1, 1, 1, 1, 10, 0, 4][u];
        }
        assert_eq!(load.iter().sum::<usize>(), 28);
        assert!(load.iter().all(|l| (12..=16).contains(l)), "{load:?}");
        // Re-running gives the same assignment.
        assert_eq!(pack(&[10, 1, 1, 1, 1, 10, 0, 4], 2), (bin_of, bins));
    }

    #[test]
    fn gaifman_mode_is_byte_identical() {
        let t = parse_theory("e(X,Y), e(Y,Z) -> e(X,Z). e(X,Y) -> n(X,W).").unwrap();
        // Three components of different sizes plus a nullary fact.
        let d = parse_instance("e(a,b). e(b,c). e(c,d). e(p,q). e(q,r). e(x,y). flag().").unwrap();
        let budget = ChaseBudget::default();
        let reference = chase_with(&t, &d, budget, &Executor::sequential());
        for threads in [2, 3, 4] {
            let exec = Executor::with_threads(threads);
            let (sharded, stats) = chase_sharded(&t, &d, budget, &exec);
            assert_eq!(stats.mode, ShardMode::Gaifman, "{threads} threads");
            assert_eq!(stats.components, 3);
            assert!(stats.shards >= 2);
            assert_identical(&sharded, &reference);
        }
    }

    #[test]
    fn term_unsafe_theory_falls_back_byte_identically() {
        // Term-unsafe (constant in a head; disconnected body): the
        // components would share triggers, so the monolithic engine runs.
        let t = parse_theory("e(X,Y) -> p(X,a). q(X), r(Y) -> s(X,Y).").unwrap();
        let d = parse_instance("e(m,n). e(n,o). q(h). r(k). u(z).").unwrap();
        let budget = ChaseBudget::default();
        let reference = chase_with(&t, &d, budget, &Executor::sequential());
        let exec = Executor::with_threads(4);
        let (sharded, stats) = chase_sharded(&t, &d, budget, &exec);
        assert_eq!(stats.mode, ShardMode::Fallback);
        assert_eq!((stats.components, stats.shards), (0, 0));
        assert_identical(&sharded, &reference);
    }

    #[test]
    fn single_component_bypasses() {
        let t = parse_theory("e(X,Y), e(Y,Z) -> e(X,Z).").unwrap();
        let d = parse_instance("e(a,b). e(b,c). e(c,a).").unwrap();
        let exec = Executor::with_threads(4);
        let (sharded, stats) = chase_sharded(&t, &d, ChaseBudget::default(), &exec);
        assert_eq!(stats.mode, ShardMode::Bypass);
        assert_eq!(stats.shards, 0);
        let reference = chase_with(&t, &d, ChaseBudget::default(), &exec);
        assert_identical(&sharded, &reference);
    }

    #[test]
    fn dom_theory_falls_back() {
        let t = parse_theory("e(X,Y), dom(Z) -> t(X,Z).").unwrap();
        let d = parse_instance("e(a,b). e(c,d).").unwrap();
        let exec = Executor::with_threads(4);
        let (sharded, stats) = chase_sharded(&t, &d, ChaseBudget::default(), &exec);
        assert_eq!(stats.mode, ShardMode::Fallback);
        let reference = chase_with(&t, &d, ChaseBudget::default(), &exec);
        assert_identical(&sharded, &reference);
    }

    #[test]
    fn budget_exhaustion_is_byte_identical() {
        // Non-terminating theory on two components; truncate by rounds.
        let t = parse_theory("p(X) -> e(X,Y). e(X,Y) -> p(Y).").unwrap();
        let d = parse_instance("p(a). p(b).").unwrap();
        let budget = ChaseBudget::rounds(5);
        let reference = chase_with(&t, &d, budget, &Executor::sequential());
        assert_eq!(reference.outcome, ChaseOutcome::Exhausted);
        let (sharded, stats) = chase_sharded(&t, &d, budget, &Executor::with_threads(2));
        assert_eq!(stats.mode, ShardMode::Gaifman);
        assert_identical(&sharded, &reference);
    }
}

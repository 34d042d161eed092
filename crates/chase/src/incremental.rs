//! Incremental chase maintenance: absorb base-fact writes into a finished
//! [`Chase`] without re-chasing the world.
//!
//! The contract is *byte-identity*: whatever path a batch takes, the result
//! equals `chase_with(theory, final_base, budget, exec)` on the fact
//! stream, `round_of`, provenance, round snapshots and the shared
//! `ChaseStats` counters (`facts_added`/`terms_added` per round, memory) —
//! only the enumeration-work counters (triggers, candidates, sweeps) and
//! wall times may differ, because skipping that work is the whole point.
//!
//! **Inserts** are absorbed by seeding the semi-naive delta with just the
//! new facts: the recorded match trails of the previous run are replayed
//! round by round (an event's head facts are a pure function of its rule
//! and frontier image, so no joins are re-run for old work), while a
//! discovery pass joins only the *cone* — facts and terms that did not
//! exist before — against the previous instance using the engine's
//! per-predicate delta indexes. Discovered events are scheduled into the
//! round the cold engine would fire them in (`1 + max` over the rounds of
//! their body elements) and interleaved with the replayed events in the
//! cold engine's canonical enumeration order, reconstructed from the
//! static [`JoinPlan`] execution order.
//!
//! **Retractions** run delete/rederive (DRed) over the match-trail
//! provenance: the affected cone is the set of derived facts whose first
//! derivations transitively reference a retracted base fact. When the cone
//! is empty (and no retracted fact is head-unifiable, so nothing needs
//! rederivation), the fact log is truncated to the base snapshot and
//! replayed without the retracted entries — O(n) inserts, zero joins.
//! Otherwise the survivors are rederived by a cold re-chase of the
//! shrunken base, which is also the general fallback whenever a batch
//! violates one of the fast-path invariants (each bail is a *detected*
//! structural change — e.g. a new fact pulling an old fact into an earlier
//! round — where replaying old trails would be unsound).

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use qr_exec::Executor;
use qr_hom::matcher::{Assignment, JoinPlan, MatchCounters};
use qr_syntax::query::{QTerm, Var};
use qr_syntax::{Fact, FactIdx, Instance, Pred, TermId, Theory};

use crate::engine::{
    chase_with, plans, unify_atom_fact, Chase, ChaseBudget, ChaseLog, Derivation, RulePlan,
};
use crate::stats::RoundStats;

/// A batch of base-fact writes. Retractions are applied before inserts, so
/// a fact both retracted and inserted ends up present (at the end of the
/// base order). Retracting a fact that is not a base fact is a no-op;
/// inserting a fact already in the base is a no-op.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WriteBatch {
    /// Base facts to add.
    pub inserts: Vec<Fact>,
    /// Base facts to remove.
    pub retracts: Vec<Fact>,
}

impl WriteBatch {
    /// A pure-insert batch.
    pub fn insert(facts: impl IntoIterator<Item = Fact>) -> WriteBatch {
        WriteBatch {
            inserts: facts.into_iter().collect(),
            retracts: Vec::new(),
        }
    }

    /// A pure-retraction batch.
    pub fn retract(facts: impl IntoIterator<Item = Fact>) -> WriteBatch {
        WriteBatch {
            inserts: Vec::new(),
            retracts: facts.into_iter().collect(),
        }
    }

    /// `true` iff the batch carries no writes at all.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.retracts.is_empty()
    }

    /// Coalesces a batch sequence into an equivalent, usually shorter one:
    /// applying the result batches in order against a base where `in_base`
    /// answers membership produces the **byte-identical** final base (same
    /// surviving facts in the same log order) as applying the originals —
    /// so the maintained chase after [`IncrementalChase::apply_all`] is
    /// byte-identical too, with fewer dispatches.
    ///
    /// Rules, applied left to right over a membership overlay:
    /// - ineffective writes are dropped (retract of an absent fact,
    ///   insert of a present one — no-ops by the batch contract);
    /// - consecutive effectively-pure-insert batches fuse into one, as do
    ///   consecutive effectively-pure-retract batches;
    /// - an insert-then-retract of a fact that was absent before the
    ///   insert cancels outright (the fact never reaches the base, and
    ///   removing both writes shifts no other fact's log position);
    /// - batches that stay mixed after the above act as barriers.
    pub fn coalesce(batches: &[WriteBatch], in_base: impl Fn(&Fact) -> bool) -> Vec<WriteBatch> {
        let mut overlay: HashMap<Fact, bool> = HashMap::new();
        let mut out: Vec<WriteBatch> = Vec::new();
        // Facts in the current pure-insert top that were absent before it
        // (only those may cancel against a following retract).
        let mut top_new: HashSet<Fact> = HashSet::new();
        for batch in batches {
            let mut r_eff: Vec<Fact> = Vec::new();
            for fx in &batch.retracts {
                let present = overlay.get(fx).copied().unwrap_or_else(|| in_base(fx));
                if present && !r_eff.contains(fx) {
                    overlay.insert(fx.clone(), false);
                    r_eff.push(fx.clone());
                }
            }
            let mut i_eff: Vec<Fact> = Vec::new();
            for fx in &batch.inserts {
                let present = overlay.get(fx).copied().unwrap_or_else(|| in_base(fx));
                if !present {
                    overlay.insert(fx.clone(), true);
                    i_eff.push(fx.clone());
                }
            }
            match (r_eff.is_empty(), i_eff.is_empty()) {
                (true, true) => {} // no effective writes
                (true, false) => {
                    // Pure insert: fuse with a pure-insert top.
                    match out.last_mut() {
                        Some(top) if top.retracts.is_empty() => {
                            top_new.extend(i_eff.iter().cloned());
                            top.inserts.extend(i_eff);
                        }
                        _ => {
                            top_new = i_eff.iter().cloned().collect();
                            out.push(WriteBatch::insert(i_eff));
                        }
                    }
                }
                (false, true) => {
                    // Pure retract: cancel against the pure-insert top,
                    // then fuse with a pure-retract top.
                    if let Some(top) = out.last_mut() {
                        if top.retracts.is_empty() {
                            let cancel: HashSet<Fact> = r_eff
                                .iter()
                                .filter(|fx| top_new.contains(*fx))
                                .cloned()
                                .collect();
                            if !cancel.is_empty() {
                                top.inserts.retain(|fx| !cancel.contains(fx));
                                r_eff.retain(|fx| !cancel.contains(fx));
                                if top.inserts.is_empty() {
                                    out.pop();
                                }
                            }
                        }
                    }
                    if r_eff.is_empty() {
                        continue;
                    }
                    top_new.clear();
                    match out.last_mut() {
                        Some(top) if top.inserts.is_empty() => top.retracts.extend(r_eff),
                        _ => out.push(WriteBatch::retract(r_eff)),
                    }
                }
                (false, false) => {
                    // Mixed batch: a barrier (retracts run before inserts
                    // within it, so it cannot fuse either way).
                    top_new.clear();
                    out.push(WriteBatch {
                        inserts: i_eff,
                        retracts: r_eff,
                    });
                }
            }
        }
        out
    }
}

/// How a batch was absorbed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchMode {
    /// No effective change: the result is the previous chase.
    Noop,
    /// Inserts absorbed by delta seeding plus match-trail replay.
    SeededInsert,
    /// Retractions absorbed by truncating and replaying the fact log
    /// (empty delete/rederive cone).
    TruncatedRetract,
    /// Fallback: cold re-chase of the adjusted base.
    Rechase,
}

/// Per-batch accounting, returned alongside the updated chase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchStats {
    /// Which maintenance path absorbed the batch.
    pub mode: BatchMode,
    /// Derived facts carried over from the previous chase without
    /// re-running their joins (fast paths only).
    pub replayed_facts: u64,
    /// Derived facts (re)computed by enumeration: new cone facts on the
    /// insert path, every derived fact on a re-chase.
    pub rederived_facts: u64,
    /// Derived facts invalidated by retraction (the DRed cone).
    pub cone_facts: u64,
}

impl BatchStats {
    fn of(mode: BatchMode) -> BatchStats {
        BatchStats {
            mode,
            replayed_facts: 0,
            rederived_facts: 0,
            cone_facts: 0,
        }
    }
}

/// Cumulative counters over a sequence of batches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Batches applied.
    pub batches: u64,
    /// Batches absorbed as [`BatchMode::Noop`].
    pub noops: u64,
    /// Batches absorbed as [`BatchMode::SeededInsert`].
    pub seeded_inserts: u64,
    /// Batches absorbed as [`BatchMode::TruncatedRetract`].
    pub truncated_retracts: u64,
    /// Batches that fell back to [`BatchMode::Rechase`].
    pub rechases: u64,
    /// Total derived facts replayed without enumeration.
    pub replayed_facts: u64,
    /// Total derived facts (re)computed by enumeration.
    pub rederived_facts: u64,
    /// Total derived facts invalidated by retraction cones.
    pub cone_facts: u64,
}

impl IncrementalStats {
    fn absorb(&mut self, b: &BatchStats) {
        self.batches += 1;
        match b.mode {
            BatchMode::Noop => self.noops += 1,
            BatchMode::SeededInsert => self.seeded_inserts += 1,
            BatchMode::TruncatedRetract => self.truncated_retracts += 1,
            BatchMode::Rechase => self.rechases += 1,
        }
        self.replayed_facts += b.replayed_facts;
        self.rederived_facts += b.rederived_facts;
        self.cone_facts += b.cone_facts;
    }
}

/// A chase kept up to date across a sequence of [`WriteBatch`]es.
#[derive(Clone, Debug)]
pub struct IncrementalChase {
    chase: Chase,
    stats: IncrementalStats,
}

impl IncrementalChase {
    /// Cold-chases `db` and wraps the result for incremental maintenance.
    pub fn new(theory: &Theory, db: &Instance, budget: ChaseBudget, exec: &Executor) -> Self {
        IncrementalChase::from_chase(chase_with(theory, db, budget, exec))
    }

    /// Wraps an existing chase (it should be terminated and built by the
    /// semi-naive engine for the fast paths to engage).
    pub fn from_chase(chase: Chase) -> Self {
        IncrementalChase {
            chase,
            stats: IncrementalStats::default(),
        }
    }

    /// The current chase state.
    pub fn chase(&self) -> &Chase {
        &self.chase
    }

    /// The current chased instance.
    pub fn instance(&self) -> &Instance {
        &self.chase.instance
    }

    /// Cumulative maintenance counters.
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Absorbs one write batch; the new state is byte-identical to a cold
    /// chase of the adjusted base under the same budget.
    pub fn apply(
        &mut self,
        theory: &Theory,
        batch: &WriteBatch,
        budget: ChaseBudget,
        exec: &Executor,
    ) -> BatchStats {
        let (next, bs) = chase_incremental(theory, &self.chase, batch, budget, exec);
        self.chase = next;
        self.stats.absorb(&bs);
        bs
    }

    /// Absorbs a batch sequence, first coalescing it against the current
    /// base with [`WriteBatch::coalesce`]. The final state is byte-identical
    /// to [`IncrementalChase::apply`]-ing each batch in turn, usually with
    /// fewer dispatches (one [`BatchStats`] per dispatched batch).
    pub fn apply_all(
        &mut self,
        theory: &Theory,
        batches: &[WriteBatch],
        budget: ChaseBudget,
        exec: &Executor,
    ) -> Vec<BatchStats> {
        let base_len = self.chase.round_snapshots[0].facts();
        let coalesced = WriteBatch::coalesce(batches, |fx| {
            self.chase
                .instance
                .index_of(fx)
                .is_some_and(|i| i < base_len)
        });
        coalesced
            .iter()
            .map(|b| self.apply(theory, b, budget, exec))
            .collect()
    }
}

/// Applies one batch of base-fact writes to a finished chase. The returned
/// chase is byte-identical (facts, `round_of`, provenance, snapshots,
/// shared stats counters) to `chase_with` on the adjusted base with the
/// same `budget` — which must be the budget the previous chase was built
/// with for the fast paths to preserve that contract.
pub fn chase_incremental(
    theory: &Theory,
    prev: &Chase,
    batch: &WriteBatch,
    budget: ChaseBudget,
    exec: &Executor,
) -> (Chase, BatchStats) {
    let base_len = prev.round_snapshots[0].facts();
    let retract_set: HashSet<&Fact> = batch.retracts.iter().collect();
    let mut retracted_idx: Vec<FactIdx> = Vec::new();
    let mut surviving: Vec<Fact> = Vec::new();
    let mut present: HashSet<Fact> = HashSet::new();
    for i in 0..base_len {
        let f = prev.instance.fact(i).to_fact();
        if retract_set.contains(&f) {
            retracted_idx.push(i);
        } else {
            present.insert(f.clone());
            surviving.push(f);
        }
    }
    let mut inserts: Vec<Fact> = Vec::new();
    for f in &batch.inserts {
        if present.insert(f.clone()) {
            inserts.push(f.clone());
        }
    }
    if retracted_idx.is_empty() && inserts.is_empty() {
        return (prev.clone(), BatchStats::of(BatchMode::Noop));
    }
    // The fast paths replay recorded first derivations, so they need a
    // terminated previous run.
    let fast_ok = prev.terminated();
    if fast_ok && retracted_idx.is_empty() {
        if let Some(res) = seeded_insert(theory, prev, &inserts, budget, exec) {
            return res;
        }
    }
    if fast_ok && inserts.is_empty() {
        if let Some(chase) = truncate_retract(theory, prev, &retracted_idx, budget, exec) {
            let replayed = (chase.instance.len() - chase.round_snapshots[0].facts()) as u64;
            return (
                chase,
                BatchStats {
                    replayed_facts: replayed,
                    ..BatchStats::of(BatchMode::TruncatedRetract)
                },
            );
        }
    }
    // General fallback: delete the cone (implicitly) and rederive all
    // survivors by a cold chase of the adjusted base.
    let cone = cone_facts(prev, &retracted_idx);
    let mut db = Instance::new();
    for f in surviving.into_iter().chain(inserts) {
        db.insert(f);
    }
    let base_n = db.len();
    let chase = chase_with(theory, &db, budget, exec);
    let rederived = (chase.instance.len() - base_n) as u64;
    (
        chase,
        BatchStats {
            mode: BatchMode::Rechase,
            replayed_facts: 0,
            rederived_facts: rederived,
            cone_facts: cone,
        },
    )
}

/// The size of the delete/rederive cone: derived facts whose first
/// derivations transitively reference a retracted base fact. Trails only
/// point backwards, so one forward sweep suffices.
fn cone_facts(prev: &Chase, retracted: &[FactIdx]) -> u64 {
    if retracted.is_empty() {
        return 0;
    }
    let mut dead = vec![false; prev.instance.len()];
    for &i in retracted {
        dead[i] = true;
    }
    let mut n = 0u64;
    for i in 0..prev.instance.len() {
        if dead[i] {
            continue;
        }
        if let Some(d) = prev.derivations[i].as_ref() {
            if d.trigger.iter().any(|&t| dead[t]) {
                dead[i] = true;
                n += 1;
            }
        }
    }
    n
}

/// Pure-retraction fast path: when the cone is empty and nothing a
/// retracted fact carried can change (no rederivation, no term whose first
/// occurrence or first round moves, no vanished ground-`dom` guard), the
/// surviving fact log replays verbatim — every recorded winner still wins
/// at the same round, so the rebuild is byte-identical to a cold chase of
/// the shrunken base. Returns `None` when any invariant fails.
fn truncate_retract(
    theory: &Theory,
    prev: &Chase,
    retracted_idx: &[FactIdx],
    budget: ChaseBudget,
    exec: &Executor,
) -> Option<Chase> {
    let base_len = prev.round_snapshots[0].facts();
    let prev_len = prev.instance.len();
    // A different budget could truncate the cold run where the previous one
    // kept going (or vice versa); only replay under a budget the previous
    // shape fits strictly inside.
    if prev.rounds >= budget.max_rounds || prev_len > budget.max_facts {
        return None;
    }
    // (1) No retracted fact may be rederivable. Conservative syntactic
    // check: bail if it unifies with any rule head atom.
    let mut scratch = Vec::new();
    for &i in retracted_idx {
        let f = prev.instance.fact(i);
        for rule in theory.rules() {
            for atom in rule.head() {
                if atom.pred == f.pred {
                    scratch.clear();
                    if unify_atom_fact(atom, f, &mut scratch) {
                        return None;
                    }
                }
            }
        }
    }
    let retracted: HashSet<FactIdx> = retracted_idx.iter().copied().collect();
    // (2) Every term occurring in a retracted fact must either keep its
    // first occurrence (an earlier surviving fact introduced it) or vanish
    // entirely — a moved first occurrence changes domain order and first
    // rounds, which the replay cannot absorb.
    let mut first_fact: HashMap<TermId, FactIdx> = HashMap::new();
    let mut total_occ: HashMap<TermId, u32> = HashMap::new();
    let mut retract_occ: HashMap<TermId, u32> = HashMap::new();
    for i in 0..prev_len {
        let f = prev.instance.fact(i);
        for &t in f.args {
            first_fact.entry(t).or_insert(i);
            *total_occ.entry(t).or_insert(0) += 1;
            if retracted.contains(&i) {
                *retract_occ.entry(t).or_insert(0) += 1;
            }
        }
    }
    let vanishes = |t: TermId| -> bool {
        retracted.contains(&first_fact[&t]) && retract_occ.get(&t) == total_occ.get(&t)
    };
    for (&t, &rc) in &retract_occ {
        if retracted.contains(&first_fact[&t]) && total_occ[&t] > rc {
            return None;
        }
    }
    // (3) A vanished term must not be a ground `dom` guard of the theory:
    // the old run fired that rule, the cold run would not.
    for rule in theory.rules() {
        for atom in rule.body() {
            if atom.pred.is_dom() {
                if let QTerm::Const(c) = atom.args[0] {
                    let c = TermId::constant(c);
                    if first_fact.contains_key(&c) && vanishes(c) {
                        return None;
                    }
                }
            }
        }
    }
    // (3b) A vanished term may have been the binding of a pure dom-var
    // sweep (a `dom` variable bound by no regular body atom). Such sweeps
    // leave no trace in the recorded trigger, so the replay cannot tell
    // whether the event still fires — or still fires in the same round —
    // without the term (e.g. `s, dom(Y) -> q.` after the last domain
    // term is retracted). Bail and re-chase.
    if retract_occ.keys().any(|&t| vanishes(t)) {
        for rule in theory.rules() {
            let regular_vars: HashSet<Var> = rule
                .body()
                .iter()
                .filter(|a| !a.pred.is_dom())
                .flat_map(|a| a.vars())
                .collect();
            for atom in rule.body() {
                if atom.pred.is_dom() {
                    if let QTerm::Var(v) = atom.args[0] {
                        if !regular_vars.contains(&v) {
                            return None;
                        }
                    }
                }
            }
        }
    }
    // (4) The trigger-closure cone must be empty.
    for i in base_len..prev_len {
        let d = prev.derivations[i].as_ref()?;
        if d.trigger.iter().any(|&t| retracted.contains(&t)) {
            return None;
        }
    }
    // Replay the surviving fact log in order, rebuilding indices, round
    // boundaries and remapped trails; each round keeps its recorded
    // engine counters, and the probe row closes the run at the fixpoint.
    let mut old_to_new: Vec<Option<FactIdx>> = vec![None; prev_len];
    let mut base = Instance::new();
    for (i, slot) in old_to_new.iter_mut().enumerate().take(base_len) {
        if !retracted.contains(&i) {
            *slot = Some(
                base.insert(prev.instance.fact(i).to_fact())
                    .expect("the previous chase holds no duplicates"),
            );
        }
    }
    let mut log = ChaseLog::new(base, exec.threads());
    for row in &prev.stats.rounds {
        for i in prev.delta_range(row.round).unwrap_or_default() {
            let d = prev.derivations[i].as_ref().expect("checked in (4)");
            let deriv = Derivation {
                rule: d.rule,
                trigger: d
                    .trigger
                    .iter()
                    .map(|&t| old_to_new[t].expect("cone is empty, triggers survive"))
                    .collect(),
                frontier: d.frontier.clone(),
                round: d.round,
            };
            old_to_new[i] = Some(
                log.push(prev.instance.fact(i).to_fact(), deriv)
                    .expect("the previous chase holds no duplicates"),
            );
        }
        log.close_round(row.clone());
    }
    Some(log.finish())
}

/// Per-rule metadata for firing-round and sort-key computation.
struct RuleMeta {
    /// Variables occurring in some regular (non-`dom`) body atom — their
    /// `dom` checks never enumerate.
    regular_vars: HashSet<Var>,
}

impl RuleMeta {
    fn new(plan: &RulePlan<'_>) -> RuleMeta {
        let body = plan.rule.body();
        let mut regular_vars = HashSet::new();
        for &bi in &plan.regular {
            regular_vars.extend(body[bi].vars());
        }
        RuleMeta { regular_vars }
    }
}

/// The image of frontier variable `v` under an event's frontier vector.
fn frontier_term(plan: &RulePlan<'_>, frontier: &[TermId], v: Var) -> Option<TermId> {
    plan.skolemized
        .frontier
        .iter()
        .position(|u| *u == v)
        .map(|p| frontier[p])
}

/// The cold first round of a term: old terms keep their previous round
/// (guarded by the seeded path's bails), new terms get the round they were
/// created in.
fn term_round(
    t: TermId,
    old: &HashMap<TermId, usize>,
    cold: &HashMap<TermId, usize>,
) -> Option<usize> {
    old.get(&t).or_else(|| cold.get(&t)).copied()
}

/// An event waiting to be applied in some cold round. `Old` triggers are
/// previous-chase fact indices, `W` triggers index the discovery instance.
enum TriggerRef {
    Old(Vec<FactIdx>),
    W(Vec<usize>),
}

struct PendingEvent {
    rule: usize,
    trigger: TriggerRef,
    frontier: Vec<TermId>,
}

/// An event found by the cone discovery pass, on discovery-instance
/// indices.
struct Discovered {
    rule: usize,
    trigger_w: Vec<usize>,
    frontier: Vec<TermId>,
}

/// One candidate canonical path through a rule body, as found by
/// [`sort_key`]: (path class, index within the class, forced element,
/// skipped body-atom index, forced variable, join plan for the remaining
/// atoms).
type PathChoice<'a> = (u64, u64, u64, usize, Option<Var>, &'a JoinPlan);

/// An event resolved to cold indices and staged for one round: (canonical
/// sort key, rule index, trigger facts, frontier terms).
type StagedEvent = (Vec<u64>, usize, Vec<FactIdx>, Vec<TermId>);

/// Reconstructs the canonical enumeration key of an event within its
/// round: the cold engine visits work as (rule, path class, path index,
/// forced element, then the remaining join in the plan's static execution
/// order, each regular atom contributing its fact index and each unbound
/// frontier `dom` sweep its domain rank). Sorting events by this key
/// replays the cold first-staging order without re-running any join.
/// Returns `None` if no path is consistent (the caller bails to a
/// re-chase).
#[allow(clippy::too_many_arguments)]
fn sort_key(
    plan: &RulePlan<'_>,
    meta: &RuleMeta,
    ridx: usize,
    trigger: &[FactIdx],
    frontier: &[TermId],
    round: usize,
    round_of: &[usize],
    term_rank: &HashMap<TermId, u32>,
    old_tr: &HashMap<TermId, usize>,
    cold_tr: &HashMap<TermId, usize>,
    terms_at: &[usize],
) -> Option<Vec<u64>> {
    let body = plan.rule.body();
    // Canonical path: first regular atom whose trigger fact is in the
    // delta; else first dom-var atom whose (first) sweep value is; else
    // first ground-dom atom whose constant is; else an empty body in
    // round 1.
    let mut found: Option<PathChoice<'_>> = None;
    for (k, &fi) in trigger.iter().enumerate() {
        if round_of[fi] == round - 1 {
            found = Some((
                0,
                k as u64,
                fi as u64,
                plan.regular[k],
                None,
                &plan.by_regular[k],
            ));
            break;
        }
    }
    if found.is_none() {
        for (k, &(bi, v)) in plan.dom_var.iter().enumerate() {
            if meta.regular_vars.contains(&v) {
                // Bound by a trigger fact; were its term new, that fact
                // would be delta and the regular path would have won.
                continue;
            }
            let hit = match frontier_term(plan, frontier, v) {
                Some(t) => {
                    if term_round(t, old_tr, cold_tr)? == round - 1 {
                        Some(u64::from(*term_rank.get(&t)?))
                    } else {
                        None
                    }
                }
                // Unconstrained sweep: any delta term completes the event,
                // so it arrives here iff the round added terms at all, and
                // every event arrives at the first delta term uniformly —
                // the forced component carries no order.
                None => (terms_at.get(round - 1).copied().unwrap_or(0) > 0).then_some(0),
            };
            if let Some(forced) = hit {
                found = Some((1, k as u64, forced, bi, Some(v), &plan.by_dom_var[k]));
                break;
            }
        }
    }
    if found.is_none() {
        for (k, &(bi, c)) in plan.dom_ground.iter().enumerate() {
            if term_round(c, old_tr, cold_tr)? == round - 1 {
                found = Some((2, k as u64, 0, bi, None, &plan.by_dom_ground[k]));
                break;
            }
        }
    }
    if found.is_none() && body.is_empty() && round == 1 {
        return Some(vec![ridx as u64, 3, 0, 0]);
    }
    let (class, k, forced, skipped, forced_var, rest) = found?;
    let mut key = vec![ridx as u64, class, k, forced];
    let mut keyed: HashSet<Var> = HashSet::new();
    if let Some(v) = forced_var {
        keyed.insert(v);
    }
    for &ai in rest.execution_order() {
        // Rest plans omit the forced atom; indices at or past it shift.
        let bi = if ai >= skipped { ai + 1 } else { ai };
        let atom = &body[bi];
        if !atom.pred.is_dom() {
            key.push(trigger[plan.reg_pos[bi].expect("regular atom")] as u64);
        } else if let QTerm::Var(v) = atom.args[0] {
            if meta.regular_vars.contains(&v) || !keyed.insert(v) {
                continue; // a check, not a sweep
            }
            if let Some(t) = frontier_term(plan, frontier, v) {
                key.push(u64::from(*term_rank.get(&t)?));
            }
            // Non-frontier sweeps bind the oldest domain term uniformly:
            // no order contribution.
        }
    }
    Some(key)
}

/// Records one discovery arrival: rebuilds the total trigger from the
/// match trail, drops events whose elements all predate the batch (they
/// fired in the terminated previous run), and dedups multi-path arrivals.
/// `old_env` says whether the rule's trigger-independent elements (ground
/// `dom` constants, non-frontier sweep domains) all existed previously —
/// without it an all-old trigger does not mean the event already fired.
#[allow(clippy::too_many_arguments)]
fn record_arrival(
    plan: &RulePlan<'_>,
    ridx: usize,
    asg: &Assignment,
    trail: &[(usize, usize)],
    skipped: usize,
    forced: Option<(usize, FactIdx)>,
    prev_len: usize,
    old_env: bool,
    old_term_round: &HashMap<TermId, usize>,
    seen: &mut HashSet<(usize, Vec<usize>, Vec<TermId>)>,
    out: &mut Vec<Discovered>,
    triggers: &mut u64,
) {
    *triggers += 1;
    let mut trigger = vec![FactIdx::MAX; plan.regular.len()];
    if let Some((k, fi)) = forced {
        trigger[k] = fi;
    }
    for &(ai, fi) in trail {
        let bi = if ai >= skipped { ai + 1 } else { ai };
        trigger[plan.reg_pos[bi].expect("trail entries are regular atoms")] = fi;
    }
    debug_assert!(!trigger.contains(&FactIdx::MAX));
    let frontier: Vec<TermId> = plan
        .skolemized
        .frontier
        .iter()
        .map(|v| asg[v.index()].expect("bound body var"))
        .collect();
    if old_env
        && trigger.iter().all(|&fi| fi < prev_len)
        && frontier.iter().all(|t| old_term_round.contains_key(t))
    {
        return;
    }
    if seen.insert((ridx, trigger.clone(), frontier.clone())) {
        out.push(Discovered {
            rule: ridx,
            trigger_w: trigger,
            frontier,
        });
    }
}

/// Semi-naive discovery over the cone delta: every event using at least
/// one cone fact (forced per regular atom via the per-predicate delta
/// index) or cone term (forced per dom atom) is found exactly when its
/// newest cone element appears — the rest of its body joins the full
/// working instance, which holds everything that exists by then.
#[allow(clippy::too_many_arguments)]
fn discover(
    rule_plans: &[RulePlan<'_>],
    metas: &[RuleMeta],
    w: &Instance,
    delta_facts: &[usize],
    delta_terms: &[TermId],
    prev_len: usize,
    old_term_round: &HashMap<TermId, usize>,
    seen: &mut HashSet<(usize, Vec<usize>, Vec<TermId>)>,
    counters: &mut MatchCounters,
    triggers: &mut u64,
    dom_sweeps: &mut u64,
) -> Vec<Discovered> {
    let mut out = Vec::new();
    if delta_facts.is_empty() && delta_terms.is_empty() {
        return out;
    }
    let mut delta_by_pred: HashMap<Pred, Vec<usize>> = HashMap::new();
    for &wi in delta_facts {
        delta_by_pred.entry(w.fact(wi).pred).or_default().push(wi);
    }
    let delta_term_set: HashSet<TermId> = delta_terms.iter().copied().collect();
    let prev_dom_nonempty = !old_term_round.is_empty();
    for (ridx, plan) in rule_plans.iter().enumerate() {
        let body = plan.rule.body();
        // Could this rule's trigger-independent elements all fire in prev?
        let old_env = plan
            .dom_ground
            .iter()
            .all(|(_, c)| old_term_round.contains_key(c))
            && (prev_dom_nonempty
                || plan.dom_var.iter().all(|&(_, v)| {
                    metas[ridx].regular_vars.contains(&v) || plan.skolemized.frontier.contains(&v)
                }));
        for (k, &bi) in plan.regular.iter().enumerate() {
            let atom = &body[bi];
            let Some(idxs) = delta_by_pred.get(&atom.pred) else {
                continue;
            };
            let rest = &plan.by_regular[k];
            let mut fixed = Vec::new();
            for &wi in idxs {
                counters.candidates += 1;
                fixed.clear();
                if !unify_atom_fact(atom, w.fact(wi), &mut fixed) {
                    continue;
                }
                rest.for_each_match_with_facts(w, &fixed, counters, |asg, trail| {
                    record_arrival(
                        plan,
                        ridx,
                        asg,
                        trail,
                        bi,
                        Some((k, wi)),
                        prev_len,
                        old_env,
                        old_term_round,
                        seen,
                        &mut out,
                        triggers,
                    );
                    true
                });
            }
        }
        for (k, &(bi, v)) in plan.dom_var.iter().enumerate() {
            let rest = &plan.by_dom_var[k];
            for &t in delta_terms {
                *dom_sweeps += 1;
                rest.for_each_match_with_facts(w, &[(v, t)], counters, |asg, trail| {
                    record_arrival(
                        plan,
                        ridx,
                        asg,
                        trail,
                        bi,
                        None,
                        prev_len,
                        old_env,
                        old_term_round,
                        seen,
                        &mut out,
                        triggers,
                    );
                    true
                });
            }
        }
        for (k, &(bi, c)) in plan.dom_ground.iter().enumerate() {
            if !delta_term_set.contains(&c) {
                continue;
            }
            let rest = &plan.by_dom_ground[k];
            rest.for_each_match_with_facts(w, &[], counters, |asg, trail| {
                record_arrival(
                    plan,
                    ridx,
                    asg,
                    trail,
                    bi,
                    None,
                    prev_len,
                    old_env,
                    old_term_round,
                    seen,
                    &mut out,
                    triggers,
                );
                true
            });
        }
    }
    out
}

/// Pure-insert fast path. Replays the previous run's events at their
/// recorded rounds and interleaves cone events discovered by semi-naive
/// joins seeded with only the batch, producing the cold chase of
/// `prev base ++ inserts` without enumerating any old-only trigger.
/// Returns `None` on any invariant violation (the caller re-chases).
fn seeded_insert(
    theory: &Theory,
    prev: &Chase,
    inserts: &[Fact],
    budget: ChaseBudget,
    exec: &Executor,
) -> Option<(Chase, BatchStats)> {
    let rule_plans = plans(theory);
    let prev_len = prev.instance.len();
    let base_len = prev.round_snapshots[0].facts();
    let old_term_round = prev.first_round_of_terms();

    // Bails at the door: an insert that duplicates a derived fact would
    // move that fact into round 0; an insert mentioning a term the old
    // chase invented later would shift the domain clock.
    for f in inserts {
        if prev.instance.index_of(f).is_some() {
            return None;
        }
        if f.args
            .iter()
            .any(|t| old_term_round.get(t).is_some_and(|&r| r > 0))
        {
            return None;
        }
    }
    // Every derived fact needs a recorded trail to replay.
    if prev.derivations[base_len..].iter().any(|d| d.is_none()) {
        return None;
    }

    let metas: Vec<RuleMeta> = rule_plans.iter().map(RuleMeta::new).collect();

    // Group the previous run's derived facts into events: facts produced
    // by one rule application occupy consecutive indices and share one
    // derivation.
    let mut old_events: Vec<Vec<PendingEvent>> = Vec::new();
    old_events.resize_with(prev.rounds + 1, Vec::new);
    {
        let mut last: Option<&Derivation> = None;
        for i in base_len..prev_len {
            let d = prev.derivations[i].as_ref().expect("checked above");
            if last != Some(d) {
                if d.round == 0 || d.round > prev.rounds {
                    return None;
                }
                old_events[d.round].push(PendingEvent {
                    rule: d.rule,
                    trigger: TriggerRef::Old(d.trigger.clone()),
                    frontier: d.frontier.clone(),
                });
                last = Some(d);
            }
        }
    }

    // The cold base: the previous base, then the batch.
    let mut base = Instance::new();
    let mut old_to_cold: Vec<Option<FactIdx>> = vec![None; prev_len];
    let mut term_rank: HashMap<TermId, u32> = HashMap::new();
    let mut cold_term_round: HashMap<TermId, usize> = HashMap::new();

    for (i, slot) in old_to_cold.iter_mut().enumerate().take(base_len) {
        let idx = base
            .insert(prev.instance.fact(i).to_fact())
            .expect("the previous chase holds no duplicates");
        *slot = Some(idx);
    }
    // The working instance W = prev ++ batch ++ (cone facts as they are
    // derived): discovery joins run against it. Extra W facts carry their
    // cold index and round.
    let mut w = prev.instance.clone();
    let mut w_extra: Vec<(FactIdx, usize)> = Vec::new();
    let mut delta_facts: Vec<usize> = Vec::new();
    for f in inserts {
        let idx = base.insert(f.clone()).expect("effective inserts are new");
        let wi = w.insert(f.clone()).expect("not in prev");
        debug_assert_eq!(wi, prev_len + w_extra.len());
        w_extra.push((idx, 0));
        delta_facts.push(wi);
    }
    // The cold state under construction.
    let mut log = ChaseLog::new(base, exec.threads());
    let mut delta_terms: Vec<TermId> = Vec::new();
    for (r, &t) in log.instance().domain().iter().enumerate() {
        term_rank.insert(t, r as u32);
        cold_term_round.insert(t, 0);
        if !old_term_round.contains_key(&t) {
            delta_terms.push(t);
        }
    }
    let mut ranked = log.instance().domain_len();
    let mut min_term_round = if ranked > 0 { Some(0) } else { None };
    // Cold terms first appearing at each round; `terms_at[r] > 0` ⇔ the
    // round-`r+1` delta contains terms, which drives dom-sweep paths.
    let mut terms_at: Vec<usize> = vec![ranked];

    let mut seen: HashSet<(usize, Vec<usize>, Vec<TermId>)> = HashSet::new();
    let mut buckets: Vec<Vec<PendingEvent>> = Vec::new();
    buckets.resize_with(budget.max_rounds + 2, Vec::new);
    let mut replayed = 0u64;
    let mut rederived = 0u64;

    let w_round = |wi: usize, w_extra: &[(FactIdx, usize)]| -> usize {
        if wi < prev_len {
            prev.round_of[wi]
        } else {
            w_extra[wi - prev_len].1
        }
    };

    for round in 1..=budget.max_rounds {
        let t0 = Instant::now();
        let mut counters = MatchCounters::default();
        let mut disc_triggers = 0u64;
        let mut dom_sweeps = 0u64;
        let discovered = discover(
            &rule_plans,
            &metas,
            &w,
            &delta_facts,
            &delta_terms,
            prev_len,
            &old_term_round,
            &mut seen,
            &mut counters,
            &mut disc_triggers,
            &mut dom_sweeps,
        );
        // Schedule each cone event into the round the cold engine fires
        // it: one past the newest of its body elements.
        for ev in discovered {
            let plan = &rule_plans[ev.rule];
            let meta = &metas[ev.rule];
            let mut m = 0usize;
            for &wi in &ev.trigger_w {
                m = m.max(w_round(wi, &w_extra));
            }
            for &(_, v) in &plan.dom_var {
                if meta.regular_vars.contains(&v) {
                    continue;
                }
                match frontier_term(plan, &ev.frontier, v) {
                    Some(t) => m = m.max(term_round(t, &old_term_round, &cold_term_round)?),
                    None => m = m.max(min_term_round?),
                }
            }
            for &(_, c) in &plan.dom_ground {
                m = m.max(term_round(c, &old_term_round, &cold_term_round)?);
            }
            let fire = m + 1;
            debug_assert!(fire >= round, "cone elements are at most one round old");
            if fire < buckets.len() {
                buckets[fire].push(PendingEvent {
                    rule: ev.rule,
                    trigger: TriggerRef::W(ev.trigger_w),
                    frontier: ev.frontier,
                });
            }
        }
        let enum_wall = t0.elapsed();
        let t1 = Instant::now();

        // Resolve this round's events (replayed + cone) to cold indices
        // and order them as the cold engine would enumerate them.
        let olds = if round < old_events.len() {
            std::mem::take(&mut old_events[round])
        } else {
            Vec::new()
        };
        let mut todo: Vec<StagedEvent> = Vec::new();
        for ev in olds.into_iter().chain(std::mem::take(&mut buckets[round])) {
            let trigger: Vec<FactIdx> = match &ev.trigger {
                TriggerRef::Old(t) => t
                    .iter()
                    .map(|&i| old_to_cold[i].expect("older rounds are fully replayed"))
                    .collect(),
                TriggerRef::W(t) => t
                    .iter()
                    .map(|&wi| {
                        if wi < prev_len {
                            old_to_cold[wi].expect("older rounds are fully replayed")
                        } else {
                            w_extra[wi - prev_len].0
                        }
                    })
                    .collect(),
            };
            let key = sort_key(
                &rule_plans[ev.rule],
                &metas[ev.rule],
                ev.rule,
                &trigger,
                &ev.frontier,
                round,
                log.round_of(),
                &term_rank,
                &old_term_round,
                &cold_term_round,
                &terms_at,
            )?;
            todo.push((key, ev.rule, trigger, ev.frontier));
        }
        todo.sort_by(|a, b| a.0.cmp(&b.0));

        let terms_before = log.instance().domain_len();
        let mut next_delta_facts: Vec<usize> = Vec::new();
        for (_key, ridx, trigger, frontier) in todo {
            let plan = &rule_plans[ridx];
            let lookup = |v: Var| {
                frontier_term(plan, &frontier, v).expect("non-existential head vars are frontier")
            };
            let facts = plan
                .skolemized
                .apply_with_frontier(plan.rule, &frontier, lookup);
            let mut deriv: Option<Derivation> = None;
            for fact in facts {
                if log.instance().contains(&fact) {
                    continue;
                }
                let old_idx = prev.instance.index_of(&fact);
                if let Some(oi) = old_idx {
                    // A previous-run fact staged at a different round
                    // would cascade round changes: bail.
                    if prev.round_of[oi] != round {
                        return None;
                    }
                }
                let d = deriv
                    .get_or_insert_with(|| Derivation {
                        rule: ridx,
                        trigger: trigger.clone(),
                        frontier: frontier.clone(),
                        round,
                    })
                    .clone();
                let idx = log.push(fact.clone(), d).expect("checked fresh");
                match old_idx {
                    Some(oi) => {
                        old_to_cold[oi] = Some(idx);
                        replayed += 1;
                    }
                    None => {
                        // A genuinely new fact: it joins the cone delta.
                        let wi = w.insert(fact).expect("absent from prev");
                        debug_assert_eq!(wi, prev_len + w_extra.len());
                        w_extra.push((idx, round));
                        next_delta_facts.push(wi);
                        rederived += 1;
                    }
                }
            }
        }
        // Rank the round's new terms; an old-chase term may only re-enter
        // the domain at its original round.
        let mut next_delta_terms: Vec<TermId> = Vec::new();
        for (r, &t) in log.instance().domain().iter().enumerate().skip(ranked) {
            term_rank.insert(t, r as u32);
            cold_term_round.insert(t, round);
            match old_term_round.get(&t) {
                Some(&orig) if orig != round => return None,
                Some(_) => {}
                None => next_delta_terms.push(t),
            }
            min_term_round.get_or_insert(round);
        }
        ranked = log.instance().domain_len();
        terms_at.push(ranked - terms_before);

        let row = RoundStats {
            round,
            triggers: disc_triggers,
            candidates: counters.candidates,
            dom_sweeps,
            enum_wall,
            merge_wall: t1.elapsed(),
            wall: t0.elapsed(),
            ..RoundStats::default()
        };
        if !log.close_round(row) {
            debug_assert!(buckets.iter().all(|b| b.is_empty()));
            debug_assert!(old_events.iter().all(|e| e.is_empty()));
            break;
        }
        delta_facts = next_delta_facts;
        delta_terms = next_delta_terms;
        if log.instance().len() > budget.max_facts {
            break;
        }
    }

    Some((
        log.finish(),
        BatchStats {
            mode: BatchMode::SeededInsert,
            replayed_facts: replayed,
            rederived_facts: rederived,
            cone_facts: 0,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::chase;
    use qr_syntax::{parse_instance, parse_theory, Symbol};
    use qr_testkit::Rng;

    fn f(pred: &str, args: &[&str]) -> Fact {
        Fact::new(
            qr_syntax::Pred::new(pred, args.len() as u32),
            args.iter()
                .map(|a| TermId::constant(Symbol::intern(a)))
                .collect::<Vec<_>>(),
        )
    }

    /// The identity contract: everything except enumeration-work counters
    /// (triggers/candidates/sweeps — skipping that work is the point) and
    /// wall times.
    fn assert_incr_matches_cold(incr: &Chase, cold: &Chase) {
        assert_eq!(incr.instance, cold.instance);
        assert_eq!(incr.round_of, cold.round_of);
        assert_eq!(incr.rounds, cold.rounds);
        assert_eq!(incr.outcome, cold.outcome);
        assert_eq!(incr.derivations, cold.derivations);
        assert_eq!(incr.round_snapshots.len(), cold.round_snapshots.len());
        for (a, b) in incr.round_snapshots.iter().zip(&cold.round_snapshots) {
            assert_eq!(a.facts(), b.facts());
            assert_eq!(a.terms(), b.terms());
        }
        assert_eq!(incr.stats.threads, cold.stats.threads);
        let memory = |c: &Chase| {
            let m = c.instance.stats();
            (m.peak_facts, m.bytes_facts, m.bytes_index, m.bytes_tuples)
        };
        assert_eq!(memory(incr), memory(cold));
        assert_eq!(incr.stats.rounds.len(), cold.stats.rounds.len());
        for (ra, rb) in incr.stats.rounds.iter().zip(&cold.stats.rounds) {
            assert_eq!(ra.round, rb.round);
            assert_eq!(ra.facts_added, rb.facts_added, "round {}", ra.round);
            assert_eq!(ra.terms_added, rb.terms_added, "round {}", ra.round);
        }
    }

    /// Mirrors `chase_incremental`'s base semantics on a shadow fact list:
    /// retract first, then append the inserts that are not already present.
    fn apply_shadow(base: &mut Vec<Fact>, batch: &WriteBatch) {
        base.retain(|x| !batch.retracts.contains(x));
        for fx in &batch.inserts {
            if !base.contains(fx) {
                base.push(fx.clone());
            }
        }
    }

    fn cold_of(theory: &Theory, base: &[Fact], budget: ChaseBudget, exec: &Executor) -> Chase {
        let mut db = Instance::new();
        for fx in base {
            db.insert(fx.clone());
        }
        chase_with(theory, &db, budget, exec)
    }

    #[test]
    fn tc_insert_new_nodes_takes_fast_path() {
        let t = parse_theory("e(X,Y), e(Y,Z) -> e(X,Z).").unwrap();
        let d = parse_instance("e(a,b). e(b,c). e(c,d).").unwrap();
        let exec = Executor::sequential();
        let budget = ChaseBudget::default();
        let prev = chase_with(&t, &d, budget, &exec);
        let batch = WriteBatch::insert([f("e", &["d", "x1"]), f("e", &["x1", "x2"])]);
        let (incr, bs) = chase_incremental(&t, &prev, &batch, budget, &exec);
        assert_eq!(bs.mode, BatchMode::SeededInsert);
        assert!(bs.replayed_facts > 0);
        assert!(bs.rederived_facts > 0);
        let mut base: Vec<Fact> = d.iter().map(|fr| fr.to_fact()).collect();
        apply_shadow(&mut base, &batch);
        assert_incr_matches_cold(&incr, &cold_of(&t, &base, budget, &exec));
    }

    #[test]
    fn insert_duplicate_of_derived_falls_back() {
        // e(a,c) was derived at round 1; inserting it as a base fact moves
        // it to round 0, which the fast path refuses to absorb.
        let t = parse_theory("e(X,Y), e(Y,Z) -> e(X,Z).").unwrap();
        let d = parse_instance("e(a,b). e(b,c). e(c,d).").unwrap();
        let exec = Executor::sequential();
        let budget = ChaseBudget::default();
        let prev = chase_with(&t, &d, budget, &exec);
        let batch = WriteBatch::insert([f("e", &["a", "c"])]);
        let (incr, bs) = chase_incremental(&t, &prev, &batch, budget, &exec);
        assert_eq!(bs.mode, BatchMode::Rechase);
        let mut base: Vec<Fact> = d.iter().map(|fr| fr.to_fact()).collect();
        apply_shadow(&mut base, &batch);
        assert_incr_matches_cold(&incr, &cold_of(&t, &base, budget, &exec));
    }

    #[test]
    fn retract_leaf_takes_fast_path() {
        // r/1 heads no rule and r(z) feeds no derivation, and its term
        // vanishes wholly: the fact log replays without it.
        let t = parse_theory("p(X) -> q(X).").unwrap();
        let d = parse_instance("p(a). p(b). r(z).").unwrap();
        let exec = Executor::sequential();
        let budget = ChaseBudget::default();
        let prev = chase_with(&t, &d, budget, &exec);
        let batch = WriteBatch::retract([f("r", &["z"])]);
        let (incr, bs) = chase_incremental(&t, &prev, &batch, budget, &exec);
        assert_eq!(bs.mode, BatchMode::TruncatedRetract);
        assert_eq!(bs.replayed_facts, 2); // q(a), q(b)
        assert_eq!(bs.cone_facts, 0);
        let mut base: Vec<Fact> = d.iter().map(|fr| fr.to_fact()).collect();
        apply_shadow(&mut base, &batch);
        assert_incr_matches_cold(&incr, &cold_of(&t, &base, budget, &exec));
    }

    #[test]
    fn retract_with_cone_falls_back_and_counts_it() {
        let t = parse_theory("e(X,Y), e(Y,Z) -> e(X,Z).").unwrap();
        let d = parse_instance("e(a,b). e(b,c). e(c,d).").unwrap();
        let exec = Executor::sequential();
        let budget = ChaseBudget::default();
        let prev = chase_with(&t, &d, budget, &exec);
        let batch = WriteBatch::retract([f("e", &["b", "c"])]);
        let (incr, bs) = chase_incremental(&t, &prev, &batch, budget, &exec);
        assert_eq!(bs.mode, BatchMode::Rechase);
        // Cone: e(a,c), e(b,d) directly, e(a,d) transitively.
        assert_eq!(bs.cone_facts, 3);
        let mut base: Vec<Fact> = d.iter().map(|fr| fr.to_fact()).collect();
        apply_shadow(&mut base, &batch);
        assert_incr_matches_cold(&incr, &cold_of(&t, &base, budget, &exec));
    }

    #[test]
    fn existential_insert_fast_path() {
        // Inserting p(c) spawns a fresh labelled null via the skolem
        // chase; the seeded path must mint it at the same rank and round.
        let t = parse_theory("p(X) -> r(X,Z).\nr(X,Y) -> s(Y).").unwrap();
        let d = parse_instance("p(a). p(b).").unwrap();
        let exec = Executor::sequential();
        let budget = ChaseBudget::default();
        let prev = chase_with(&t, &d, budget, &exec);
        let batch = WriteBatch::insert([f("p", &["c"])]);
        let (incr, bs) = chase_incremental(&t, &prev, &batch, budget, &exec);
        assert_eq!(bs.mode, BatchMode::SeededInsert);
        let mut base: Vec<Fact> = d.iter().map(|fr| fr.to_fact()).collect();
        apply_shadow(&mut base, &batch);
        assert_incr_matches_cold(&incr, &cold_of(&t, &base, budget, &exec));
    }

    #[test]
    fn dom_sweep_over_empty_previous_domain() {
        // The previous run had an empty active domain, so `s, dom(Y) -> q`
        // never fired even though its trigger is all-old; the first insert
        // of a term must fire it.
        let t = parse_theory("s, dom(Y) -> q.").unwrap();
        let d = parse_instance("s.").unwrap();
        assert_eq!(d.domain_len(), 0);
        let exec = Executor::sequential();
        let budget = ChaseBudget::default();
        let prev = chase_with(&t, &d, budget, &exec);
        assert!(!prev.instance.contains(&f("q", &[])));
        let batch = WriteBatch::insert([f("r", &["a"])]);
        let (incr, _bs) = chase_incremental(&t, &prev, &batch, budget, &exec);
        assert!(incr.instance.contains(&f("q", &[])));
        let mut base: Vec<Fact> = d.iter().map(|fr| fr.to_fact()).collect();
        apply_shadow(&mut base, &batch);
        assert_incr_matches_cold(&incr, &cold_of(&t, &base, budget, &exec));
    }

    #[test]
    fn noop_batches() {
        let t = parse_theory("e(X,Y), e(Y,Z) -> e(X,Z).").unwrap();
        let d = parse_instance("e(a,b). e(b,c).").unwrap();
        let exec = Executor::sequential();
        let budget = ChaseBudget::default();
        let prev = chase_with(&t, &d, budget, &exec);
        for batch in [
            WriteBatch::default(),
            WriteBatch::insert([f("e", &["a", "b"])]), // already a base fact
            WriteBatch::retract([f("e", &["q", "q"])]), // never present
        ] {
            let (incr, bs) = chase_incremental(&t, &prev, &batch, budget, &exec);
            assert_eq!(bs.mode, BatchMode::Noop, "{batch:?}");
            assert_incr_matches_cold(&incr, &prev);
        }
        // Retracting a *derived* fact is also a no-op: only base facts are
        // subject to retraction.
        let derived = f("e", &["a", "c"]);
        assert!(prev.instance.contains(&derived));
        let (_, bs) = chase_incremental(&t, &prev, &WriteBatch::retract([derived]), budget, &exec);
        assert_eq!(bs.mode, BatchMode::Noop);
    }

    const PROP_THEORIES: &[&str] = &[
        "e(X,Y), e(Y,Z) -> e(X,Z).",
        "e(X,Y) -> e(Y,X).",
        "p(X) -> r(X,Z).\nr(X,Y) -> s(Y).\ns(X), e(X,Y) -> p(Y).",
        "e(X,Y), dom(Z) -> t(X,Z).",
        "p(X) -> r(X,Z).\nr(X,Y), dom(W) -> q(Y,W).",
    ];

    fn random_fact(rng: &mut Rng, nodes: &[&str]) -> Fact {
        if rng.below(3) == 0 {
            f("p", &[nodes[rng.below(nodes.len())]])
        } else {
            f(
                "e",
                &[nodes[rng.below(nodes.len())], nodes[rng.below(nodes.len())]],
            )
        }
    }

    fn random_batch(rng: &mut Rng, nodes: &[&str], base: &[Fact]) -> WriteBatch {
        let mut batch = WriteBatch::default();
        for _ in 0..rng.below(3) {
            batch.inserts.push(random_fact(rng, nodes));
        }
        for _ in 0..rng.below(2) {
            if !base.is_empty() && rng.bool() {
                batch.retracts.push(base[rng.below(base.len())].clone());
            } else {
                batch.retracts.push(random_fact(rng, nodes));
            }
        }
        batch
    }

    #[test]
    fn random_batch_sequences_match_cold_chase() {
        let nodes = ["a", "b", "c", "d", "g"];
        let budget = ChaseBudget::default();
        qr_testkit::check("incremental_vs_cold", 40, |rng| {
            let t = parse_theory(PROP_THEORIES[rng.below(PROP_THEORIES.len())]).unwrap();
            let exec = Executor::with_threads(*rng.pick(&[1, 2, 4]));
            let mut base: Vec<Fact> = Vec::new();
            for _ in 0..rng.range(1, 5) {
                let fx = random_fact(rng, &nodes);
                if !base.contains(&fx) {
                    base.push(fx);
                }
            }
            let mut incr = {
                let mut db = Instance::new();
                for fx in &base {
                    db.insert(fx.clone());
                }
                IncrementalChase::new(&t, &db, budget, &exec)
            };
            for _ in 0..rng.range(1, 5) {
                let batch = random_batch(rng, &nodes, &base);
                apply_shadow(&mut base, &batch);
                incr.apply(&t, &batch, budget, &exec);
                assert_incr_matches_cold(incr.chase(), &cold_of(&t, &base, budget, &exec));
            }
            let s = incr.stats();
            assert_eq!(
                s.batches,
                s.noops + s.seeded_inserts + s.truncated_retracts + s.rechases
            );
        });
    }

    #[test]
    fn insert_then_retract_roundtrips_to_never_inserted() {
        let nodes = ["a", "b", "c", "d"];
        let budget = ChaseBudget::default();
        qr_testkit::check("insert_retract_roundtrip", 30, |rng| {
            let t = parse_theory(PROP_THEORIES[rng.below(PROP_THEORIES.len())]).unwrap();
            let exec = Executor::with_threads(*rng.pick(&[1, 2, 4]));
            let mut base: Vec<Fact> = Vec::new();
            for _ in 0..rng.range(1, 5) {
                let fx = random_fact(rng, &nodes);
                if !base.contains(&fx) {
                    base.push(fx);
                }
            }
            let mut db = Instance::new();
            for fx in &base {
                db.insert(fx.clone());
            }
            let mut incr = IncrementalChase::new(&t, &db, budget, &exec);
            let never = incr.chase().clone();
            // Insert k fresh facts, then retract exactly those k.
            let mut fresh: Vec<Fact> = Vec::new();
            for _ in 0..rng.range(1, 4) {
                let fx = random_fact(rng, &nodes);
                if !base.contains(&fx) && !fresh.contains(&fx) {
                    fresh.push(fx);
                }
            }
            incr.apply(&t, &WriteBatch::insert(fresh.clone()), budget, &exec);
            incr.apply(&t, &WriteBatch::retract(fresh), budget, &exec);
            assert_incr_matches_cold(incr.chase(), &never);
        });
    }

    #[test]
    fn checkpoint_resume_interop() {
        // Serializing the *base* mid-sequence, cold-chasing the decoded
        // copy, and continuing the batches must land byte-identical to the
        // uninterrupted incremental run.
        let t = parse_theory("e(X,Y), e(Y,Z) -> e(X,Z).\np(X) -> r(X,Z).").unwrap();
        let d = parse_instance("e(a,b). e(b,c). p(a).").unwrap();
        let exec = Executor::sequential();
        let budget = ChaseBudget::default();
        let mut base: Vec<Fact> = d.iter().map(|fr| fr.to_fact()).collect();
        let mut live = IncrementalChase::new(&t, &d, budget, &exec);
        let batches = [
            WriteBatch::insert([f("e", &["c", "d1"]), f("p", &["d1"])]),
            WriteBatch::retract([f("p", &["a"])]),
            WriteBatch::insert([f("e", &["d1", "d2"])]),
        ];
        live.apply(&t, &batches[0], budget, &exec);
        apply_shadow(&mut base, &batches[0]);
        // Checkpoint the maintained base, round-trip it, resume.
        let mut base_inst = Instance::new();
        for fx in &base {
            base_inst.insert(fx.clone());
        }
        let decoded = Instance::from_bytes(&base_inst.to_bytes()).unwrap();
        assert_eq!(decoded, base_inst);
        let mut resumed = IncrementalChase::new(&t, &decoded, budget, &exec);
        assert_incr_matches_cold(resumed.chase(), live.chase());
        for batch in &batches[1..] {
            live.apply(&t, batch, budget, &exec);
            resumed.apply(&t, batch, budget, &exec);
            apply_shadow(&mut base, batch);
        }
        assert_incr_matches_cold(resumed.chase(), live.chase());
        assert_incr_matches_cold(live.chase(), &cold_of(&t, &base, budget, &exec));
    }

    #[test]
    fn seeded_insert_skips_old_enumeration_work() {
        // The efficiency claim behind the tentpole: absorbing a batch must
        // enumerate fewer candidates than the cold chase of the final set.
        let t = parse_theory("e(X,Y), e(Y,Z) -> e(X,Z).").unwrap();
        let mut src = String::new();
        for i in 0..12 {
            src.push_str(&format!("e(n{i},n{}).", i + 1));
        }
        let d = parse_instance(&src).unwrap();
        let exec = Executor::sequential();
        let budget = ChaseBudget::default();
        let prev = chase_with(&t, &d, budget, &exec);
        let batch = WriteBatch::insert([f("e", &["n12", "n13"])]);
        let (incr, bs) = chase_incremental(&t, &prev, &batch, budget, &exec);
        assert_eq!(bs.mode, BatchMode::SeededInsert);
        let mut base: Vec<Fact> = d.iter().map(|fr| fr.to_fact()).collect();
        apply_shadow(&mut base, &batch);
        let cold = cold_of(&t, &base, budget, &exec);
        assert_incr_matches_cold(&incr, &cold);
        let work = |c: &Chase| c.stats.rounds.iter().map(|r| r.candidates).sum::<u64>();
        assert!(
            work(&incr) < work(&cold) / 2,
            "incremental candidates {} vs cold {}",
            work(&incr),
            work(&cold)
        );
    }

    #[test]
    fn default_budget_chase_smoke() {
        // `chase` (default executor) and `chase_incremental` agree too.
        let t = parse_theory("e(X,Y), e(Y,Z) -> e(X,Z).").unwrap();
        let d = parse_instance("e(a,b). e(b,c).").unwrap();
        let prev = chase(&t, &d, ChaseBudget::default());
        let exec = Executor::from_env();
        let batch = WriteBatch::insert([f("e", &["c", "d"])]);
        let (incr, _) = chase_incremental(&t, &prev, &batch, ChaseBudget::default(), &exec);
        let mut base: Vec<Fact> = d.iter().map(|fr| fr.to_fact()).collect();
        apply_shadow(&mut base, &batch);
        assert_incr_matches_cold(&incr, &cold_of(&t, &base, ChaseBudget::default(), &exec));
    }

    #[test]
    fn coalesce_fuses_cancels_and_drops_noops() {
        let in_base = |fx: &Fact| *fx == f("p", &["a"]);
        let batches = vec![
            WriteBatch::insert([f("p", &["b"])]),
            WriteBatch::insert([f("p", &["c"]), f("p", &["a"])]), // p(a) is a no-op
            WriteBatch::retract([f("p", &["c"]), f("p", &["z"])]), // cancels p(c); p(z) is a no-op
            WriteBatch::retract([f("p", &["a"])]),
            WriteBatch {
                inserts: vec![f("q", &["d"])],
                retracts: vec![f("p", &["b"])],
            },
            WriteBatch::insert([f("q", &["d"])]), // no-op after the mixed batch
        ];
        let out = WriteBatch::coalesce(&batches, in_base);
        assert_eq!(
            out,
            vec![
                WriteBatch::insert([f("p", &["b"])]),
                WriteBatch::retract([f("p", &["a"])]),
                WriteBatch {
                    inserts: vec![f("q", &["d"])],
                    retracts: vec![f("p", &["b"])],
                },
            ]
        );
    }

    #[test]
    fn coalesce_cancellation_empties_top_and_fuses_through() {
        // insert p(b); retract p(b), p(a): the insert cancels away entirely
        // and the surviving retract fuses with the preceding retract batch.
        let in_base = |fx: &Fact| *fx == f("p", &["a"]) || *fx == f("p", &["x"]);
        let batches = vec![
            WriteBatch::retract([f("p", &["x"])]),
            WriteBatch::insert([f("p", &["b"])]),
            WriteBatch::retract([f("p", &["b"]), f("p", &["a"])]),
        ];
        let out = WriteBatch::coalesce(&batches, in_base);
        assert_eq!(
            out,
            vec![WriteBatch::retract([f("p", &["x"]), f("p", &["a"])])]
        );
    }

    #[test]
    fn apply_all_dispatches_fewer_batches_to_identical_state() {
        let t = parse_theory("e(X,Y), e(Y,Z) -> e(X,Z).").unwrap();
        let d = parse_instance("e(a,b). e(b,c).").unwrap();
        let exec = Executor::sequential();
        let budget = ChaseBudget::default();
        let batches = vec![
            WriteBatch::insert([f("e", &["c", "d"])]),
            WriteBatch::insert([f("e", &["d", "x"])]),
            WriteBatch::retract([f("e", &["d", "x"])]), // cancels the insert above
            WriteBatch::insert([f("e", &["d", "e"])]),
        ];
        let mut one_by_one = IncrementalChase::new(&t, &d, budget, &exec);
        for batch in &batches {
            one_by_one.apply(&t, batch, budget, &exec);
        }
        let mut coalesced = IncrementalChase::new(&t, &d, budget, &exec);
        let dispatched = coalesced.apply_all(&t, &batches, budget, &exec);
        assert_eq!(dispatched.len(), 1); // four batches fused into one insert
        assert_eq!(coalesced.stats().batches, 1);
        assert_eq!(one_by_one.stats().batches, 4);
        assert_incr_matches_cold(coalesced.chase(), one_by_one.chase());
        let mut base: Vec<Fact> = d.iter().map(|fr| fr.to_fact()).collect();
        for batch in &batches {
            apply_shadow(&mut base, batch);
        }
        assert_incr_matches_cold(coalesced.chase(), &cold_of(&t, &base, budget, &exec));
    }

    #[test]
    fn random_coalesced_sequences_match_one_by_one() {
        // Property: `apply_all` over a random batch sequence lands on a
        // state byte-identical to applying each batch in turn, and never
        // dispatches more batches than it was given.
        let t = parse_theory("e(X,Y), e(Y,Z) -> e(X,Z). p(X) -> q(X).").unwrap();
        let exec = Executor::sequential();
        let budget = ChaseBudget::default();
        qr_testkit::check("coalesce_matches_one_by_one", 40, |rng: &mut Rng| {
            let pool: Vec<Fact> = (0..6)
                .flat_map(|i| {
                    let a = format!("n{i}");
                    let b = format!("n{}", (i + 1) % 6);
                    [f("e", &[&a, &b]), f("p", &[&a])]
                })
                .collect();
            let mut d = Instance::new();
            for fx in &pool {
                if rng.bool() {
                    d.insert(fx.clone());
                }
            }
            let mut batches = Vec::new();
            for _ in 0..rng.range(1, 6) {
                let mut batch = WriteBatch::default();
                for _ in 0..rng.range(0, 4) {
                    let fx = pool[rng.below(pool.len())].clone();
                    if rng.bool() {
                        batch.inserts.push(fx);
                    } else {
                        batch.retracts.push(fx);
                    }
                }
                batches.push(batch);
            }
            let mut one_by_one = IncrementalChase::new(&t, &d, budget, &exec);
            for batch in &batches {
                one_by_one.apply(&t, batch, budget, &exec);
            }
            let mut coalesced = IncrementalChase::new(&t, &d, budget, &exec);
            let dispatched = coalesced.apply_all(&t, &batches, budget, &exec);
            assert!(dispatched.len() <= batches.len());
            assert_incr_matches_cold(coalesced.chase(), one_by_one.chase());
        });
    }
}

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
//! new facts (sound by Observation 8: the old chase already holds every
//! consequence of the old base, so no trigger that fired needs to fire
//! again): the recorded match trails of the previous run are replayed
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
//! **Every other batch** — any batch with a retraction, an insert into a
//! chase that did not terminate, or an insert batch that violates one of
//! the seeded path's invariants (each bail is a *detected* structural
//! change, e.g. a new fact pulling an old fact into an earlier round,
//! where replaying old trails would be unsound) — is a cold re-chase of
//! the adjusted base. A retraction first counts its
//! provenance cone (the derived facts whose first derivations transitively
//! reference a retracted base fact) for [`BatchStats::cone_facts`]; the
//! re-chase then recomputes every derived fact, in the cone or not.

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
}

/// How a batch was absorbed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchMode {
    /// No effective change: the chase is kept as it is.
    Noop,
    /// Inserts absorbed by delta seeding plus match-trail replay.
    SeededInsert,
    /// Cold re-chase of the adjusted base: every batch with a retraction,
    /// and every insert batch the seeded path bails on.
    Rechase,
}

/// Per-batch accounting, returned alongside the updated chase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchStats {
    /// Which maintenance path absorbed the batch.
    pub mode: BatchMode,
    /// Derived facts carried over from the previous chase without
    /// re-running their joins (seeded inserts only).
    pub replayed_facts: u64,
    /// Derived facts (re)computed by enumeration: new cone facts on the
    /// insert path, every derived fact on a re-chase.
    pub rederived_facts: u64,
    /// Derived facts whose first derivations transitively reference a
    /// retracted base fact (the provenance cone). Counted only; the
    /// re-chase recomputes them along with every other derived fact.
    pub cone_facts: u64,
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
    /// Always 0: no path absorbs a retraction without a re-chase. Kept
    /// because the `perfbench` maintain workload reports it.
    pub truncated_retracts: u64,
    /// Batches that fell back to [`BatchMode::Rechase`].
    pub rechases: u64,
    /// Total derived facts replayed without enumeration.
    pub replayed_facts: u64,
    /// Total derived facts (re)computed by enumeration.
    pub rederived_facts: u64,
    /// Total derived facts in retraction cones.
    pub cone_facts: u64,
}

impl IncrementalStats {
    fn absorb(&mut self, b: &BatchStats) {
        self.batches += 1;
        match b.mode {
            BatchMode::Noop => self.noops += 1,
            BatchMode::SeededInsert => self.seeded_inserts += 1,
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
    /// semi-naive engine for seeded inserts to engage).
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
    /// chase of the adjusted base under `budget`, which must be the budget
    /// the current chase was built with for a seeded insert to preserve
    /// that contract.
    pub fn apply(
        &mut self,
        theory: &Theory,
        batch: &WriteBatch,
        budget: ChaseBudget,
        exec: &Executor,
    ) -> BatchStats {
        let (next, bs) = chase_incremental(theory, &self.chase, batch, budget, exec);
        if let Some(next) = next {
            self.chase = next;
        }
        self.stats.absorb(&bs);
        bs
    }
}

/// Applies one batch of base-fact writes to a finished chase: `None` for a
/// batch with no effective write (the chase stands), else the chase of the
/// adjusted base — the previous base minus the retracted facts, then the
/// inserted facts it lacks.
fn chase_incremental(
    theory: &Theory,
    prev: &Chase,
    batch: &WriteBatch,
    budget: ChaseBudget,
    exec: &Executor,
) -> (Option<Chase>, BatchStats) {
    let base_len = prev.round_snapshots[0].facts();
    let base_index = |f: &Fact| prev.instance.index_of(f).filter(|&i| i < base_len);
    let mut retracted_idx: Vec<FactIdx> = batch.retracts.iter().filter_map(base_index).collect();
    retracted_idx.sort_unstable();
    retracted_idx.dedup();
    let mut queued: HashSet<&Fact> = HashSet::new();
    let inserts: Vec<Fact> = batch
        .inserts
        .iter()
        .filter(|&f| {
            base_index(f).is_none_or(|i| retracted_idx.binary_search(&i).is_ok())
                && queued.insert(f)
        })
        .cloned()
        .collect();
    if retracted_idx.is_empty() && inserts.is_empty() {
        let noop = BatchStats {
            mode: BatchMode::Noop,
            replayed_facts: 0,
            rederived_facts: 0,
            cone_facts: 0,
        };
        return (None, noop);
    }
    // A seeded insert replays recorded first derivations, so it needs a
    // terminated previous run.
    if retracted_idx.is_empty() && prev.terminated() {
        if let Some((chase, bs)) = seeded_insert(theory, prev, &inserts, budget, exec) {
            return (Some(chase), bs);
        }
    }
    let cone = cone_facts(prev, &retracted_idx);
    let mut db = Instance::new();
    for i in 0..base_len {
        if retracted_idx.binary_search(&i).is_err() {
            db.insert(prev.instance.fact(i).to_fact());
        }
    }
    for f in inserts {
        db.insert(f);
    }
    let base_n = db.len();
    let chase = chase_with(theory, &db, budget, exec);
    let rederived = (chase.instance.len() - base_n) as u64;
    (
        Some(chase),
        BatchStats {
            mode: BatchMode::Rechase,
            replayed_facts: 0,
            rederived_facts: rederived,
            cone_facts: cone,
        },
    )
}

/// The size of the provenance cone: derived facts whose first derivations
/// transitively reference a retracted base fact. Trails only point
/// backwards, so one forward sweep suffices.
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

/// An event waiting to be applied in some cold round: a replayed event of
/// the previous run or one found by the cone discovery pass. Its trigger
/// indexes the working instance `W`, which extends the previous instance,
/// so a previous-run fact keeps its index.
struct PendingEvent {
    rule: usize,
    trigger: Vec<usize>,
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
    out: &mut Vec<PendingEvent>,
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
        out.push(PendingEvent {
            rule: ridx,
            trigger,
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
) -> Vec<PendingEvent> {
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

/// The seeded-insert path. Replays the previous run's events at their
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
                    trigger: d.trigger.clone(),
                    frontier: d.frontier.clone(),
                });
                last = Some(d);
            }
        }
    }

    // The working instance W = prev ++ batch ++ (cone facts as they are
    // derived): discovery joins run against it, and every pending event's
    // trigger indexes it. Each W fact carries its cold index (set once the
    // fact enters the cold log) and its round.
    let mut w = prev.instance.clone();
    let mut w_to_cold: Vec<Option<FactIdx>> = vec![None; prev_len];
    let mut w_round: Vec<usize> = prev.round_of.clone();
    // The cold base: the previous base, then the batch.
    let mut base = Instance::new();
    for (i, slot) in w_to_cold.iter_mut().enumerate().take(base_len) {
        let idx = base
            .insert(prev.instance.fact(i).to_fact())
            .expect("the previous chase holds no duplicates");
        *slot = Some(idx);
    }
    let mut delta_facts: Vec<usize> = Vec::new();
    for f in inserts {
        let idx = base.insert(f.clone()).expect("effective inserts are new");
        let wi = w.insert(f.clone()).expect("not in prev");
        debug_assert_eq!(wi, w_to_cold.len());
        w_to_cold.push(Some(idx));
        w_round.push(0);
        delta_facts.push(wi);
    }
    let mut term_rank: HashMap<TermId, u32> = HashMap::new();
    let mut cold_term_round: HashMap<TermId, usize> = HashMap::new();
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
            for &wi in &ev.trigger {
                m = m.max(w_round[wi]);
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
                buckets[fire].push(ev);
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
            let trigger: Vec<FactIdx> = ev
                .trigger
                .iter()
                .map(|&wi| w_to_cold[wi].expect("older rounds are fully replayed"))
                .collect();
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
                        w_to_cold[oi] = Some(idx);
                        replayed += 1;
                    }
                    None => {
                        // A genuinely new fact: it joins the cone delta.
                        let wi = w.insert(fact).expect("absent from prev");
                        debug_assert_eq!(wi, w_to_cold.len());
                        w_to_cold.push(Some(idx));
                        w_round.push(round);
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

    /// Mirrors `IncrementalChase::apply`'s base semantics on a shadow fact list:
    /// retract first, then append the inserts that are not already present.
    fn apply_shadow(base: &mut Vec<Fact>, batch: &WriteBatch) {
        base.retain(|x| !batch.retracts.contains(x));
        for fx in &batch.inserts {
            if !base.contains(fx) {
                base.push(fx.clone());
            }
        }
    }

    /// Absorbs one batch into a copy of `prev`.
    fn absorb(
        theory: &Theory,
        prev: &Chase,
        batch: &WriteBatch,
        budget: ChaseBudget,
        exec: &Executor,
    ) -> (Chase, BatchStats) {
        let mut incr = IncrementalChase::from_chase(prev.clone());
        let bs = incr.apply(theory, batch, budget, exec);
        (incr.chase, bs)
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
        let (incr, bs) = absorb(&t, &prev, &batch, budget, &exec);
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
        let (incr, bs) = absorb(&t, &prev, &batch, budget, &exec);
        assert_eq!(bs.mode, BatchMode::Rechase);
        let mut base: Vec<Fact> = d.iter().map(|fr| fr.to_fact()).collect();
        apply_shadow(&mut base, &batch);
        assert_incr_matches_cold(&incr, &cold_of(&t, &base, budget, &exec));
    }

    #[test]
    fn retract_leaf_rechases_with_empty_cone() {
        // r/1 heads no rule and r(z) feeds no derivation: the cone is empty,
        // and the re-chase of the shrunken base still matches a cold chase.
        let t = parse_theory("p(X) -> q(X).").unwrap();
        let d = parse_instance("p(a). p(b). r(z).").unwrap();
        let exec = Executor::sequential();
        let budget = ChaseBudget::default();
        let prev = chase_with(&t, &d, budget, &exec);
        let batch = WriteBatch::retract([f("r", &["z"])]);
        let (incr, bs) = absorb(&t, &prev, &batch, budget, &exec);
        assert_eq!(bs.mode, BatchMode::Rechase);
        assert_eq!(bs.cone_facts, 0);
        assert_eq!(bs.replayed_facts, 0);
        assert_eq!(bs.rederived_facts, 2); // q(a), q(b)
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
        let (incr, bs) = absorb(&t, &prev, &batch, budget, &exec);
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
        let (incr, bs) = absorb(&t, &prev, &batch, budget, &exec);
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
        let (incr, _bs) = absorb(&t, &prev, &batch, budget, &exec);
        assert!(incr.instance.contains(&f("q", &[])));
        let mut base: Vec<Fact> = d.iter().map(|fr| fr.to_fact()).collect();
        apply_shadow(&mut base, &batch);
        assert_incr_matches_cold(&incr, &cold_of(&t, &base, budget, &exec));
    }

    #[test]
    fn retract_vanishing_dom_var_sweep_matches_cold() {
        // `s, dom(Y) -> q` fired only because r(z) put a term in the
        // domain; retracting r(z) empties the domain, so q must go too.
        let t = parse_theory("s, dom(Y) -> q.").unwrap();
        let d = parse_instance("s. r(z).").unwrap();
        let exec = Executor::sequential();
        let budget = ChaseBudget::default();
        let prev = chase_with(&t, &d, budget, &exec);
        assert!(prev.instance.contains(&f("q", &[])));
        let batch = WriteBatch::retract([f("r", &["z"])]);
        let (incr, bs) = absorb(&t, &prev, &batch, budget, &exec);
        assert_eq!(bs.mode, BatchMode::Rechase);
        assert!(!incr.instance.contains(&f("q", &[])));
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
        let mut incr = IncrementalChase::new(&t, &d, budget, &exec);
        let prev = incr.chase().clone();
        // Retracting a *derived* fact is a no-op too: only base facts are
        // subject to retraction.
        let derived = f("e", &["a", "c"]);
        assert!(prev.instance.contains(&derived));
        for batch in [
            WriteBatch::default(),
            WriteBatch::insert([f("e", &["a", "b"])]), // already a base fact
            WriteBatch::retract([f("e", &["q", "q"])]), // never present
            WriteBatch::retract([derived]),
        ] {
            let bs = incr.apply(&t, &batch, budget, &exec);
            assert_eq!(bs.mode, BatchMode::Noop, "{batch:?}");
            assert_incr_matches_cold(incr.chase(), &prev);
        }
        assert_eq!(incr.stats().noops, 4);
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
            assert_eq!(s.batches, s.noops + s.seeded_inserts + s.rechases);
            assert_eq!(s.truncated_retracts, 0);
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
        let budget = ChaseBudget::default();
        for threads in [1, 2, 4] {
            let exec = Executor::with_threads(threads);
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
        let (incr, bs) = absorb(&t, &prev, &batch, budget, &exec);
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
        // `chase` (default executor) and `IncrementalChase` agree too.
        let t = parse_theory("e(X,Y), e(Y,Z) -> e(X,Z).").unwrap();
        let d = parse_instance("e(a,b). e(b,c).").unwrap();
        let prev = chase(&t, &d, ChaseBudget::default());
        let exec = Executor::from_env();
        let batch = WriteBatch::insert([f("e", &["c", "d"])]);
        let (incr, _) = absorb(&t, &prev, &batch, ChaseBudget::default(), &exec);
        let mut base: Vec<Fact> = d.iter().map(|fr| fr.to_fact()).collect();
        apply_shadow(&mut base, &batch);
        assert_incr_matches_cold(&incr, &cold_of(&t, &base, ChaseBudget::default(), &exec));
    }
}

//! The chase procedure (Definition 6 of the paper).
//!
//! `Ch_0(T,D) = D`; `Ch_{i+1}(T,D)` extends `Ch_i(T,D)` with `appl(ρ,σ)`
//! for **every** rule `ρ` and every homomorphism `σ` of its body into
//! `Ch_i(T,D)` — rounds are "parallel": facts produced in round `i+1` never
//! feed triggers of round `i+1`.
//!
//! The default engine is *semi-naive*: a trigger is enumerated in round
//! `i+1` only if it uses at least one fact (or, for `dom`-scoped variables
//! and ground `dom` atoms, one domain term) that first appeared in round
//! `i`. Triggers using only older facts already fired in an earlier round,
//! so the produced fact sets `Ch_i` are exactly those of the textbook
//! definition; [`chase_naive`] re-enumerates everything each round and is
//! used to cross-check this.
//!
//! The hot path is compiled per run: each rule gets one [`JoinPlan`] per
//! enumeration path (per forced body atom), the per-round delta is tracked
//! as contiguous fact/term index ranges plus a per-predicate index, and a
//! trigger using several round-`i` delta elements is processed exactly once
//! — only when it arrives via its *first* delta body atom (paths are
//! ordered; later paths skip triggers an earlier path already covers), so
//! no per-trigger hashing or allocation is needed. Every run also fills a
//! [`ChaseStats`] for observability.
//!
//! Enumeration is organised as per-round *tasks* (one chunk of one
//! enumeration path of one rule) evaluated against the immutable prefix
//! `Ch_{i-1}` on a [`qr_exec::Executor`], with task outputs merged in
//! submission order — so [`chase_with`] on any thread count produces the
//! same facts, term indices, provenance trails, and trigger counts as the
//! sequential engine, bit for bit.

use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::time::Instant;

use qr_exec::Executor;
use qr_hom::matcher::{Assignment, JoinPlan, MatchCounters};
use qr_syntax::query::{QAtom, QTerm, Var};
use qr_syntax::{Fact, FactIdx, FactRef, Instance, InstanceSnapshot, Pred, TermId, Theory};

use crate::skolem::SkolemizedRule;
use crate::stats::{ChaseStats, RoundStats};

/// Resource limits for a chase run.
#[derive(Clone, Copy, Debug)]
pub struct ChaseBudget {
    /// Maximum number of rounds (`Ch_max_rounds` is the deepest prefix built).
    pub max_rounds: usize,
    /// Stop after a round if the instance exceeds this many facts.
    pub max_facts: usize,
}

impl Default for ChaseBudget {
    fn default() -> Self {
        ChaseBudget {
            max_rounds: 24,
            max_facts: 200_000,
        }
    }
}

impl ChaseBudget {
    /// A budget bounded only by the number of rounds (plus a generous fact cap).
    pub fn rounds(max_rounds: usize) -> ChaseBudget {
        ChaseBudget {
            max_rounds,
            ..ChaseBudget::default()
        }
    }
}

/// Whether the chase reached a fixpoint or ran out of budget.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChaseOutcome {
    /// A round added no facts: the instance **is** `Ch(T,D)` (the chase
    /// all-instances-terminated on this input).
    Fixpoint,
    /// The budget was exhausted; the instance is the prefix `Ch_rounds(T,D)`.
    Exhausted,
}

/// Provenance of one derived fact: which rule fired, on which body image.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Derivation {
    /// Index of the rule in the theory.
    pub rule: usize,
    /// Indices (into the chase instance) of the non-builtin body facts,
    /// one per regular body atom of the rule (total: recording never drops
    /// an index).
    pub trigger: Vec<FactIdx>,
    /// The frontier image `σ(fr(ρ))` (Observation 9) in canonical order.
    pub frontier: Vec<TermId>,
    /// The round in which the fact was added.
    pub round: usize,
}

/// The result of a chase run: the instance `Ch_rounds(T,D)` with per-fact
/// round and provenance information. Every chase path — the engine, the
/// sharded merge, the incremental seeded insert — builds it through one
/// crate-private writer, so all of them fill it the same way. Storage
/// footprint is not copied here: read `instance.stats()`.
#[derive(Clone, Debug)]
pub struct Chase {
    /// All facts derived (a superset of the input instance).
    pub instance: Instance,
    /// For each fact index, the round it first appeared in (0 = input).
    pub round_of: Vec<usize>,
    /// Number of completed rounds: `instance = Ch_rounds(T,D)`.
    pub rounds: usize,
    /// Fixpoint or budget exhaustion.
    pub outcome: ChaseOutcome,
    /// For each fact index, its first derivation (`None` for input facts).
    pub derivations: Vec<Option<Derivation>>,
    /// Per-round engine counters (triggers, matcher work, growth, time).
    pub stats: ChaseStats,
    /// O(1) instance snapshots taken after the input load (index 0) and
    /// after each completed round, powering the cheap [`Chase::prefix`].
    pub round_snapshots: Vec<InstanceSnapshot>,
}

impl Chase {
    /// The prefix `Ch_n(T,D)`: facts added in rounds `0..=n`. Built by
    /// truncating to the end-of-round snapshot — O(suffix dropped), not a
    /// full O(n) re-index — and bit-identical (fact stream, indices,
    /// domain, stats) to an instance freshly built from those facts.
    pub fn prefix(&self, n: usize) -> Instance {
        if n >= self.rounds {
            return self.instance.clone();
        }
        self.instance.truncated(&self.round_snapshots[n])
    }

    /// Facts first appearing in round `n`. Rounds own contiguous index
    /// ranges delimited by the end-of-round snapshots, so this slices
    /// directly — O(|delta|), not a full instance scan.
    pub fn delta(&self, n: usize) -> Vec<FactRef<'_>> {
        let Some(range) = self.delta_range(n) else {
            return Vec::new();
        };
        range.map(|i| self.instance.fact(i)).collect()
    }

    /// The contiguous fact-index range of round `n`'s delta (`None` past
    /// the last completed round). Round 0 is the loaded input.
    pub fn delta_range(&self, n: usize) -> Option<Range<FactIdx>> {
        let end = self.round_snapshots.get(n)?.facts();
        let start = if n == 0 {
            0
        } else {
            self.round_snapshots[n - 1].facts()
        };
        Some(start..end)
    }

    /// `true` iff the chase reached a fixpoint within budget.
    pub fn terminated(&self) -> bool {
        self.outcome == ChaseOutcome::Fixpoint
    }

    /// The round in which each term first entered the active domain
    /// (0 for input constants) — the clock behind Exercise 17's `n_at`.
    /// The domain is append-only and recorded in first-occurrence order,
    /// so the end-of-round snapshot domain boundaries partition it by
    /// first round: one pass over the domain, no per-fact rescan.
    pub fn first_round_of_terms(&self) -> HashMap<TermId, usize> {
        let domain = self.instance.domain();
        let mut out: HashMap<TermId, usize> = HashMap::with_capacity(domain.len());
        let mut lo = 0;
        for (round, snap) in self.round_snapshots.iter().enumerate() {
            for &t in &domain[lo..snap.terms()] {
                out.insert(t, round);
            }
            lo = snap.terms();
        }
        debug_assert_eq!(lo, domain.len(), "snapshots cover the whole domain");
        out
    }
}

/// A run of [`chase_all`]: the chase itself, identical to [`chase_with`]'s
/// on the same input, plus **every** distinct derivation of each fact —
/// what the adversarial ancestor functions of Appendix A quantify over
/// (Example 66; see [`crate::provenance::adversarial_ancestors`]).
#[derive(Clone, Debug)]
pub struct ChaseAll {
    /// The chase, equal to the normal-mode run.
    pub chase: Chase,
    /// For each fact index, every distinct derivation of the fact, its
    /// first derivation first (input facts may collect re-derivations):
    /// semi-naive evaluation visits each trigger in exactly one round via
    /// exactly one enumeration path, and assignments that collapse to the
    /// same `(rule, trigger, frontier)` are deduplicated within the round,
    /// so each distinct derivation appears exactly once.
    pub all_derivations: Vec<Vec<Derivation>>,
}

/// The one writer of a [`Chase`]. It owns the instance and the per-fact
/// and per-round records; a chase path loads the base, appends each
/// round's facts with their first derivations, and closes the round with
/// its engine counters. Round numbers, growth counters, snapshots, the
/// round count and the outcome are all derived here, the same way for
/// every path.
pub(crate) struct ChaseLog {
    instance: Instance,
    round_of: Vec<usize>,
    derivations: Vec<Option<Derivation>>,
    round_snapshots: Vec<InstanceSnapshot>,
    stats: ChaseStats,
    outcome: ChaseOutcome,
}

impl ChaseLog {
    /// Starts a run whose round 0 is `base`, reporting `threads` workers.
    pub(crate) fn new(base: Instance, threads: usize) -> ChaseLog {
        let n = base.len();
        ChaseLog {
            round_snapshots: vec![base.snapshot()],
            instance: base,
            round_of: vec![0; n],
            derivations: vec![None; n],
            stats: ChaseStats {
                threads,
                rounds: Vec::new(),
            },
            outcome: ChaseOutcome::Exhausted,
        }
    }

    /// The instance built so far.
    pub(crate) fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The round of each fact built so far.
    pub(crate) fn round_of(&self) -> &[usize] {
        &self.round_of
    }

    /// Appends `fact`, first derived by `deriv` in the open round. Returns
    /// its index, or `None` (recording nothing) if it is already present.
    pub(crate) fn push(&mut self, fact: Fact, deriv: Derivation) -> Option<FactIdx> {
        debug_assert_eq!(deriv.round, self.round_snapshots.len(), "open round");
        let idx = self.instance.insert(fact)?;
        self.round_of.push(deriv.round);
        self.derivations.push(Some(deriv));
        Some(idx)
    }

    /// Closes the open round with its engine counters; `facts_added` and
    /// `terms_added` are measured here. A round that added facts is
    /// snapshotted and `true` is returned. A round that added nothing is
    /// the fixpoint probe: its row is kept, the outcome becomes
    /// [`ChaseOutcome::Fixpoint`], and `false` is returned.
    pub(crate) fn close_round(&mut self, mut row: RoundStats) -> bool {
        debug_assert_eq!(
            self.outcome,
            ChaseOutcome::Exhausted,
            "closed after fixpoint"
        );
        debug_assert_eq!(row.round, self.round_snapshots.len(), "rows follow rounds");
        let open = self
            .round_snapshots
            .last()
            .expect("snapshot 0 marks the base");
        row.facts_added = self.instance.len() - open.facts();
        row.terms_added = self.instance.domain_len() - open.terms();
        let grew = row.facts_added > 0;
        self.stats.rounds.push(row);
        if grew {
            self.round_snapshots.push(self.instance.snapshot());
        } else {
            self.outcome = ChaseOutcome::Fixpoint;
        }
        grew
    }

    /// The finished chase: every round closed so far.
    pub(crate) fn finish(self) -> Chase {
        Chase {
            rounds: self.round_snapshots.len() - 1,
            instance: self.instance,
            round_of: self.round_of,
            outcome: self.outcome,
            derivations: self.derivations,
            stats: self.stats,
            round_snapshots: self.round_snapshots,
        }
    }
}

/// A rule compiled for the chase loop: Skolemization, the split of the
/// body into regular / `dom` atoms, and one pre-compiled [`JoinPlan`] per
/// semi-naive enumeration path (built once per run, not once per trigger).
pub(crate) struct RulePlan<'a> {
    pub(crate) rule: &'a qr_syntax::Tgd,
    pub(crate) skolemized: SkolemizedRule,
    /// Indices of non-dom body atoms.
    pub(crate) regular: Vec<usize>,
    /// `dom` atoms whose argument is a variable: `(body index, var)`.
    pub(crate) dom_var: Vec<(usize, Var)>,
    /// Per dom-var atom: every `(pred, position)` at which that variable
    /// also occurs in a regular body atom. A new term can only match the
    /// sweep if it occurs at all of these positions within the fact delta
    /// (new terms occur in delta facts only), so the per-round occurrence
    /// index prunes the term sweep without changing which triggers exist.
    dom_var_keys: Vec<Vec<(Pred, u32)>>,
    /// Ground `dom` atoms: `(body index, constant term)`.
    pub(crate) dom_ground: Vec<(usize, TermId)>,
    /// For each body index, its position in `regular` (None for dom atoms);
    /// maps match-trail entries to trigger slots.
    pub(crate) reg_pos: Vec<Option<usize>>,
    /// The whole body (naive mode; empty-body rules).
    full: JoinPlan,
    /// Per regular atom `k`: the body minus atom `k`, compiled with atom
    /// `k`'s variables assumed bound (they come from the forced delta fact).
    pub(crate) by_regular: Vec<JoinPlan>,
    /// Per dom-var atom: the body minus that atom, with its variable bound.
    pub(crate) by_dom_var: Vec<JoinPlan>,
    /// Per ground-dom atom: the body minus that atom (the constant's
    /// delta-ness is checked outside the matcher).
    pub(crate) by_dom_ground: Vec<JoinPlan>,
}

pub(crate) fn plans(theory: &Theory) -> Vec<RulePlan<'_>> {
    theory
        .rules()
        .iter()
        .map(|rule| {
            let body = rule.body();
            let nvars = rule.var_names().len();
            let mut regular = Vec::new();
            let mut dom_var = Vec::new();
            let mut dom_ground = Vec::new();
            let mut reg_pos = vec![None; body.len()];
            for (i, atom) in body.iter().enumerate() {
                if !atom.pred.is_dom() {
                    reg_pos[i] = Some(regular.len());
                    regular.push(i);
                } else {
                    match atom.args[0] {
                        QTerm::Var(v) => dom_var.push((i, v)),
                        QTerm::Const(c) => dom_ground.push((i, TermId::constant(c))),
                    }
                }
            }
            let rest_of = |skip: usize| -> Vec<QAtom> {
                body.iter()
                    .enumerate()
                    .filter(|(j, _)| *j != skip)
                    .map(|(_, a)| a.clone())
                    .collect()
            };
            let by_regular = regular
                .iter()
                .map(|&k| {
                    let bound: Vec<Var> = body[k].vars().collect();
                    JoinPlan::compile(rest_of(k), nvars, &bound)
                })
                .collect();
            let by_dom_var = dom_var
                .iter()
                .map(|&(k, v)| JoinPlan::compile(rest_of(k), nvars, &[v]))
                .collect();
            let by_dom_ground = dom_ground
                .iter()
                .map(|&(k, _)| JoinPlan::compile(rest_of(k), nvars, &[]))
                .collect();
            let dom_var_keys = dom_var
                .iter()
                .map(|&(_, v)| {
                    let mut keys = Vec::new();
                    for &bj in &regular {
                        for (pos, arg) in body[bj].args.iter().enumerate() {
                            if *arg == QTerm::Var(v) {
                                keys.push((body[bj].pred, pos as u32));
                            }
                        }
                    }
                    keys
                })
                .collect();
            RulePlan {
                rule,
                skolemized: SkolemizedRule::new(rule),
                regular,
                dom_var,
                dom_var_keys,
                dom_ground,
                reg_pos,
                full: JoinPlan::compile(body.to_vec(), nvars, &[]),
                by_regular,
                by_dom_var,
                by_dom_ground,
            }
        })
        .collect()
}

/// Attempts to unify body atom `atom` with ground fact `fact`, extending
/// `out` with variable bindings. Returns `false` on clash.
pub(crate) fn unify_atom_fact(
    atom: &QAtom,
    fact: FactRef<'_>,
    out: &mut Vec<(Var, TermId)>,
) -> bool {
    let start = out.len();
    for (pos, t) in atom.args.iter().enumerate() {
        let ft = fact.args[pos];
        match t {
            QTerm::Const(c) => {
                if TermId::constant(*c) != ft {
                    out.truncate(start);
                    return false;
                }
            }
            QTerm::Var(v) => match out.iter().find(|(u, _)| u == v) {
                Some((_, bound)) if *bound != ft => {
                    out.truncate(start);
                    return false;
                }
                Some(_) => {}
                None => out.push((*v, ft)),
            },
        }
    }
    true
}

/// Runs the semi-naive chase (sequentially; see [`chase_with`]).
pub fn chase(theory: &Theory, db: &Instance, budget: ChaseBudget) -> Chase {
    chase_with(theory, db, budget, &Executor::sequential())
}

/// Runs the semi-naive chase with round tasks scheduled on `exec`. The
/// result is identical to [`chase`] for every thread count — parallelism
/// only changes wall time, never output.
pub fn chase_with(theory: &Theory, db: &Instance, budget: ChaseBudget, exec: &Executor) -> Chase {
    run_chase(theory, db, budget, true, false, exec).0
}

/// Runs the naive chase (re-enumerates all triggers each round). Used to
/// validate the semi-naive engine; produces identical `Ch_i` sets.
pub fn chase_naive(theory: &Theory, db: &Instance, budget: ChaseBudget) -> Chase {
    chase_naive_with(theory, db, budget, &Executor::sequential())
}

/// Naive chase on an explicit executor (whole-rule tasks).
pub fn chase_naive_with(
    theory: &Theory,
    db: &Instance,
    budget: ChaseBudget,
    exec: &Executor,
) -> Chase {
    run_chase(theory, db, budget, false, false, exec).0
}

/// Runs the semi-naive chase recording **all** derivations of every fact
/// (needed to quantify over the paper's ancestor functions, Appendix A —
/// e.g. the worst-case ancestor sets of Example 66).
pub fn chase_all(theory: &Theory, db: &Instance, budget: ChaseBudget) -> ChaseAll {
    chase_all_with(theory, db, budget, &Executor::sequential())
}

/// All-derivations chase on an explicit executor.
pub fn chase_all_with(
    theory: &Theory,
    db: &Instance,
    budget: ChaseBudget,
    exec: &Executor,
) -> ChaseAll {
    let (chase, all_derivations) = run_chase(theory, db, budget, true, true, exec);
    ChaseAll {
        chase,
        all_derivations,
    }
}

/// Which semi-naive enumeration path produced a body match. Paths are
/// ordered (regular atoms by body position, then dom-var atoms, then
/// ground-dom atoms); a trigger is processed only when it arrives via its
/// *first* delta body atom, so multi-delta triggers are handled exactly
/// once per round with no hashing.
#[derive(Clone, Copy)]
enum Path {
    /// The whole body (naive mode / empty bodies): every match is unique.
    Full,
    /// Regular atom at position `k` of `RulePlan::regular` was forced onto
    /// the fact delta; the forced fact's index rides along.
    Regular(usize, FactIdx),
    /// Dom-var atom at position `k` of `RulePlan::dom_var` was forced onto
    /// the term delta.
    DomVar(usize),
    /// Ground-dom atom at position `k` of `RulePlan::dom_ground` joined
    /// the delta (its constant is new).
    DomGround(usize),
}

/// The previous round's delta, for canonical-path checks: facts with index
/// `>= fact_start` and terms in `new_terms` are new.
struct DeltaCtx {
    fact_start: FactIdx,
    new_terms: HashSet<TermId>,
}

/// One unit of per-round enumeration work. Tasks are generated in exactly
/// the order the sequential engine visits the corresponding work (rules in
/// theory order; per rule: regular paths, dom-var paths, ground-dom paths,
/// empty bodies), with long delta scans split into contiguous chunks, so
/// merging task outputs in submission order replays the sequential run.
#[derive(Clone, Copy)]
enum RoundTask {
    /// Force regular atom `k` of rule `ridx` onto `lo..hi` of that
    /// predicate's fact delta.
    Regular {
        ridx: usize,
        k: usize,
        lo: usize,
        hi: usize,
    },
    /// Force dom-var atom `k` of rule `ridx` onto `lo..hi` of the term
    /// delta.
    DomVar {
        ridx: usize,
        k: usize,
        lo: usize,
        hi: usize,
    },
    /// Ground-dom atom `k` of rule `ridx` (its constant just arrived).
    DomGround { ridx: usize, k: usize },
    /// Rule `ridx` has an empty body (fires in round 1 only).
    EmptyBody { ridx: usize },
    /// Naive mode: enumerate the whole body of rule `ridx`.
    FullRule { ridx: usize },
}

/// Everything a round task reads: the compiled plans and the immutable
/// round prefix with its delta indexes. Shared by all worker threads.
struct RoundCtx<'a> {
    plans: &'a [RulePlan<'a>],
    instance: &'a Instance,
    delta: &'a DeltaCtx,
    delta_by_pred: &'a HashMap<Pred, Vec<FactIdx>>,
    delta_terms: &'a [TermId],
    /// Dom-sweep locality index: the new terms occurring at each
    /// `(pred, position)` of the fact delta. New terms occur in delta
    /// facts only, so this is a complete filter for the positions in
    /// [`RulePlan::dom_var_keys`].
    delta_occ: &'a HashMap<(Pred, u32), HashSet<TermId>>,
    record_all: bool,
}

/// One staged rule application: the canonical trigger, its frontier image,
/// and the produced head facts (in head-atom order) split by membership in
/// the immutable prefix.
struct StagedEvent {
    rule: usize,
    trigger: Vec<FactIdx>,
    frontier: Vec<TermId>,
    /// Head facts not in the prefix (normal mode: also deduplicated
    /// against this task's earlier events).
    fresh: Vec<Fact>,
    /// `record_all`: prefix indices of head facts that already exist.
    existing: Vec<FactIdx>,
}

/// Worker-local buffers for one round task.
struct TaskBuf {
    events: Vec<StagedEvent>,
    /// Normal mode: facts staged by this task, for intra-task dedup.
    fresh_set: HashSet<Fact>,
    /// `record_all`: derivation keys staged by this task — an intra-task
    /// pre-filter for the merge's global dedup (two assignments differing
    /// only on a non-frontier dom variable collapse to one key).
    seen_derivs: HashSet<(usize, Vec<FactIdx>, Vec<TermId>)>,
    /// Scratch: the current trigger, one slot per regular body atom.
    trigger_buf: Vec<FactIdx>,
    /// Scratch: the current frontier image.
    frontier_buf: Vec<TermId>,
    /// Triggers enumerated (complete body matches, pre-dedup).
    triggers: u64,
}

impl TaskBuf {
    fn new() -> TaskBuf {
        TaskBuf {
            events: Vec::new(),
            fresh_set: HashSet::new(),
            seen_derivs: HashSet::new(),
            trigger_buf: Vec::new(),
            frontier_buf: Vec::new(),
            triggers: 0,
        }
    }
}

/// The output of one round task, merged in submission order.
struct TaskOut {
    events: Vec<StagedEvent>,
    triggers: u64,
    candidates: u64,
    dom_sweeps: u64,
    dom_pruned: u64,
}

/// Runs one enumeration task against the immutable round prefix.
fn run_task(ctx: &RoundCtx<'_>, task: RoundTask) -> TaskOut {
    let mut buf = TaskBuf::new();
    let mut counters = MatchCounters::default();
    let mut dom_sweeps = 0u64;
    let mut dom_pruned = 0u64;
    match task {
        RoundTask::Regular { ridx, k, lo, hi } => {
            let plan = &ctx.plans[ridx];
            let atom = &plan.rule.body()[plan.regular[k]];
            let rest = &plan.by_regular[k];
            let mut fixed = Vec::new();
            for &fi in &ctx.delta_by_pred[&atom.pred][lo..hi] {
                counters.candidates += 1;
                fixed.clear();
                if !unify_atom_fact(atom, ctx.instance.fact(fi), &mut fixed) {
                    continue;
                }
                rest.for_each_match_with_facts(
                    ctx.instance,
                    &fixed,
                    &mut counters,
                    |asg, trail| {
                        emit(plan, ridx, asg, trail, Path::Regular(k, fi), ctx, &mut buf);
                        true
                    },
                );
            }
        }
        RoundTask::DomVar { ridx, k, lo, hi } => {
            let plan = &ctx.plans[ridx];
            let (_, v) = plan.dom_var[k];
            let keys = &plan.dom_var_keys[k];
            let rest = &plan.by_dom_var[k];
            for &t in &ctx.delta_terms[lo..hi] {
                // Dom-sweep locality: a term that does not occur in the
                // delta at every position the variable also takes in a
                // regular atom cannot complete a match — skip the join.
                if !keys.is_empty()
                    && !keys
                        .iter()
                        .all(|key| ctx.delta_occ.get(key).is_some_and(|occ| occ.contains(&t)))
                {
                    dom_pruned += 1;
                    continue;
                }
                dom_sweeps += 1;
                let fixed = [(v, t)];
                rest.for_each_match_with_facts(
                    ctx.instance,
                    &fixed,
                    &mut counters,
                    |asg, trail| {
                        emit(plan, ridx, asg, trail, Path::DomVar(k), ctx, &mut buf);
                        true
                    },
                );
            }
        }
        RoundTask::DomGround { ridx, k } => {
            let plan = &ctx.plans[ridx];
            let rest = &plan.by_dom_ground[k];
            rest.for_each_match_with_facts(ctx.instance, &[], &mut counters, |asg, trail| {
                emit(plan, ridx, asg, trail, Path::DomGround(k), ctx, &mut buf);
                true
            });
        }
        RoundTask::EmptyBody { ridx } | RoundTask::FullRule { ridx } => {
            let plan = &ctx.plans[ridx];
            plan.full
                .for_each_match_with_facts(ctx.instance, &[], &mut counters, |asg, trail| {
                    emit(plan, ridx, asg, trail, Path::Full, ctx, &mut buf);
                    true
                });
        }
    }
    TaskOut {
        events: buf.events,
        triggers: buf.triggers,
        candidates: counters.candidates,
        dom_sweeps,
        dom_pruned,
    }
}

/// Processes one complete body match: reconstructs the trigger from the
/// match trail (totally — one fact index per regular atom, no hash
/// re-probing), drops non-canonical arrivals of multi-delta triggers,
/// instantiates the head, and stages the produced facts as a
/// [`StagedEvent`] in the task's output.
#[allow(clippy::too_many_arguments)]
fn emit(
    plan: &RulePlan<'_>,
    ridx: usize,
    asg: &Assignment,
    trail: &[(usize, usize)],
    path: Path,
    ctx: &RoundCtx<'_>,
    buf: &mut TaskBuf,
) {
    let delta = ctx.delta;
    buf.triggers += 1;
    // Rebuild the trigger from the trail. The rest-plans omit one body
    // atom, so trail atom indices at or past the omitted one shift by one.
    buf.trigger_buf.clear();
    buf.trigger_buf.resize(plan.regular.len(), FactIdx::MAX);
    let skipped = match path {
        Path::Full => None,
        Path::Regular(k, forced) => {
            buf.trigger_buf[k] = forced;
            Some(plan.regular[k])
        }
        Path::DomVar(k) => Some(plan.dom_var[k].0),
        Path::DomGround(k) => Some(plan.dom_ground[k].0),
    };
    for &(ai, fi) in trail {
        let bi = match skipped {
            Some(s) if ai >= s => ai + 1,
            _ => ai,
        };
        let pos = plan.reg_pos[bi].expect("trail entries are regular atoms");
        buf.trigger_buf[pos] = fi;
    }
    assert!(
        !buf.trigger_buf.contains(&FactIdx::MAX),
        "trigger recording must cover every regular body atom"
    );
    let term_of = |v: Var| asg[v.index()].expect("bound body var");

    // Canonical-path check: process the trigger only if no earlier path
    // also reaches it this round (i.e. the forced atom is the trigger's
    // first delta body atom).
    let regular_delta_before = |k: usize| -> bool {
        buf.trigger_buf[..k]
            .iter()
            .any(|&fi| fi >= delta.fact_start)
    };
    let dom_var_delta_before = |k: usize| -> bool {
        plan.dom_var[..k]
            .iter()
            .any(|&(_, v)| delta.new_terms.contains(&term_of(v)))
    };
    match path {
        Path::Full => {}
        Path::Regular(k, _) => {
            if regular_delta_before(k) {
                return;
            }
        }
        Path::DomVar(k) => {
            if regular_delta_before(plan.regular.len()) || dom_var_delta_before(k) {
                return;
            }
        }
        Path::DomGround(k) => {
            if regular_delta_before(plan.regular.len())
                || dom_var_delta_before(plan.dom_var.len())
                || plan.dom_ground[..k]
                    .iter()
                    .any(|&(_, c)| delta.new_terms.contains(&c))
            {
                return;
            }
        }
    }

    buf.frontier_buf.clear();
    buf.frontier_buf
        .extend(plan.skolemized.frontier.iter().map(|v| term_of(*v)));
    if ctx.record_all {
        let key = (ridx, buf.trigger_buf.clone(), buf.frontier_buf.clone());
        if !buf.seen_derivs.insert(key) {
            return;
        }
    }
    let facts = plan
        .skolemized
        .apply_with_frontier(plan.rule, &buf.frontier_buf, term_of);
    let mut fresh = Vec::new();
    let mut existing = Vec::new();
    for fact in facts {
        if ctx.record_all {
            match ctx.instance.index_of(&fact) {
                Some(idx) => existing.push(idx),
                None => fresh.push(fact),
            }
        } else if !ctx.instance.contains(&fact) && buf.fresh_set.insert(fact.clone()) {
            fresh.push(fact);
        }
    }
    if fresh.is_empty() && existing.is_empty() {
        return;
    }
    buf.events.push(StagedEvent {
        rule: ridx,
        trigger: buf.trigger_buf.clone(),
        frontier: buf.frontier_buf.clone(),
        fresh,
        existing,
    });
}

/// The merged outcome of one round's tasks, in sequential emission order.
struct RoundMerge {
    fresh: Vec<(Fact, Derivation)>,
    fresh_extra: Vec<(Fact, Derivation)>,
    existing_extra: Vec<(FactIdx, Derivation)>,
    triggers: u64,
    candidates: u64,
    dom_sweeps: u64,
    dom_pruned: u64,
}

/// Folds task outputs in submission order, replaying exactly the staging
/// decisions of a sequential run: the first staging of a fact wins, later
/// stagings survive only as `record_all` extras, and duplicate
/// `(rule, trigger, frontier)` derivations are dropped round-globally.
fn merge_task_outputs(outs: Vec<TaskOut>, round: usize, record_all: bool) -> RoundMerge {
    let mut m = RoundMerge {
        fresh: Vec::new(),
        fresh_extra: Vec::new(),
        existing_extra: Vec::new(),
        triggers: 0,
        candidates: 0,
        dom_sweeps: 0,
        dom_pruned: 0,
    };
    let mut fresh_set: HashSet<Fact> = HashSet::new();
    let mut seen_derivs: HashSet<(usize, Vec<FactIdx>, Vec<TermId>)> = HashSet::new();
    for out in outs {
        m.triggers += out.triggers;
        m.candidates += out.candidates;
        m.dom_sweeps += out.dom_sweeps;
        m.dom_pruned += out.dom_pruned;
        for ev in out.events {
            if record_all && !seen_derivs.insert((ev.rule, ev.trigger.clone(), ev.frontier.clone()))
            {
                continue;
            }
            let deriv = Derivation {
                rule: ev.rule,
                trigger: ev.trigger,
                frontier: ev.frontier,
                round,
            };
            for idx in ev.existing {
                m.existing_extra.push((idx, deriv.clone()));
            }
            for fact in ev.fresh {
                if fresh_set.insert(fact.clone()) {
                    m.fresh.push((fact, deriv.clone()));
                } else if record_all {
                    m.fresh_extra.push((fact, deriv.clone()));
                }
            }
        }
    }
    m
}

/// Splits `n` work units into at most `2 × threads` contiguous chunks.
/// Chunk boundaries affect scheduling only — outputs are merged in chunk
/// order, so results are independent of the split.
fn chunks(n: usize, threads: usize) -> impl Iterator<Item = (usize, usize)> {
    let parts = if threads <= 1 {
        1
    } else {
        (threads * 2).min(n.max(1))
    };
    let size = n.div_ceil(parts).max(1);
    (0..n).step_by(size).map(move |lo| (lo, (lo + size).min(n)))
}

fn run_chase(
    theory: &Theory,
    db: &Instance,
    budget: ChaseBudget,
    semi_naive: bool,
    record_all: bool,
    exec: &Executor,
) -> (Chase, Vec<Vec<Derivation>>) {
    let plans = plans(theory);
    let mut log = ChaseLog::new(db.clone(), exec.threads());
    // `record_all` only: every derivation of each fact (empty otherwise).
    let mut all_derivations: Vec<Vec<Derivation>> = if record_all {
        vec![Vec::new(); db.len()]
    } else {
        Vec::new()
    };
    // Build the dom-sweep locality index only when some dom variable also
    // occurs in a regular body atom.
    let use_occ = plans
        .iter()
        .any(|p| p.dom_var_keys.iter().any(|keys| !keys.is_empty()));

    // The delta of the previous round, as contiguous index ranges (facts
    // and domain terms are append-only, so each round owns a dense slice).
    let mut delta_facts: Range<FactIdx> = 0..db.len();
    let mut delta_term_range: Range<usize> = 0..db.domain_len();

    for round in 1..=budget.max_rounds {
        let t0 = Instant::now();
        let instance = log.instance();
        let outs = {
            // Per-round delta indexes and the task list, in sequential
            // visit order.
            let mut delta_by_pred: HashMap<Pred, Vec<FactIdx>> = HashMap::new();
            let mut delta_occ: HashMap<(Pred, u32), HashSet<TermId>> = HashMap::new();
            let mut tasks: Vec<RoundTask> = Vec::new();
            let delta_terms: &[TermId];
            let delta;
            if semi_naive {
                for fi in delta_facts.clone() {
                    delta_by_pred
                        .entry(instance.fact(fi).pred)
                        .or_default()
                        .push(fi);
                }
                delta_terms = &instance.domain()[delta_term_range.clone()];
                delta = DeltaCtx {
                    fact_start: delta_facts.start,
                    new_terms: delta_terms.iter().copied().collect(),
                };
                if use_occ {
                    for fi in delta_facts.clone() {
                        let f = instance.fact(fi);
                        for (pos, t) in f.args.iter().enumerate() {
                            if delta.new_terms.contains(t) {
                                delta_occ
                                    .entry((f.pred, pos as u32))
                                    .or_default()
                                    .insert(*t);
                            }
                        }
                    }
                }
                for (ridx, plan) in plans.iter().enumerate() {
                    let body = plan.rule.body();
                    // (a) Force each regular body atom onto the fact delta.
                    for (k, &bi) in plan.regular.iter().enumerate() {
                        if let Some(idxs) = delta_by_pred.get(&body[bi].pred) {
                            for (lo, hi) in chunks(idxs.len(), exec.threads()) {
                                tasks.push(RoundTask::Regular { ridx, k, lo, hi });
                            }
                        }
                    }
                    // (b) Force each dom-scoped variable onto the domain
                    // delta.
                    for k in 0..plan.dom_var.len() {
                        for (lo, hi) in chunks(delta_terms.len(), exec.threads()) {
                            tasks.push(RoundTask::DomVar { ridx, k, lo, hi });
                        }
                    }
                    // (c) Ground `dom` atoms join the delta exactly when
                    // their constant first enters the active domain (e.g.
                    // the body of `dom(a) -> p(a)` has no variable to force
                    // — the constant itself is the delta).
                    for (k, &(_, c)) in plan.dom_ground.iter().enumerate() {
                        if delta.new_terms.contains(&c) {
                            tasks.push(RoundTask::DomGround { ridx, k });
                        }
                    }
                    // (d) Rules with no body fire exactly once, in round 1.
                    if body.is_empty() && round == 1 {
                        tasks.push(RoundTask::EmptyBody { ridx });
                    }
                }
            } else {
                delta_terms = &[];
                delta = DeltaCtx {
                    fact_start: 0,
                    new_terms: HashSet::new(),
                };
                for ridx in 0..plans.len() {
                    tasks.push(RoundTask::FullRule { ridx });
                }
            }
            let ctx = RoundCtx {
                plans: &plans,
                instance,
                delta: &delta,
                delta_by_pred: &delta_by_pred,
                delta_terms,
                delta_occ: &delta_occ,
                record_all,
            };
            exec.map(&tasks, |task| run_task(&ctx, *task))
        };
        let enum_wall = t0.elapsed();
        let t1 = Instant::now();
        let m = merge_task_outputs(outs, round, record_all);

        let facts_before = log.instance().len();
        let terms_before = log.instance().domain_len();
        for (fact, deriv) in m.fresh {
            if record_all {
                if log.push(fact, deriv.clone()).is_some() {
                    all_derivations.push(vec![deriv]);
                }
            } else {
                log.push(fact, deriv);
            }
        }
        let row = RoundStats {
            round,
            triggers: m.triggers,
            candidates: m.candidates,
            dom_sweeps: m.dom_sweeps,
            dom_pruned: m.dom_pruned,
            enum_wall,
            merge_wall: t1.elapsed(),
            wall: t0.elapsed(),
            ..RoundStats::default()
        };
        // Recorded before the fixpoint check: the probe round adds no fact,
        // but its triggers are derivations all the same.
        for (idx, deriv) in m.existing_extra {
            all_derivations[idx].push(deriv);
        }
        for (fact, deriv) in m.fresh_extra {
            let idx = log
                .instance()
                .index_of(&fact)
                .expect("fresh facts were just inserted");
            all_derivations[idx].push(deriv);
        }
        if !log.close_round(row) {
            break;
        }
        delta_facts = facts_before..log.instance().len();
        delta_term_range = terms_before..log.instance().domain_len();
        if log.instance().len() > budget.max_facts {
            break;
        }
    }
    (log.finish(), all_derivations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_syntax::{parse_instance, parse_query, parse_theory, Symbol};

    fn c(name: &str) -> TermId {
        TermId::constant(Symbol::intern(name))
    }

    #[test]
    fn example_1_and_7_mother_chain() {
        // Examples 1 and 7 of the paper.
        let t = parse_theory(
            "human(Y) -> mother(Y, Z).\n\
             mother(X, Y) -> human(Y).",
        )
        .unwrap();
        let d = parse_instance("human(abel).").unwrap();
        let ch = chase(&t, &d, ChaseBudget::rounds(6));
        assert_eq!(ch.outcome, ChaseOutcome::Exhausted); // infinite chase
                                                         // Ch_1 adds mother(abel, mum(abel)).
        let ch1 = ch.prefix(1);
        assert_eq!(ch1.len(), 2);
        // The paper's query: ∃y,z mother(abel,y), mother(y,z).
        let q = parse_query("? :- mother(abel, Y), mother(Y, Z).").unwrap();
        assert!(qr_hom::holds(&q, &ch.prefix(3), &[]));
        assert!(!qr_hom::holds(&q, &ch.prefix(2), &[]));
    }

    #[test]
    fn exercise_12_forward_paths() {
        // T_p: E(x,y) -> ∃z E(y,z); chase grows one edge per element per round.
        let t = parse_theory("e(X,Y) -> e(Y,Z).").unwrap();
        let d = parse_instance("e(a,b).").unwrap();
        let ch = chase(&t, &d, ChaseBudget::rounds(5));
        assert_eq!(ch.instance.len(), 6);
        assert_eq!(ch.rounds, 5);
    }

    #[test]
    fn datalog_fixpoint() {
        let t = parse_theory("e(X,Y), e(Y,Z) -> e(X,Z).").unwrap();
        let d = parse_instance("e(a,b). e(b,c). e(c,d).").unwrap();
        let ch = chase(&t, &d, ChaseBudget::default());
        assert!(ch.terminated());
        assert_eq!(ch.instance.len(), 6); // transitive closure of a 3-path
    }

    #[test]
    fn semi_naive_equals_naive_per_round() {
        let t = parse_theory(
            "e(X,Y) -> e(Y,Z).\n\
             e(X,Y), e(Y,Z) -> f(X,Z).\n\
             f(X,Y) -> g(Y).",
        )
        .unwrap();
        let d = parse_instance("e(a,b). e(b,c).").unwrap();
        let fast = chase(&t, &d, ChaseBudget::rounds(4));
        let slow = chase_naive(&t, &d, ChaseBudget::rounds(4));
        assert_eq!(fast.rounds, slow.rounds);
        for n in 0..=fast.rounds {
            assert_eq!(fast.prefix(n), slow.prefix(n), "round {n} differs");
        }
    }

    #[test]
    fn observation_8_literal_equality() {
        // D ⊆ F ⊆ Ch(T,D) implies Ch(T,F) = Ch(T,D), literally.
        let t = parse_theory("human(Y) -> mother(Y, Z).\nmother(X, Y) -> human(Y).").unwrap();
        let d = parse_instance("human(abel).").unwrap();
        let ch_d = chase(&t, &d, ChaseBudget::rounds(8));
        let f = ch_d.prefix(3); // D ⊆ F ⊆ Ch(T,D)
        let ch_f = chase(&t, &f, ChaseBudget::rounds(8));
        // Compare on equal depth: Ch_8(D) ⊆ Ch_8(F) ⊆ Ch_11(D); check the
        // deep prefixes agree where both are defined.
        assert!(ch_d.instance.subset_of(&ch_f.instance));
    }

    #[test]
    fn dom_rules_fire_on_all_terms() {
        // Pins rule of T_d: every domain element sprouts an r-edge.
        let t = parse_theory("dom(X) -> r(X, Z).").unwrap();
        let d = parse_instance("e(a,b).").unwrap();
        let ch = chase(&t, &d, ChaseBudget::rounds(2));
        // Round 1: r(a,z_a), r(b,z_b); round 2: pins fire on z_a, z_b.
        assert_eq!(ch.prefix(1).len(), 1 + 2);
        assert_eq!(ch.prefix(2).len(), 1 + 2 + 2);
    }

    #[test]
    fn empty_body_rule_fires_once() {
        let t = parse_theory("true -> r(X,X), g(X,X).").unwrap();
        let d = parse_instance("e(a,b).").unwrap();
        let ch = chase(&t, &d, ChaseBudget::rounds(4));
        assert!(ch.terminated());
        assert_eq!(ch.instance.len(), 3);
        let loops: Vec<_> = ch.delta(1);
        assert_eq!(loops.len(), 2);
        assert_eq!(loops[0].args[0], loops[1].args[0]);
    }

    #[test]
    fn ground_dom_body_rule_fires() {
        // The body has no regular atom and no dom variable — only the
        // ground `dom(a)`. The semi-naive engine must still fire it when
        // `a` enters the active domain (regression: it used to never fire).
        let t = parse_theory("dom(a) -> p(a).").unwrap();
        let d = parse_instance("e(a,b).").unwrap();
        let fast = chase(&t, &d, ChaseBudget::rounds(3));
        let slow = chase_naive(&t, &d, ChaseBudget::rounds(3));
        assert_eq!(fast.instance, slow.instance);
        assert_eq!(fast.rounds, slow.rounds);
        assert!(fast
            .instance
            .contains(&Fact::new(qr_syntax::Pred::new("p", 1), vec![c("a")])));
        // And when the constant never appears, the rule never fires.
        let d2 = parse_instance("e(x,y).").unwrap();
        let ch2 = chase(&t, &d2, ChaseBudget::rounds(3));
        assert_eq!(ch2.instance.len(), 1);
    }

    #[test]
    fn ground_dom_fires_when_constant_arrives_late() {
        // `a` enters the domain only in round 1 (as a rule-produced
        // constant), so the ground-dom rule fires in round 2 — in both
        // engines.
        let t = parse_theory(
            "start(X) -> e(X, a).\n\
             dom(a) -> p(a).",
        )
        .unwrap();
        let d = parse_instance("start(s).").unwrap();
        let fast = chase(&t, &d, ChaseBudget::rounds(4));
        let slow = chase_naive(&t, &d, ChaseBudget::rounds(4));
        assert_eq!(fast.rounds, slow.rounds);
        for n in 0..=fast.rounds {
            assert_eq!(fast.prefix(n), slow.prefix(n), "round {n} differs");
        }
        let p_a = Fact::new(qr_syntax::Pred::new("p", 1), vec![c("a")]);
        let idx = fast.instance.index_of(&p_a).expect("p(a) derived");
        assert_eq!(fast.round_of[idx], 2);
    }

    #[test]
    fn mixed_ground_dom_and_regular_atoms() {
        // A trigger whose only delta contribution is the ground dom
        // constant: q(s) is old, `a` arrives in round 1.
        let t = parse_theory(
            "start(X) -> e(X, a).\n\
             q(X), dom(a) -> r(X).",
        )
        .unwrap();
        let d = parse_instance("start(s). q(s).").unwrap();
        let fast = chase(&t, &d, ChaseBudget::rounds(4));
        let slow = chase_naive(&t, &d, ChaseBudget::rounds(4));
        assert_eq!(fast.rounds, slow.rounds);
        for n in 0..=fast.rounds {
            assert_eq!(fast.prefix(n), slow.prefix(n), "round {n} differs");
        }
        assert!(fast
            .instance
            .contains(&Fact::new(qr_syntax::Pred::new("r", 1), vec![c("s")])));
    }

    #[test]
    fn provenance_recorded() {
        let t = parse_theory("e(X,Y), p(Y) -> f(X).").unwrap();
        let d = parse_instance("e(a,b). p(b).").unwrap();
        let ch = chase(&t, &d, ChaseBudget::default());
        assert!(ch.terminated());
        let fact = Fact::new(qr_syntax::Pred::new("f", 1), vec![c("a")]);
        let idx = ch
            .instance
            .iter()
            .position(|f| f == fact)
            .expect("derived fact present");
        let deriv = ch.derivations[idx].as_ref().unwrap();
        assert_eq!(deriv.rule, 0);
        assert_eq!(deriv.trigger.len(), 2);
        assert_eq!(deriv.frontier, vec![c("a")]);
    }

    #[test]
    fn provenance_is_total_per_regular_atom() {
        // Repeated predicates and a repeated fact image: the trigger must
        // still list one index per regular body atom, in body-atom order.
        let t = parse_theory("e(X,Y), e(Y,Z), e(X,X) -> f(X,Z).").unwrap();
        let d = parse_instance("e(a,a). e(a,b).").unwrap();
        let ch = chase(&t, &d, ChaseBudget::default());
        assert!(ch.terminated());
        for (idx, deriv) in ch.derivations.iter().enumerate() {
            if let Some(d) = deriv {
                assert_eq!(
                    d.trigger.len(),
                    3,
                    "trigger of fact {:?} must cover all 3 body atoms",
                    ch.instance.fact(idx)
                );
                // Each trigger index points at a fact of the right predicate.
                for &ti in &d.trigger {
                    assert_eq!(ch.instance.fact(ti).pred, qr_syntax::Pred::new("e", 2));
                }
            }
        }
        // f(a,a) (from X=Y=Z=a) and f(a,b) both derived.
        assert!(ch.instance.contains(&Fact::new(
            qr_syntax::Pred::new("f", 2),
            vec![c("a"), c("a")]
        )));
        assert!(ch.instance.contains(&Fact::new(
            qr_syntax::Pred::new("f", 2),
            vec![c("a"), c("b")]
        )));
    }

    #[test]
    fn multi_delta_trigger_recorded_exactly_once() {
        // Both body facts of the trigger (e(a,b), e(b,c)) are round-0
        // delta facts, so step (a) reaches the trigger twice (once per
        // forced atom); the hashed dedup must keep exactly one derivation.
        let t = parse_theory("e(X,Y), e(Y,Z) -> f(X,Z).").unwrap();
        let d = parse_instance("e(a,b). e(b,c).").unwrap();
        let run = chase_all(&t, &d, ChaseBudget::default());
        let fact = Fact::new(qr_syntax::Pred::new("f", 2), vec![c("a"), c("c")]);
        let idx = run.chase.instance.index_of(&fact).expect("derived");
        assert_eq!(
            run.all_derivations[idx].len(),
            1,
            "one trigger, one derivation: {:?}",
            run.all_derivations[idx]
        );
    }

    #[test]
    fn chase_all_records_every_trigger_of_a_cycle_closure() {
        // The closure of a 3-cycle is all 9 edges, each derivable through
        // each of the 3 middle nodes; the last such triggers are only
        // enumerated by the fixpoint probe round.
        let t = parse_theory("e(X,Y), e(Y,Z) -> e(X,Z).").unwrap();
        let d = parse_instance("e(a,b). e(b,c). e(c,a).").unwrap();
        let run = chase_all(&t, &d, ChaseBudget::default());
        let inst = &run.chase.instance;
        assert_eq!(inst.len(), 9);
        let mut brute: HashSet<(FactIdx, Vec<FactIdx>)> = HashSet::new();
        for i in 0..inst.len() {
            for j in 0..inst.len() {
                let (x, y) = (inst.fact(i), inst.fact(j));
                if x.args[1] == y.args[0] {
                    let head = Fact::new(x.pred, vec![x.args[0], y.args[1]]);
                    brute.insert((inst.index_of(&head).expect("closed"), vec![i, j]));
                }
            }
        }
        let recorded: Vec<(FactIdx, Vec<FactIdx>)> = run
            .all_derivations
            .iter()
            .enumerate()
            .flat_map(|(idx, ds)| ds.iter().map(move |d| (idx, d.trigger.clone())))
            .collect();
        assert_eq!(recorded.len(), 27);
        assert!(run.all_derivations.iter().all(|ds| ds.len() == 3));
        assert_eq!(recorded.into_iter().collect::<HashSet<_>>(), brute);
    }

    #[test]
    fn stats_track_rounds_and_growth() {
        let t = parse_theory("e(X,Y), e(Y,Z) -> e(X,Z).").unwrap();
        let d = parse_instance("e(a,b). e(b,c). e(c,d).").unwrap();
        let ch = chase(&t, &d, ChaseBudget::default());
        assert!(ch.terminated());
        // Rounds 1..N grew the instance; the last stats entry is the
        // fixpoint probe that added nothing.
        assert_eq!(ch.stats.rounds.len(), ch.rounds + 1);
        assert_eq!(ch.stats.facts_added(), ch.instance.len() - d.len());
        assert_eq!(ch.stats.rounds.last().unwrap().facts_added, 0);
        assert!(ch.stats.triggers() > 0);
        assert!(ch.stats.candidates() > 0);
        // No fresh terms: transitive closure invents nothing.
        assert_eq!(ch.stats.terms_added(), 0);
        // Existential rules do invent terms.
        let t2 = parse_theory("e(X,Y) -> e(Y,Z).").unwrap();
        let ch2 = chase(&t2, &d, ChaseBudget::rounds(2));
        assert_eq!(ch2.stats.terms_added(), ch2.instance.domain_len() - 4);
    }

    #[test]
    fn max_facts_budget_respected() {
        let t = parse_theory("e(X,Y) -> e(Y,Z).").unwrap();
        let d = parse_instance("e(a,b).").unwrap();
        let budget = ChaseBudget {
            max_rounds: 1000,
            max_facts: 50,
        };
        let ch = chase(&t, &d, budget);
        assert_eq!(ch.outcome, ChaseOutcome::Exhausted);
        assert!(ch.instance.len() <= 52);
    }

    /// Deep equality of everything a chase run exposes (wall times aside).
    fn assert_same_chase(a: &Chase, b: &Chase) {
        assert_eq!(a.instance, b.instance);
        assert_eq!(a.round_of, b.round_of);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.derivations, b.derivations);
        assert_eq!(a.instance.stats(), b.instance.stats());
        assert_eq!(a.stats.rounds.len(), b.stats.rounds.len());
        for (ra, rb) in a.stats.rounds.iter().zip(&b.stats.rounds) {
            assert_eq!(ra.triggers, rb.triggers);
            assert_eq!(ra.candidates, rb.candidates);
            assert_eq!(ra.dom_sweeps, rb.dom_sweeps);
            assert_eq!(ra.dom_pruned, rb.dom_pruned);
            assert_eq!(ra.facts_added, rb.facts_added);
            assert_eq!(ra.terms_added, rb.terms_added);
        }
    }

    #[test]
    fn parallel_chase_is_bit_identical_to_sequential() {
        let theories = [
            "e(X,Y), e(Y,Z) -> e(X,Z).",
            "e(X,Y) -> e(Y,Z).\ne(X,Y), e(Y,Z) -> f(X,Z).\nf(X,Y) -> g(Y).",
            "true -> r(X,X).\ndom(X) -> r(X,Z).\nr(X,Y), dom(Y) -> p(Y).",
            "start(X) -> e(X, a).\nq(X), dom(a) -> r(X).",
        ];
        let d = parse_instance("e(a,b). e(b,c). e(c,a). start(s). q(s).").unwrap();
        for src in theories {
            let t = parse_theory(src).unwrap();
            let seq = chase(&t, &d, ChaseBudget::rounds(5));
            for threads in [2, 4] {
                let par = chase_with(
                    &t,
                    &d,
                    ChaseBudget::rounds(5),
                    &Executor::with_threads(threads),
                );
                assert_same_chase(&seq, &par);
                assert_eq!(par.stats.threads, threads);
            }
            let seq_all = chase_all(&t, &d, ChaseBudget::rounds(5));
            let par_all =
                chase_all_with(&t, &d, ChaseBudget::rounds(5), &Executor::with_threads(3));
            assert_same_chase(&seq_all.chase, &par_all.chase);
            assert_eq!(seq_all.all_derivations, par_all.all_derivations);
        }
    }

    #[test]
    fn dom_sweep_locality_prunes_unmatchable_terms() {
        // The dom variable Y also occurs in the regular atom g(X,Y), so
        // only terms occurring at (g, 1) within the delta can complete a
        // match. The input floods the domain with terms that never do.
        let t = parse_theory(
            "f(X) -> g(X, Z).\n\
             g(X, Y), dom(Y) -> h(Y).",
        )
        .unwrap();
        let d = parse_instance("f(a). p(c1,c2). p(c3,c4). p(c5,c6).").unwrap();
        let fast = chase(&t, &d, ChaseBudget::rounds(4));
        let slow = chase_naive(&t, &d, ChaseBudget::rounds(4));
        assert_eq!(fast.instance, slow.instance);
        assert_eq!(fast.rounds, slow.rounds);
        // Round 1 sweeps 7 new terms (a, c1..c6) and prunes every one of
        // them: no g-fact exists yet, so nothing occurs at (g, 1).
        assert_eq!(fast.stats.rounds[0].dom_pruned, 7);
        assert_eq!(fast.stats.rounds[0].dom_sweeps, 0);
        // Round 2's delta is g(a, z) with one new term z at (g, 1): the
        // sweep runs for z only, and h(z) is derived.
        assert_eq!(fast.stats.rounds[1].dom_pruned, 0);
        assert_eq!(fast.stats.rounds[1].dom_sweeps, 1);
        assert!(fast.stats.dom_pruned() > 0);
        let h = qr_syntax::Pred::new("h", 1);
        assert_eq!(fast.instance.with_pred(h).len(), 1);
    }

    #[test]
    fn pure_pin_rules_are_never_pruned() {
        // T_d's pins rule `dom(X) -> r(X,Z), g(X,Z1)` has no regular atom
        // mentioning X: every new term is swept, none pruned, and the
        // locality index is not even built.
        let t = qr_core_like_pins();
        let d = parse_instance("e(a,b).").unwrap();
        let ch = chase(&t, &d, ChaseBudget::rounds(3));
        assert_eq!(ch.stats.dom_pruned(), 0);
        // Round 1 sweeps the 2 input terms, round 2 the 2 fresh pins, ...
        assert_eq!(ch.stats.rounds[0].dom_sweeps, 2);
        assert_eq!(ch.stats.rounds[1].dom_sweeps, 2);
    }

    fn qr_core_like_pins() -> Theory {
        parse_theory("dom(X) -> r(X, Z).").unwrap()
    }

    #[test]
    fn delta_slicing_matches_round_of_scan() {
        // Multi-round chase with fresh terms and several predicates; the
        // snapshot-sliced delta must equal the old full O(n) scan on every
        // round (and be empty past the last).
        let t = parse_theory(
            "e(X,Y) -> e(Y,Z).\n\
             e(X,Y), e(Y,Z) -> f(X,Z).\n\
             f(X,Y) -> g(Y).",
        )
        .unwrap();
        let d = parse_instance("e(a,b). e(b,c).").unwrap();
        let ch = chase(&t, &d, ChaseBudget::rounds(4));
        assert!(ch.rounds >= 3);
        for n in 0..=ch.rounds + 1 {
            let scanned: Vec<FactRef<'_>> = ch
                .instance
                .iter()
                .enumerate()
                .filter_map(|(i, f)| (ch.round_of[i] == n).then_some(f))
                .collect();
            assert_eq!(ch.delta(n), scanned, "round {n} delta differs");
        }
        assert_eq!(ch.delta_range(0), Some(0..d.len()));
        assert_eq!(ch.delta_range(ch.rounds + 1), None);
    }

    #[test]
    fn first_round_of_terms_matches_fact_scan() {
        // Existential rules invent terms in later rounds; the snapshot
        // domain boundaries must reproduce the old per-fact min-fold.
        let t = parse_theory(
            "e(X,Y) -> e(Y,Z).\n\
             e(X,Y), e(Y,Z) -> f(X,Z).",
        )
        .unwrap();
        let d = parse_instance("e(a,b). e(b,c).").unwrap();
        let ch = chase(&t, &d, ChaseBudget::rounds(4));
        let mut scanned: HashMap<TermId, usize> = HashMap::new();
        for (i, f) in ch.instance.iter().enumerate() {
            for t in f.terms() {
                let r = ch.round_of[i];
                scanned
                    .entry(t)
                    .and_modify(|cur| *cur = (*cur).min(r))
                    .or_insert(r);
            }
        }
        assert_eq!(ch.first_round_of_terms(), scanned);
        assert!(scanned.values().any(|&r| r > 0), "fresh terms exercised");
    }

    #[test]
    fn first_entailment_depth_works() {
        let t = parse_theory("e(X,Y) -> e(Y,Z).").unwrap();
        let d = parse_instance("e(a,b).").unwrap();
        let q = parse_query("? :- e(X1,X2), e(X2,X3), e(X3,X4).").unwrap();
        let depth = crate::first_entailment_depth(&t, &d, &q, &[], ChaseBudget::rounds(8));
        assert_eq!(depth, Some(2));
    }
}

//! Saturation: computing `rew(ψ)` by exhaustive piece rewriting with
//! containment-based subsumption (Theorem 1 of the paper).
//!
//! # Parallel saturation
//!
//! The loop runs on [`Executor::pipeline_ordered`]: the piece rewritings
//! (and their cores) of every queued query are generated speculatively on
//! the worker pool while the caller thread merges results in exact FIFO
//! order against the accumulated set. Subsumption checks, evictions,
//! budget accounting and tracing all happen at merge time, so a parallel
//! run makes the same decisions in the same order as the sequential loop;
//! dropping (uncounted) the candidates of items evicted earlier in the
//! merge reproduces the sequential aliveness check verbatim. Because the
//! FIFO queue enqueues descendants after everything already queued,
//! generation for BFS window *i+1* starts as soon as its queries are
//! accepted — overlapping with the merge of the rest of window *i* and
//! hiding merge latency — without a barrier per window. Every counter in
//! [`RewriteStats`] is identical across thread counts.
//!
//! Accepted disjuncts are renamed `U0, U1, …` on acceptance, so rendered
//! rewritings never carry the slot-suffixed rule-variable names that
//! piece unification generates.
//!
//! # Generation-side dedup
//!
//! On workloads like transitive closure, almost every candidate is an
//! isomorphic re-generation of one already processed (tc-wide: 99.8%
//! died to subsumption, each paying a freeze plus a homomorphism sweep).
//! The merge therefore rejects doomed candidates *before* any kernel
//! search, in three layers:
//!
//! * **Structural-key dedup** — every candidate carries its
//!   name-independent [`CanonicalKey`]; a seen-set per saturation drops
//!   re-generations at birth (`dedup_hits`). Sound because a key-equal
//!   candidate was already either kept (so it is subsumed now) or dropped
//!   in favour of something that entails it — entailment is transitive
//!   through any later evictions, so the old engine's subsumption sweep
//!   would have returned `true`; only the counter attribution moves from
//!   `subsumption_hits` to `dedup_hits`.
//! * **Piece-unifier index** — per-rule head-predicate lists plus a
//!   64-bit mask prefilter ([`TheoryIndex`]) so a queued item attempts
//!   only predicate-compatible unifications, and a per-item generation
//!   cap (`max_generated + 1 - generated-at-submission`) stops workers
//!   from enumerating candidates the budget can never consume. The cap
//!   is invisible to the merge: `generated` only grows between
//!   submission and merge, so the budget break fires at or before the
//!   capped item's last emitted candidate.
//! * **Predicate-set trie** — the kept set files entries by sorted
//!   predicate set (`PredSetTrie` in `trie.rs`); subsumption probes
//!   only subset-compatible entries, eviction only superset-compatible
//!   ones (the kernel's own pred-set prefilter condition, answered
//!   set-wide instead of per pair).
//!
//! Novel candidates sweep the kept set as their *raw* (uncored) entry —
//! subsumption and eviction booleans are invariant under equivalence, and
//! `raw ≡ core(raw)` — so the expensive core fold runs only on *accepted*
//! candidates (plus speculatively on the worker pool, gated off when the
//! trailing window's dedup+subsumption hit rate says speculation is
//! wasted). Outputs, traces, and every gated counter are unchanged.

use std::collections::HashSet;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qr_exec::Executor;
use qr_hom::containment::contains;
use qr_hom::kernel::{canonical_key, CanonicalKey, HomKernel, HomStats, QueryEntry};
use qr_syntax::{ConjunctiveQuery, Pred, Symbol, Theory, Ucq, Var};

use crate::cert::{CertBuilder, RewriteCertBundle};
use crate::stats::{RewriteStats, WindowStats};
use crate::trie::PredSetTrie;
use crate::unify::{piece_rewritings_indexed, query_pred_mask, TheoryIndex, UnifyCounters};

/// Resource limits for the saturation loop.
#[derive(Clone, Copy, Debug)]
pub struct RewriteBudget {
    /// Maximum number of queries kept in the rewriting set.
    pub max_queries: usize,
    /// Maximum number of candidate queries generated overall.
    pub max_generated: usize,
    /// Candidates larger than this many atoms are discarded. Discards are
    /// reported in [`Rewriting::oversized_discarded`] and make the outcome
    /// [`RewriteOutcome::AtomCapped`] (not [`RewriteOutcome::Budget`]),
    /// since a run whose only losses are atom-cap discards did saturate
    /// everything under the cap.
    pub max_atoms: usize,
}

impl Default for RewriteBudget {
    fn default() -> Self {
        RewriteBudget {
            max_queries: 512,
            max_generated: 20_000,
            max_atoms: 48,
        }
    }
}

/// Whether saturation finished.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RewriteOutcome {
    /// The rewriting set is saturated: it **is** `rew(ψ)` (finite, minimal
    /// up to the containment pruning) — a witness of BDD behaviour of the
    /// theory on this query.
    Complete,
    /// Saturated except for candidates above `max_atoms`, which were
    /// discarded without exploring their descendants: the set is complete
    /// *modulo the atom cap* — typical for divergent theories whose
    /// rewritings grow without bound, where no finite budget completes.
    AtomCapped,
    /// Budget exhausted (`max_generated` or `max_queries` hit with work
    /// still queued): the returned set is sound but possibly incomplete —
    /// divergence evidence.
    Budget,
}

/// Rejection of inputs outside the engine's fragment.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RewriteError {
    /// The theory contains a rule with an empty or `dom`-scoped body; such
    /// theories (e.g. the paper's `T_d`) are handled by the marked-query
    /// process in `qr-core`, not by generic piece rewriting.
    BuiltinBody {
        /// Rendering of the offending rule.
        rule: String,
    },
}

impl std::fmt::Display for RewriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RewriteError::BuiltinBody { rule } => {
                write!(
                    f,
                    "rule with builtin body unsupported by piece rewriting: {rule}"
                )
            }
        }
    }
}

impl std::error::Error for RewriteError {}

/// The result of a rewriting run.
#[derive(Clone, Debug)]
pub struct Rewriting {
    /// The rewriting set (each disjunct core-minimized; mutually
    /// incomparable under containment).
    pub ucq: Ucq,
    /// Saturated, atom-capped, or budget-limited.
    pub outcome: RewriteOutcome,
    /// Number of candidate queries generated.
    pub generated: usize,
    /// Candidates discarded for exceeding `max_atoms` (reported separately
    /// from budget exhaustion so callers can tell "complete modulo the atom
    /// cap" from "ran out of budget").
    pub oversized_discarded: usize,
    /// Maximum rewriting-step depth reached.
    pub depth: usize,
    /// Per-window saturation counters and wall splits.
    pub stats: RewriteStats,
    /// Homomorphism-kernel counters for this run (the run uses a private
    /// [`HomKernel`], so the numbers describe exactly this saturation).
    /// The cache/prefilter counters (`freezes` through `components`) are
    /// deterministic across thread counts; the search and core
    /// counters depend on scheduling (early-exiting parallel sweeps) and
    /// are only meaningful for sequential runs.
    pub hom: HomStats,
}

impl Rewriting {
    /// The paper's rewriting-size measure `rs_T(ψ)`: the maximal number of
    /// atoms in a disjunct.
    pub fn rs(&self) -> usize {
        self.ucq.max_disjunct_size()
    }

    /// `true` iff saturation completed.
    pub fn is_complete(&self) -> bool {
        self.outcome == RewriteOutcome::Complete
    }

    /// Theorem 1's minimality condition: no disjunct contains another
    /// (pairwise containment-incomparable). The saturation loop maintains
    /// this invariant; this re-checks it from scratch.
    pub fn is_minimal(&self) -> bool {
        let ds = self.ucq.disjuncts();
        for i in 0..ds.len() {
            for j in 0..ds.len() {
                if i != j && contains(&ds[i], &ds[j]) {
                    return false;
                }
            }
        }
        true
    }
}

/// The accumulated rewriting set. Every kept query carries its cached
/// [`QueryEntry`] (frozen instance, compiled component plans, prefilter
/// profile), so the subsumption and eviction sweeps pay no per-check
/// setup, and is filed under its sorted predicate set in a
/// [`PredSetTrie`], so a candidate probes only pred-set-compatible
/// entries instead of prefiltering every alive pair. Entries are
/// tombstoned rather than removed so the surviving queries keep their
/// insertion order — the order the historical linear-scan implementation
/// produced; a tombstoned entry also leaves the trie, so probes never
/// surface it.
struct KeptSet {
    entries: Vec<KeptEntry>,
    alive: usize,
    trie: PredSetTrie,
}

struct KeptEntry {
    query: ConjunctiveQuery,
    entry: Arc<QueryEntry>,
    /// The entry's sorted predicate set — its path in the trie, kept for
    /// removal on eviction.
    preds: Vec<Pred>,
    /// Certificate node of this disjunct (0 when not certifying).
    node: u32,
    alive: bool,
}

impl KeptSet {
    fn new() -> KeptSet {
        KeptSet {
            entries: Vec::new(),
            alive: 0,
            trie: PredSetTrie::default(),
        }
    }

    fn len(&self) -> usize {
        self.alive
    }

    fn push(&mut self, query: ConjunctiveQuery, entry: Arc<QueryEntry>, node: u32) {
        let preds: Vec<Pred> = entry.pred_set().collect();
        self.trie.insert(&preds, self.entries.len());
        self.entries.push(KeptEntry {
            query,
            entry,
            preds,
            node,
            alive: true,
        });
        self.alive += 1;
    }

    fn contains_query(&self, q: &ConjunctiveQuery) -> bool {
        self.entries.iter().any(|e| e.alive && e.query == *q)
    }

    /// Alive slots whose predicate set is a subset of `preds`, ascending —
    /// the only entries that can subsume a candidate with that pred set.
    fn subset_slots(&self, preds: &[Pred]) -> Vec<usize> {
        let mut slots = Vec::new();
        self.trie.subsets_into(preds, &mut slots);
        slots.sort_unstable();
        slots
    }

    /// Alive slots whose predicate set is a superset of `preds`,
    /// ascending — the only entries a candidate with that pred set can
    /// evict.
    fn superset_slots(&self, preds: &[Pred]) -> Vec<usize> {
        let mut slots = Vec::new();
        self.trie.supersets_into(preds, &mut slots);
        slots.sort_unstable();
        slots
    }

    fn entry_refs(&self, slots: &[usize]) -> Vec<&Arc<QueryEntry>> {
        slots.iter().map(|&i| &self.entries[i].entry).collect()
    }

    fn kill(&mut self, idx: usize) {
        if std::mem::take(&mut self.entries[idx].alive) {
            self.alive -= 1;
            self.trie.remove(&self.entries[idx].preds, idx);
        }
    }

    fn into_queries(self) -> Vec<ConjunctiveQuery> {
        self.entries
            .into_iter()
            .filter(|e| e.alive)
            .map(|e| e.query)
            .collect()
    }
}

/// Renames existential variables to `U0, U1, …` in variable-index order,
/// keeping answer-variable names (skipping any `U<i>` an answer variable
/// already uses). Structure — atom order, variable indices — is
/// untouched, so piece enumeration over the renamed query is unaffected;
/// only the generated rule-variable names disappear.
fn canonical_named(q: &ConjunctiveQuery) -> ConjunctiveQuery {
    let answer: HashSet<Var> = q.answer_vars().iter().copied().collect();
    let reserved: HashSet<&str> = q
        .answer_vars()
        .iter()
        .map(|v| q.var_name(*v).as_str())
        .collect();
    let mut names = q.var_names().to_vec();
    let mut next = 0usize;
    for (i, slot) in names.iter_mut().enumerate() {
        if answer.contains(&Var(i as u32)) {
            continue;
        }
        let name = loop {
            let cand = format!("U{next}");
            next += 1;
            if !reserved.contains(cand.as_str()) {
                break cand;
            }
        };
        *slot = Symbol::intern(&name);
    }
    ConjunctiveQuery::new(q.answer_vars().to_vec(), q.atoms().to_vec(), names)
}

/// A speculatively generated candidate from one piece rewriting of a
/// queued query.
enum Generated {
    /// The raw rewriting exceeded `max_atoms`: counted against the budget
    /// at merge time, never core-minimized (matching the sequential loop,
    /// which skips the core for oversized candidates).
    Oversized,
    /// A candidate under the atom cap (boxed: the payload dwarfs the
    /// dataless `Oversized` variant, and candidates are moved through the
    /// pipeline queue).
    Cand(Box<Candidate>),
}

/// Payload of [`Generated::Cand`].
struct Candidate {
    /// The raw piece rewriting (not core-minimized).
    raw: ConjunctiveQuery,
    /// `raw`'s name-independent structural key, computed on the
    /// worker: the merge dedups on it before touching the kernel.
    key: CanonicalKey,
    /// The core-minimized, canonically renamed form, computed
    /// speculatively when the gate was on at generation time; `None`
    /// otherwise (the merge computes it lazily, only on acceptance).
    /// Either way the value is the same deterministic function of
    /// `raw`, so where it is computed never shows in any output.
    core: Option<ConjunctiveQuery>,
    /// Rule index that generated `raw` — certificate provenance,
    /// carried identically whether or not the run certifies.
    rule: u32,
    /// The piece unifier's `(query atom, head atom)` pairs (see
    /// [`crate::unify::PieceUnifier::unified`]).
    unified: Vec<(u32, u32)>,
}

/// Windows generating at least this many candidates update the
/// speculation gate at their close.
const SPECULATION_MIN_WINDOW: usize = 64;
/// Speculative core computation is switched off while the trailing
/// window's dedup + subsumption hit rate is at or above this percentage
/// (nearly every core would be thrown away), and back on below it.
const SPECULATION_HIT_PCT: usize = 90;

/// How the saturation loop schedules generation against the merge. The
/// pipelined engine is the only one; the type and [`rewrite_with_mode`]
/// stay because the standalone `perfbench` crate names them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SaturationMode {
    /// Speculative pipelining on [`Executor::pipeline_ordered`]: window
    /// *i+1* generates while window *i* merges.
    Pipelined,
}

/// Computes a UCQ rewriting of `query` under `theory` (see module docs).
pub fn rewrite(
    theory: &Theory,
    query: &ConjunctiveQuery,
    budget: RewriteBudget,
) -> Result<Rewriting, RewriteError> {
    saturate(
        theory,
        query,
        budget,
        &Executor::sequential(),
        &mut |_, _| {},
        None,
    )
}

/// [`rewrite`] with candidate generation and containment sweeps scheduled
/// on `exec`'s worker pool. Deterministic: the result — disjuncts, their
/// renderings, `generated`, `depth`, outcome, every stats counter — is
/// identical to the sequential run for every thread count.
pub fn rewrite_with(
    theory: &Theory,
    query: &ConjunctiveQuery,
    budget: RewriteBudget,
    exec: &Executor,
) -> Result<Rewriting, RewriteError> {
    saturate(theory, query, budget, exec, &mut |_, _| {}, None)
}

/// [`rewrite_with`] under a [`SaturationMode`]; there is one mode, so this
/// is [`rewrite_with`]. Kept for the standalone `perfbench` crate.
pub fn rewrite_with_mode(
    theory: &Theory,
    query: &ConjunctiveQuery,
    budget: RewriteBudget,
    exec: &Executor,
    _mode: SaturationMode,
) -> Result<Rewriting, RewriteError> {
    rewrite_with(theory, query, budget, exec)
}

/// [`rewrite_with`] with certificate emission: alongside the rewriting,
/// returns a [`RewriteCertBundle`] holding one replayable
/// [`crate::cert::RewriteCert`] per accepted disjunct (node 0 is the
/// seed). The rewriting itself — disjuncts, outcome, `generated`, every
/// drift-gated counter — is byte-identical to the uncertified run at
/// every thread count: recording happens strictly after each acceptance
/// decision, on the merge thread, with a private kernel-free matcher.
pub fn rewrite_certified(
    theory: &Theory,
    query: &ConjunctiveQuery,
    budget: RewriteBudget,
    exec: &Executor,
) -> Result<(Rewriting, RewriteCertBundle), RewriteError> {
    let mut cb = CertBuilder::new();
    let r = saturate(theory, query, budget, exec, &mut |_, _| {}, Some(&mut cb))?;
    Ok((r, cb.into_bundle()))
}

/// Like [`rewrite`], invoking `trace(depth, query)` for every query accepted
/// into the rewriting set (useful for experiments and debugging).
pub fn rewrite_with_trace(
    theory: &Theory,
    query: &ConjunctiveQuery,
    budget: RewriteBudget,
    mut trace: impl FnMut(usize, &ConjunctiveQuery),
) -> Result<Rewriting, RewriteError> {
    saturate(
        theory,
        query,
        budget,
        &Executor::sequential(),
        &mut trace,
        None,
    )
}

/// [`rewrite_with_trace`] on an explicit executor: the trace stream is
/// byte-identical to the sequential one at every thread count (acceptances
/// happen at merge time, in merge order).
pub fn rewrite_with_trace_on(
    theory: &Theory,
    query: &ConjunctiveQuery,
    budget: RewriteBudget,
    exec: &Executor,
    mut trace: impl FnMut(usize, &ConjunctiveQuery),
) -> Result<Rewriting, RewriteError> {
    saturate(theory, query, budget, exec, &mut trace, None)
}

/// The saturation merge core: all kept-set decisions — aliveness, budget
/// accounting, subsumption, eviction, acceptance, tracing, window
/// bookkeeping — live here, on the merge thread, so they are made in
/// submission order whatever the schedule.
struct Merger<'a> {
    budget: RewriteBudget,
    exec: &'a Executor,
    kernel: &'a HomKernel,
    trace: &'a mut dyn FnMut(usize, &ConjunctiveQuery),
    set: KeptSet,
    /// Structural keys of every candidate processed this run (plus the
    /// seed and accepted cores): the generation-side dedup's seen-set.
    seen: HashSet<CanonicalKey>,
    /// Certificate recorder; `None` on uncertified runs. Recording
    /// happens only at acceptance points on the merge thread, so the
    /// engine's decisions and counters are identical either way.
    certs: Option<&'a mut CertBuilder>,
    /// The speculation gate shared with the generation closure: cleared
    /// when speculative cores are being thrown away wholesale.
    speculate: &'a AtomicBool,
    generated: usize,
    oversized: usize,
    depth_reached: usize,
    truncated: bool,
    stats: RewriteStats,
    cur: WindowStats,
    /// Sequence number of the next item to merge (items are numbered in
    /// submission order, exactly the pipeline's sequence numbers).
    merge_seq: usize,
    /// Items submitted so far (seed + every accepted candidate).
    submitted: usize,
    /// Last sequence number belonging to the window being merged.
    window_last_seq: usize,
}

/// A queued saturation item: the query, its rewriting depth, the
/// generation cap in force when it was submitted (`max_generated + 1 -
/// generated-at-submission` — the most candidates the merge could ever
/// consume from it before the budget break fires), and the query's
/// certificate node (0 on uncertified runs).
type Item = (ConjunctiveQuery, usize, usize, u32);

impl<'a> Merger<'a> {
    fn new(
        budget: RewriteBudget,
        exec: &'a Executor,
        kernel: &'a HomKernel,
        speculate: &'a AtomicBool,
        trace: &'a mut dyn FnMut(usize, &ConjunctiveQuery),
        certs: Option<&'a mut CertBuilder>,
    ) -> Merger<'a> {
        Merger {
            budget,
            exec,
            kernel,
            trace,
            set: KeptSet::new(),
            seen: HashSet::new(),
            certs,
            speculate,
            generated: 0,
            oversized: 0,
            depth_reached: 0,
            truncated: false,
            stats: RewriteStats {
                threads: exec.threads(),
                windows: Vec::new(),
            },
            cur: WindowStats {
                window: 0,
                items: 1,
                ..WindowStats::default()
            },
            merge_seq: 0,
            submitted: 1,
            window_last_seq: 0,
        }
    }

    /// The generation cap for an item submitted right now.
    fn submission_cap(&self) -> usize {
        self.budget.max_generated.saturating_add(1) - self.generated
    }

    /// Closes the window being accumulated (records the kept-set size)
    /// and updates the speculation gate from the closing window's hit
    /// rate. The gate only moves *where* cores are computed (worker pool
    /// vs. merge thread on acceptance), never *what* is computed, so its
    /// schedule-dependent timing is invisible to every counter and
    /// output.
    fn close_window(&mut self) {
        self.cur.kept = self.set.len();
        if self.cur.generated >= SPECULATION_MIN_WINDOW {
            let doomed = self.cur.dedup_hits + self.cur.subsumption_hits;
            self.speculate.store(
                doomed * 100 < self.cur.generated * SPECULATION_HIT_PCT,
                Relaxed,
            );
        }
        self.stats.windows.push(std::mem::take(&mut self.cur));
    }

    /// Merges one item's speculative generation results in submission
    /// order. `Break` means a budget stop: the caller must stop merging.
    /// Accepted candidates are appended to `out` for resubmission.
    #[allow(clippy::too_many_arguments)]
    fn merge_item(
        &mut self,
        q: &ConjunctiveQuery,
        depth: usize,
        node: u32,
        gens: &[Generated],
        uc: UnifyCounters,
        gen_wall: Duration,
        waited: Duration,
        helped: Duration,
        out: &mut Vec<Item>,
    ) -> ControlFlow<()> {
        let seq = self.merge_seq;
        self.merge_seq += 1;
        if seq > self.window_last_seq {
            // First item of the next BFS window: everything submitted and
            // not yet merged was queued together.
            self.close_window();
            self.cur.window = self.stats.windows.len();
            self.cur.items = self.submitted - seq;
            self.window_last_seq = self.submitted - 1;
        }
        self.cur.gen_wall += gen_wall;
        // `waited` is a *stall* only where generation ran on a worker; the
        // `helped` sub-interval ran inline on this thread — a sequential
        // executor generates everything inline, and the parallel pipeline
        // steals the head task when no worker has claimed it. Inline work
        // is already charged to `gen_wall`, not waiting (the historical
        // accounting double-counted it, reporting `wait ≈ gen` at one
        // thread). Overlap is the generation work neither the stall nor
        // the steal exposed: what ran while this thread was busy merging.
        let (stall, overlap) = if self.exec.is_sequential() {
            (Duration::ZERO, Duration::ZERO)
        } else {
            (
                waited.saturating_sub(helped),
                gen_wall.saturating_sub(waited),
            )
        };
        self.cur.wait_wall += stall;
        self.cur.overlap_wall += overlap;
        let t0 = Instant::now();
        let flow = self.merge_item_decisions(q, depth, node, gens, uc, out);
        self.cur.merge_wall += t0.elapsed();
        self.submitted += out.len();
        flow
    }

    fn merge_item_decisions(
        &mut self,
        q: &ConjunctiveQuery,
        depth: usize,
        node: u32,
        gens: &[Generated],
        uc: UnifyCounters,
        out: &mut Vec<Item>,
    ) -> ControlFlow<()> {
        // The query may have been evicted by a more general arrival; its
        // speculative candidates are dropped uncounted, exactly as the
        // historical sequential loop never generated for queries that
        // failed its aliveness check. (Its unifier counters are discarded
        // with them, keeping those deterministic across schedules too.)
        if !self.set.contains_query(q) {
            self.cur.dead_skipped += 1;
            return ControlFlow::Continue(());
        }
        self.cur.merged += 1;
        self.cur.unifier_probes += uc.probes;
        self.cur.unifier_skipped += uc.skipped;
        for g in gens {
            self.generated += 1;
            self.cur.generated += 1;
            if self.generated > self.budget.max_generated {
                self.truncated = true;
                return ControlFlow::Break(());
            }
            let (raw, key, spec_core, rule, unified) = match g {
                Generated::Oversized => {
                    self.oversized += 1;
                    self.cur.oversized += 1;
                    continue;
                }
                Generated::Cand(c) => (&c.raw, &c.key, &c.core, c.rule, &c.unified),
            };
            // Dedup at birth: a key-equal candidate was already processed,
            // so an alive kept query entails this one (directly, or
            // transitively through evictions) — the subsumption sweep
            // would return `true`; skip it and the entry acquisition.
            if !self.seen.insert(key.clone()) {
                self.cur.dedup_hits += 1;
                continue;
            }
            // The raw candidate's kernel entry. The sweeps run on the raw
            // form: their booleans are invariant under equivalence and
            // `raw ≡ core(raw)`, so the core fold can wait until the
            // candidate is actually accepted.
            let raw_entry = self.kernel.entry_with_key(key.clone(), raw);
            let raw_preds: Vec<Pred> = raw_entry.pred_set().collect();
            // Subsumed: some kept query already covers it (whenever the
            // candidate holds, the kept one does). The trie narrows the
            // sweep to pred-set-compatible entries; the kernel's
            // remaining prefilters run inside.
            let sub = self.set.subset_slots(&raw_preds);
            self.cur.trie_probes += sub.len();
            self.cur.trie_skipped += self.set.len() - sub.len();
            if self
                .kernel
                .subsumed_by_any(self.exec, &raw_entry, &self.set.entry_refs(&sub))
            {
                self.cur.subsumption_hits += 1;
                continue;
            }
            // Evict kept queries covered by the candidate.
            let sup = self.set.superset_slots(&raw_preds);
            self.cur.trie_probes += sup.len();
            self.cur.trie_skipped += self.set.len() - sup.len();
            let dead: Vec<usize> = self
                .kernel
                .covered_by(self.exec, &self.set.entry_refs(&sup), &raw_entry)
                .into_iter()
                .zip(&sup)
                .filter_map(|(covered, idx)| covered.then_some(*idx))
                .collect();
            let evicted = dead.len();
            for idx in dead {
                self.set.kill(idx);
            }
            self.cur.evictions += evicted;
            // Accepted (possibly via the capacity rescue below): only now
            // is the core needed — take the speculative one if the gate
            // had it computed, else fold it here. Identical value either
            // way.
            let cand = match spec_core {
                Some(c) => c.clone(),
                None => canonical_named(&self.kernel.query_core(raw)),
            };
            self.seen.insert(canonical_key(&cand));
            let cand_entry = self.kernel.entry(&cand);
            if self.set.len() >= self.budget.max_queries {
                self.truncated = true;
                // Soundness at the truncation point: if this candidate
                // evicted anything, it must replace the victims' coverage
                // before we stop — breaking between the kills and the push
                // would return a UCQ missing the evicted disjuncts with
                // nothing standing in for them. (With the push guarded by
                // `len >= max_queries`, the set can only be at capacity
                // here with zero victims killed unless it was over
                // capacity to begin with — but the rescue keeps the break
                // sound for every budget, including `max_queries = 0`,
                // where the unguarded seed push overflows.)
                if evicted > 0 {
                    self.depth_reached = self.depth_reached.max(depth + 1);
                    (self.trace)(depth + 1, &cand);
                    // The certificate records exactly the accepted nodes,
                    // so it is cut only when the push actually happens.
                    let cn = match self.certs.as_deref_mut() {
                        Some(cb) => cb.record_accept(node, rule, unified, raw, &cand),
                        None => 0,
                    };
                    self.set.push(cand, cand_entry, cn);
                    self.cur.accepted += 1;
                }
                return ControlFlow::Break(());
            }
            self.depth_reached = self.depth_reached.max(depth + 1);
            (self.trace)(depth + 1, &cand);
            let cn = match self.certs.as_deref_mut() {
                Some(cb) => cb.record_accept(node, rule, unified, raw, &cand),
                None => 0,
            };
            let cap = self.submission_cap();
            out.push((cand.clone(), depth + 1, cap, cn));
            self.set.push(cand, cand_entry, cn);
            self.cur.accepted += 1;
        }
        ControlFlow::Continue(())
    }
}

fn saturate(
    theory: &Theory,
    query: &ConjunctiveQuery,
    budget: RewriteBudget,
    exec: &Executor,
    trace: &mut dyn FnMut(usize, &ConjunctiveQuery),
    mut certs: Option<&mut CertBuilder>,
) -> Result<Rewriting, RewriteError> {
    for r in theory.rules() {
        if r.has_builtin_body() {
            return Err(RewriteError::BuiltinBody { rule: r.render() });
        }
    }

    // One private kernel per run: the caches warm up on this saturation's
    // own queries and the counters describe exactly this run.
    let kernel = HomKernel::new();
    let seed = canonical_named(&kernel.query_core(query));
    trace(0, &seed);
    if let Some(cb) = certs.as_deref_mut() {
        cb.record_seed(query, &seed);
    }
    let seed_entry = kernel.entry(&seed);
    // Speculation gate: workers read it before folding cores; the merge
    // thread updates it at window boundaries from the trailing window's
    // doomed-candidate rate.
    let speculate = AtomicBool::new(true);
    let mut merger = Merger::new(budget, exec, &kernel, &speculate, trace, certs);
    merger.seen.insert(canonical_key(&seed));
    merger.set.push(seed.clone(), seed_entry, 0);
    let tindex = TheoryIndex::new(theory);

    // Speculative generation: piece rewritings (and, when the gate is
    // open, cores) of one queued query, a pure per-item function
    // scheduled on the worker pool. `cap` bounds the number of `Generated`
    // the item may still contribute before the run's generation budget is
    // spent — fixed at submission time, so it is identical across
    // schedules, and never smaller than what the merge will actually
    // count (generated only grows between submission and merge).
    let generate =
        |q: &ConjunctiveQuery, cap: usize| -> (Vec<Generated>, UnifyCounters, Duration) {
            let t0 = Instant::now();
            let qmask = query_pred_mask(q);
            let spec = speculate.load(Relaxed);
            let mut uc = UnifyCounters::default();
            let mut out = Vec::new();
            for (ri, (rule, ridx)) in theory.rules().iter().zip(tindex.rules()).enumerate() {
                if out.len() >= cap {
                    break;
                }
                if ridx.mask() & qmask == 0 {
                    // No head predicate occurs in the query: every (query
                    // atom × head atom) pairing is pruned by the rule mask.
                    uc.skipped += q.atoms().len() * ridx.head_len();
                    continue;
                }
                for pu in piece_rewritings_indexed(q, rule, ridx, cap - out.len(), &mut uc) {
                    if pu.result.size() > budget.max_atoms {
                        out.push(Generated::Oversized);
                    } else {
                        let key = canonical_key(&pu.result);
                        let core = spec.then(|| canonical_named(&kernel.query_core(&pu.result)));
                        out.push(Generated::Cand(Box::new(Candidate {
                            raw: pu.result,
                            key,
                            core,
                            rule: ri as u32,
                            unified: pu
                                .unified
                                .iter()
                                .map(|&(a, h)| (a as u32, h as u32))
                                .collect(),
                        })));
                    }
                }
            }
            (out, uc, t0.elapsed())
        };

    exec.pipeline_ordered(
        vec![(seed, 0usize, budget.max_generated.saturating_add(1), 0u32)],
        |(q, _, cap, _)| generate(q, *cap),
        |(q, depth, _, node), (gens, uc, gen_wall), ctx| {
            let mut out = Vec::new();
            let flow = merger.merge_item(
                &q,
                depth,
                node,
                &gens,
                uc,
                gen_wall,
                ctx.waited(),
                ctx.helped(),
                &mut out,
            );
            for item in out {
                ctx.submit(item);
            }
            flow
        },
    );
    merger.close_window();
    if let Some(cb) = merger.certs.as_deref_mut() {
        // `into_queries` keeps alive entries in insertion order, so this
        // is exactly the final UCQ's disjunct order.
        let finals: Vec<u32> = merger
            .set
            .entries
            .iter()
            .filter(|e| e.alive)
            .map(|e| e.node)
            .collect();
        cb.set_finals(finals);
    }

    let outcome = if merger.truncated {
        RewriteOutcome::Budget
    } else if merger.oversized > 0 {
        RewriteOutcome::AtomCapped
    } else {
        RewriteOutcome::Complete
    };
    let Merger {
        set,
        generated,
        oversized,
        depth_reached,
        stats,
        ..
    } = merger;
    Ok(Rewriting {
        ucq: Ucq::new(set.into_queries()),
        outcome,
        generated,
        oversized_discarded: oversized,
        depth: depth_reached,
        stats,
        hom: kernel.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_syntax::{parse_query, parse_theory};

    fn run(theory: &str, query: &str) -> Rewriting {
        rewrite(
            &parse_theory(theory).unwrap(),
            &parse_query(query).unwrap(),
            RewriteBudget::default(),
        )
        .unwrap()
    }

    #[test]
    fn example_1_family() {
        let r = run(
            "human(Y) -> mother(Y,Z).\nmother(X,Y) -> human(Y).",
            "?(X) :- mother(X, M).",
        );
        assert!(r.is_complete());
        // mother(X,M) ∨ human(X) ∨ mother(U,X) (X a mother's child is human,
        // and humans have mothers).
        assert_eq!(r.ucq.len(), 3);
    }

    #[test]
    fn exercise_12_linear_path() {
        // T_p = e(X,Y) -> e(Y,Z) is BDD; a 2-path rewrites to a single edge.
        let r = run("e(X,Y) -> e(Y,Z).", "? :- e(A,B), e(B,C).");
        assert!(r.is_complete());
        assert_eq!(r.ucq.len(), 1);
        assert_eq!(r.rs(), 1);
    }

    #[test]
    fn longer_paths_still_one_edge() {
        let r = run("e(X,Y) -> e(Y,Z).", "? :- e(A,B), e(B,C), e(C,D), e(D,E).");
        assert!(r.is_complete());
        assert_eq!(r.ucq.len(), 1);
        assert_eq!(r.rs(), 1);
    }

    #[test]
    fn anchored_query_keeps_prefix_disjuncts() {
        // Ch(T,D) has a 2-path from A iff A touches any edge of D (every
        // element grows an infinite forward path), so the rewriting is the
        // pair of single-edge queries around A.
        let r = run("e(X,Y) -> e(Y,Z).", "?(A) :- e(A,B), e(B,C).");
        assert!(r.is_complete());
        assert_eq!(r.ucq.len(), 2); // e(A,B) and e(B,A)
        assert_eq!(r.rs(), 1);
    }

    #[test]
    fn transitivity_diverges() {
        // Unbounded Datalog: not BDD; the engine must hit its budget.
        let r = rewrite(
            &parse_theory("e(X,Y), e(Y,Z) -> e(X,Z).").unwrap(),
            &parse_query("? :- e(a, b).").unwrap(),
            RewriteBudget {
                max_queries: 64,
                max_generated: 2_000,
                max_atoms: 12,
            },
        )
        .unwrap();
        assert_eq!(r.outcome, RewriteOutcome::Budget);
        assert!(r.ucq.len() > 8, "paths of many lengths should appear");
    }

    #[test]
    fn t_d_is_rejected() {
        let t = parse_theory("true -> r(X,X).\ndom(X) -> r(X,Z).").unwrap();
        let q = parse_query("? :- r(A,B).").unwrap();
        let err = rewrite(&t, &q, RewriteBudget::default()).unwrap_err();
        assert!(matches!(err, RewriteError::BuiltinBody { .. }));
    }

    #[test]
    fn guarded_two_rule_theory() {
        let r = run("p(X), e(X,Y) -> p(Y).\nq(X) -> p(X).", "? :- p(A).");
        // p(A) ∨ q(A) ∨ p(B),e(B,A) ∨ q(B),e(B,A) ∨ longer chains... p is
        // propagated along edges, so this is unbounded Datalog-ish — but
        // each new disjunct extends the chain: budget or growth expected.
        assert!(r.ucq.len() >= 2);
    }

    #[test]
    fn sticky_example_39_atomic_query() {
        // Example 39: E(x,y,y',t), R(x,t') -> ∃y'' E(x,y',y,t') — for the
        // fully existential atomic query, every rewriting step introduces an
        // e-atom, so all rewrites are subsumed by the query itself.
        let r = run("e(X,Y,Y1,T), r(X,T1) -> e(X,Y1,Y2,T1).", "? :- e(A,B,C,D).");
        assert!(r.is_complete());
        assert_eq!(r.ucq.len(), 1);
        // Anchoring the spectator and the color makes the r-atom matter.
        let r2 = run(
            "e(X,Y,Y1,T), r(X,T1) -> e(X,Y1,Y2,T1).",
            "?(A,D) :- e(A,B,C,D).",
        );
        assert!(r2.is_complete());
        assert_eq!(r2.ucq.len(), 2);
        assert_eq!(r2.rs(), 2);
    }

    /// Every fixture the engine covers, as (label, theory, query, budget).
    fn fixtures() -> Vec<(&'static str, &'static str, &'static str, RewriteBudget)> {
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
            // The first rule's candidate (q(a) ∧ b(a)) is accepted and
            // requeued, then evicted by the second rule's more general
            // q(a) inside the same window — its requeued item must be
            // dead-skipped, not merged.
            (
                "evict-requeue",
                "q(X), b(X) -> p(X).\nq(X) -> p(X).",
                "? :- p(a).",
                RewriteBudget::default(),
            ),
        ]
    }

    fn renders(r: &Rewriting) -> Vec<String> {
        r.ucq.disjuncts().iter().map(|d| d.render()).collect()
    }

    #[test]
    fn parallel_rewrite_is_identical_to_sequential() {
        for (label, t, q, budget) in fixtures() {
            // The budget-truncation path is what matters on the divergent
            // fixture; a smaller budget exercises it at a fraction of the
            // cost.
            let budget = if label == "tc-budget" {
                RewriteBudget {
                    max_queries: 24,
                    max_generated: 300,
                    max_atoms: 8,
                }
            } else {
                budget
            };
            let theory = parse_theory(t).unwrap();
            let query = parse_query(q).unwrap();
            let seq = rewrite(&theory, &query, budget).unwrap();
            for threads in [2, 4] {
                let par = rewrite_with(&theory, &query, budget, &Executor::with_threads(threads))
                    .unwrap();
                assert_eq!(par.outcome, seq.outcome, "{label} @{threads}: outcome");
                assert_eq!(
                    par.generated, seq.generated,
                    "{label} @{threads}: generated"
                );
                assert_eq!(par.depth, seq.depth, "{label} @{threads}: depth");
                assert_eq!(
                    renders(&par),
                    renders(&seq),
                    "{label} @{threads}: saturated set"
                );
            }
        }
    }

    /// The saturated sets the pre-index, pre-parallel engine produced on
    /// these fixtures, pinned up to the canonical variable renaming:
    /// identical outcome / generated / depth, and a bijection between the
    /// disjuncts and the expected queries under [`equivalent`].
    #[test]
    fn saturated_sets_match_prechange_engine() {
        use qr_hom::containment::equivalent;
        let expected: Vec<(&str, RewriteOutcome, usize, usize, Vec<&str>)> = vec![
            (
                "t_a",
                RewriteOutcome::Complete,
                2,
                2,
                vec![
                    "?(X) :- mother(X, M).",
                    "?(X) :- human(X).",
                    "?(X) :- mother(U, X).",
                ],
            ),
            (
                "t_p",
                RewriteOutcome::Complete,
                2,
                2,
                vec!["?(A) :- e(A, B).", "?(A) :- e(B, A)."],
            ),
            (
                "ex39",
                RewriteOutcome::Complete,
                2,
                1,
                vec!["?(A,D) :- e(A,B,C,D).", "?(A,D) :- e(A,Y,B,T), r(A,D)."],
            ),
            (
                "guarded",
                RewriteOutcome::Complete,
                2,
                1,
                vec!["? :- p(A).", "? :- q(A)."],
            ),
            (
                "tc-budget",
                RewriteOutcome::Budget,
                2001,
                11,
                vec![], // pinned by shape below: chains of length 1..=12
            ),
            (
                "evict-requeue",
                RewriteOutcome::Complete,
                2,
                1,
                vec!["? :- p(a).", "? :- q(a)."],
            ),
        ];
        for ((label, t, q, budget), (elabel, outcome, generated, depth, disjuncts)) in
            fixtures().into_iter().zip(expected)
        {
            assert_eq!(label, elabel);
            let r = rewrite(&parse_theory(t).unwrap(), &parse_query(q).unwrap(), budget).unwrap();
            assert_eq!(r.outcome, outcome, "{label}: outcome");
            assert_eq!(r.generated, generated, "{label}: generated");
            assert_eq!(r.depth, depth, "{label}: depth");
            if label == "tc-budget" {
                // One chain disjunct per length 1..=12, exactly as before.
                let mut sizes: Vec<usize> = r.ucq.disjuncts().iter().map(|d| d.size()).collect();
                sizes.sort_unstable();
                assert_eq!(sizes, (1..=12).collect::<Vec<_>>(), "tc-budget: sizes");
                continue;
            }
            assert_eq!(r.ucq.len(), disjuncts.len(), "{label}: set size");
            let want: Vec<ConjunctiveQuery> =
                disjuncts.iter().map(|s| parse_query(s).unwrap()).collect();
            for w in &want {
                assert!(
                    r.ucq.disjuncts().iter().any(|d| equivalent(d, w)),
                    "{label}: missing disjunct equivalent to {}",
                    w.render()
                );
            }
            for d in r.ucq.disjuncts() {
                assert!(
                    want.iter().any(|w| equivalent(d, w)),
                    "{label}: unexpected disjunct {}",
                    d.render()
                );
            }
        }
    }

    #[test]
    fn atom_cap_only_losses_report_atom_capped() {
        // Example 41's rule grows every rewriting by one atom, so with a
        // generous generation budget the only losses are atom-cap
        // discards: saturated modulo the cap, not out of budget.
        let r = rewrite(
            &parse_theory("e(X,Y,Z), r(X,Z) -> r(Y,Z).").unwrap(),
            &parse_query("?(Y,Z) :- r(Y,Z).").unwrap(),
            RewriteBudget {
                max_queries: 512,
                max_generated: 20_000,
                max_atoms: 7,
            },
        )
        .unwrap();
        assert_eq!(r.outcome, RewriteOutcome::AtomCapped);
        assert!(r.oversized_discarded > 0, "cap discards must be counted");
        assert_eq!(r.stats.oversized(), r.oversized_discarded);
        assert!(
            !r.is_complete(),
            "atom-capped runs are not complete rewritings"
        );
    }

    #[test]
    fn complete_runs_report_zero_oversized() {
        let r = run("e(X,Y) -> e(Y,Z).", "?(A) :- e(A,B), e(B,C).");
        assert_eq!(r.outcome, RewriteOutcome::Complete);
        assert_eq!(r.oversized_discarded, 0);
    }

    /// Strips the schedule-dependent wall splits, keeping every
    /// deterministic per-window counter.
    #[allow(clippy::type_complexity)]
    fn counter_rows(s: &crate::stats::RewriteStats) -> Vec<[usize; 15]> {
        s.windows
            .iter()
            .map(|w| {
                [
                    w.window,
                    w.items,
                    w.merged,
                    w.dead_skipped,
                    w.generated,
                    w.dedup_hits,
                    w.subsumption_hits,
                    w.evictions,
                    w.oversized,
                    w.accepted,
                    w.kept,
                    w.unifier_probes,
                    w.unifier_skipped,
                    w.trie_probes,
                    w.trie_skipped,
                ]
            })
            .collect()
    }

    #[test]
    fn stats_counters_identical_across_threads() {
        for (label, t, q, budget) in fixtures() {
            let budget = if label == "tc-budget" {
                RewriteBudget {
                    max_queries: 24,
                    max_generated: 300,
                    max_atoms: 8,
                }
            } else {
                budget
            };
            let theory = parse_theory(t).unwrap();
            let query = parse_query(q).unwrap();
            let seq = rewrite(&theory, &query, budget).unwrap();
            // Totals reconcile with the run's headline numbers.
            assert_eq!(seq.stats.generated(), seq.generated, "{label}");
            assert_eq!(seq.stats.oversized(), seq.oversized_discarded, "{label}");
            assert_eq!(
                1 + seq.stats.accepted() - seq.stats.evictions(),
                seq.ucq.len(),
                "{label}: seed + accepted - evicted = surviving disjuncts"
            );
            assert_eq!(
                seq.stats.windows.last().unwrap().kept,
                seq.ucq.len(),
                "{label}: final window records the surviving set size"
            );
            // Sequentially, generation runs inline on the merge thread:
            // nothing stalls and nothing overlaps.
            assert_eq!(seq.stats.threads, 1, "{label}");
            for w in &seq.stats.windows {
                assert_eq!(w.wait_wall, Duration::ZERO, "{label}: no stall @1");
                assert_eq!(w.overlap_wall, Duration::ZERO, "{label}: no overlap @1");
            }
            let expect = counter_rows(&seq.stats);
            for threads in [1, 2, 4] {
                let exec = Executor::with_threads(threads);
                let r = rewrite_with(&theory, &query, budget, &exec).unwrap();
                assert_eq!(
                    counter_rows(&r.stats),
                    expect,
                    "{label} @{threads}: window counters"
                );
            }
        }
    }

    #[test]
    fn trace_stream_identical_across_thread_counts() {
        for (label, t, q, budget) in fixtures() {
            let budget = if label == "tc-budget" {
                RewriteBudget {
                    max_queries: 24,
                    max_generated: 300,
                    max_atoms: 8,
                }
            } else {
                budget
            };
            let theory = parse_theory(t).unwrap();
            let query = parse_query(q).unwrap();
            let mut expect = Vec::new();
            rewrite_with_trace(&theory, &query, budget, |d, cq| {
                expect.push((d, cq.render()));
            })
            .unwrap();
            for threads in [2, 4] {
                let mut seen = Vec::new();
                rewrite_with_trace_on(
                    &theory,
                    &query,
                    budget,
                    &Executor::with_threads(threads),
                    |d, cq| seen.push((d, cq.render())),
                )
                .unwrap();
                assert_eq!(seen, expect, "{label} @{threads}: trace stream");
            }
        }
    }

    #[test]
    fn signature_is_a_set_not_a_multiset() {
        // A homomorphism may collapse atoms: the 2-path maps into the
        // self-loop, even though the source uses `e` twice and the target
        // once. The kernel prefilter (which replaced the engine-local
        // signature index) must not prune this.
        let k = HomKernel::new();
        let path = parse_query("? :- e(X,Y), e(Y,Z).").unwrap();
        let selfloop = parse_query("? :- e(A,A).").unwrap();
        assert!(contains(&selfloop, &path));
        assert!(!k.prefilter_rejects_pair(&selfloop, &path));
        assert!(!k.prefilter_rejects_pair(&path, &selfloop));
        // Disjoint predicates are pruned in both directions.
        let other = parse_query("? :- f(X,Y).").unwrap();
        assert!(k.prefilter_rejects_pair(&path, &other));
        assert!(k.prefilter_rejects_pair(&other, &path));
        // Strict subset works one way only.
        let mixed = parse_query("? :- e(X,Y), f(Y,Z).").unwrap();
        assert!(!k.prefilter_rejects_pair(&mixed, &path));
        assert!(k.prefilter_rejects_pair(&path, &mixed));
    }

    /// The cache/prefilter tier of [`HomStats`] is incremented only at
    /// merge-thread points (entry acquisition, sequential prefilter
    /// passes), so it must be identical across thread counts — these
    /// counters are gated in CI.
    #[test]
    fn hom_cache_counters_identical_across_threads() {
        fn cache_tier(h: &qr_hom::HomStats) -> (u64, u64, u64, u64, u64, u64) {
            (
                h.freezes,
                h.freeze_cache_hits,
                h.plan_compiles,
                h.plan_cache_hits,
                h.prefilter_rejects,
                h.components,
            )
        }
        for (label, t, q, budget) in fixtures() {
            let budget = if label == "tc-budget" {
                RewriteBudget {
                    max_queries: 24,
                    max_generated: 300,
                    max_atoms: 8,
                }
            } else {
                budget
            };
            let theory = parse_theory(t).unwrap();
            let query = parse_query(q).unwrap();
            let seq = rewrite(&theory, &query, budget).unwrap();
            assert!(seq.hom.freezes > 0, "{label}: the kernel froze something");
            let expect = cache_tier(&seq.hom);
            for threads in [1, 2, 4] {
                let exec = Executor::with_threads(threads);
                let r = rewrite_with(&theory, &query, budget, &exec).unwrap();
                assert_eq!(
                    cache_tier(&r.hom),
                    expect,
                    "{label} @{threads}: hom cache counters"
                );
            }
        }
    }

    #[test]
    fn canonical_renaming_keeps_answer_names_and_structure() {
        let q = parse_query("?(X) :- mother(X, M), human(H).").unwrap();
        let c = canonical_named(&q);
        assert_eq!(c.answer_vars(), q.answer_vars());
        assert_eq!(c.atoms(), q.atoms());
        assert_eq!(c.render(), "?(X) :- mother(X,U0), human(U1)");
        // An answer variable already named like a canonical slot is skipped.
        let q2 = parse_query("?(U0) :- e(U0, Y).").unwrap();
        assert_eq!(canonical_named(&q2).render(), "?(U0) :- e(U0,U1)");
    }

    #[test]
    fn trace_sees_every_kept_query() {
        let t = parse_theory("human(Y) -> mother(Y,Z).\nmother(X,Y) -> human(Y).").unwrap();
        let q = parse_query("?(X) :- mother(X, M).").unwrap();
        let mut seen = Vec::new();
        let r = rewrite_with_trace(&t, &q, RewriteBudget::default(), |d, cq| {
            seen.push((d, cq.render()));
        })
        .unwrap();
        assert!(seen.len() >= r.ucq.len());
        assert_eq!(seen[0].0, 0);
    }

    /// Satellite of the wait-accounting fix: at one thread, generation
    /// runs inline on the merge thread, so no window may report a stall
    /// (the old pipeline charged the full inline generation time to
    /// `wait_wall`, making `wait_ms ≈ gen_ms` at one thread) or any
    /// overlap.
    #[test]
    fn inline_generation_reports_zero_wait_and_overlap() {
        let exec = Executor::with_threads(1);
        for (label, t, q, budget) in fixtures() {
            let theory = parse_theory(t).unwrap();
            let query = parse_query(q).unwrap();
            let r = rewrite_with(&theory, &query, budget, &exec).unwrap();
            assert_eq!(r.stats.wait_wall(), Duration::ZERO, "{label}");
            assert_eq!(r.stats.overlap_wall(), Duration::ZERO, "{label}");
            assert!(r.stats.gen_wall() > Duration::ZERO, "{label}");
        }
    }

    /// The evict-requeue fixture pins the eviction-to-dead-skip path: the
    /// first rule's accepted candidate is evicted by the second rule's
    /// more general one before its requeued item is merged, so exactly
    /// one item must be dead-skipped — on every schedule.
    #[test]
    fn eviction_of_requeued_item_fires_dead_skip() {
        let (_, t, q, budget) = fixtures().pop().unwrap();
        let theory = parse_theory(t).unwrap();
        let query = parse_query(q).unwrap();
        for threads in [1, 2, 4] {
            let exec = Executor::with_threads(threads);
            let r = rewrite_with(&theory, &query, budget, &exec).unwrap();
            assert_eq!(r.stats.dead_skipped(), 1, "@{threads}");
            assert_eq!(r.stats.evictions(), 1, "@{threads}");
            assert_eq!(r.stats.accepted(), 2, "@{threads}");
        }
    }

    /// Generation-side dedup on the transitive-closure fixture: chain
    /// candidates are re-derived along many resolution orders, so most
    /// generations must die at the seen-set and the kernel must see far
    /// fewer distinct queries than there are generations.
    #[test]
    fn dedup_prunes_most_regenerations_on_transitive_closure() {
        let r = rewrite(
            &parse_theory("e(X,Y), e(Y,Z) -> e(X,Z).").unwrap(),
            &parse_query("? :- e(a, b).").unwrap(),
            RewriteBudget {
                max_queries: 64,
                max_generated: 2_000,
                max_atoms: 12,
            },
        )
        .unwrap();
        assert!(
            r.stats.dedup_hits() * 2 > r.generated,
            "most generations must die at birth ({} dedup / {})",
            r.stats.dedup_hits(),
            r.generated
        );
        let entries = r.hom.freezes + r.hom.freeze_cache_hits;
        assert!(
            entries * 3 < r.generated as u64,
            "kernel entry acquisitions ({entries}) should be a small \
             fraction of generations ({})",
            r.generated
        );
        assert!(r.stats.unifier_probes() > 0, "attempts are still counted");
    }

    /// On a multi-predicate theory, both prefilters earn their keep: the
    /// piece-unifier index prunes predicate-mismatched pairings and the
    /// trie keeps pred-set-incompatible kept entries away from the
    /// kernel. (The transitive-closure fixture can't show this — with a
    /// single predicate, nothing is ever incompatible.)
    #[test]
    fn index_and_trie_prune_on_multi_predicate_theories() {
        let r = run("p(X), e(X,Y) -> p(Y).\nq(X) -> p(X).", "? :- p(A).");
        assert!(r.stats.unifier_skipped() > 0, "index must prune pairings");
        assert!(r.stats.trie_skipped() > 0, "trie must prune kept entries");
        assert!(r.stats.trie_probes() > 0);
    }

    /// A certified run yields a bundle whose finals are exactly the UCQ's
    /// disjuncts (verbatim clones, in disjunct order), whose chains ground
    /// out at the seed, and whose steps replay to the recorded raw forms.
    #[test]
    fn certified_bundle_aligns_with_the_rewriting() {
        use crate::unify::apply_piece_unifier;
        for (label, t, q, budget) in fixtures() {
            let theory = parse_theory(t).unwrap();
            let query = parse_query(q).unwrap();
            let exec = Executor::sequential();
            let plain = rewrite_with(&theory, &query, budget, &exec).unwrap();
            let (r, bundle) = rewrite_certified(&theory, &query, budget, &exec).unwrap();
            // Certification is invisible to the rewriting itself.
            assert_eq!(r.ucq, plain.ucq, "{label}");
            assert_eq!(r.generated, plain.generated, "{label}");
            assert_eq!(
                counter_rows(&r.stats),
                counter_rows(&plain.stats),
                "{label}"
            );
            // Finals ↔ disjuncts, verbatim and in order.
            assert_eq!(bundle.final_disjuncts.len(), r.ucq.len(), "{label}");
            for (d, &node) in r.ucq.disjuncts().iter().zip(&bundle.final_disjuncts) {
                assert_eq!(*d, bundle.certs[node as usize].query, "{label}");
            }
            // Chains are well-founded and every step replays.
            assert!(bundle.certs[0].step.is_none(), "{label}: node 0 is seed");
            for (i, cert) in bundle.certs.iter().enumerate().skip(1) {
                let step = cert.step.as_ref().expect("non-seed nodes record a step");
                assert!((step.parent as usize) < i, "{label}: parent before child");
                let parent = &bundle.certs[step.parent as usize].query;
                let rule = &theory.rules()[step.rule as usize];
                let pairs: Vec<(usize, usize)> = step
                    .unified
                    .iter()
                    .map(|&(a, h)| (a as usize, h as usize))
                    .collect();
                let raw = apply_piece_unifier(parent, rule, &pairs)
                    .unwrap_or_else(|| panic!("{label}: node {i} must replay"));
                assert_eq!(
                    cert.to_query.len(),
                    raw.var_names().len(),
                    "{label}: to_query spans the raw variables"
                );
            }
        }
    }
}

//! Saturation: computing `rew(ψ)` by exhaustive piece rewriting with
//! containment-based subsumption (Theorem 1 of the paper).
//!
//! # The loop
//!
//! Saturation is a FIFO breadth-first loop on the caller thread: pop a
//! queued query, skip it if a more general arrival evicted it, generate
//! its piece rewritings, and merge each candidate against the kept set
//! (dedup, subsumption, eviction, budget accounting, tracing). A *window*
//! is one BFS generation: the items queued together before any of their
//! descendants. Every counter in [`RewriteStats`] and [`HomStats`] is a
//! function of the inputs.
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
//!   cap (`max_generated + 1 - generated-at-submission`) stops the
//!   enumeration of candidates the budget can never consume. The cap is
//!   invisible to the merge: `generated` only grows between submission
//!   and merge, so the budget break fires at or before the capped item's
//!   last emitted candidate.
//! * **Predicate-set trie** — the kept set files entries by sorted
//!   predicate set (`PredSetTrie` in `trie.rs`); subsumption probes
//!   only subset-compatible entries, eviction only superset-compatible
//!   ones (the kernel's own pred-set prefilter condition, answered
//!   set-wide instead of per pair).
//!
//! Novel candidates sweep the kept set as their *raw* (uncored) entry —
//! subsumption and eviction booleans are invariant under equivalence, and
//! `raw ≡ core(raw)` — so the expensive core fold runs only on *accepted*
//! candidates.

use std::collections::{HashSet, VecDeque};
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Instant;

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

/// One piece rewriting of a queued query.
enum Generated {
    /// The raw rewriting exceeded `max_atoms`: counted against the budget,
    /// never core-minimized.
    Oversized,
    /// A candidate under the atom cap.
    Cand(Candidate),
}

/// Payload of [`Generated::Cand`].
struct Candidate {
    /// The raw piece rewriting (not core-minimized).
    raw: ConjunctiveQuery,
    /// `raw`'s name-independent structural key: the merge dedups on it
    /// before touching the kernel.
    key: CanonicalKey,
    /// Rule index that generated `raw` — certificate provenance, carried
    /// identically whether or not the run certifies.
    rule: u32,
    /// The piece unifier's `(query atom, head atom)` pairs (see
    /// [`crate::unify::PieceUnifier::unified`]).
    unified: Vec<(u32, u32)>,
}

/// How the saturation loop schedules generation against the merge. There
/// is one schedule, the caller-thread loop; the type and
/// [`rewrite_with_mode`] stay because the standalone `perfbench` crate
/// names them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SaturationMode {
    /// The caller-thread loop of [`rewrite`].
    Pipelined,
}

/// Computes a UCQ rewriting of `query` under `theory` (see module docs).
pub fn rewrite(
    theory: &Theory,
    query: &ConjunctiveQuery,
    budget: RewriteBudget,
) -> Result<Rewriting, RewriteError> {
    saturate(theory, query, budget, &mut |_, _| {}, None)
}

/// [`rewrite`] under an executor and a [`SaturationMode`], kept for the
/// standalone `perfbench` crate. Saturation runs on the caller thread, so
/// neither argument selects anything: the result is [`rewrite`]'s.
pub fn rewrite_with_mode(
    theory: &Theory,
    query: &ConjunctiveQuery,
    budget: RewriteBudget,
    _exec: &Executor,
    _mode: SaturationMode,
) -> Result<Rewriting, RewriteError> {
    rewrite(theory, query, budget)
}

/// [`rewrite`] with certificate emission: alongside the rewriting,
/// returns a [`RewriteCertBundle`] holding one replayable
/// [`crate::cert::RewriteCert`] per accepted disjunct (node 0 is the
/// seed). The rewriting itself — disjuncts, outcome, `generated`, every
/// drift-gated counter — is byte-identical to the uncertified run:
/// recording happens strictly after each acceptance decision, with a
/// private kernel-free matcher.
pub fn rewrite_certified(
    theory: &Theory,
    query: &ConjunctiveQuery,
    budget: RewriteBudget,
) -> Result<(Rewriting, RewriteCertBundle), RewriteError> {
    let mut cb = CertBuilder::new();
    let r = saturate(theory, query, budget, &mut |_, _| {}, Some(&mut cb))?;
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
    saturate(theory, query, budget, &mut trace, None)
}

/// A queued saturation item: the query, its rewriting depth (which is
/// also its window), the generation cap in force when it was queued
/// (`max_generated + 1 - generated-at-submission` — the most candidates
/// the merge could ever consume from it before the budget break fires),
/// and the query's certificate node (0 on uncertified runs).
type Item = (ConjunctiveQuery, usize, usize, u32);

/// The saturation state: the kept set plus every decision made against
/// it — budget accounting, dedup, subsumption, eviction, acceptance,
/// tracing and window bookkeeping.
struct Merger<'a> {
    budget: RewriteBudget,
    kernel: &'a HomKernel,
    trace: &'a mut dyn FnMut(usize, &ConjunctiveQuery),
    set: KeptSet,
    /// Structural keys of every candidate processed this run (plus the
    /// seed and accepted cores): the generation-side dedup's seen-set.
    seen: HashSet<CanonicalKey>,
    /// Certificate recorder; `None` on uncertified runs. Recording
    /// happens only at acceptance points, so the engine's decisions and
    /// counters are identical either way.
    certs: Option<&'a mut CertBuilder>,
    generated: usize,
    oversized: usize,
    depth_reached: usize,
    truncated: bool,
    stats: RewriteStats,
    cur: WindowStats,
}

impl Merger<'_> {
    /// Closes the window being accumulated, recording the kept-set size.
    fn close_window(&mut self) {
        self.cur.kept = self.set.len();
        self.stats.windows.push(std::mem::take(&mut self.cur));
    }

    /// Merges one alive item's candidates in generation order, queueing
    /// every accepted one. `Break` means a budget stop.
    fn merge_item(
        &mut self,
        depth: usize,
        node: u32,
        gens: Vec<Generated>,
        uc: UnifyCounters,
        queue: &mut VecDeque<Item>,
    ) -> ControlFlow<()> {
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
            let Candidate {
                raw,
                key,
                rule,
                unified,
            } = match g {
                Generated::Oversized => {
                    self.oversized += 1;
                    self.cur.oversized += 1;
                    continue;
                }
                Generated::Cand(c) => c,
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
            let raw_entry = self.kernel.entry_with_key(key, &raw);
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
                .subsumed_by_any(&raw_entry, &self.set.entry_refs(&sub))
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
                .covered_by(&self.set.entry_refs(&sup), &raw_entry)
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
            // is the core needed.
            let cand = canonical_named(&self.kernel.query_core(&raw));
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
                        Some(cb) => cb.record_accept(node, rule, &unified, &raw, &cand),
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
                Some(cb) => cb.record_accept(node, rule, &unified, &raw, &cand),
                None => 0,
            };
            let cap = self.budget.max_generated.saturating_add(1) - self.generated;
            queue.push_back((cand.clone(), depth + 1, cap, cn));
            self.set.push(cand, cand_entry, cn);
            self.cur.accepted += 1;
        }
        ControlFlow::Continue(())
    }
}

/// The piece rewritings of one queued query, at most `cap` of them.
fn generate(
    theory: &Theory,
    tindex: &TheoryIndex,
    max_atoms: usize,
    q: &ConjunctiveQuery,
    cap: usize,
) -> (Vec<Generated>, UnifyCounters) {
    let qmask = query_pred_mask(q);
    let mut uc = UnifyCounters::default();
    let mut out = Vec::new();
    for (ri, (rule, ridx)) in theory.rules().iter().zip(tindex.rules()).enumerate() {
        if out.len() >= cap {
            break;
        }
        if ridx.mask() & qmask == 0 {
            // No head predicate occurs in the query: every (query atom ×
            // head atom) pairing is pruned by the rule mask.
            uc.skipped += q.atoms().len() * ridx.head_len();
            continue;
        }
        for pu in piece_rewritings_indexed(q, rule, ridx, cap - out.len(), &mut uc) {
            if pu.result.size() > max_atoms {
                out.push(Generated::Oversized);
            } else {
                out.push(Generated::Cand(Candidate {
                    key: canonical_key(&pu.result),
                    raw: pu.result,
                    rule: ri as u32,
                    unified: pu
                        .unified
                        .iter()
                        .map(|&(a, h)| (a as u32, h as u32))
                        .collect(),
                }));
            }
        }
    }
    (out, uc)
}

fn saturate(
    theory: &Theory,
    query: &ConjunctiveQuery,
    budget: RewriteBudget,
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
    let mut merger = Merger {
        budget,
        kernel: &kernel,
        trace,
        set: KeptSet::new(),
        seen: HashSet::new(),
        certs,
        generated: 0,
        oversized: 0,
        depth_reached: 0,
        truncated: false,
        stats: RewriteStats::default(),
        cur: WindowStats {
            window: 0,
            items: 1,
            ..WindowStats::default()
        },
    };
    merger.seen.insert(canonical_key(&seed));
    merger.set.push(seed.clone(), seed_entry, 0);
    let tindex = TheoryIndex::new(theory);

    let mut queue: VecDeque<Item> =
        VecDeque::from([(seed, 0, budget.max_generated.saturating_add(1), 0)]);
    while let Some((q, depth, cap, node)) = queue.pop_front() {
        if depth > merger.cur.window {
            // First item of the next BFS window: every queued item has
            // this depth, since deeper ones are queued only by its merges.
            merger.close_window();
            merger.cur.window = depth;
            merger.cur.items = queue.len() + 1;
        }
        // A more general arrival may have evicted the query since it was
        // queued; its rewritings are then never generated.
        if !merger.set.contains_query(&q) {
            merger.cur.dead_skipped += 1;
            continue;
        }
        let t0 = Instant::now();
        let (gens, uc) = generate(theory, &tindex, budget.max_atoms, &q, cap);
        merger.cur.gen_wall += t0.elapsed();
        let t1 = Instant::now();
        let flow = merger.merge_item(depth, node, gens, uc, &mut queue);
        merger.cur.merge_wall += t1.elapsed();
        if flow.is_break() {
            break;
        }
    }
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

    /// [`fixtures`] with `tc-budget` shrunk: its budget-truncation path is
    /// what matters, and a smaller budget exercises it at a fraction of the
    /// cost.
    fn cheap_fixtures() -> Vec<(&'static str, &'static str, &'static str, RewriteBudget)> {
        let mut fx = fixtures();
        for (label, _, _, budget) in &mut fx {
            if *label == "tc-budget" {
                *budget = RewriteBudget {
                    max_queries: 24,
                    max_generated: 300,
                    max_atoms: 8,
                };
            }
        }
        fx
    }

    /// `perfbench` names the executor-taking entry point; it selects
    /// nothing, so at any width it returns exactly what [`rewrite`] does.
    #[test]
    fn rewrite_with_mode_equals_rewrite() {
        for (label, t, q, budget) in cheap_fixtures() {
            let theory = parse_theory(t).unwrap();
            let query = parse_query(q).unwrap();
            let plain = rewrite(&theory, &query, budget).unwrap();
            let r = rewrite_with_mode(
                &theory,
                &query,
                budget,
                &Executor::with_threads(2),
                SaturationMode::Pipelined,
            )
            .unwrap();
            assert_eq!(r.ucq, plain.ucq, "{label}");
            assert_eq!(r.outcome, plain.outcome, "{label}");
            assert_eq!(r.generated, plain.generated, "{label}");
            assert_eq!(r.depth, plain.depth, "{label}");
            assert_eq!(
                counter_rows(&r.stats),
                counter_rows(&plain.stats),
                "{label}"
            );
            assert_eq!(r.hom, plain.hom, "{label}");
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

    /// Strips the wall splits, keeping every deterministic per-window
    /// counter.
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
    fn stats_totals_reconcile_with_the_rewriting() {
        for (label, t, q, budget) in cheap_fixtures() {
            let theory = parse_theory(t).unwrap();
            let query = parse_query(q).unwrap();
            let r = rewrite(&theory, &query, budget).unwrap();
            assert_eq!(r.stats.generated(), r.generated, "{label}");
            assert_eq!(r.stats.oversized(), r.oversized_discarded, "{label}");
            assert_eq!(
                1 + r.stats.accepted() - r.stats.evictions(),
                r.ucq.len(),
                "{label}: seed + accepted - evicted = surviving disjuncts"
            );
            assert_eq!(
                r.stats.windows.last().unwrap().kept,
                r.ucq.len(),
                "{label}: final window records the surviving set size"
            );
            for (i, w) in r.stats.windows.iter().enumerate() {
                assert_eq!(w.window, i, "{label}: windows are numbered by depth");
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

    /// Every [`HomStats`] counter of a run is drift-gated, so two runs of
    /// one fixture must report identical kernel counters.
    #[test]
    fn hom_counters_identical_across_runs() {
        for (label, t, q, budget) in cheap_fixtures() {
            let theory = parse_theory(t).unwrap();
            let query = parse_query(q).unwrap();
            let first = rewrite(&theory, &query, budget).unwrap();
            assert!(first.hom.freezes > 0, "{label}: the kernel froze something");
            let again = rewrite(&theory, &query, budget).unwrap();
            assert_eq!(again.hom, first.hom, "{label}: hom counters");
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

    /// The evict-requeue fixture pins the eviction-to-dead-skip path: the
    /// first rule's accepted candidate is evicted by the second rule's
    /// more general one before its requeued item is merged, so exactly
    /// one item must be dead-skipped.
    #[test]
    fn eviction_of_requeued_item_fires_dead_skip() {
        let (_, t, q, budget) = fixtures().pop().unwrap();
        let theory = parse_theory(t).unwrap();
        let query = parse_query(q).unwrap();
        let r = rewrite(&theory, &query, budget).unwrap();
        assert_eq!(r.stats.dead_skipped(), 1);
        assert_eq!(r.stats.evictions(), 1);
        assert_eq!(r.stats.accepted(), 2);
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
            let plain = rewrite(&theory, &query, budget).unwrap();
            let (r, bundle) = rewrite_certified(&theory, &query, budget).unwrap();
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

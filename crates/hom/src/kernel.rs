//! The compiled homomorphism kernel: memoized query freezing, compiled
//! per-component join plans, necessary-condition prefilters, and a
//! fold-based query core.
//!
//! Every containment check in the paper is a Chandra–Merlin homomorphism
//! search `ψ → freeze(φ)` fixing the answer variables positionally. The
//! one-shot path ([`crate::containment::contains`] before this kernel)
//! paid the full setup on every call: freezing `φ` into a fresh interned,
//! indexed [`Instance`], and re-planning the join order for `ψ`'s atoms.
//! A saturation run makes *thousands* of checks against the *same* few
//! hundred queries, so the kernel memoizes both sides:
//!
//! * **Frozen-query cache** — each [`ConjunctiveQuery`] freezes once per
//!   structural key (a name-independent canonical form); the cached
//!   [`QueryEntry`] carries the frozen instance, the answer-variable
//!   images, and everything below.
//! * **Compiled-plan cache** — `ψ`'s atoms are compiled to [`JoinPlan`]s
//!   once per *component shape* (see below) and shared across all queries
//!   with an isomorphic component, keyed by a locally-renumbered canonical
//!   form that embeds which positions are anchored by which answer index.
//! * **Prefilters** — cheap necessary conditions checked before any
//!   backtracking: a 64-bit predicate-occupancy mask and sorted predicate
//!   set (`preds(ψ) ⊆ preds(φ)` is necessary — as *sets*, since a
//!   homomorphism may collapse atoms), plus anchored-atom probes: an atom
//!   of `ψ` with a constant or answer variable in position `i` must map to
//!   a fact with that exact term in position `i`, so an empty
//!   `(pred, pos, term)` postings list refutes the check without search.
//! * **Component decomposition** — `ψ`'s atoms split into connected
//!   components under shared *existential* variables (answer variables
//!   and constants are fixed pointwise, so they do not connect). Each
//!   component matches independently; one exponential search becomes a
//!   product of small ones.
//! * **Fold-based core** — [`HomKernel::query_core`] freezes the query
//!   once per round and searches for a retraction that avoids the frozen
//!   image of one atom ([`matcher::exists_match_excluding`]); atoms proven
//!   undroppable stay marked across rounds (undroppability is monotone
//!   under retraction: if `h` avoids atom `k` after dropping atom `j` via
//!   `g`, then `h ∘ g` avoids it in the original). Results are cached per
//!   canonical form.
//!
//! All results are **identical** to the one-shot path — same booleans,
//! same cores up to the canonical form the old code returned. Every sweep
//! runs on the calling thread, so the counters of [`HomStats`] are a
//! function of the calls made.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use qr_syntax::query::{ConjunctiveQuery, QAtom, QTerm, Var};
use qr_syntax::{Instance, Pred, Symbol, TermId};

use crate::matcher::{self, JoinPlan, MatchCounters};

/// Caps on the kernel's memo tables: when a table reaches its cap it is
/// cleared (results are unaffected — the caches are pure memoization).
/// Sized far above any saturation run's working set.
const ENTRY_CACHE_CAP: usize = 16_384;
const PLAN_CACHE_CAP: usize = 16_384;
const CORE_CACHE_CAP: usize = 16_384;

/// Postings lists longer than this are not scanned by the anchored-atom
/// prefilter (the probe degrades to "non-empty", which is still sound).
const ANCHOR_SCAN_CAP: usize = 64;

/// A name-independent structural key for a query: atoms canonicalized with
/// variables renumbered by first occurrence (answer variables first, in
/// answer order) and constants kept as themselves. Equal keys imply
/// isomorphic queries that fix answer positions identically, so every
/// containment-style check gives the same boolean for key-equal queries —
/// which is exactly what sharing a [`QueryEntry`] requires.
#[derive(Clone, PartialEq, Eq, Hash)]
struct FreezeKey {
    answer: Vec<u32>,
    atoms: Vec<(Pred, Box<[KeyTerm]>)>,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum KeyTerm {
    Var(u32),
    Const(Symbol),
}

/// A query's name-independent structural key, exposed as an opaque,
/// hashable value: the same `FreezeKey` the entry cache is keyed by.
/// Equal keys imply isomorphic queries fixing answer positions
/// identically, so two key-equal queries give the same boolean in every
/// containment-style check. The rewrite engine's generation-side dedup
/// keeps a seen-set of these to drop isomorphic re-generations before any
/// homomorphism search.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct CanonicalKey(FreezeKey);

/// Computes the [`CanonicalKey`] of `q`. Pure: touches no cache, bumps no
/// counter — cheap enough to run on the generation side for every
/// candidate.
pub fn canonical_key(q: &ConjunctiveQuery) -> CanonicalKey {
    CanonicalKey(freeze_key(q))
}

/// The bit the kernel's 64-bit predicate-occupancy prefilter assigns to
/// `p`. Exposed so `qr-rewrite`'s piece-unifier index builds rule-head and
/// query masks that agree with the kernel's.
pub fn pred_mask_bit(p: &Pred) -> u64 {
    pred_bit(p)
}

fn freeze_key(q: &ConjunctiveQuery) -> FreezeKey {
    let mut atoms: Vec<(Pred, Box<[KeyTerm]>)> = q
        .atoms()
        .iter()
        .map(|a| {
            (
                a.pred,
                a.args
                    .iter()
                    .map(|t| match t {
                        QTerm::Var(v) => KeyTerm::Var(v.0),
                        QTerm::Const(c) => KeyTerm::Const(*c),
                    })
                    .collect(),
            )
        })
        .collect();
    let mut answer: Vec<u32> = q.answer_vars().iter().map(|v| v.0).collect();
    // Two renumber/sort rounds, mirroring `ConjunctiveQuery::canonical`.
    for _ in 0..2 {
        atoms.sort();
        atoms.dedup();
        let mut remap: HashMap<u32, u32> = HashMap::new();
        let touch = |v: u32, remap: &mut HashMap<u32, u32>| {
            let next = remap.len() as u32;
            *remap.entry(v).or_insert(next)
        };
        for v in &answer {
            touch(*v, &mut remap);
        }
        for (_, args) in &atoms {
            for t in args.iter() {
                if let KeyTerm::Var(v) = t {
                    touch(*v, &mut remap);
                }
            }
        }
        for (_, args) in atoms.iter_mut() {
            for t in args.iter_mut() {
                if let KeyTerm::Var(v) = t {
                    *t = KeyTerm::Var(remap[v]);
                }
            }
        }
        answer = answer.iter().map(|v| remap[v]).collect();
    }
    atoms.sort();
    atoms.dedup();
    FreezeKey { answer, atoms }
}

/// A term of a locally-renumbered component atom, the unit of the plan
/// cache key: answer anchors keep their answer *index* (so two components
/// only share a plan when the same positions are pinned to the same
/// answer slots), existential variables are renumbered by first
/// occurrence, constants stay themselves.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum LTerm {
    /// Anchored by answer variable `answer[i]`.
    Ans(u32),
    /// Locally-renumbered existential variable.
    Ex(u32),
    /// A constant.
    Con(Symbol),
}

type PlanKey = Vec<(Pred, Box<[LTerm]>)>;

/// A compiled component: a [`JoinPlan`] over locally-renumbered atoms plus
/// the anchor list mapping local variables back to answer indices. Shared
/// across every query with an isomorphic component.
struct CompiledComponent {
    plan: JoinPlan,
    /// `(local variable, answer index)`: before running the plan, each
    /// local anchor variable is fixed to the corresponding answer term.
    anchors: Vec<(Var, u32)>,
}

/// One atom's anchored positions, for the prefilter: positions holding a
/// constant or an answer variable, resolved against the target's answer
/// tuple at check time.
struct AnchoredAtom {
    pred: Pred,
    bound: Vec<(u32, AnchorTerm)>,
}

#[derive(Clone, Copy)]
enum AnchorTerm {
    Const(TermId),
    Ans(u32),
}

/// Everything the kernel precomputes about one query (shared by all
/// queries with the same structural `FreezeKey`).
pub struct QueryEntry {
    answer_len: usize,
    /// The query frozen into its canonical instance (φ-side material).
    frozen: Instance,
    /// Images of the answer variables under the freeze, in answer order.
    answer_terms: Vec<TermId>,
    /// 64-bit occupancy mask over the hashes of the body's non-`dom`
    /// predicates (ψ ⊆ φ on masks is necessary for a homomorphism ψ → φ).
    mask: u64,
    /// Sorted, deduplicated non-`dom` body predicates with occurrence
    /// counts (the counts are informational; only *set* inclusion is a
    /// sound prefilter, since homomorphisms collapse atoms).
    preds: Vec<(Pred, u32)>,
    /// Atoms with at least one constant- or answer-anchored position.
    anchored: Vec<AnchoredAtom>,
    /// Pairs of answer indices sharing one variable: a hom target must
    /// present equal terms at these index pairs.
    conflicts: Vec<(u32, u32)>,
    /// Connected components of the body under shared existential
    /// variables (ψ-side material).
    components: Vec<Rc<CompiledComponent>>,
}

impl QueryEntry {
    /// The frozen canonical instance of the query.
    pub fn frozen(&self) -> &Instance {
        &self.frozen
    }

    /// Number of answer variables.
    pub fn answer_len(&self) -> usize {
        self.answer_len
    }

    /// Number of connected components the body split into.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// The sorted, deduplicated non-`dom` body predicates — the pred-set
    /// the kernel's set-inclusion prefilter compares. Exposed so callers
    /// can organize entries by predicate set (the rewrite engine's
    /// subsumption trie) without recomputing it.
    pub fn pred_set(&self) -> impl Iterator<Item = Pred> + '_ {
        self.preds.iter().map(|(p, _)| *p)
    }
}

fn pred_bit(p: &Pred) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    p.hash(&mut h);
    1 << (h.finish() % 64)
}

/// Deterministic counters surfacing what the kernel saved.
///
/// A kernel has one owner, every sweep runs on the calling thread, and the
/// searches of [`HomKernel::subsumed_by_any`] stop at the first hit in
/// `kept` order, so each counter is a function of the sequence of calls
/// made on that kernel. A saturation run's kernel, the marked pairwise
/// sweep and the `hom` microbench therefore report the same numbers on
/// every run, and all eleven are drift-gated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HomStats {
    /// Queries frozen and profiled (entry-cache misses).
    pub freezes: u64,
    /// Entry-cache hits: checks that skipped freezing entirely.
    pub freeze_cache_hits: u64,
    /// Component plans compiled (plan-cache misses).
    pub plan_compiles: u64,
    /// Plan-cache hits: components that reused a compiled join order.
    pub plan_cache_hits: u64,
    /// Checks refuted by a prefilter before any backtracking search.
    pub prefilter_rejects: u64,
    /// Total connected components across all frozen queries.
    pub components: u64,
    /// Per-component backtracking searches launched.
    pub searches: u64,
    /// Candidate facts (or domain terms) scanned across all searches,
    /// including the core fold's retraction searches.
    pub search_candidates: u64,
    /// Freeze rounds executed by the core fold.
    pub core_rounds: u64,
    /// Retraction searches attempted by the core fold.
    pub core_searches: u64,
    /// Core-cache hits: cores returned without any search.
    pub core_cache_hits: u64,
}

/// The kernel: three memo tables plus counters, owned by one run. Cheap
/// to create and not shareable across threads. The free functions of
/// [`crate::containment`], [`crate::qcore`] and [`crate::matcher::holds`]
/// each build one for the call; callers that check in a loop own one for
/// the whole loop, so its caches warm up on that loop's queries and its
/// [`HomStats`] describe exactly that run.
#[derive(Default)]
pub struct HomKernel {
    entries: RefCell<HashMap<FreezeKey, Rc<QueryEntry>>>,
    plans: RefCell<HashMap<PlanKey, Rc<CompiledComponent>>>,
    cores: RefCell<HashMap<ConjunctiveQuery, ConjunctiveQuery>>,
    stats: Cell<HomStats>,
}

impl HomKernel {
    /// A fresh kernel with empty caches and zeroed counters.
    pub fn new() -> HomKernel {
        HomKernel::default()
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> HomStats {
        self.stats.get()
    }

    fn bump(&self, f: impl FnOnce(&mut HomStats)) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }

    /// The cached entry for `q`, freezing and compiling on first sight of
    /// its structural key.
    pub fn entry(&self, q: &ConjunctiveQuery) -> Rc<QueryEntry> {
        self.entry_with_key(canonical_key(q), q)
    }

    /// [`entry`](Self::entry) when the caller already holds `q`'s
    /// [`CanonicalKey`] (the rewrite engine's dedup path computes it for
    /// every candidate anyway, so the key is not recomputed here). `key`
    /// must be `canonical_key(q)`.
    pub fn entry_with_key(&self, key: CanonicalKey, q: &ConjunctiveQuery) -> Rc<QueryEntry> {
        let CanonicalKey(key) = key;
        if let Some(e) = self.entries.borrow().get(&key) {
            self.bump(|s| s.freeze_cache_hits += 1);
            return Rc::clone(e);
        }
        let entry = Rc::new(self.build_entry(q));
        let mut cache = self.entries.borrow_mut();
        if cache.len() >= ENTRY_CACHE_CAP {
            cache.clear();
        }
        cache.insert(key, Rc::clone(&entry));
        entry
    }

    fn build_entry(&self, q: &ConjunctiveQuery) -> QueryEntry {
        self.bump(|s| s.freezes += 1);
        let (frozen, var_map) = q.freeze();
        let answer_terms: Vec<TermId> = q.answer_vars().iter().map(|v| var_map[v]).collect();

        // Predicate profile over non-dom atoms (`dom` needs no matching
        // fact, so it must not constrain the target's predicate set).
        let mut pred_list: Vec<Pred> = q
            .atoms()
            .iter()
            .filter(|a| !a.pred.is_dom())
            .map(|a| a.pred)
            .collect();
        pred_list.sort();
        let mut preds: Vec<(Pred, u32)> = Vec::new();
        for p in pred_list {
            match preds.last_mut() {
                Some((q, n)) if *q == p => *n += 1,
                _ => preds.push((p, 1)),
            }
        }
        let mask = preds.iter().fold(0u64, |m, (p, _)| m | pred_bit(p));

        // First answer index of each answer variable, plus the conflict
        // pairs a duplicated answer variable induces.
        let mut ans_index: HashMap<Var, u32> = HashMap::new();
        let mut conflicts: Vec<(u32, u32)> = Vec::new();
        for (i, v) in q.answer_vars().iter().enumerate() {
            match ans_index.get(v) {
                Some(&first) => conflicts.push((first, i as u32)),
                None => {
                    ans_index.insert(*v, i as u32);
                }
            }
        }

        // Anchored-atom templates for the prefilter.
        let mut anchored: Vec<AnchoredAtom> = Vec::new();
        for a in q.atoms() {
            if a.pred.is_dom() {
                continue;
            }
            let bound: Vec<(u32, AnchorTerm)> = a
                .args
                .iter()
                .enumerate()
                .filter_map(|(pos, t)| match t {
                    QTerm::Const(c) => Some((pos as u32, AnchorTerm::Const(TermId::constant(*c)))),
                    QTerm::Var(v) => ans_index.get(v).map(|&i| (pos as u32, AnchorTerm::Ans(i))),
                })
                .collect();
            if !bound.is_empty() {
                anchored.push(AnchoredAtom {
                    pred: a.pred,
                    bound,
                });
            }
        }

        // Connected components under shared existential variables.
        let n = q.atoms().len();
        let mut uf: Vec<usize> = (0..n).collect();
        fn find(uf: &mut Vec<usize>, i: usize) -> usize {
            if uf[i] != i {
                let r = find(uf, uf[i]);
                uf[i] = r;
                return r;
            }
            i
        }
        let mut owner: HashMap<Var, usize> = HashMap::new();
        for (i, a) in q.atoms().iter().enumerate() {
            for v in a.vars() {
                if ans_index.contains_key(&v) {
                    continue;
                }
                match owner.get(&v) {
                    Some(&j) => {
                        let (ri, rj) = (find(&mut uf, i), find(&mut uf, j));
                        uf[ri] = rj;
                    }
                    None => {
                        owner.insert(v, i);
                    }
                }
            }
        }
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut group_of: HashMap<usize, usize> = HashMap::new();
        for i in 0..n {
            let r = find(&mut uf, i);
            match group_of.get(&r) {
                Some(&g) => groups[g].push(i),
                None => {
                    group_of.insert(r, groups.len());
                    groups.push(vec![i]);
                }
            }
        }
        let components: Vec<Rc<CompiledComponent>> = groups
            .iter()
            .map(|idxs| self.compile_component(q, idxs, &ans_index))
            .collect();
        self.bump(|s| s.components += components.len() as u64);

        QueryEntry {
            answer_len: q.answer_vars().len(),
            frozen,
            answer_terms,
            mask,
            preds,
            anchored,
            conflicts,
            components,
        }
    }

    /// Compiles (or fetches from the plan cache) the join plan for one
    /// component of `q`, given the atom indices of the component.
    fn compile_component(
        &self,
        q: &ConjunctiveQuery,
        idxs: &[usize],
        ans_index: &HashMap<Var, u32>,
    ) -> Rc<CompiledComponent> {
        // Locally-renumbered canonical key: two renumber/sort rounds over
        // the component's atoms, answer anchors kept as answer indices.
        let mut atoms: Vec<(Pred, Box<[LTerm]>)> = idxs
            .iter()
            .map(|&i| {
                let a = &q.atoms()[i];
                (
                    a.pred,
                    a.args
                        .iter()
                        .map(|t| match t {
                            QTerm::Const(c) => LTerm::Con(*c),
                            QTerm::Var(v) => match ans_index.get(v) {
                                Some(&ai) => LTerm::Ans(ai),
                                None => LTerm::Ex(v.0),
                            },
                        })
                        .collect(),
                )
            })
            .collect();
        for _ in 0..2 {
            atoms.sort();
            atoms.dedup();
            let mut remap: HashMap<u32, u32> = HashMap::new();
            for (_, args) in &atoms {
                for t in args.iter() {
                    if let LTerm::Ex(v) = t {
                        let next = remap.len() as u32;
                        remap.entry(*v).or_insert(next);
                    }
                }
            }
            for (_, args) in atoms.iter_mut() {
                for t in args.iter_mut() {
                    if let LTerm::Ex(v) = t {
                        *t = LTerm::Ex(remap[v]);
                    }
                }
            }
        }
        atoms.sort();
        atoms.dedup();
        let key: PlanKey = atoms;
        if let Some(c) = self.plans.borrow().get(&key) {
            self.bump(|s| s.plan_cache_hits += 1);
            return Rc::clone(c);
        }
        self.bump(|s| s.plan_compiles += 1);
        // Build the local atom list: local variables are assigned by first
        // occurrence over the canonical key, so every holder of this key
        // computes the identical variable numbering and anchor list.
        let mut local_of_ans: HashMap<u32, Var> = HashMap::new();
        let mut local_of_ex: HashMap<u32, Var> = HashMap::new();
        let mut nvars: u32 = 0;
        let mut anchors: Vec<(Var, u32)> = Vec::new();
        let mut local_atoms: Vec<QAtom> = Vec::with_capacity(key.len());
        for (pred, args) in &key {
            let qargs: Vec<QTerm> = args
                .iter()
                .map(|t| match t {
                    LTerm::Con(c) => QTerm::Const(*c),
                    LTerm::Ans(ai) => {
                        let v = *local_of_ans.entry(*ai).or_insert_with(|| {
                            let v = Var(nvars);
                            nvars += 1;
                            anchors.push((v, *ai));
                            v
                        });
                        QTerm::Var(v)
                    }
                    LTerm::Ex(xi) => {
                        let v = *local_of_ex.entry(*xi).or_insert_with(|| {
                            let v = Var(nvars);
                            nvars += 1;
                            v
                        });
                        QTerm::Var(v)
                    }
                })
                .collect();
            local_atoms.push(QAtom::new(*pred, qargs));
        }
        let bound: Vec<Var> = anchors.iter().map(|(v, _)| *v).collect();
        let plan = JoinPlan::compile(local_atoms, nvars as usize, &bound);
        let compiled = Rc::new(CompiledComponent { plan, anchors });
        let mut plans = self.plans.borrow_mut();
        if plans.len() >= PLAN_CACHE_CAP {
            plans.clear();
        }
        plans.insert(key, Rc::clone(&compiled));
        compiled
    }

    /// The prefilter for entry-vs-entry containment: necessary conditions
    /// for a homomorphism `ψ → freeze(φ)` fixing answer positions. Sound:
    /// `false` is only returned when no homomorphism can exist.
    fn passes_prefilter(psi: &QueryEntry, phi: &QueryEntry) -> bool {
        if psi.mask & !phi.mask != 0 {
            return false;
        }
        // Set-inclusion over the sorted predicate profiles (counts are
        // deliberately ignored: homomorphisms collapse atoms).
        let mut it = phi.preds.iter();
        if !psi
            .preds
            .iter()
            .all(|(p, _)| it.by_ref().any(|(q, _)| q == p))
        {
            return false;
        }
        Self::anchors_possible(psi, &phi.frozen, &phi.answer_terms)
    }

    /// The instance-side prefilter: necessary conditions for
    /// `inst ⊨ ψ(ans)`. Used both entry-vs-entry (with `inst` the frozen
    /// target) and for [`holds`](Self::holds) over arbitrary instances.
    fn anchors_possible(psi: &QueryEntry, inst: &Instance, ans: &[TermId]) -> bool {
        for &(i, j) in &psi.conflicts {
            if ans[i as usize] != ans[j as usize] {
                return false;
            }
        }
        for a in &psi.anchored {
            let resolve = |t: AnchorTerm| match t {
                AnchorTerm::Const(c) => c,
                AnchorTerm::Ans(i) => ans[i as usize],
            };
            let mut best: Option<&[u32]> = None;
            for &(pos, t) in &a.bound {
                let list = inst.with_pred_pos_term(a.pred, pos, resolve(t));
                if list.is_empty() {
                    return false;
                }
                if best.is_none_or(|b| list.len() < b.len()) {
                    best = Some(list);
                }
            }
            if a.bound.len() > 1 {
                let list = best.expect("anchored atoms have at least one bound position");
                if list.len() <= ANCHOR_SCAN_CAP {
                    let ok = list.iter().any(|&f| {
                        let fact = inst.fact(f as usize);
                        a.bound
                            .iter()
                            .all(|&(pos, t)| fact.args[pos as usize] == resolve(t))
                    });
                    if !ok {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Pred-presence prefilter for arbitrary instances (the entry-vs-entry
    /// path gets this for free from the predicate-set inclusion test).
    fn preds_present(psi: &QueryEntry, inst: &Instance) -> bool {
        psi.preds
            .iter()
            .all(|(p, _)| !inst.with_pred(*p).is_empty())
    }

    /// Evaluates `inst ⊨ ψ(ans)` by running each compiled component plan,
    /// anchors fixed to the answer tuple. No prefilter, no counting of
    /// rejects — callers decide where rejects are counted so the
    /// deterministic counters stay deterministic.
    fn eval(&self, psi: &QueryEntry, inst: &Instance, ans: &[TermId]) -> bool {
        debug_assert_eq!(ans.len(), psi.answer_len);
        for &(i, j) in &psi.conflicts {
            if ans[i as usize] != ans[j as usize] {
                return false;
            }
        }
        let mut fixed: Vec<(Var, TermId)> = Vec::new();
        for comp in &psi.components {
            self.bump(|s| s.searches += 1);
            fixed.clear();
            fixed.extend(comp.anchors.iter().map(|&(v, i)| (v, ans[i as usize])));
            let mut mc = MatchCounters::default();
            let completed = comp.plan.for_each_match(inst, &fixed, &mut mc, |_| false);
            self.bump(|s| s.search_candidates += mc.candidates);
            if completed {
                // Ran to completion without being stopped: no match.
                return false;
            }
        }
        true
    }

    /// `true` iff `phi` contains `psi` ([`crate::containment::contains`]
    /// semantics), both sides given as cached entries. Prefilter rejects
    /// are counted here.
    pub fn contains_entries(&self, phi: &QueryEntry, psi: &QueryEntry) -> bool {
        assert_eq!(
            phi.answer_len, psi.answer_len,
            "containment requires equal answer arity"
        );
        if !Self::passes_prefilter(psi, phi) {
            self.bump(|s| s.prefilter_rejects += 1);
            return false;
        }
        self.eval(psi, &phi.frozen, &phi.answer_terms)
    }

    /// [`contains_entries`](Self::contains_entries) acquiring both entries
    /// from the cache.
    pub fn contains_queries(&self, phi: &ConjunctiveQuery, psi: &ConjunctiveQuery) -> bool {
        let pe = self.entry(phi);
        let se = self.entry(psi);
        self.contains_entries(&pe, &se)
    }

    /// `true` iff the two queries are equivalent (mutual containment,
    /// [`crate::containment::equivalent`] semantics).
    pub fn equivalent(&self, a: &ConjunctiveQuery, b: &ConjunctiveQuery) -> bool {
        self.contains_queries(a, b) && self.contains_queries(b, a)
    }

    /// Diagnostic: `true` iff the prefilter alone would refute
    /// `contains(phi, psi)`. Counts nothing; exposed so tests can pin the
    /// prefilter's (set-based, collapse-tolerant) semantics.
    pub fn prefilter_rejects_pair(&self, phi: &ConjunctiveQuery, psi: &ConjunctiveQuery) -> bool {
        let pe = self.entry(phi);
        let se = self.entry(psi);
        !Self::passes_prefilter(&se, &pe)
    }

    /// `true` iff `inst ⊨ q(ans)` ([`crate::matcher::holds`] semantics).
    pub fn holds(&self, q: &ConjunctiveQuery, inst: &Instance, ans: &[TermId]) -> bool {
        assert_eq!(
            ans.len(),
            q.answer_vars().len(),
            "answer tuple arity mismatch"
        );
        let e = self.entry(q);
        if !Self::preds_present(&e, inst) || !Self::anchors_possible(&e, inst, ans) {
            self.bump(|s| s.prefilter_rejects += 1);
            return false;
        }
        self.eval(&e, inst, ans)
    }

    /// Disjunct-vs-set sweep: `true` iff some entry in `kept` subsumes
    /// `cand` — i.e. `contains(cand, r)` for some `r`. The prefilter runs
    /// over every entry first (so `prefilter_rejects` does not depend on
    /// where a hit lies); the searches then run in `kept` order and stop at
    /// the first hit.
    pub fn subsumed_by_any(&self, cand: &QueryEntry, kept: &[&Rc<QueryEntry>]) -> bool {
        let survivors: Vec<&QueryEntry> = kept
            .iter()
            .map(|e| e.as_ref())
            .filter(|r| {
                debug_assert_eq!(r.answer_len, cand.answer_len);
                Self::passes_prefilter(r, cand) || {
                    self.bump(|s| s.prefilter_rejects += 1);
                    false
                }
            })
            .collect();
        survivors
            .iter()
            .any(|r| self.eval(r, &cand.frozen, &cand.answer_terms))
    }

    /// Set-vs-disjunct sweep: one flag per entry in `kept`, `true` iff
    /// `contains(r, cand)` — `r` is covered by `cand` and can be evicted.
    /// Flags come back in `kept` order.
    pub fn covered_by(&self, kept: &[&Rc<QueryEntry>], cand: &QueryEntry) -> Vec<bool> {
        kept.iter()
            .map(|r| {
                debug_assert_eq!(r.answer_len, cand.answer_len);
                if Self::passes_prefilter(cand, r) {
                    self.eval(cand, &r.frozen, &r.answer_terms)
                } else {
                    self.bump(|s| s.prefilter_rejects += 1);
                    false
                }
            })
            .collect()
    }

    /// An equivalent subquery from which no atom can be dropped
    /// ([`crate::qcore::query_core`] semantics — same result, found by a
    /// retraction fold instead of n² full `equivalent` round-trips).
    ///
    /// Per round the canonical query is frozen **once** (atom `i` becomes
    /// fact `i` — canonical atoms are sorted and deduplicated, so the
    /// correspondence is 1:1) and each droppable atom is tested with a
    /// single banned-fact search: `ψ` retracts onto `ψ ∖ {atom k}` iff
    /// some homomorphism `ψ → freeze(ψ)` fixing the answer variables
    /// avoids fact `k` (the reverse containment is the identity
    /// embedding). Undroppable atoms stay marked across drops:
    /// undroppability is monotone under retraction (compose the old
    /// witness with the new retraction), exactly like the answer-orphan
    /// condition.
    pub fn query_core(&self, q: &ConjunctiveQuery) -> ConjunctiveQuery {
        let mut current = q.canonical();
        if let Some(c) = self.cores.borrow().get(&current) {
            self.bump(|s| s.core_cache_hits += 1);
            return c.clone();
        }
        let key = current.clone();
        if current.atoms().iter().any(|a| a.pred.is_dom()) {
            // The banned-fact trick is unsound for `dom` atoms (a banned
            // fact's terms stay in the frozen domain); fall back to the
            // greedy equivalent-based loop on this rare input.
            let core = self.query_core_greedy(current);
            return self.cache_core(key, core);
        }
        let mut undroppable = vec![false; current.size()];
        loop {
            if current.size() <= 1 {
                break;
            }
            self.bump(|s| s.core_rounds += 1);
            let (frozen, var_map) = current.freeze();
            let fixed: Vec<(Var, TermId)> = current
                .answer_vars()
                .iter()
                .map(|v| (*v, var_map[v]))
                .collect();
            let nvars = current.var_names().len();
            let mut dropped = None;
            for (skip, undrop) in undroppable.iter_mut().enumerate() {
                if *undrop {
                    continue;
                }
                // Dropping an atom may orphan an answer variable; such
                // removals cannot preserve equivalence. The condition is
                // monotone under further drops, so mark rather than skip.
                if !current.answer_vars().iter().all(|v| {
                    current
                        .atoms()
                        .iter()
                        .enumerate()
                        .any(|(i, a)| i != skip && a.mentions(*v))
                }) {
                    *undrop = true;
                    continue;
                }
                self.bump(|s| s.core_searches += 1);
                let mut mc = MatchCounters::default();
                let found = matcher::exists_match_excluding(
                    current.atoms(),
                    nvars,
                    &frozen,
                    &fixed,
                    skip,
                    &mut mc,
                );
                self.bump(|s| s.search_candidates += mc.candidates);
                if found {
                    dropped = Some(skip);
                    break;
                }
                *undrop = true;
            }
            let Some(skip) = dropped else {
                break;
            };
            let atoms: Vec<QAtom> = current
                .atoms()
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != skip)
                .map(|(_, a)| a.clone())
                .collect();
            let candidate = ConjunctiveQuery::new(
                current.answer_vars().to_vec(),
                atoms,
                current.var_names().to_vec(),
            );
            let (canon, map) = candidate.canonical_with_map();
            let mut marks = vec![false; canon.size()];
            for (ci, &ni) in map.iter().enumerate() {
                let oi = if ci < skip { ci } else { ci + 1 };
                if undroppable[oi] {
                    marks[ni] = true;
                }
            }
            current = canon;
            undroppable = marks;
        }
        self.cache_core(key, current)
    }

    /// The historical greedy core loop (kept for `dom`-mentioning queries,
    /// where the fold's banned-fact trick does not apply).
    fn query_core_greedy(&self, mut current: ConjunctiveQuery) -> ConjunctiveQuery {
        'outer: loop {
            if current.size() <= 1 {
                return current;
            }
            for skip in 0..current.size() {
                let atoms: Vec<QAtom> = current
                    .atoms()
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != skip)
                    .map(|(_, a)| a.clone())
                    .collect();
                if !current
                    .answer_vars()
                    .iter()
                    .all(|v| atoms.iter().any(|a| a.mentions(*v)))
                {
                    continue;
                }
                let candidate = ConjunctiveQuery::new(
                    current.answer_vars().to_vec(),
                    atoms,
                    current.var_names().to_vec(),
                );
                if self.contains_queries(&current, &candidate)
                    && self.contains_queries(&candidate, &current)
                {
                    current = candidate.canonical();
                    continue 'outer;
                }
            }
            return current;
        }
    }

    fn cache_core(&self, key: ConjunctiveQuery, core: ConjunctiveQuery) -> ConjunctiveQuery {
        let mut cores = self.cores.borrow_mut();
        if cores.len() >= CORE_CACHE_CAP {
            cores.clear();
        }
        cores.insert(key, core.clone());
        core
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_syntax::parser::{parse_instance, parse_query};

    fn c(name: &str) -> TermId {
        TermId::constant(Symbol::intern(name))
    }

    #[test]
    fn entry_cache_hits_on_isomorphic_queries() {
        let k = HomKernel::new();
        let q1 = parse_query("?(X) :- e(X,Y), e(Y,Z).").unwrap();
        let q2 = parse_query("?(A) :- e(B,C), e(A,B).").unwrap();
        let e1 = k.entry(&q1);
        let e2 = k.entry(&q2);
        assert!(Rc::ptr_eq(&e1, &e2), "isomorphic queries share an entry");
        let s = k.stats();
        assert_eq!(s.freezes, 1);
        assert_eq!(s.freeze_cache_hits, 1);
    }

    #[test]
    fn distinct_structures_get_distinct_entries() {
        let k = HomKernel::new();
        let path = k.entry(&parse_query("? :- e(X,Y), e(Y,Z).").unwrap());
        let fork = k.entry(&parse_query("? :- e(X,Y), e(X,Z).").unwrap());
        assert!(!Rc::ptr_eq(&path, &fork));
        // Constants are part of the structure.
        let ka = k.entry(&parse_query("? :- p(a).").unwrap());
        let kb = k.entry(&parse_query("? :- p(b).").unwrap());
        assert!(!Rc::ptr_eq(&ka, &kb));
        let kx = k.entry(&parse_query("? :- p(X).").unwrap());
        assert!(!Rc::ptr_eq(&ka, &kx));
    }

    #[test]
    fn answer_anchoring_distinguishes_entries() {
        // Same body, different answer tuples: must not share an entry.
        let k = HomKernel::new();
        let e1 = k.entry(&parse_query("?(X,Y) :- e(X,Y).").unwrap());
        let e2 = k.entry(&parse_query("?(Y,X) :- e(X,Y).").unwrap());
        assert!(!Rc::ptr_eq(&e1, &e2));
    }

    #[test]
    fn components_split_on_existential_connectivity() {
        let k = HomKernel::new();
        // Two existential islands.
        let e = k.entry(&parse_query("? :- e(X,Y), f(Z,W).").unwrap());
        assert_eq!(e.component_count(), 2);
        // An answer variable does not connect (it is fixed pointwise).
        let e = k.entry(&parse_query("?(A) :- e(A,Y), f(A,Z).").unwrap());
        assert_eq!(e.component_count(), 2);
        // An existential variable does.
        let e = k.entry(&parse_query("? :- e(X,Y), f(Y,Z).").unwrap());
        assert_eq!(e.component_count(), 1);
    }

    #[test]
    fn plan_cache_shares_component_shapes_across_queries() {
        let k = HomKernel::new();
        // Both queries contain the same e-chain component shape next to a
        // different second component.
        k.entry(&parse_query("? :- e(X,Y), e(Y,Z), f(W,W).").unwrap());
        k.entry(&parse_query("? :- e(X,Y), e(Y,Z), g(W,W).").unwrap());
        let s = k.stats();
        assert_eq!(s.freezes, 2);
        assert!(s.plan_cache_hits >= 1, "the shared e-chain plan is reused");
    }

    #[test]
    fn contains_matches_reference_on_basics() {
        let k = HomKernel::new();
        let p2 = parse_query("?(X) :- e(X,Y), e(Y,Z).").unwrap();
        let p1 = parse_query("?(X) :- e(X,Y).").unwrap();
        assert!(k.contains_queries(&p2, &p1));
        assert!(!k.contains_queries(&p1, &p2));
        // Collapse through the prefilter: 2-path into self-loop.
        let path = parse_query("? :- e(X,Y), e(Y,Z).").unwrap();
        let selfloop = parse_query("? :- e(A,A).").unwrap();
        assert!(k.contains_queries(&selfloop, &path));
        assert!(!k.contains_queries(&path, &selfloop));
        // Constants.
        let qa = parse_query("? :- p(a).").unwrap();
        let qx = parse_query("? :- p(X).").unwrap();
        assert!(k.contains_queries(&qa, &qx));
        assert!(!k.contains_queries(&qx, &qa));
        // Rigid answer variables.
        let q1 = parse_query("?(X,Y) :- e(X,Y).").unwrap();
        let q2 = parse_query("?(X,Y) :- e(Y,X).").unwrap();
        assert!(!k.contains_queries(&q1, &q2));
        assert!(!k.contains_queries(&q2, &q1));
    }

    #[test]
    fn prefilter_is_a_set_not_a_multiset() {
        // A homomorphism may collapse atoms: the 2-path maps into the
        // self-loop even though the source uses `e` twice and the target
        // once. The prefilter must not prune this.
        let k = HomKernel::new();
        let path = parse_query("? :- e(X,Y), e(Y,Z).").unwrap();
        let selfloop = parse_query("? :- e(A,A).").unwrap();
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

    #[test]
    fn anchored_prefilter_rejects_mismatched_constants() {
        let k = HomKernel::new();
        let qa = parse_query("? :- p(a).").unwrap();
        let qb = parse_query("? :- p(b).").unwrap();
        assert!(k.prefilter_rejects_pair(&qa, &qb));
        let s0 = k.stats().prefilter_rejects;
        assert!(!k.contains_queries(&qa, &qb));
        assert!(k.stats().prefilter_rejects > s0, "reject was counted");
    }

    #[test]
    fn duplicate_answer_variables_require_equal_terms() {
        let k = HomKernel::new();
        let qxx = parse_query("?(X,X) :- e(X,X).").unwrap();
        let inst = parse_instance("e(a,a). e(a,b).").unwrap();
        assert!(k.holds(&qxx, &inst, &[c("a"), c("a")]));
        assert!(!k.holds(&qxx, &inst, &[c("a"), c("b")]));
    }

    #[test]
    fn holds_matches_reference() {
        let k = HomKernel::new();
        let inst = parse_instance("e(a,b). e(b,c).").unwrap();
        let q = parse_query("?(X) :- e(X,Y), e(Y,Z).").unwrap();
        assert!(k.holds(&q, &inst, &[c("a")]));
        assert!(!k.holds(&q, &inst, &[c("b")]));
        // Prefilter path: predicate absent from the instance.
        let qf = parse_query("?(X) :- f(X,Y).").unwrap();
        assert!(!k.holds(&qf, &inst, &[c("a")]));
    }

    #[test]
    fn fold_core_matches_greedy_semantics() {
        let k = HomKernel::new();
        for (src, size) in [
            ("?(X) :- e(X,Y), e(X,Z).", 1),
            ("? :- e(X,X), e(X,Y), e(Y,Z), e(Z,W).", 1),
            ("?(X) :- e(X,Y), e(Y,Z).", 2),
            ("?(A) :- e(A,B), e(X,X).", 2),
            (
                "? :- e(A,B), e(B,C), e(C,D), e(D,E), e(E,F), e(F,A), \
                      e(T1,T2), e(T2,T3), e(T3,T1).",
                3,
            ),
        ] {
            let q = parse_query(src).unwrap();
            let core = k.query_core(&q);
            assert_eq!(core.size(), size, "{src}");
            assert!(
                k.contains_queries(&q, &core) && k.contains_queries(&core, &q),
                "{src}: core is equivalent"
            );
        }
    }

    #[test]
    fn core_cache_hits_on_repeat() {
        let k = HomKernel::new();
        let q = parse_query("?(X) :- e(X,Y), e(X,Z).").unwrap();
        let c1 = k.query_core(&q);
        let c2 = k.query_core(&q);
        assert_eq!(c1, c2);
        assert_eq!(k.stats().core_cache_hits, 1);
    }
}

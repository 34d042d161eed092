//! Indexed database instances (fact sets).
//!
//! An [`Instance`] is a finite set of ground facts with join indexes: by
//! predicate, and by (predicate, position, term). Insertion order is
//! preserved (the chase relies on this to delimit rounds), duplicates are
//! ignored, and equality is *set* equality.
//!
//! Since the S20 storage refactor the facts live in a columnar
//! [`qr_storage::FactStore`]: argument tuples are interned once in a flat
//! arena and each fact is two `u32`s, instead of one heap-allocated
//! `Box<[TermId]>` per fact plus a second clone inside the dedup map.
//! Reads hand out [`FactRef`] views borrowing the arena; call
//! [`FactRef::to_fact`] where an owned [`Fact`] is needed. The store also
//! gives the instance O(1) prefix snapshots ([`Instance::snapshot`] /
//! [`Instance::truncated`]) and byte-level memory accounting
//! ([`Instance::stats`]), plus a versioned binary checkpoint format
//! ([`Instance::to_bytes`] / [`Instance::from_bytes`]) for chase
//! checkpoint/resume.

use std::collections::{HashMap, HashSet};
use std::fmt;

use qr_storage::{
    tuple_hash, ByteReader, ByteWriter, DecodeError, DecodeErrorKind, FactStore, FxMap, PredId,
    Snapshot, TupleHash,
};

use crate::atom::{Fact, Pred};
use crate::symbol::Symbol;
use crate::term::{SkolemFn, TermData, TermId};

pub use qr_storage::StorageStats;

/// Index of a fact within an instance (dense, insertion-ordered).
pub type FactIdx = usize;

/// A borrowed view of one fact: its predicate plus the interned argument
/// slice. `Copy`, so it can be passed around like the old `&Fact` without
/// cloning the argument tuple.
#[derive(Clone, Copy)]
pub struct FactRef<'a> {
    /// The fact's predicate.
    pub pred: Pred,
    /// The fact's arguments (a slice into the instance's tuple arena).
    pub args: &'a [TermId],
}

impl<'a> FactRef<'a> {
    /// The argument terms, in position order.
    pub fn terms(&self) -> impl Iterator<Item = TermId> + 'a {
        self.args.iter().copied()
    }

    /// An owned copy of this fact.
    pub fn to_fact(&self) -> Fact {
        Fact::new(self.pred, self.args)
    }

    /// `true` iff every argument is a constant (no Skolem terms).
    pub fn is_original(&self) -> bool {
        self.args.iter().all(|t| t.is_const())
    }

    /// Maximum Skolem nesting depth over the arguments.
    pub fn term_depth(&self) -> usize {
        self.args.iter().map(|t| t.depth()).max().unwrap_or(0)
    }
}

impl<'a> From<&'a Fact> for FactRef<'a> {
    fn from(fact: &'a Fact) -> FactRef<'a> {
        FactRef {
            pred: fact.pred,
            args: &fact.args,
        }
    }
}

impl PartialEq for FactRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.pred == other.pred && self.args == other.args
    }
}

impl Eq for FactRef<'_> {}

impl PartialEq<Fact> for FactRef<'_> {
    fn eq(&self, other: &Fact) -> bool {
        self.pred == other.pred && *self.args == *other.args
    }
}

impl PartialEq<FactRef<'_>> for Fact {
    fn eq(&self, other: &FactRef<'_>) -> bool {
        other == self
    }
}

impl fmt::Display for FactRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.pred)?;
        for (i, t) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Debug for FactRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// An O(1) marker of an instance prefix, for [`Instance::restore`] /
/// [`Instance::truncated`]. Valid as long as the marked state is still a
/// prefix of the instance (facts are append-only, so any snapshot taken
/// earlier on the same growth path qualifies).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InstanceSnapshot {
    inner: Snapshot,
}

impl InstanceSnapshot {
    /// Number of facts in the marked prefix.
    pub fn facts(&self) -> usize {
        self.inner.facts()
    }

    /// Number of distinct domain terms in the marked prefix. The domain is
    /// append-only, so `domain()[..snap.terms()]` is exactly the active
    /// domain at snapshot time.
    pub fn terms(&self) -> usize {
        self.inner.domain()
    }
}

/// A finite set of facts with join indexes, backed by the columnar
/// `qr-storage` fact store.
#[derive(Clone, Default)]
pub struct Instance {
    store: FactStore<TermId>,
    /// Dense `PredId` → `Pred`, in first-occurrence order.
    preds: Vec<Pred>,
    pred_ids: FxMap<Pred, PredId>,
}

impl Instance {
    /// The empty instance.
    pub fn new() -> Instance {
        Instance::default()
    }

    /// Builds an instance from an iterator of facts (duplicates ignored).
    pub fn from_facts(facts: impl IntoIterator<Item = Fact>) -> Instance {
        let mut inst = Instance::new();
        inst.extend(facts);
        inst
    }

    fn pred_id(&mut self, pred: Pred) -> PredId {
        if let Some(&id) = self.pred_ids.get(&pred) {
            return id;
        }
        let id = self.store.register_pred(pred.arity());
        self.preds.push(pred);
        self.pred_ids.insert(pred, id);
        id
    }

    /// Inserts a fact; returns `Some(idx)` with the assigned index if it
    /// was not already present, `None` for duplicates. Indices are dense
    /// and insertion-ordered, so the facts of one chase round always form
    /// a contiguous index range (the chase's delta indexes rely on this).
    pub fn insert(&mut self, fact: Fact) -> Option<FactIdx> {
        self.insert_ref(FactRef::from(&fact))
    }

    /// [`Instance::insert`] from a borrowed view, e.g. a fact of another
    /// instance: the store interns the argument slice itself, so no owned
    /// [`Fact`] is built.
    pub fn insert_ref(&mut self, fact: FactRef<'_>) -> Option<FactIdx> {
        self.insert_hashed(fact, tuple_hash(fact.args))
    }

    /// [`Instance::insert_ref`] with `hash`, the [`tuple_hash`] of the
    /// fact's arguments, computed by the caller: a chase that probed the
    /// fact with [`Instance::index_of_hashed`] inserts it without hashing
    /// it again.
    pub fn insert_hashed(&mut self, fact: FactRef<'_>, hash: TupleHash) -> Option<FactIdx> {
        let pid = self.pred_id(fact.pred);
        self.store
            .insert_hashed(pid, hash, fact.args)
            .map(|i| i as FactIdx)
    }

    /// Inserts all facts from the iterator.
    pub fn extend(&mut self, facts: impl IntoIterator<Item = Fact>) {
        for f in facts {
            self.insert(f);
        }
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// `true` iff the instance has no facts.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, fact: &Fact) -> bool {
        self.index_of(fact).is_some()
    }

    /// The index of a fact, if present (O(1) hash lookups; this is how the
    /// chase records provenance without re-probing positional indexes).
    pub fn index_of(&self, fact: &Fact) -> Option<FactIdx> {
        self.index_of_ref(FactRef::from(fact))
    }

    /// [`Instance::index_of`] from a borrowed view.
    pub fn index_of_ref(&self, fact: FactRef<'_>) -> Option<FactIdx> {
        self.index_of_hashed(fact, tuple_hash(fact.args))
    }

    /// [`Instance::index_of_ref`] with `hash`, the [`tuple_hash`] of the
    /// fact's arguments, computed by the caller.
    pub fn index_of_hashed(&self, fact: FactRef<'_>, hash: TupleHash) -> Option<FactIdx> {
        let pid = *self.pred_ids.get(&fact.pred)?;
        self.store
            .lookup_hashed(pid, hash, fact.args)
            .map(|i| i as FactIdx)
    }

    /// Number of distinct terms in the active domain. Like fact indices,
    /// the domain grows append-only, so callers can delimit "terms new
    /// since length `n`" as the suffix `domain()[n..]`.
    pub fn domain_len(&self) -> usize {
        self.store.domain().len()
    }

    /// The fact at a given index (insertion order).
    pub fn fact(&self, idx: FactIdx) -> FactRef<'_> {
        FactRef {
            pred: self.preds[self.store.pred_of(idx).index()],
            args: self.store.args(idx),
        }
    }

    /// Iterates over all facts in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = FactRef<'_>> {
        (0..self.len()).map(move |i| self.fact(i))
    }

    /// Indexes of all facts with the given predicate (as `u32`, matching
    /// the store's compact postings; cast to [`FactIdx`] to address
    /// [`Instance::fact`]).
    pub fn with_pred(&self, pred: Pred) -> &[u32] {
        self.pred_ids
            .get(&pred)
            .map_or(&[], |&pid| self.store.with_pred(pid))
    }

    /// Indexes of all facts with `pred` whose argument at `pos` is `term`.
    pub fn with_pred_pos_term(&self, pred: Pred, pos: u32, term: TermId) -> &[u32] {
        self.pred_ids
            .get(&pred)
            .map_or(&[], |&pid| self.store.with_pred_pos_term(pid, pos, term))
    }

    /// The active domain, in first-occurrence order.
    pub fn domain(&self) -> &[TermId] {
        self.store.domain()
    }

    /// `true` iff `term` occurs in some fact.
    pub fn contains_term(&self, term: TermId) -> bool {
        self.store.contains_element(term)
    }

    /// All predicates that occur in the instance, in first-occurrence
    /// order.
    pub fn preds(&self) -> impl Iterator<Item = Pred> + '_ {
        self.preds.iter().copied()
    }

    /// `true` iff every fact of `self` is a fact of `other`.
    pub fn subset_of(&self, other: &Instance) -> bool {
        self.len() <= other.len() && self.iter().all(|f| other.index_of_ref(f).is_some())
    }

    /// Set union of two instances.
    pub fn union(&self, other: &Instance) -> Instance {
        let mut out = self.clone();
        out.union_in_place(other);
        out
    }

    /// In-place set union: inserts every fact of `other` (duplicates
    /// ignored), preserving `other`'s insertion order for the new facts.
    /// This is the merge half of [`Instance::split_by`].
    pub fn union_in_place(&mut self, other: &Instance) {
        for f in other.iter() {
            self.insert_ref(f);
        }
    }

    /// Partitions the facts into `shards` instances: fact `i` goes to
    /// shard `shard_of[i]`, keeping insertion order within each shard (so
    /// each part's fact `j` corresponds to the `j`-th index `i` with
    /// `shard_of[i]` equal to the part — the chase sharder's local→global
    /// renumbering relies on this). `shard_of` must cover every fact and
    /// name shards below `shards`.
    pub fn split_by(&self, shard_of: &[usize], shards: usize) -> Vec<Instance> {
        assert_eq!(shard_of.len(), self.len(), "one shard per fact");
        let mut parts = vec![Instance::new(); shards];
        for (i, &s) in shard_of.iter().enumerate() {
            let prev = parts[s].insert_ref(self.fact(i));
            debug_assert!(prev.is_some(), "facts of one instance are distinct");
        }
        parts
    }

    /// The substructure induced on the complement of `banned` terms: all
    /// facts that mention no banned term (the paper's `M_F`, Definition 36).
    pub fn without_terms(&self, banned: &HashSet<TermId>) -> Instance {
        Instance::from_facts(
            self.iter()
                .filter(|f| f.terms().all(|t| !banned.contains(&t)))
                .map(|f| f.to_fact()),
        )
    }

    /// The substructure induced on `kept` terms: all facts whose terms all
    /// belong to `kept`.
    pub fn induced(&self, kept: &HashSet<TermId>) -> Instance {
        Instance::from_facts(
            self.iter()
                .filter(|f| f.terms().all(|t| kept.contains(&t)))
                .map(|f| f.to_fact()),
        )
    }

    /// Removes one fact by value, returning a new instance (used for
    /// minimal-support computation).
    pub fn without_fact(&self, fact: &Fact) -> Instance {
        Instance::from_facts(self.iter().filter(|f| f != fact).map(|f| f.to_fact()))
    }

    /// Logical memory footprint of the backing store; see
    /// [`StorageStats`]. Byte counters are deterministic across platforms
    /// and `QR_THREADS` settings.
    pub fn stats(&self) -> StorageStats {
        self.store.stats()
    }

    /// What the same fact set would cost in the pre-S20 layout
    /// (`Vec<Fact>` with a boxed argument slice per fact, a `Fact`-keyed
    /// dedup map cloning every tuple, one global `(pred, pos, term)` index
    /// map, 64-bit `FactIdx` postings), using the same logical-bytes
    /// accounting as [`Instance::stats`]. Kept as the baseline for the
    /// storage regression tests.
    ///
    /// Per fact: 24 (`Fact` in the vec) plus 32 (dedup entry fixed part)
    /// plus 8 (`by_pred` posting); per argument: 4 + 4 (two tuple copies)
    /// plus 8 (index posting); per predicate: 8 (key) + 24 (list header);
    /// per index key: 16 (key) + 24 (list header).
    pub fn legacy_layout_bytes(&self) -> usize {
        let s = self.stats();
        s.facts * 64 + s.postings * 16 + self.preds.len() * 32 + s.index_keys * 40
    }

    /// Takes an O(1) snapshot of the current state; see
    /// [`InstanceSnapshot`].
    pub fn snapshot(&self) -> InstanceSnapshot {
        InstanceSnapshot {
            inner: self.store.snapshot(),
        }
    }

    /// Restores the instance to a snapshot state in place, popping the
    /// facts (and terms, tuples, predicates) inserted since in reverse
    /// order. Cost is O(facts dropped). The memory high-water mark
    /// (`stats().peak_facts`) is kept; use [`Instance::truncated`] for a
    /// fresh-looking prefix copy.
    pub fn restore(&mut self, snap: &InstanceSnapshot) {
        self.store.restore(&snap.inner);
        for pred in self.preds.drain(snap.inner.preds()..) {
            self.pred_ids.remove(&pred);
        }
    }

    /// Removes `facts` in place (absent facts and repeats are ignored) and
    /// returns how many were removed. It pops the store back to the oldest
    /// removed fact and re-inserts the survivors after it in their
    /// original order, so it costs O(k + facts after the oldest removed
    /// one) for `k` facts named. The result is identical (fact indices,
    /// domain order, tuple ids, postings, [`Instance::to_bytes`]) to
    /// [`Instance::from_facts`] over the survivors in order; only
    /// `stats().peak_facts` stays a high-water mark, as in
    /// [`Instance::restore`].
    pub fn retract(&mut self, facts: &[Fact]) -> u64 {
        let mut removed: Vec<FactIdx> = facts.iter().filter_map(|f| self.index_of(f)).collect();
        removed.sort_unstable();
        removed.dedup();
        let Some(&oldest) = removed.first() else {
            return 0;
        };
        let survivors: Vec<Fact> = (oldest..self.len())
            .filter(|i| removed.binary_search(i).is_err())
            .map(|i| self.fact(i).to_fact())
            .collect();
        self.restore(&InstanceSnapshot {
            inner: self.store.snapshot_at(oldest),
        });
        self.extend(survivors);
        removed.len() as u64
    }

    /// A copy of this instance restored to `snap` — bit-identical (facts,
    /// indices, domain, stats) to an instance freshly built from the
    /// prefix insertion sequence, but O(suffix) instead of O(n). This is
    /// what makes mid-chase prefix views cheap.
    pub fn truncated(&self, snap: &InstanceSnapshot) -> Instance {
        let mut out = Instance {
            store: self.store.truncated(&snap.inner),
            preds: self.preds[..snap.inner.preds()].to_vec(),
            pred_ids: FxMap::default(),
        };
        for (i, &pred) in out.preds.iter().enumerate() {
            out.pred_ids.insert(pred, out.store.pred_id(i));
        }
        out
    }

    /// Serializes the instance to the versioned `QRIN` checkpoint format:
    /// magic + version, predicate table, topologically-ordered term table
    /// (constants and Skolem terms), then the fact stream in insertion
    /// order. Std-only, deterministic, and platform-independent.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.raw(CHECKPOINT_MAGIC);
        w.varint(CHECKPOINT_VERSION);
        w.varint(self.preds.len() as u64);
        for pred in &self.preds {
            w.str(pred.name().as_str());
            w.varint(pred.arity() as u64);
        }
        // Close the domain under Skolem subterms (a domain term's
        // arguments need not occur in any fact), then order by global
        // arena index: arguments are always interned before the terms
        // using them, so this order is topological.
        let mut seen: HashSet<TermId> = HashSet::new();
        let mut terms: Vec<TermId> = Vec::new();
        let mut stack: Vec<TermId> = self.domain().to_vec();
        while let Some(t) = stack.pop() {
            if !seen.insert(t) {
                continue;
            }
            terms.push(t);
            if let TermData::Skolem(_, args) = t.data() {
                stack.extend(args);
            }
        }
        terms.sort_by_key(|t| t.index());
        let local: HashMap<TermId, u64> = terms
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u64))
            .collect();
        w.varint(terms.len() as u64);
        for &t in &terms {
            match t.data() {
                TermData::Const(name) => {
                    w.varint(0);
                    w.str(name.as_str());
                }
                TermData::Skolem(f, args) => {
                    w.varint(1);
                    w.str(f.tag().as_str());
                    w.varint(args.len() as u64);
                    for a in args {
                        w.varint(local[&a]);
                    }
                }
            }
        }
        w.varint(self.len() as u64);
        for fact in self.iter() {
            w.varint(self.pred_ids[&fact.pred].index() as u64);
            for t in fact.terms() {
                w.varint(local[&t]);
            }
        }
        w.into_vec()
    }

    /// Decodes a checkpoint produced by [`Instance::to_bytes`]. Within one
    /// process the round-trip is bit-identical (same `FactIdx` stream,
    /// domain order, indices, and stats), because terms re-intern to the
    /// same ids and facts are replayed in insertion order.
    ///
    /// Untrusted bytes fail with a located [`DecodeError`], never a panic
    /// or an abort: every preallocation is clamped to the bytes left, and
    /// a predicate's arity is bounded by 2^16, as in `qr-check`'s
    /// certificate decoders.
    pub fn from_bytes(bytes: &[u8]) -> Result<Instance, DecodeError> {
        let mut r = ByteReader::new(bytes);
        if r.raw(CHECKPOINT_MAGIC.len())? != CHECKPOINT_MAGIC {
            return Err(DecodeError::at(0, DecodeErrorKind::BadMagic));
        }
        let at = r.pos();
        let version = r.varint()?;
        if version != CHECKPOINT_VERSION {
            return Err(DecodeError::at(
                at,
                DecodeErrorKind::UnsupportedVersion(version),
            ));
        }
        let pred_count = r.varint()? as usize;
        let mut preds: Vec<Pred> = Vec::with_capacity(pred_count.min(r.remaining()));
        for _ in 0..pred_count {
            let name = r.str()?;
            let at = r.pos();
            let arity = u32::try_from(r.varint()?)
                .ok()
                .filter(|&a| a <= MAX_ARITY)
                .ok_or(DecodeError::at(at, DecodeErrorKind::Malformed("bad arity")))?;
            preds.push(Pred::new(Symbol::intern(name), arity));
        }
        let term_count = r.varint()? as usize;
        let mut terms: Vec<TermId> = Vec::with_capacity(term_count.min(r.remaining()));
        for _ in 0..term_count {
            let at = r.pos();
            match r.varint()? {
                0 => terms.push(TermId::constant(Symbol::intern(r.str()?))),
                1 => {
                    let tag = Symbol::intern(r.str()?);
                    let argc = r.varint()? as usize;
                    let mut args = Vec::with_capacity(argc.min(r.remaining()));
                    for _ in 0..argc {
                        let at = r.pos();
                        let a = r.varint()? as usize;
                        let &t = terms.get(a).ok_or(DecodeError::at(
                            at,
                            DecodeErrorKind::Malformed("forward term reference"),
                        ))?;
                        args.push(t);
                    }
                    let f = SkolemFn::intern(tag, argc as u32);
                    terms.push(TermId::skolem(f, &args));
                }
                _ => {
                    return Err(DecodeError::at(
                        at,
                        DecodeErrorKind::Malformed("unknown term tag"),
                    ))
                }
            }
        }
        let fact_count = r.varint()? as usize;
        let mut inst = Instance::new();
        for _ in 0..fact_count {
            let at = r.pos();
            let p = r.varint()? as usize;
            let pred = *preds.get(p).ok_or(DecodeError::at(
                at,
                DecodeErrorKind::Malformed("predicate id out of range"),
            ))?;
            let mut args = Vec::with_capacity((pred.arity() as usize).min(r.remaining()));
            for _ in 0..pred.arity() {
                let at = r.pos();
                let a = r.varint()? as usize;
                let &t = terms.get(a).ok_or(DecodeError::at(
                    at,
                    DecodeErrorKind::Malformed("term id out of range"),
                ))?;
                args.push(t);
            }
            if inst.insert(Fact::new(pred, args)).is_none() {
                return Err(DecodeError::at(
                    at,
                    DecodeErrorKind::Malformed("duplicate fact in stream"),
                ));
            }
        }
        if !r.is_at_end() {
            return Err(r.error(DecodeErrorKind::Malformed("trailing bytes")));
        }
        Ok(inst)
    }
}

const CHECKPOINT_MAGIC: &[u8] = b"QRIN";
/// Largest predicate arity [`Instance::from_bytes`] accepts.
const MAX_ARITY: u32 = 1 << 16;
const CHECKPOINT_VERSION: u64 = 1;

impl PartialEq for Instance {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.subset_of(other)
    }
}

impl Eq for Instance {}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, fact) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{fact}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Fact> for Instance {
    fn from_iter<I: IntoIterator<Item = Fact>>(iter: I) -> Self {
        Instance::from_facts(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Symbol;

    fn c(name: &str) -> TermId {
        TermId::constant(Symbol::intern(name))
    }

    fn e(a: &str, b: &str) -> Fact {
        Fact::new(Pred::new("e", 2), vec![c(a), c(b)])
    }

    #[test]
    fn insert_dedups_and_indexes() {
        let mut inst = Instance::new();
        assert_eq!(inst.insert(e("a", "b")), Some(0));
        assert_eq!(inst.insert(e("a", "b")), None);
        assert_eq!(inst.insert(e("b", "c")), Some(1));
        assert_eq!(inst.index_of(&e("a", "b")), Some(0));
        assert_eq!(inst.index_of(&e("b", "c")), Some(1));
        assert_eq!(inst.index_of(&e("c", "a")), None);
        assert_eq!(inst.domain_len(), 3);
        assert_eq!(inst.len(), 2);
        assert_eq!(inst.with_pred(Pred::new("e", 2)).len(), 2);
        assert_eq!(
            inst.with_pred_pos_term(Pred::new("e", 2), 0, c("b")),
            &[1u32]
        );
        assert_eq!(inst.domain(), &[c("a"), c("b"), c("c")]);
    }

    #[test]
    fn set_equality_ignores_order() {
        let i1 = Instance::from_facts([e("a", "b"), e("b", "c")]);
        let i2 = Instance::from_facts([e("b", "c"), e("a", "b")]);
        assert_eq!(i1, i2);
        let i3 = Instance::from_facts([e("a", "b")]);
        assert_ne!(i1, i3);
        assert!(i3.subset_of(&i1));
        assert!(!i1.subset_of(&i3));
    }

    #[test]
    fn induced_and_banned_substructures() {
        let inst = Instance::from_facts([e("a", "b"), e("b", "c"), e("c", "a")]);
        let banned: HashSet<_> = [c("c")].into_iter().collect();
        let m = inst.without_terms(&banned);
        assert_eq!(m, Instance::from_facts([e("a", "b")]));
        let kept: HashSet<_> = [c("a"), c("b")].into_iter().collect();
        assert_eq!(inst.induced(&kept), Instance::from_facts([e("a", "b")]));
    }

    #[test]
    fn split_by_partitions_in_order_and_merges_back() {
        let inst = Instance::from_facts([e("a", "b"), e("c", "d"), e("b", "a"), e("x", "y")]);
        let parts = inst.split_by(&[0, 1, 0, 2], 3);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], Instance::from_facts([e("a", "b"), e("b", "a")]));
        // Insertion order inside a part follows the original stream.
        assert_eq!(parts[0].fact(0), e("a", "b"));
        assert_eq!(parts[0].fact(1), e("b", "a"));
        assert_eq!(parts[1], Instance::from_facts([e("c", "d")]));
        assert_eq!(parts[2], Instance::from_facts([e("x", "y")]));
        let mut merged = Instance::new();
        for p in &parts {
            merged.union_in_place(p);
        }
        assert_eq!(merged, inst);
    }

    #[test]
    fn union_and_without_fact() {
        let i1 = Instance::from_facts([e("a", "b")]);
        let i2 = Instance::from_facts([e("b", "c")]);
        let u = i1.union(&i2);
        assert_eq!(u.len(), 2);
        assert_eq!(u.without_fact(&e("a", "b")), i2);
    }

    #[test]
    fn fact_refs_compare_and_render_like_facts() {
        let inst = Instance::from_facts([e("a", "b")]);
        let fr = inst.fact(0);
        let owned = e("a", "b");
        assert!(fr == owned);
        assert!(owned == fr);
        assert!(fr != e("b", "a"));
        assert_eq!(format!("{fr}"), format!("{owned}"));
        assert_eq!(fr.to_fact(), owned);
        assert!(fr.is_original());
        assert_eq!(fr.term_depth(), 0);
    }

    #[test]
    fn snapshot_truncated_equals_fresh_prefix() {
        let mut inst = Instance::from_facts([e("a", "b"), e("b", "c")]);
        let snap = inst.snapshot();
        assert_eq!(snap.facts(), 2);
        assert_eq!(snap.terms(), 3); // a, b, c
        inst.extend([e("c", "a"), e("c", "c")]);
        assert_eq!(&inst.domain()[..snap.terms()], &[c("a"), c("b"), c("c")]);
        let trunc = inst.truncated(&snap);
        let fresh = Instance::from_facts([e("a", "b"), e("b", "c")]);
        assert_eq!(trunc.len(), 2);
        assert_eq!(trunc.domain(), fresh.domain());
        assert_eq!(trunc.stats(), fresh.stats());
        assert_eq!(trunc, fresh);
        // The truncated copy is fully functional: inserts resume with
        // dense indices and correct indexing.
        let mut t = trunc;
        assert_eq!(t.insert(e("c", "a")), Some(2));
        assert_eq!(t.with_pred_pos_term(Pred::new("e", 2), 0, c("c")), &[2u32]);
        // The original is untouched.
        assert_eq!(inst.len(), 4);
    }

    #[test]
    fn restore_drops_late_predicates() {
        let mut inst = Instance::from_facts([e("a", "b")]);
        let snap = inst.snapshot();
        inst.insert(Fact::new(Pred::new("p", 1), vec![c("z")]));
        inst.restore(&snap);
        assert_eq!(inst.len(), 1);
        assert_eq!(inst.preds().count(), 1);
        assert!(!inst.contains_term(c("z")));
        // peak_facts survives an in-place restore.
        assert_eq!(inst.stats().peak_facts, 2);
        // The freed predicate can be re-registered cleanly.
        assert_eq!(
            inst.insert(Fact::new(Pred::new("p", 1), vec![c("z")])),
            Some(1)
        );
        assert_eq!(inst.with_pred(Pred::new("p", 1)), &[1u32]);
    }

    #[test]
    fn stats_beat_legacy_layout() {
        let mut inst = Instance::new();
        for i in 0..50 {
            inst.insert(e(&format!("v{i}"), &format!("v{}", (i + 1) % 50)));
        }
        let s = inst.stats();
        assert_eq!(s.facts, 50);
        assert_eq!(s.postings, 100);
        assert!(s.bytes_total() < inst.legacy_layout_bytes());
    }

    #[test]
    fn checkpoint_roundtrip_is_bit_identical() {
        let f = SkolemFn::intern(Symbol::intern("sk_inst_test"), 1);
        let sk = TermId::skolem(f, &[c("a")]);
        let sksk = TermId::skolem(f, &[sk]);
        let mut inst = Instance::from_facts([e("a", "b")]);
        inst.insert(Fact::new(Pred::new("r", 2), vec![c("a"), sksk]));
        let bytes = inst.to_bytes();
        let back = Instance::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), inst.len());
        let orig: Vec<Fact> = inst.iter().map(|f| f.to_fact()).collect();
        let dec: Vec<Fact> = back.iter().map(|f| f.to_fact()).collect();
        assert_eq!(orig, dec);
        assert_eq!(back.domain(), inst.domain());
        assert_eq!(back.stats(), inst.stats());
        assert_eq!(
            back.with_pred_pos_term(Pred::new("r", 2), 1, sksk),
            inst.with_pred_pos_term(Pred::new("r", 2), 1, sksk)
        );
    }

    #[test]
    fn checkpoint_decode_rejects_garbage() {
        assert_eq!(
            Instance::from_bytes(b"nope"),
            Err(DecodeError::at(0, DecodeErrorKind::BadMagic))
        );
        assert_eq!(
            Instance::from_bytes(b"QRI"),
            Err(DecodeError::at(0, DecodeErrorKind::UnexpectedEof))
        );
        let mut bytes = Instance::from_facts([e("a", "b")]).to_bytes();
        let end = bytes.len();
        bytes.push(0);
        assert_eq!(
            Instance::from_bytes(&bytes),
            Err(DecodeError::at(
                end,
                DecodeErrorKind::Malformed("trailing bytes")
            ))
        );
        // Bump the version byte (right after the 4-byte magic).
        let mut vbytes = Instance::new().to_bytes();
        vbytes[4] = 9;
        assert_eq!(
            Instance::from_bytes(&vbytes),
            Err(DecodeError::at(4, DecodeErrorKind::UnsupportedVersion(9)))
        );
    }
}

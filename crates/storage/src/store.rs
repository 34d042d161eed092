//! The columnar fact store.
//!
//! A fact is a `(PredId, TupleId)` pair. Argument tuples are interned in a
//! [`TupleArena`]: one flat element vector plus an end-offset vector, so a
//! fact costs two `u32`s in the fact log instead of a heap-allocated
//! `Box<[T]>`. Per-predicate tables keep a dense row list plus one postings
//! map per argument position (the "stripes"), giving the same
//! `(pred, pos, term)` join index the old layout kept in a single global
//! hash map — but with `u32` postings and without per-key `Pred` copies.

use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

/// Identifier of a registered predicate (dense, registration-ordered).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredId(u32);

impl PredId {
    /// The dense index of this predicate (registration order).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of an interned argument tuple (dense, first-intern-ordered).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TupleId(u32);

impl TupleId {
    /// The dense index of this tuple in the arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Logical memory footprint of a [`FactStore`], in bytes.
///
/// Sizes are *logical*: element counts times fixed reference sizes (4-byte
/// ids, and documented per-entry constants for hash-map entries on a 64-bit
/// layout). They deliberately ignore allocator slack and hash-table load
/// factors so the numbers are bit-identical across platforms and thread
/// counts — CI gates on them via `bench_diff`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Number of facts currently stored.
    pub facts: usize,
    /// High-water mark of `facts` since creation (see [`FactStore::restore`]).
    pub peak_facts: usize,
    /// Number of distinct interned argument tuples.
    pub tuples: usize,
    /// Total postings entries (one per fact argument position).
    pub postings: usize,
    /// Number of distinct `(pred, pos, term)` index keys.
    pub index_keys: usize,
    /// Bytes of the fact log: 8 per fact (`u32` pred + `u32` tuple).
    pub bytes_facts: usize,
    /// Bytes of the join indexes: per-pred rows, stripe postings and keys,
    /// and the dedup map.
    pub bytes_index: usize,
    /// Bytes of the tuple arena: flat elements, end offsets, intern table.
    pub bytes_tuples: usize,
}

impl StorageStats {
    /// Total measured fact-store bytes (`bytes_facts + bytes_index +
    /// bytes_tuples`).
    pub fn bytes_total(&self) -> usize {
        self.bytes_facts + self.bytes_index + self.bytes_tuples
    }
}

/// An O(1) prefix marker of a [`FactStore`], valid for restoring with
/// [`FactStore::restore`] as long as no *earlier* state was restored in
/// between. Snapshots only record the four append-only lengths, so taking
/// one costs four word copies regardless of store size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Snapshot {
    facts: usize,
    domain: usize,
    tuples: usize,
    preds: usize,
}

impl Snapshot {
    /// Number of facts at snapshot time.
    pub fn facts(&self) -> usize {
        self.facts
    }

    /// Number of registered predicates at snapshot time.
    pub fn preds(&self) -> usize {
        self.preds
    }

    /// Number of domain elements at snapshot time.
    pub fn domain(&self) -> usize {
        self.domain
    }
}

/// FNV-1a over the element stream of a tuple; deterministic (no per-process
/// seeding) so intern buckets — and therefore every byte counter — replay
/// across runs.
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn tuple_hash<T: Hash>(args: &[T]) -> u64 {
    let mut h = Fnv64::new();
    for a in args {
        a.hash(&mut h);
    }
    h.finish()
}

/// Dictionary-interning arena for argument tuples.
///
/// Tuple `i` occupies `data[end(i-1)..end(i)]`; ids are dense and assigned
/// in first-intern order, so truncating to a prefix count undoes interning
/// exactly.
#[derive(Clone, Debug)]
struct TupleArena<T> {
    data: Vec<T>,
    ends: Vec<u32>,
    /// FNV hash → candidate tuple ids. Only ever probed point-wise, never
    /// iterated, so `HashMap` order can't leak into results.
    buckets: HashMap<u64, Vec<u32>>,
}

impl<T> Default for TupleArena<T> {
    fn default() -> TupleArena<T> {
        TupleArena {
            data: Vec::new(),
            ends: Vec::new(),
            buckets: HashMap::new(),
        }
    }
}

impl<T: Copy + Eq + Hash> TupleArena<T> {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn get(&self, id: TupleId) -> &[T] {
        let i = id.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.data[start..self.ends[i] as usize]
    }

    /// Finds an existing tuple without interning (used by read-only
    /// membership probes, which must take `&self`).
    fn find(&self, args: &[T]) -> Option<TupleId> {
        let ids = self.buckets.get(&tuple_hash(args))?;
        ids.iter()
            .copied()
            .find(|&id| self.get(TupleId(id)) == args)
            .map(TupleId)
    }

    /// Interns a tuple, returning its id (existing or freshly assigned).
    fn intern(&mut self, args: &[T]) -> TupleId {
        let hash = tuple_hash(args);
        if let Some(ids) = self.buckets.get(&hash) {
            for &id in ids {
                if self.get(TupleId(id)) == args {
                    return TupleId(id);
                }
            }
        }
        let id = self.ends.len() as u32;
        assert!(id < u32::MAX, "tuple arena overflow");
        self.data.extend_from_slice(args);
        self.ends.push(self.data.len() as u32);
        self.buckets.entry(hash).or_default().push(id);
        TupleId(id)
    }

    /// Drops every tuple with id `>= keep`, undoing their interning.
    fn truncate(&mut self, keep: usize) {
        for id in (keep..self.ends.len()).rev() {
            let hash = tuple_hash(self.get(TupleId(id as u32)));
            let bucket = self
                .buckets
                .get_mut(&hash)
                .expect("interned tuple missing from bucket");
            let popped = bucket.pop();
            debug_assert_eq!(popped, Some(id as u32), "tuple ids pop in order");
            if bucket.is_empty() {
                self.buckets.remove(&hash);
            }
        }
        let data_len = if keep == 0 {
            0
        } else {
            self.ends[keep - 1] as usize
        };
        self.ends.truncate(keep);
        self.data.truncate(data_len);
    }
}

/// Per-predicate column table: dense row list plus one postings map per
/// argument position.
#[derive(Clone, Debug)]
struct PredTable<T> {
    arity: u32,
    /// Indices of all facts with this predicate, in insertion order.
    rows: Vec<u32>,
    /// `stripes[pos][term]` = indices of facts whose argument at `pos` is
    /// `term`, in insertion order.
    stripes: Vec<HashMap<T, Vec<u32>>>,
}

/// Columnar fact store, generic over the element type `T` (term ids in
/// practice; tests use plain integers).
///
/// Invariants relied on by callers:
///
/// * fact indices are dense and insertion-ordered; duplicates are rejected
///   without any state change,
/// * the domain (first-occurrence order of elements) grows append-only,
/// * all query methods take `&self` and never mutate (safe to share across
///   worker threads),
/// * no method ever iterates a hash map, so results are deterministic.
#[derive(Clone, Debug)]
pub struct FactStore<T> {
    /// Column: predicate id of fact `i`.
    fact_pred: Vec<u32>,
    /// Column: tuple id of fact `i`.
    fact_tuple: Vec<u32>,
    tuples: TupleArena<T>,
    preds: Vec<PredTable<T>>,
    /// `(pred << 32 | tuple)` → fact index, for O(1) duplicate detection.
    dedup: HashMap<u64, u32>,
    domain: Vec<T>,
    domain_set: HashSet<T>,
    postings: usize,
    index_keys: usize,
    peak_facts: usize,
}

impl<T> Default for FactStore<T> {
    fn default() -> FactStore<T> {
        FactStore {
            fact_pred: Vec::new(),
            fact_tuple: Vec::new(),
            tuples: TupleArena::default(),
            preds: Vec::new(),
            dedup: HashMap::new(),
            domain: Vec::new(),
            domain_set: HashSet::new(),
            postings: 0,
            index_keys: 0,
            peak_facts: 0,
        }
    }
}

fn dedup_key(pred: PredId, tuple: TupleId) -> u64 {
    ((pred.0 as u64) << 32) | tuple.0 as u64
}

/// The number of leading ids in `0..len` that satisfy `keep`, for a `keep`
/// that holds on a prefix and fails after it. Scans back from the end, so
/// it costs one probe per id past the cut, plus one.
fn cut_from_end(len: usize, keep: impl Fn(usize) -> bool) -> usize {
    (0..len).rev().find(|&i| keep(i)).map_or(0, |i| i + 1)
}

impl<T: Copy + Eq + Hash> FactStore<T> {
    /// The empty store.
    pub fn new() -> FactStore<T> {
        FactStore::default()
    }

    /// Registers a new predicate of the given arity, returning its dense
    /// id. Ids are assigned in registration order.
    pub fn register_pred(&mut self, arity: u32) -> PredId {
        let id = self.preds.len();
        assert!(id < u32::MAX as usize, "predicate table overflow");
        self.preds.push(PredTable {
            arity,
            rows: Vec::new(),
            stripes: (0..arity).map(|_| HashMap::new()).collect(),
        });
        PredId(id as u32)
    }

    /// Number of registered predicates.
    pub fn pred_count(&self) -> usize {
        self.preds.len()
    }

    /// The id of the `index`-th registered predicate (ids are dense and
    /// registration-ordered).
    pub fn pred_id(&self, index: usize) -> PredId {
        assert!(index < self.preds.len(), "predicate index out of range");
        PredId(index as u32)
    }

    /// Arity of a registered predicate.
    pub fn arity(&self, pred: PredId) -> u32 {
        self.preds[pred.index()].arity
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.fact_pred.len()
    }

    /// `true` iff the store has no facts.
    pub fn is_empty(&self) -> bool {
        self.fact_pred.is_empty()
    }

    /// Inserts a fact; returns `Some(idx)` with the assigned dense index
    /// if it was not already present, `None` for duplicates (no state
    /// change beyond tuple interning, which is idempotent for duplicates).
    pub fn insert(&mut self, pred: PredId, args: &[T]) -> Option<u32> {
        debug_assert_eq!(args.len(), self.preds[pred.index()].arity as usize);
        let tuple = self.tuples.intern(args);
        let key = dedup_key(pred, tuple);
        if self.dedup.contains_key(&key) {
            return None;
        }
        let idx = self.fact_pred.len();
        assert!(idx < u32::MAX as usize, "fact store overflow");
        let idx = idx as u32;
        for &t in args {
            if self.domain_set.insert(t) {
                self.domain.push(t);
            }
        }
        let table = &mut self.preds[pred.index()];
        table.rows.push(idx);
        let mut new_keys = 0;
        for (pos, &t) in args.iter().enumerate() {
            table.stripes[pos]
                .entry(t)
                .or_insert_with(|| {
                    new_keys += 1;
                    Vec::new()
                })
                .push(idx);
        }
        self.index_keys += new_keys;
        self.postings += args.len();
        self.dedup.insert(key, idx);
        self.fact_pred.push(pred.0);
        self.fact_tuple.push(tuple.0);
        self.peak_facts = self.peak_facts.max(self.fact_pred.len());
        Some(idx)
    }

    /// The index of the fact `pred(args)`, if present (read-only probe).
    pub fn lookup(&self, pred: PredId, args: &[T]) -> Option<u32> {
        let tuple = self.tuples.find(args)?;
        self.dedup.get(&dedup_key(pred, tuple)).copied()
    }

    /// Predicate id of the fact at `idx`.
    pub fn pred_of(&self, idx: usize) -> PredId {
        PredId(self.fact_pred[idx])
    }

    /// Argument tuple of the fact at `idx`.
    pub fn args(&self, idx: usize) -> &[T] {
        self.tuples.get(TupleId(self.fact_tuple[idx]))
    }

    /// Interned tuple id of the fact at `idx`.
    pub fn tuple_of(&self, idx: usize) -> TupleId {
        TupleId(self.fact_tuple[idx])
    }

    /// Indices of all facts with the given predicate, in insertion order.
    pub fn with_pred(&self, pred: PredId) -> &[u32] {
        &self.preds[pred.index()].rows
    }

    /// Indices of all facts with `pred` whose argument at `pos` is `term`,
    /// in insertion order.
    pub fn with_pred_pos_term(&self, pred: PredId, pos: u32, term: T) -> &[u32] {
        self.preds[pred.index()].stripes[pos as usize]
            .get(&term)
            .map_or(&[], Vec::as_slice)
    }

    /// The active domain (first-occurrence order of elements).
    pub fn domain(&self) -> &[T] {
        &self.domain
    }

    /// `true` iff `t` occurs in some fact.
    pub fn contains_element(&self, t: T) -> bool {
        self.domain_set.contains(&t)
    }

    /// Logical memory footprint; see [`StorageStats`] for the accounting
    /// model. Per-entry constants (64-bit layout): intern-table entry 12
    /// (`u64` hash key amortized plus `u32` id), dedup entry 12 (`u64`
    /// key plus `u32` index), stripe key `size_of::<T>() + 16` (key plus
    /// list header).
    pub fn stats(&self) -> StorageStats {
        let e = std::mem::size_of::<T>();
        let facts = self.len();
        StorageStats {
            facts,
            peak_facts: self.peak_facts,
            tuples: self.tuples.len(),
            postings: self.postings,
            index_keys: self.index_keys,
            bytes_facts: facts * 8,
            bytes_index: facts * 4          // per-pred rows entries
                + self.postings * 4         // stripe postings entries
                + self.index_keys * (e + 16) // stripe keys + list headers
                + facts * 12, // dedup entries
            bytes_tuples: self.tuples.data.len() * e
                + self.tuples.ends.len() * 4
                + self.tuples.len() * 12, // intern-table entries
        }
    }

    /// Takes an O(1) snapshot of the current (append-only) lengths.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            facts: self.len(),
            domain: self.domain.len(),
            tuples: self.tuples.len(),
            preds: self.preds.len(),
        }
    }

    /// The snapshot [`FactStore::snapshot`] returned when the store held
    /// its first `n` facts, worked out from the current state. A domain
    /// element, tuple or predicate belongs to that prefix iff its first
    /// fact does: its first posting, its first `dedup` entry, its first
    /// row. Each is monotone in id order, so the cut is found by scanning
    /// back from the end: one probe per id past the cut, plus one, each
    /// costing a lookup per stripe (element), per predicate (tuple) or
    /// O(1) (predicate). Like [`FactStore::restore`], that is O(facts
    /// dropped) for a fixed signature.
    ///
    /// Exact when every predicate is registered just before its first
    /// fact, as `qr-syntax`'s `Instance` does. A predicate with no fact
    /// below `n` is dropped only if every later one is too, so the result
    /// is always a valid [`FactStore::restore`] target.
    pub fn snapshot_at(&self, n: usize) -> Snapshot {
        assert!(n <= self.len(), "snapshot_at past the end of the store");
        let below = |first: Option<&u32>| first.is_some_and(|&i| (i as usize) < n);
        let domain = cut_from_end(self.domain.len(), |d| {
            let t = self.domain[d];
            self.preds.iter().any(|p| {
                p.stripes
                    .iter()
                    .any(|s| below(s.get(&t).and_then(|l| l.first())))
            })
        });
        let tuples = cut_from_end(self.tuples.len(), |id| {
            (0..self.preds.len() as u32)
                .any(|p| below(self.dedup.get(&dedup_key(PredId(p), TupleId(id as u32)))))
        });
        let preds = cut_from_end(self.preds.len(), |p| below(self.preds[p].rows.first()));
        Snapshot {
            facts: n,
            domain,
            tuples,
            preds,
        }
    }

    /// Restores the store to a snapshot state by popping the suffix
    /// inserted since, in reverse insertion order: postings tails, rows,
    /// dedup entries, then tuples, domain elements, and late-registered
    /// predicates. The high-water mark `peak_facts` is *kept* (use
    /// [`FactStore::truncated`] for a fresh-looking prefix copy).
    ///
    /// Cost is O(facts dropped), independent of the facts kept.
    pub fn restore(&mut self, snap: &Snapshot) {
        assert!(
            snap.facts <= self.len()
                && snap.domain <= self.domain.len()
                && snap.tuples <= self.tuples.len()
                && snap.preds <= self.preds.len(),
            "snapshot is not a prefix of the current store"
        );
        for idx in (snap.facts..self.len()).rev() {
            let pred = self.fact_pred[idx] as usize;
            let tuple = TupleId(self.fact_tuple[idx]);
            let args = self.tuples.get(tuple);
            let table = &mut self.preds[pred];
            for (pos, &t) in args.iter().enumerate() {
                let stripe = &mut table.stripes[pos];
                let list = stripe.get_mut(&t).expect("indexed term missing");
                let popped = list.pop();
                debug_assert_eq!(popped, Some(idx as u32), "postings pop in order");
                if list.is_empty() {
                    stripe.remove(&t);
                    self.index_keys -= 1;
                }
            }
            let row = table.rows.pop();
            debug_assert_eq!(row, Some(idx as u32), "rows pop in order");
            self.postings -= args.len();
            self.dedup.remove(&dedup_key(PredId(pred as u32), tuple));
        }
        self.fact_pred.truncate(snap.facts);
        self.fact_tuple.truncate(snap.facts);
        self.tuples.truncate(snap.tuples);
        for &t in &self.domain[snap.domain..] {
            self.domain_set.remove(&t);
        }
        self.domain.truncate(snap.domain);
        debug_assert!(
            self.preds[snap.preds..].iter().all(|p| p.rows.is_empty()),
            "late-registered predicates must have no surviving facts"
        );
        self.preds.truncate(snap.preds);
    }

    /// A copy of the store restored to `snap`, with the high-water mark
    /// reset — indistinguishable from a store freshly built from the
    /// prefix insertion sequence.
    pub fn truncated(&self, snap: &Snapshot) -> FactStore<T> {
        let mut out = self.clone();
        out.restore(snap);
        out.peak_facts = out.len();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store2() -> (FactStore<u32>, PredId, PredId) {
        let mut s = FactStore::new();
        let e = s.register_pred(2);
        let p = s.register_pred(1);
        (s, e, p)
    }

    #[test]
    fn insert_dedups_and_indexes() {
        let (mut s, e, p) = store2();
        assert_eq!(s.insert(e, &[10, 20]), Some(0));
        assert_eq!(s.insert(e, &[10, 20]), None);
        assert_eq!(s.insert(e, &[20, 30]), Some(1));
        assert_eq!(s.insert(p, &[10]), Some(2));
        assert_eq!(s.len(), 3);
        assert_eq!(s.lookup(e, &[10, 20]), Some(0));
        assert_eq!(s.lookup(e, &[30, 10]), None);
        assert!(s.lookup(p, &[20, 30]).is_none());
        assert_eq!(s.with_pred(e), &[0, 1]);
        assert_eq!(s.with_pred(p), &[2]);
        assert_eq!(s.with_pred_pos_term(e, 0, 20), &[1]);
        assert_eq!(s.with_pred_pos_term(e, 1, 20), &[0]);
        assert_eq!(s.with_pred_pos_term(e, 0, 99), &[] as &[u32]);
        assert_eq!(s.domain(), &[10, 20, 30]);
        assert_eq!(s.args(0), &[10, 20]);
        assert_eq!(s.pred_of(2), p);
    }

    #[test]
    fn tuples_are_shared_across_preds() {
        let (mut s, e, _) = store2();
        let q = s.register_pred(2);
        s.insert(e, &[1, 2]);
        s.insert(q, &[1, 2]);
        assert_eq!(s.tuple_of(0), s.tuple_of(1));
        assert_eq!(s.stats().tuples, 1);
        assert_eq!(s.stats().facts, 2);
    }

    #[test]
    fn stats_count_logical_bytes() {
        let (mut s, e, _) = store2();
        s.insert(e, &[1, 2]);
        s.insert(e, &[2, 3]);
        let st = s.stats();
        assert_eq!(st.facts, 2);
        assert_eq!(st.peak_facts, 2);
        assert_eq!(st.tuples, 2);
        assert_eq!(st.postings, 4);
        assert_eq!(st.index_keys, 4);
        assert_eq!(st.bytes_facts, 16);
        // rows 8 + postings 16 + keys 4*20 + dedup 24
        assert_eq!(st.bytes_index, 8 + 16 + 80 + 24);
        // data 16 + ends 8 + intern 24
        assert_eq!(st.bytes_tuples, 16 + 8 + 24);
        assert_eq!(
            st.bytes_total(),
            st.bytes_facts + st.bytes_index + st.bytes_tuples
        );
    }

    /// Restoring to a snapshot and replaying the same suffix must
    /// reproduce every observable: indices, postings, domain, stats.
    #[test]
    fn snapshot_restore_replays_suffix() {
        let (mut s, e, p) = store2();
        s.insert(e, &[1, 2]);
        let snap = s.snapshot();
        let before = s.clone();
        s.insert(e, &[2, 3]);
        s.insert(p, &[3]);
        let q = s.register_pred(1);
        s.insert(q, &[1]);
        let grown = s.clone();
        s.restore(&snap);
        assert_eq!(s.len(), before.len());
        assert_eq!(s.domain(), before.domain());
        assert_eq!(s.pred_count(), before.pred_count());
        assert_eq!(s.with_pred(e), before.with_pred(e));
        assert_eq!(
            s.with_pred_pos_term(e, 1, 2),
            before.with_pred_pos_term(e, 1, 2)
        );
        assert_eq!(s.lookup(e, &[2, 3]), None);
        // peak is kept by in-place restore...
        assert_eq!(s.stats().peak_facts, 4);
        // ...and replaying the suffix reproduces the grown state exactly.
        s.insert(e, &[2, 3]);
        s.insert(p, &[3]);
        let q2 = s.register_pred(1);
        assert_eq!(q2, q);
        s.insert(q2, &[1]);
        assert_eq!(s.stats(), grown.stats());
        assert_eq!(s.with_pred(q2), grown.with_pred(q2));
        for i in 0..s.len() {
            assert_eq!(s.args(i), grown.args(i));
            assert_eq!(s.pred_of(i), grown.pred_of(i));
        }
    }

    /// `truncated` must be indistinguishable from a store freshly built
    /// from the prefix insertions, including `peak_facts`.
    #[test]
    fn truncated_equals_fresh_rebuild() {
        let (mut s, e, p) = store2();
        s.insert(e, &[1, 2]);
        s.insert(p, &[2]);
        let snap = s.snapshot();
        s.insert(e, &[2, 1]);
        s.insert(e, &[1, 1]);
        let trunc = s.truncated(&snap);

        let (mut fresh, fe, fp) = store2();
        fresh.insert(fe, &[1, 2]);
        fresh.insert(fp, &[2]);
        assert_eq!(trunc.stats(), fresh.stats());
        assert_eq!(trunc.domain(), fresh.domain());
        assert_eq!(trunc.with_pred(e), fresh.with_pred(fe));
        // The original is untouched.
        assert_eq!(s.len(), 4);
        // Empty-prefix restore works too.
        let empty = s.truncated(&FactStore::<u32>::new().snapshot());
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.pred_count(), 0);
        assert_eq!(empty.stats(), FactStore::<u32>::new().stats());
    }

    #[test]
    fn restore_uninterns_tuples() {
        let (mut s, e, _) = store2();
        s.insert(e, &[1, 2]);
        let snap = s.snapshot();
        s.insert(e, &[3, 4]);
        s.restore(&snap);
        assert_eq!(s.stats().tuples, 1);
        // Re-inserting re-interns at the same id.
        s.insert(e, &[3, 4]);
        assert_eq!(s.tuple_of(1).index(), 1);
    }

    /// `snapshot_at(n)` equals the `snapshot()` taken when the store held
    /// `n` facts, for every `n`: shared tuples, repeated elements, and a
    /// predicate (`q`) whose only facts sit in the suffix.
    #[test]
    fn snapshot_at_equals_snapshot_taken_then() {
        let mut s: FactStore<u32> = FactStore::new();
        let mut taken = vec![s.snapshot()];
        // Each predicate is registered just before its first fact.
        let e = s.register_pred(2);
        let mut step = |s: &mut FactStore<u32>, pred, args: &[u32]| {
            s.insert(pred, args);
            taken.push(s.snapshot());
        };
        step(&mut s, e, &[1, 2]);
        step(&mut s, e, &[2, 3]);
        let p = s.register_pred(1);
        step(&mut s, p, &[2]);
        step(&mut s, e, &[1, 1]);
        let q = s.register_pred(2);
        step(&mut s, q, &[1, 2]);
        step(&mut s, e, &[4, 1]);
        step(&mut s, q, &[5, 5]);
        step(&mut s, p, &[4]);
        for (n, snap) in taken.iter().enumerate() {
            assert_eq!(s.snapshot_at(n), *snap, "n = {n}");
        }
        // Restoring to a derived cut matches a store that stopped there.
        let mut popped = s.clone();
        popped.restore(&s.snapshot_at(4));
        assert_eq!(popped.pred_count(), 2);
        assert_eq!(popped.domain(), &[1, 2, 3]);
        assert_eq!(popped.stats().tuples, 4);
        assert_eq!(popped.lookup(e, &[4, 1]), None);
    }

    #[test]
    #[should_panic(expected = "not a prefix")]
    fn restore_rejects_non_prefix() {
        let (mut s, e, _) = store2();
        s.insert(e, &[1, 2]);
        let snap = s.snapshot();
        s.restore(&FactStore::<u32>::new().snapshot());
        s.restore(&snap);
    }
}

//! Columnar, tuple-interned fact storage (S20).
//!
//! This crate sits *below* `qr-syntax`: it knows nothing about terms,
//! predicates or parsing. It stores facts as `(PredId, tuple)` pairs where
//! the argument tuple is interned once in a flat arena and referenced by a
//! `u32` id, replacing the one-`Box<[TermId]>`-per-fact layout that
//! dominated memory on the exponential chases of the paper (E1 reaches 37k
//! facts at `n = 3`; Theorem 5B predicts `2^n` growth).
//!
//! What [`FactStore`] provides:
//!
//! * dense, insertion-ordered fact indices (the chase's contiguous
//!   delta-range contract),
//! * per-predicate row lists and arity-striped `(pos, term)` postings
//!   lists for join scans,
//! * O(1) duplicate detection,
//! * byte-level memory accounting ([`StorageStats`]) with *logical* sizes
//!   that are identical on every platform and `QR_THREADS` setting,
//! * O(1) prefix [`Snapshot`]s with suffix-popping [`FactStore::restore`],
//!   exploiting the append-only insertion order, and
//!   [`FactStore::snapshot_at`], which recovers the snapshot of any past
//!   prefix so a retract can pop back to its oldest fact,
//! * a varint byte codec ([`codec`]) used by `qr-syntax` for the versioned
//!   chase checkpoint format.
//!
//! Everything is `std`-only and deterministic: no randomized iteration
//! order ever escapes (hash maps are only used for point lookups). Those
//! maps are keyed by ids, so they hash with the unseeded word hasher
//! [`FxHasher`], which the crate also exports ([`FxMap`], [`FxSet`]) for
//! other id-keyed maps, together with the collision-tolerant
//! [`HashIndex`] that interns the store's tuples and `qr-syntax`'s Skolem
//! terms.

pub mod codec;
mod fx;
mod hash_index;
mod store;

pub use codec::{ByteReader, ByteWriter, DecodeError, DecodeErrorKind};
pub use fx::{FxHasher, FxMap, FxSet};
pub use hash_index::HashIndex;
pub use store::{tuple_hash, FactStore, PredId, Snapshot, StorageStats, TupleHash, TupleId};

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
//! order ever escapes (hash maps are only used for point lookups).

pub mod codec;
mod store;

pub use codec::{ByteReader, ByteWriter, DecodeError, DecodeErrorKind};
pub use store::{FactStore, PredId, Snapshot, StorageStats, TupleId};

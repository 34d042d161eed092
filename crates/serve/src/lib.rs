//! A long-lived, transport-independent query-answering engine.
//!
//! The paper's deployment story (Theorem 1): rewrite a CQ against a theory
//! **once**, and answering reduces to plain UCQ evaluation over the base
//! instance — no chase at query time. This crate turns that into a service
//! loop: an [`Engine`] holds registered theories with their shared
//! instances, accepts a stream of [`CqRequest`]s, and answers each through
//! a **rewriting cache** keyed by the homomorphism kernel's structural
//! freeze key ([`qr_hom::CanonicalKey`]). Isomorphic user queries — same
//! shape up to variable renaming, answer positions fixed — share one key,
//! so they hit one cached UCQ; the cached UCQ executes as compiled
//! [`qr_hom::JoinPlan`]s over the `qr-storage`-backed instance.
//!
//! Everything user-observable is deterministic: the engine serves one
//! request at a time on the calling thread, in submission order, so every
//! cache decision is a function of the request stream, and each response
//! renders to a stable trace line, so whole request/response streams pin
//! byte-identically in replay files — see [`replay`].
//!
//! Cache pressure is handled by an LRU policy over freeze keys with a
//! logical byte budget (fixed per-element sizes, `StorageStats`-style, so
//! the accounting itself is deterministic). Evicted rewritings are simply
//! recomputed on the next miss; soundness never depends on residency.
//!
//! Base instances are **writable**: a [`FactWrite`] request inserts or
//! retracts base facts for one tenant, applied in submission order, so
//! later queries in the stream see the post-write instance. Rewritings are
//! pure functions of (theory, query) — never of the data — so they survive
//! writes: a write changes the tenant instance and nothing else, and a
//! later cache hit runs its compiled plans on the post-write instance.
//!
//! [`EngineConfig::threads`] selects nothing; the crate never reads the
//! `QR_THREADS` environment variable.

pub mod cache;
pub mod engine;
pub mod replay;
pub mod stats;

pub use cache::CacheEntry;
pub use engine::{
    CqRequest, Engine, EngineConfig, FactWrite, Request, Response, ResponseStatus, Tier,
};
pub use qr_chase::WriteBatch;
pub use replay::{parse_replay, render_replay, render_trace, ReplayError, ReplayErrorKind};
pub use stats::{ServeCounters, ServeStats};

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
//! Everything user-observable is deterministic: responses are delivered in
//! submission order at any worker-pool width (cold rewrites overlap hot
//! cache-hit answering via [`qr_exec::Executor::pipeline_ordered`], but all
//! cache decisions happen at the merge point in submission order), and each
//! response renders to a stable trace line, so whole request/response
//! streams pin byte-identically in replay files — see [`replay`].
//!
//! Cache pressure is handled by an LRU policy over freeze keys with a
//! logical byte budget (fixed per-element sizes, `StorageStats`-style, so
//! the accounting itself is deterministic). Evicted rewritings are simply
//! recomputed on the next miss; soundness never depends on residency.
//!
//! Base instances are **writable**: a [`FactWrite`] request inserts or
//! retracts base facts for one tenant, applied at the same ordered merge
//! point as every cache decision, so later queries in the stream see the
//! post-write instance regardless of worker-pool width. Rewritings are
//! pure functions of (theory, query) — never of the data — so they survive
//! writes: a write changes the tenant instance and nothing else, and a
//! later cache hit runs its compiled plans on the post-write instance.
//!
//! The worker-pool width comes exclusively from [`EngineConfig::threads`]
//! (plumbed into [`qr_exec::Executor::with_threads`]); the crate never
//! reads the `QR_THREADS` environment variable.

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

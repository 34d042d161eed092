//! Homomorphism machinery: conjunctive-query evaluation over instances,
//! query containment, query cores, and structure homomorphisms.
//!
//! Everything in the paper reduces to homomorphism search (Observation 2 and
//! Theorem 1 rely on it; the chase needs body matches; containment and cores
//! need query-to-query homomorphisms). This crate implements a backtracking
//! matcher driven by the per-(predicate, position, term) indexes of
//! [`qr_syntax::Instance`].

pub mod containment;
pub mod kernel;
pub mod matcher;
pub mod qcore;
pub mod structure;

pub use containment::{contains, equivalent};
pub use kernel::{canonical_key, CanonicalKey, HomKernel, HomStats, QueryEntry};
pub use matcher::{
    all_answers, all_homs, exists_match, exists_match_excluding, find_hom, holds, holds_ucq,
    Assignment, JoinPlan, MatchCounters,
};
pub use qcore::query_core;
pub use structure::{instance_hom, structure_core};

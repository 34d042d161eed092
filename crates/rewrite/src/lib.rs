//! UCQ rewriting for existential rules — the procedure behind the paper's
//! Theorem 1 ("a theory is BDD iff every CQ has a finite, minimal UCQ
//! rewriting").
//!
//! One *rewriting step* resolves a subset of query atoms (a "piece") against
//! the head of a rule through a most-general *piece unifier* ([`unify`]),
//! replacing the piece with the rule body. Saturating a query under all
//! rewriting steps, modulo containment-based subsumption, yields the set
//! `rew(ψ)` of Theorem 1 whenever the process terminates — which it does
//! exactly for the queries/theories the paper calls BDD. The engine
//! therefore runs under an explicit [`RewriteBudget`] and reports
//! [`RewriteOutcome::Complete`] (a genuine finite rewriting — a *witness*
//! of BDD behaviour for this query) or [`RewriteOutcome::Budget`]
//! (divergence evidence).
//!
//! Rules with empty or `dom`-scoped bodies (the paper's `true ⇒ …` rules)
//! are not supported here — the paper itself introduces the *marked-query
//! process* (Sections 10–11, implemented in `qr-core`) to rewrite against
//! such theories.

pub mod cert;
pub mod engine;
pub mod stats;
mod trie;
pub mod unify;

pub use cert::{CertBuilder, RewriteCert, RewriteCertBundle, RewriteStep};
pub use engine::{
    rewrite, rewrite_certified, rewrite_with_mode, rewrite_with_trace, RewriteBudget, RewriteError,
    RewriteOutcome, Rewriting, SaturationMode,
};
pub use stats::{RewriteStats, WindowStats};
pub use unify::{
    apply_piece_unifier, piece_rewritings, piece_rewritings_indexed, query_pred_mask, PieceUnifier,
    RuleIndex, TheoryIndex, UnifyCounters,
};

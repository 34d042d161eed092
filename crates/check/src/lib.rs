//! `qr-check`: an independent, linear-time checker for the certificates
//! the engines emit — the untrusted-prover / trusted-verifier split.
//!
//! The rewriting engine and the chase both *search*: piece unifiers,
//! cores, containments, join plans. Their certificates record the
//! witnesses that search found, and this crate replays them with zero
//! search:
//!
//! * [`check_rewrite`] re-derives every accepted disjunct from the input
//!   query φ by applying each recorded piece unifier
//!   ([`qr_rewrite::apply_piece_unifier`] — pure union-find over the
//!   recorded atom pairs) and validating the recorded core maps one hash
//!   probe per atom.
//! * [`check_chase`] re-derives every chased fact from strictly earlier
//!   facts by re-unifying recorded triggers and re-applying the
//!   Skolemized head ([`qr_chase::SkolemizedRule::apply_with_frontier`]).
//!
//! Neither touches a `HomKernel`, so no drift-gated counter moves.
//! Failures are structured and located ([`CheckError`]); the versioned
//! byte formats ([`codec`]) let bundles travel like `QRIN` checkpoints.
//! [`CheckReport`] aggregates a replay session for the harness's
//! `--check` mode.

pub mod chase;
pub mod codec;
pub mod error;
pub mod rewrite;

pub use chase::check_chase;
pub use codec::{
    decode_chase_certs, decode_rewrite_certs, encode_chase_certs, encode_rewrite_certs, QRCC_MAGIC,
    QRRC_MAGIC,
};
pub use error::{CheckError, CheckErrorKind};
pub use rewrite::check_rewrite;

use std::fmt;

/// One recorded failure of a replay session: which workload, and either
/// a located decode error or a located certificate rejection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckFailure {
    /// Workload label the failure occurred in.
    pub label: String,
    /// The located error, rendered (`"certificate 7: ..."` or
    /// `"bad magic at byte 0"`).
    pub error: String,
}

impl fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.label, self.error)
    }
}

/// Aggregate of one certification session (the harness's `--check`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Rewriting certificates replayed successfully.
    pub rewrite_certs: usize,
    /// Chase certificates replayed successfully.
    pub chase_certs: usize,
    /// Total encoded size of every bundle replayed, in bytes.
    pub cert_bytes: usize,
    /// Every rejection, with its workload and location. Empty on a
    /// fully certified session.
    pub failures: Vec<CheckFailure>,
}

impl CheckReport {
    /// An empty report.
    pub fn new() -> CheckReport {
        CheckReport::default()
    }

    /// Total certificates replayed successfully.
    pub fn certs(&self) -> usize {
        self.rewrite_certs + self.chase_certs
    }

    /// `true` iff every certificate of the session replayed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Records a failure under `label`.
    pub fn fail(&mut self, label: &str, error: impl fmt::Display) {
        self.failures.push(CheckFailure {
            label: label.to_owned(),
            error: error.to_string(),
        });
    }
}

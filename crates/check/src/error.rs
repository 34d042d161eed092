//! Located, structured check failures.
//!
//! Every rejection names the certificate it happened in and what was
//! wrong there — mirroring how [`qr_storage::DecodeError`] locates codec
//! failures by byte offset. The checker never panics on malformed input:
//! every way a certificate can lie maps to a [`CheckErrorKind`].

use std::fmt;

/// What a certificate got wrong.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckErrorKind {
    /// A rewrite bundle with no certificates at all (no seed node).
    EmptyBundle,
    /// Node 0 must be the seed and carries no step.
    SeedHasStep,
    /// A non-seed node without a recorded step.
    MissingStep,
    /// A step whose parent is not an earlier node — the chain must be
    /// well-founded (ground out at the seed).
    ParentNotEarlier { parent: u32 },
    /// A rule index outside the theory.
    RuleOutOfRange { rule: u32, rules: usize },
    /// The recorded piece unifier does not replay: the `(query atom,
    /// head atom)` pairs are out of range, out of order, predicate-
    /// mismatched, or inadmissible.
    UnifierRejected,
    /// An answer-arity mismatch between map source and target.
    AnswerArity { expected: usize, got: usize },
    /// A variable map of the wrong length for its source query.
    MapLength { expected: usize, got: usize },
    /// A variable map that does not send answer position `position` to
    /// the target's answer variable at that position.
    AnswerMismatch { position: usize },
    /// The image of source atom `atom` under the map is not an atom of
    /// the target query.
    AtomImageMissing { atom: usize },
    /// The bundle's final-disjunct list disagrees with the UCQ's length.
    FinalCount { expected: usize, got: usize },
    /// A final-disjunct entry referencing a node that does not exist.
    FinalOutOfRange { node: u32 },
    /// UCQ disjunct `cert` is not literally the referenced node's query.
    FinalMismatch,
    /// The chase bundle's base does not fit the instance.
    BaseMismatch { base: u32, facts: usize },
    /// The chase bundle does not cover exactly the derived facts.
    CertCount { expected: usize, got: usize },
    /// A chase certificate out of fact order (`certs[k].fact` must be
    /// `base + k`).
    FactIndexMismatch { expected: u32, got: u32 },
    /// Wrong number of trigger facts for the rule's regular body atoms.
    TriggerCount { expected: usize, got: usize },
    /// A trigger fact index not strictly below the derived fact —
    /// well-foundedness is by fact-index ordering.
    TriggerNotEarlier { slot: usize, index: u32 },
    /// Trigger slot `slot` does not unify with its body atom (predicate
    /// mismatch, constant clash, or inconsistent variable binding).
    TriggerClash { slot: usize },
    /// Wrong number of `dom` witnesses for the rule's `dom` body atoms.
    DomCount { expected: usize, got: usize },
    /// A `dom` witness fact index not strictly below the derived fact.
    DomWitnessNotEarlier { slot: usize, index: u32 },
    /// A `dom` witness position outside its witness fact.
    DomWitnessOutOfRange { slot: usize },
    /// The witnessed term clashes with the `dom` atom's argument.
    DomMismatch { slot: usize },
    /// A head variable left unbound after trigger and `dom` resolution —
    /// the certificate cannot instantiate the rule head.
    UnboundVariable { var: u32 },
    /// Replaying the rule head does not produce the certified fact.
    FactNotInHead,
}

impl fmt::Display for CheckErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use CheckErrorKind::*;
        match self {
            EmptyBundle => write!(f, "bundle has no certificates"),
            SeedHasStep => write!(f, "seed node records a rewrite step"),
            MissingStep => write!(f, "non-seed node records no rewrite step"),
            ParentNotEarlier { parent } => write!(f, "parent node {parent} is not earlier"),
            RuleOutOfRange { rule, rules } => {
                write!(f, "rule {rule} out of range (theory has {rules})")
            }
            UnifierRejected => write!(f, "recorded piece unifier does not replay"),
            AnswerArity { expected, got } => {
                write!(f, "answer arity mismatch (expected {expected}, got {got})")
            }
            MapLength { expected, got } => {
                write!(
                    f,
                    "variable map length {got} (source has {expected} variables)"
                )
            }
            AnswerMismatch { position } => {
                write!(f, "answer position {position} is not mapped positionally")
            }
            AtomImageMissing { atom } => {
                write!(f, "image of atom {atom} is missing from the target query")
            }
            FinalCount { expected, got } => {
                write!(f, "final-disjunct count {got} (UCQ has {expected})")
            }
            FinalOutOfRange { node } => write!(f, "final disjunct references missing node {node}"),
            FinalMismatch => write!(f, "UCQ disjunct differs from its certified query"),
            BaseMismatch { base, facts } => {
                write!(f, "base {base} exceeds the instance's {facts} facts")
            }
            CertCount { expected, got } => {
                write!(f, "{got} certificates for {expected} derived facts")
            }
            FactIndexMismatch { expected, got } => {
                write!(
                    f,
                    "certificate for fact {got} where fact {expected} was expected"
                )
            }
            TriggerCount { expected, got } => {
                write!(f, "{got} trigger facts for {expected} regular body atoms")
            }
            TriggerNotEarlier { slot, index } => {
                write!(
                    f,
                    "trigger slot {slot} references fact {index}, not earlier"
                )
            }
            TriggerClash { slot } => write!(f, "trigger slot {slot} does not unify"),
            DomCount { expected, got } => {
                write!(f, "{got} dom witnesses for {expected} dom body atoms")
            }
            DomWitnessNotEarlier { slot, index } => {
                write!(f, "dom witness {slot} references fact {index}, not earlier")
            }
            DomWitnessOutOfRange { slot } => {
                write!(f, "dom witness {slot} positions outside its fact")
            }
            DomMismatch { slot } => write!(f, "dom witness {slot} clashes with its atom"),
            UnboundVariable { var } => write!(f, "head variable {var} left unbound"),
            FactNotInHead => write!(f, "replayed head does not contain the certified fact"),
        }
    }
}

/// A rejected certificate: which one, and why.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckError {
    /// Location: the node index (rewrite bundles) or certificate
    /// position (chase bundles) the failure was detected in. Final-
    /// disjunct failures use the disjunct position.
    pub cert: usize,
    /// What went wrong there.
    pub kind: CheckErrorKind,
}

impl CheckError {
    /// An error of `kind` at certificate `cert`.
    pub fn at(cert: usize, kind: CheckErrorKind) -> CheckError {
        CheckError { cert, kind }
    }
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "certificate {}: {}", self.cert, self.kind)
    }
}

impl std::error::Error for CheckError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_locates_the_certificate() {
        let e = CheckError::at(7, CheckErrorKind::UnifierRejected);
        assert_eq!(
            e.to_string(),
            "certificate 7: recorded piece unifier does not replay"
        );
        let e = CheckError::at(0, CheckErrorKind::TriggerClash { slot: 2 });
        assert_eq!(
            e.to_string(),
            "certificate 0: trigger slot 2 does not unify"
        );
    }
}

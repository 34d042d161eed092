//! Linear replay of rewriting certificates.
//!
//! The engine *searched* for piece unifiers, cores, and containments;
//! this checker only *verifies* what was recorded. Per certificate the
//! work is: one [`qr_rewrite::apply_piece_unifier`] application (pure
//! union-find over the recorded pairs — no enumeration), then one hash
//! lookup per atom to validate the two recorded variable maps. Nothing
//! here touches a `HomKernel`, so drift-gated counters never move.

use std::collections::HashSet;

use qr_rewrite::{apply_piece_unifier, RewriteCertBundle};
use qr_syntax::{ConjunctiveQuery, QAtom, QTerm, Theory, Ucq};

use crate::error::{CheckError, CheckErrorKind};

/// Applies a variable map to a query term.
fn map_term(h: &[QTerm], t: &QTerm) -> QTerm {
    match t {
        QTerm::Var(v) => h[v.index()],
        QTerm::Const(c) => QTerm::Const(*c),
    }
}

/// Verifies that `h` is an answer-preserving homomorphism `src → dst`:
/// right length, positional on answers, and every atom image present in
/// `dst`. One pass, one hash probe per atom.
fn verify_map(
    cert: usize,
    src: &ConjunctiveQuery,
    dst: &ConjunctiveQuery,
    h: &[QTerm],
) -> Result<(), CheckError> {
    if h.len() != src.var_names().len() {
        return Err(CheckError::at(
            cert,
            CheckErrorKind::MapLength {
                expected: src.var_names().len(),
                got: h.len(),
            },
        ));
    }
    if src.answer_vars().len() != dst.answer_vars().len() {
        return Err(CheckError::at(
            cert,
            CheckErrorKind::AnswerArity {
                expected: src.answer_vars().len(),
                got: dst.answer_vars().len(),
            },
        ));
    }
    for (position, (&sv, &dv)) in src.answer_vars().iter().zip(dst.answer_vars()).enumerate() {
        if h[sv.index()] != QTerm::Var(dv) {
            return Err(CheckError::at(
                cert,
                CheckErrorKind::AnswerMismatch { position },
            ));
        }
    }
    let targets: HashSet<&QAtom> = dst.atoms().iter().collect();
    for (atom, a) in src.atoms().iter().enumerate() {
        let image = QAtom::new(
            a.pred,
            a.args.iter().map(|t| map_term(h, t)).collect::<Vec<_>>(),
        );
        if !targets.contains(&image) {
            return Err(CheckError::at(
                cert,
                CheckErrorKind::AtomImageMissing { atom },
            ));
        }
    }
    Ok(())
}

/// Replays a rewriting certificate bundle against the theory, the input
/// query `phi`, and the UCQ the engine returned. On success every
/// accepted disjunct has been re-derived from `phi` by the recorded
/// piece unifiers and every final disjunct matched literally; the number
/// of certificates replayed is returned.
///
/// Linear in the bundle: no search, no kernel, no containment checks.
pub fn check_rewrite(
    theory: &Theory,
    phi: &ConjunctiveQuery,
    ucq: &Ucq,
    bundle: &RewriteCertBundle,
) -> Result<usize, CheckError> {
    if bundle.certs.is_empty() {
        return Err(CheckError::at(0, CheckErrorKind::EmptyBundle));
    }

    for (i, cert) in bundle.certs.iter().enumerate() {
        // Re-derive the raw rewriting this node claims to core-minimize:
        // the seed's raw form is φ itself, every other node replays its
        // recorded step against its (already verified) parent.
        let raw: ConjunctiveQuery = match (&cert.step, i) {
            (None, 0) => phi.clone(),
            (Some(_), 0) => return Err(CheckError::at(0, CheckErrorKind::SeedHasStep)),
            (None, _) => return Err(CheckError::at(i, CheckErrorKind::MissingStep)),
            (Some(step), _) => {
                if step.parent as usize >= i {
                    return Err(CheckError::at(
                        i,
                        CheckErrorKind::ParentNotEarlier {
                            parent: step.parent,
                        },
                    ));
                }
                if step.rule as usize >= theory.rules().len() {
                    return Err(CheckError::at(
                        i,
                        CheckErrorKind::RuleOutOfRange {
                            rule: step.rule,
                            rules: theory.rules().len(),
                        },
                    ));
                }
                let parent = &bundle.certs[step.parent as usize].query;
                let rule = &theory.rules()[step.rule as usize];
                let pairs: Vec<(usize, usize)> = step
                    .unified
                    .iter()
                    .map(|&(a, h)| (a as usize, h as usize))
                    .collect();
                match apply_piece_unifier(parent, rule, &pairs) {
                    Some(q) => q,
                    None => return Err(CheckError::at(i, CheckErrorKind::UnifierRejected)),
                }
            }
        };
        verify_map(i, &raw, &cert.query, &cert.to_query)?;
        verify_map(i, &cert.query, &raw, &cert.from_query)?;
    }

    if bundle.final_disjuncts.len() != ucq.len() {
        return Err(CheckError::at(
            0,
            CheckErrorKind::FinalCount {
                expected: ucq.len(),
                got: bundle.final_disjuncts.len(),
            },
        ));
    }
    for (k, &node) in bundle.final_disjuncts.iter().enumerate() {
        if node as usize >= bundle.certs.len() {
            return Err(CheckError::at(k, CheckErrorKind::FinalOutOfRange { node }));
        }
        if ucq.disjuncts()[k] != bundle.certs[node as usize].query {
            return Err(CheckError::at(k, CheckErrorKind::FinalMismatch));
        }
    }

    Ok(bundle.certs.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_rewrite::{rewrite_certified, RewriteBudget};
    use qr_syntax::{parse_query, parse_theory};

    fn certified(t: &str, q: &str) -> (Theory, ConjunctiveQuery, Ucq, RewriteCertBundle) {
        let theory = parse_theory(t).unwrap();
        let query = parse_query(q).unwrap();
        let (r, bundle) = rewrite_certified(&theory, &query, RewriteBudget::default()).unwrap();
        (theory, query, r.ucq, bundle)
    }

    #[test]
    fn replays_a_real_run_end_to_end() {
        let (theory, phi, ucq, bundle) = certified(
            "human(Y) -> mother(Y,Z).\nmother(X,Y) -> human(Y).",
            "?(X) :- mother(X, M).",
        );
        let n = check_rewrite(&theory, &phi, &ucq, &bundle).unwrap();
        assert_eq!(n, bundle.certs.len());
        assert!(n >= ucq.len());
    }

    #[test]
    fn rejects_a_wrong_rule_id_with_location() {
        let (theory, phi, ucq, mut bundle) = certified(
            "human(Y) -> mother(Y,Z).\nmother(X,Y) -> human(Y).",
            "?(X) :- mother(X, M).",
        );
        let step = bundle.certs[1].step.as_mut().unwrap();
        step.rule = 99;
        let e = check_rewrite(&theory, &phi, &ucq, &bundle).unwrap_err();
        assert_eq!(e.cert, 1);
        assert_eq!(
            e.kind,
            CheckErrorKind::RuleOutOfRange { rule: 99, rules: 2 }
        );
    }

    #[test]
    fn rejects_a_permuted_map() {
        let (theory, phi, ucq, mut bundle) = certified(
            "human(Y) -> mother(Y,Z).\nmother(X,Y) -> human(Y).",
            "?(X) :- mother(X, M).",
        );
        // Swap two entries of a to_query map; either the answer check or
        // an atom image must now fail, locating the mutated node.
        let victim = bundle
            .certs
            .iter()
            .position(|c| c.to_query.len() >= 2)
            .expect("some node has two variables");
        bundle.certs[victim].to_query.swap(0, 1);
        let e = check_rewrite(&theory, &phi, &ucq, &bundle).unwrap_err();
        assert_eq!(e.cert, victim);
    }
}

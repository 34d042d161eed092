//! Linear replay of chase certificates.
//!
//! The chase engine *searched* for triggers with join plans and posting
//! lists; this checker only *verifies* recorded triggers. Per derived
//! fact the work is: unify each regular body atom with its recorded
//! trigger fact (one pass over the atom's arguments), resolve each `dom`
//! atom through its recorded occurrence witness, re-apply the Skolemized
//! head via [`qr_chase::SkolemizedRule::apply_with_frontier`], and
//! compare the certified fact literally. Well-foundedness is enforced by
//! fact-index ordering: every reference points strictly below the fact
//! being certified, so a bundle that replays proves containment of the
//! derived facts in `Ch_∞(T, base)`.

use std::collections::HashMap;

use qr_chase::{ChaseCertBundle, SkolemizedRule};
use qr_syntax::{Instance, QTerm, TermId, Theory, Var};

use crate::error::{CheckError, CheckErrorKind};

/// Replays a chase certificate bundle against the theory and the chased
/// instance. On success, every fact beyond the bundle's base has been
/// re-derived from strictly earlier facts by the recorded rule
/// applications; the number of certificates replayed is returned.
pub fn check_chase(
    theory: &Theory,
    inst: &Instance,
    bundle: &ChaseCertBundle,
) -> Result<usize, CheckError> {
    let base = bundle.base as usize;
    if base > inst.len() {
        return Err(CheckError::at(
            0,
            CheckErrorKind::BaseMismatch {
                base: bundle.base,
                facts: inst.len(),
            },
        ));
    }
    if base + bundle.certs.len() != inst.len() {
        return Err(CheckError::at(
            0,
            CheckErrorKind::CertCount {
                expected: inst.len() - base,
                got: bundle.certs.len(),
            },
        ));
    }

    // Per-rule split of the body into regular / `dom` atom positions
    // (body order), plus the Skolemization — computed once.
    let rules: Vec<(Vec<usize>, Vec<usize>, SkolemizedRule)> = theory
        .rules()
        .iter()
        .map(|rule| {
            let mut regular = Vec::new();
            let mut dom = Vec::new();
            for (i, a) in rule.body().iter().enumerate() {
                if a.pred.is_dom() {
                    dom.push(i);
                } else {
                    regular.push(i);
                }
            }
            (regular, dom, SkolemizedRule::new(rule))
        })
        .collect();

    for (k, cert) in bundle.certs.iter().enumerate() {
        let expected = (base + k) as u32;
        if cert.fact != expected {
            return Err(CheckError::at(
                k,
                CheckErrorKind::FactIndexMismatch {
                    expected,
                    got: cert.fact,
                },
            ));
        }
        if cert.rule as usize >= theory.rules().len() {
            return Err(CheckError::at(
                k,
                CheckErrorKind::RuleOutOfRange {
                    rule: cert.rule,
                    rules: theory.rules().len(),
                },
            ));
        }
        let rule = &theory.rules()[cert.rule as usize];
        let (regular, dom, sk) = &rules[cert.rule as usize];

        if cert.trigger.len() != regular.len() {
            return Err(CheckError::at(
                k,
                CheckErrorKind::TriggerCount {
                    expected: regular.len(),
                    got: cert.trigger.len(),
                },
            ));
        }
        let mut bound: HashMap<Var, TermId> = HashMap::new();
        for (slot, (&t, &bi)) in cert.trigger.iter().zip(regular).enumerate() {
            if t >= cert.fact {
                return Err(CheckError::at(
                    k,
                    CheckErrorKind::TriggerNotEarlier { slot, index: t },
                ));
            }
            let fact = inst.fact(t as usize);
            let atom = &rule.body()[bi];
            if fact.pred != atom.pred {
                return Err(CheckError::at(k, CheckErrorKind::TriggerClash { slot }));
            }
            for (pos, qt) in atom.args.iter().enumerate() {
                let ft = fact.args[pos];
                let ok = match qt {
                    QTerm::Const(c) => TermId::constant(*c) == ft,
                    QTerm::Var(v) => *bound.entry(*v).or_insert(ft) == ft,
                };
                if !ok {
                    return Err(CheckError::at(k, CheckErrorKind::TriggerClash { slot }));
                }
            }
        }

        if cert.dom.len() != dom.len() {
            return Err(CheckError::at(
                k,
                CheckErrorKind::DomCount {
                    expected: dom.len(),
                    got: cert.dom.len(),
                },
            ));
        }
        for (slot, (&(wf, wp), &bi)) in cert.dom.iter().zip(dom).enumerate() {
            if wf >= cert.fact {
                return Err(CheckError::at(
                    k,
                    CheckErrorKind::DomWitnessNotEarlier { slot, index: wf },
                ));
            }
            let fact = inst.fact(wf as usize);
            if wp as usize >= fact.args.len() {
                return Err(CheckError::at(
                    k,
                    CheckErrorKind::DomWitnessOutOfRange { slot },
                ));
            }
            let t = fact.args[wp as usize];
            let ok = match rule.body()[bi].args[0] {
                QTerm::Const(c) => TermId::constant(c) == t,
                QTerm::Var(v) => *bound.entry(v).or_insert(t) == t,
            };
            if !ok {
                return Err(CheckError::at(k, CheckErrorKind::DomMismatch { slot }));
            }
        }

        // Every head variable must now be resolvable: Skolemized
        // existentials are synthesized, the rest must be bound.
        for a in rule.head() {
            for v in a.vars() {
                if !sk.skolem_of.contains_key(&v) && !bound.contains_key(&v) {
                    return Err(CheckError::at(
                        k,
                        CheckErrorKind::UnboundVariable { var: v.0 },
                    ));
                }
            }
        }
        let mut frontier_args = Vec::with_capacity(sk.frontier.len());
        for v in &sk.frontier {
            match bound.get(v) {
                Some(t) => frontier_args.push(*t),
                None => {
                    return Err(CheckError::at(
                        k,
                        CheckErrorKind::UnboundVariable { var: v.0 },
                    ))
                }
            }
        }
        let produced = sk.apply_with_frontier(rule, &frontier_args, |v| bound[&v]);
        let derived = inst.fact(cert.fact as usize);
        if !produced
            .iter()
            .any(|f| f.pred == derived.pred && f.args[..] == *derived.args)
        {
            return Err(CheckError::at(k, CheckErrorKind::FactNotInHead));
        }
    }

    Ok(bundle.certs.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_chase::{chase, emit_chase_certs, ChaseBudget};
    use qr_syntax::{parse_instance, parse_theory};

    fn certified(t: &str, db: &str) -> (Theory, Instance, ChaseCertBundle) {
        let theory = parse_theory(t).unwrap();
        let d = parse_instance(db).unwrap();
        let c = chase(&theory, &d, ChaseBudget::default());
        let bundle = emit_chase_certs(&theory, &c);
        (theory, c.instance, bundle)
    }

    #[test]
    fn replays_transitive_closure() {
        let (t, inst, b) = certified("e(X,Y), e(Y,Z) -> e(X,Z).", "e(a,b). e(b,c). e(c,d).");
        let n = check_chase(&t, &inst, &b).unwrap();
        assert_eq!(n, inst.len() - 3);
        assert!(n >= 3, "TC of a 3-path derives at least 3 facts");
    }

    #[test]
    fn replays_existentials_and_dom_atoms() {
        let (t, inst, b) = certified("human(X) -> mother(X,Y).\ndom(X) -> p(X).", "human(abel).");
        assert_eq!(check_chase(&t, &inst, &b).unwrap(), b.len());
        assert!(!b.is_empty());
    }

    #[test]
    fn rejects_a_forward_trigger_with_location() {
        let (t, inst, mut b) = certified("e(X,Y), e(Y,Z) -> e(X,Z).", "e(a,b). e(b,c). e(c,d).");
        // Point a trigger at the certified fact itself: circular.
        let k = 0;
        b.certs[k].trigger[0] = b.certs[k].fact;
        let e = check_chase(&t, &inst, &b).unwrap_err();
        assert_eq!(e.cert, k);
        assert!(matches!(
            e.kind,
            CheckErrorKind::TriggerNotEarlier { slot: 0, .. }
        ));
    }

    #[test]
    fn rejects_base_and_count_mismatches() {
        let (t, inst, b) = certified("e(X,Y), e(Y,Z) -> e(X,Z).", "e(a,b). e(b,c).");
        let mut past_end = b.clone();
        past_end.base = inst.len() as u32 + 1;
        let e = check_chase(&t, &inst, &past_end).unwrap_err();
        assert!(matches!(e.kind, CheckErrorKind::BaseMismatch { .. }));
        let mut short = b;
        short.certs.clear();
        let e = check_chase(&t, &inst, &short).unwrap_err();
        assert!(matches!(
            e.kind,
            CheckErrorKind::CertCount {
                expected: 1,
                got: 0
            }
        ));
    }
}

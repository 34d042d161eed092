//! Chase certificates: replayable per-fact derivation witnesses.
//!
//! A chase run already records, per derived fact, its first derivation
//! ([`crate::engine::Derivations`]) — the rule and the exact trigger the
//! match trail produced. [`emit_chase_certs`] converts that provenance
//! into a [`ChaseCertBundle`] that an *independent* checker (`qr-check`)
//! can replay in linear time: re-unify each regular body atom with its
//! recorded trigger fact (zero search), resolve `dom` atoms through
//! recorded occurrence witnesses, re-apply the Skolemized head with
//! [`crate::skolem::SkolemizedRule::apply_with_frontier`], and compare
//! the produced fact literally.
//!
//! Well-foundedness is by fact-index ordering: every trigger index and
//! every `dom` witness index is strictly below the certified fact's
//! index, so a bundle that replays proves each derived fact is contained
//! in `Ch_∞(T, base)` — no trust in the engine's search is needed.
//! Emission is post-hoc (a sweep over [`crate::engine::Chase`]): the
//! chase loop itself is untouched, so certified and uncertified runs are
//! byte-identical in facts, rounds, and every drift-gated counter.

use std::collections::HashMap;

use qr_syntax::{Instance, QTerm, TermId, Theory, Var};

use crate::engine::Chase;
use crate::skolem::SkolemizedRule;

/// The replay witness of one derived fact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaseCert {
    /// Index of the certified fact in the chase instance. Always ≥ the
    /// bundle's `base`; certs are emitted in ascending fact order.
    pub fact: u32,
    /// Index of the fired rule in the theory.
    pub rule: u32,
    /// One trigger fact index per **regular** (non-`dom`) body atom, in
    /// body-atom order; each strictly less than `fact`.
    pub trigger: Vec<u32>,
    /// One `(witness fact, argument position)` per **`dom`** body atom,
    /// in body-atom order: an occurrence of the atom's term in a fact
    /// strictly below `fact`, witnessing domain membership.
    pub dom: Vec<(u32, u32)>,
}

/// Certificates for every derived fact of one chase run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaseCertBundle {
    /// Number of input facts (fact indices `0..base` are the database and
    /// need no certificate).
    pub base: u32,
    /// One certificate per derived fact, in ascending fact order:
    /// `certs[i].fact == base + i`.
    pub certs: Vec<ChaseCert>,
}

impl ChaseCertBundle {
    /// Number of certificates (= derived facts covered).
    pub fn len(&self) -> usize {
        self.certs.len()
    }

    /// `true` iff the run derived nothing beyond the input.
    pub fn is_empty(&self) -> bool {
        self.certs.is_empty()
    }
}

/// A `(fact index, argument position)` pointer into the fact stream.
type Occurrence = (u32, u32);

/// First occurrence `(fact, position)` of every term in the instance, in
/// fact-stream order, plus the globally first occurrence of *any* term.
/// One linear sweep; the basis for all `dom` witnesses.
fn first_occurrences(inst: &Instance) -> (HashMap<TermId, Occurrence>, Option<Occurrence>) {
    let mut first: HashMap<TermId, Occurrence> = HashMap::new();
    let mut any: Option<Occurrence> = None;
    for (i, f) in inst.iter().enumerate() {
        for (pos, &t) in f.args.iter().enumerate() {
            if any.is_none() {
                any = Some((i as u32, pos as u32));
            }
            first.entry(t).or_insert((i as u32, pos as u32));
        }
    }
    (first, any)
}

/// Emits the certificate bundle of a finished chase run.
///
/// Every derived fact's recorded first derivation becomes a
/// [`ChaseCert`]; `dom`-atom witnesses are resolved to first occurrences
/// (necessarily below the certified fact, since the term was in the
/// domain before the rule fired). Panics only on a malformed `Chase`
/// (missing provenance for a derived fact) — never on well-formed runs,
/// including budget-truncated ones.
pub fn emit_chase_certs(theory: &Theory, chase: &Chase) -> ChaseCertBundle {
    let inst = &chase.instance;
    let (first, first_any) = first_occurrences(inst);
    let skolemized: Vec<SkolemizedRule> = theory.rules().iter().map(SkolemizedRule::new).collect();

    let base = chase.derivations.iter().take_while(|d| d.is_none()).count();
    debug_assert!(
        chase.derivations.iter().skip(base).all(|d| d.is_some()),
        "input facts form a prefix of the fact stream"
    );

    let mut certs = Vec::with_capacity(inst.len() - base);
    for (i, d) in chase.derivations.iter().enumerate().skip(base) {
        let d = d.expect("derived facts carry their first derivation");
        let rule = &theory.rules()[d.rule];
        let sk = &skolemized[d.rule];

        // Bindings reachable without search: trigger facts bind every
        // regular-atom variable; the recorded frontier binds the
        // remaining (dom-only) frontier variables.
        let mut bound: HashMap<Var, TermId> = HashMap::new();
        let mut reg = 0;
        for atom in rule.body() {
            if atom.pred.is_dom() {
                continue;
            }
            let f = inst.fact(d.trigger[reg]);
            reg += 1;
            for (pos, t) in atom.args.iter().enumerate() {
                if let QTerm::Var(v) = t {
                    bound.insert(*v, f.args[pos]);
                }
            }
        }
        for (v, t) in sk.frontier.iter().zip(d.frontier) {
            bound.insert(*v, *t);
        }

        let dom = rule
            .body()
            .iter()
            .filter(|a| a.pred.is_dom())
            .map(|a| {
                let occ = match a.args[0] {
                    QTerm::Const(c) => first.get(&TermId::constant(c)).copied(),
                    QTerm::Var(v) => match bound.get(&v) {
                        Some(t) => first.get(t).copied(),
                        // A dom-only variable outside the frontier: any
                        // domain term satisfies it, so witness the first.
                        None => first_any,
                    },
                };
                occ.expect("dom atoms only fire on terms occurring in the instance")
            })
            .collect();

        certs.push(ChaseCert {
            fact: i as u32,
            rule: d.rule as u32,
            trigger: d.trigger.iter().map(|&t| t as u32).collect(),
            dom,
        });
    }

    ChaseCertBundle {
        base: base as u32,
        certs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{chase, ChaseBudget};
    use qr_syntax::{parse_instance, parse_theory};

    fn run(theory: &str, db: &str) -> (Theory, Chase) {
        let t = parse_theory(theory).unwrap();
        let d = parse_instance(db).unwrap();
        let c = chase(&t, &d, ChaseBudget::default());
        (t, c)
    }

    #[test]
    fn covers_every_derived_fact_in_order() {
        let (t, c) = run("e(X,Y), e(Y,Z) -> e(X,Z).", "e(a,b). e(b,c). e(c,d).");
        let b = emit_chase_certs(&t, &c);
        assert_eq!(b.base, 3);
        assert_eq!(b.len() + 3, c.instance.len());
        for (k, cert) in b.certs.iter().enumerate() {
            assert_eq!(cert.fact as usize, 3 + k);
            for &tr in &cert.trigger {
                assert!(tr < cert.fact, "triggers precede the fact");
            }
        }
    }

    #[test]
    fn dom_atoms_get_occurrence_witnesses() {
        // Frontier variable X is bound only by the dom atom.
        let (t, c) = run("dom(X) -> p(X).", "e(a,b).");
        let b = emit_chase_certs(&t, &c);
        assert!(!b.is_empty());
        for cert in &b.certs {
            assert_eq!(cert.trigger.len(), 0);
            assert_eq!(cert.dom.len(), 1);
            let (wf, wp) = cert.dom[0];
            assert!(wf < cert.fact);
            let witness = c.instance.fact(wf as usize).args[wp as usize];
            // The witnessed term is the derived fact's argument.
            assert_eq!(c.instance.fact(cert.fact as usize).args[0], witness);
        }
    }

    #[test]
    fn existential_heads_replay_through_skolem_application() {
        let (t, c) = run("human(X) -> mother(X,Y).", "human(abel).");
        let b = emit_chase_certs(&t, &c);
        assert_eq!(b.len(), 1);
        let cert = &b.certs[0];
        // Replaying the skolemized head on the recorded frontier rebuilds
        // the derived fact literally — the checker's core step.
        let rule = &t.rules()[cert.rule as usize];
        let sk = SkolemizedRule::new(rule);
        let d = c.derivations.get(cert.fact as usize).unwrap();
        let facts = sk.apply_with_frontier(rule, d.frontier, |v| {
            *sk.frontier
                .iter()
                .zip(d.frontier)
                .find(|(u, _)| **u == v)
                .map(|(_, t)| t)
                .unwrap()
        });
        let derived = c.instance.fact(cert.fact as usize);
        assert!(facts
            .iter()
            .any(|f| f.pred == derived.pred && f.args[..] == *derived.args));
    }
}

//! Rewriting certificates: replayable piece-unification derivations.
//!
//! A certified saturation run records, per accepted disjunct, a
//! [`RewriteCert`]: which queued query it was rewritten from (`parent`
//! node), which rule, and exactly which `(query atom, head atom)` pairs
//! the piece unifier unified — plus the two answer-preserving variable
//! maps between the raw rewriting and the accepted (core-minimized,
//! canonically renamed) disjunct. `qr-check` replays the chain back to
//! the input query φ in linear time: apply each recorded unifier with
//! [`crate::unify::apply_piece_unifier`] (zero search) and verify the
//! recorded maps atom-by-atom (zero search, no `HomKernel`).
//!
//! Emission is kept off the fast path: the engine only records when a
//! [`CertBuilder`] is supplied ([`crate::engine::rewrite_certified`]),
//! and the homomorphisms are found with the kernel-free
//! [`qr_hom::matcher::find_hom`], so certified and uncertified runs are
//! byte-identical in outputs and drift-gated counters.
//!
//! Certificates reference variables by index and constants by interned
//! [`qr_syntax::Symbol`]; replay is therefore *same-process* (the codec
//! in `qr-check` re-interns names, so encode → decode → replay works
//! within one process, which is what the harness's `--check` mode does).

use std::collections::HashMap;

use qr_hom::matcher::find_hom;
use qr_syntax::term::TermData;
use qr_syntax::{ConjunctiveQuery, QTerm, TermId, Var};

/// One recorded piece-rewriting step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RewriteStep {
    /// Node index (into [`RewriteCertBundle::certs`]) of the queued query
    /// this disjunct was generated from. Always less than the node's own
    /// index, so the chain grounds out at the seed (node 0).
    pub parent: u32,
    /// Rule index into the theory's rule list.
    pub rule: u32,
    /// The piece unifier: `(query atom index, head atom index)` pairs in
    /// ascending query-atom order, exactly as
    /// [`crate::unify::PieceUnifier::unified`] recorded them.
    pub unified: Vec<(u32, u32)>,
}

/// The certificate of one accepted disjunct.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RewriteCert {
    /// `None` for node 0 (the seed — the core of the input query φ);
    /// `Some` for every disjunct accepted from a piece rewriting.
    pub step: Option<RewriteStep>,
    /// The accepted disjunct, verbatim (the exact query the engine queued
    /// and kept — for surviving nodes, the exact UCQ disjunct).
    pub query: ConjunctiveQuery,
    /// Answer-preserving variable map from the *raw* rewriting (the
    /// replayed [`crate::unify::apply_piece_unifier`] result; for node 0,
    /// from φ) onto `query`: index `i` holds the image of raw variable
    /// `i`. Verifying it takes one hash lookup per atom.
    pub to_query: Vec<QTerm>,
    /// The converse map, from `query`'s variables onto the raw rewriting
    /// (for node 0, onto φ). Together the two maps witness
    /// answer-preserving hom-equivalence — acceptance only ever replaces
    /// a raw rewriting by its core.
    pub from_query: Vec<QTerm>,
}

/// Every certificate of one saturation run, in acceptance (trace) order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RewriteCertBundle {
    /// Node 0 is the seed; node `i`'s parent is always `< i`.
    pub certs: Vec<RewriteCert>,
    /// For each disjunct of the returned UCQ (in disjunct order), the
    /// node whose `query` is that disjunct, verbatim.
    pub final_disjuncts: Vec<u32>,
}

impl RewriteCertBundle {
    /// Total certificate count (one per accepted disjunct, plus the seed).
    pub fn len(&self) -> usize {
        self.certs.len()
    }

    /// `true` iff no certificates were recorded.
    pub fn is_empty(&self) -> bool {
        self.certs.is_empty()
    }
}

/// Accumulates certificates during a saturation run. Constructed by
/// [`crate::engine::rewrite_certified`]; the engine calls the recording
/// hooks at seed time and at every acceptance.
#[derive(Default)]
pub struct CertBuilder {
    certs: Vec<RewriteCert>,
    finals: Vec<u32>,
}

impl CertBuilder {
    /// An empty builder.
    pub fn new() -> CertBuilder {
        CertBuilder::default()
    }

    /// Records node 0: the seed disjunct and its hom-equivalence with the
    /// input query φ.
    pub(crate) fn record_seed(&mut self, phi: &ConjunctiveQuery, seed: &ConjunctiveQuery) -> u32 {
        debug_assert!(self.certs.is_empty(), "seed is node 0");
        self.push_cert(None, phi, seed)
    }

    /// Records one accepted disjunct: the step that generated its raw
    /// form and the raw ↔ accepted equivalence maps. Returns the node id.
    pub(crate) fn record_accept(
        &mut self,
        parent: u32,
        rule: u32,
        unified: &[(u32, u32)],
        raw: &ConjunctiveQuery,
        accepted: &ConjunctiveQuery,
    ) -> u32 {
        self.push_cert(
            Some(RewriteStep {
                parent,
                rule,
                unified: unified.to_vec(),
            }),
            raw,
            accepted,
        )
    }

    /// Records which nodes' queries survived as the final UCQ disjuncts.
    pub(crate) fn set_finals(&mut self, finals: Vec<u32>) {
        self.finals = finals;
    }

    /// Consumes the builder into the finished bundle.
    pub fn into_bundle(self) -> RewriteCertBundle {
        RewriteCertBundle {
            certs: self.certs,
            final_disjuncts: self.finals,
        }
    }

    fn push_cert(
        &mut self,
        step: Option<RewriteStep>,
        raw: &ConjunctiveQuery,
        accepted: &ConjunctiveQuery,
    ) -> u32 {
        let node = self.certs.len() as u32;
        self.certs.push(RewriteCert {
            step,
            query: accepted.clone(),
            to_query: hom_onto(raw, accepted),
            from_query: hom_onto(accepted, raw),
        });
        node
    }
}

/// Finds an answer-preserving homomorphism `src → dst` as a per-variable
/// map (index `i` = image of `src` variable `i`). Kernel-free: freezes
/// `dst` locally and runs the plain matcher, so no drift-gated counter
/// moves. Panics if none exists — the engine only pairs hom-equivalent
/// queries (a raw rewriting and its core).
fn hom_onto(src: &ConjunctiveQuery, dst: &ConjunctiveQuery) -> Vec<QTerm> {
    let (inst, var_map) = dst.freeze();
    let fixed: Vec<(Var, TermId)> = src
        .answer_vars()
        .iter()
        .zip(dst.answer_vars())
        .map(|(&sv, &dv)| (sv, var_map[&dv]))
        .collect();
    let asg = find_hom(src.atoms(), src.var_names().len(), &inst, &fixed)
        .expect("accepted disjuncts are hom-equivalent to their raw form");
    let inv: HashMap<TermId, Var> = var_map.iter().map(|(&v, &t)| (t, v)).collect();
    asg.into_iter()
        .map(|slot| {
            let t = slot.expect("canonical queries mention every variable");
            match inv.get(&t) {
                Some(&v) => QTerm::Var(v),
                None => match t.data() {
                    TermData::Const(c) => QTerm::Const(c),
                    TermData::Skolem(..) => unreachable!("frozen instances are skolem-free"),
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_syntax::{parse_query, QAtom};

    fn apply(h: &[QTerm], t: &QTerm) -> QTerm {
        match t {
            QTerm::Var(v) => h[v.index()],
            QTerm::Const(c) => QTerm::Const(*c),
        }
    }

    /// `h` maps every atom of `src` into an atom of `dst` and answers
    /// positionally — the exact check `qr-check` replays.
    fn is_hom(src: &ConjunctiveQuery, dst: &ConjunctiveQuery, h: &[QTerm]) {
        assert_eq!(h.len(), src.var_names().len());
        for (k, &v) in src.answer_vars().iter().enumerate() {
            assert_eq!(h[v.index()], QTerm::Var(dst.answer_vars()[k]));
        }
        for a in src.atoms() {
            let image = QAtom::new(
                a.pred,
                a.args.iter().map(|t| apply(h, t)).collect::<Vec<_>>(),
            );
            assert!(
                dst.atoms().contains(&image),
                "atom image {image:?} missing from target"
            );
        }
    }

    #[test]
    fn hom_onto_witnesses_equivalence_both_ways() {
        // A redundant 2-path and its core (one edge from A).
        let raw = parse_query("?(A) :- e(A,B), e(A,C).").unwrap();
        let core = parse_query("?(A) :- e(A,B).").unwrap();
        let to = hom_onto(&raw, &core);
        is_hom(&raw, &core, &to);
        let from = hom_onto(&core, &raw);
        is_hom(&core, &raw, &from);
    }

    #[test]
    fn hom_onto_maps_variables_to_constants() {
        let raw = parse_query("? :- e(a,B), e(a,C).").unwrap();
        let core = parse_query("? :- e(a,B).").unwrap();
        let to = hom_onto(&raw, &core);
        is_hom(&raw, &core, &to);
    }
}

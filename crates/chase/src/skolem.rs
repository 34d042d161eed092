//! Skolemization of rule heads (Definitions 3–4 of the paper).
//!
//! A Skolem function `f_i^τ` is determined by the *isomorphism type* `τ` of
//! the (head of the) rule and by the existential variable it witnesses — not
//! by the rule itself. Two rules with isomorphic heads therefore share
//! Skolem functions, and the paper's Observation 8 (literal equality of
//! chases) holds across theories that share head shapes.
//!
//! The isomorphism type is computed by canonicalizing the head: frontier
//! variables and existential variables are renumbered in first-occurrence
//! order over a deterministically sorted atom list, and the result is
//! rendered to a tag string. The canonicalization is exact for the
//! single-atom heads of the paper's Definition 3 and a sound (deterministic,
//! renaming-invariant in practice) generalization for multi-atom heads.

use std::collections::HashMap;

use qr_syntax::query::{QAtom, QTerm, Var};
use qr_syntax::{Fact, FactRef, SkolemFn, Symbol, TermId, Tgd};

/// A rule pre-processed for chasing: canonical frontier order and one Skolem
/// function per existential variable.
#[derive(Clone, Debug)]
pub struct SkolemizedRule {
    /// Frontier variables in the canonical order used as Skolem arguments.
    pub frontier: Vec<Var>,
    /// For each existential variable, its Skolem function.
    pub skolem_of: HashMap<Var, SkolemFn>,
}

impl SkolemizedRule {
    /// Pre-processes a rule.
    pub fn new(rule: &Tgd) -> SkolemizedRule {
        let frontier_set: Vec<Var> = rule.frontier();
        let existential: Vec<Var> = rule.existential_vars();

        // Canonicalize the head: sort atoms by a label-rendering, renumber
        // variables in first-occurrence order, repeat to stabilize.
        let mut labels: HashMap<Var, String> = HashMap::new();
        for v in &frontier_set {
            labels.insert(*v, "f".to_owned());
        }
        for v in &existential {
            labels.insert(*v, "e".to_owned());
        }
        let mut atoms: Vec<&QAtom> = rule.head().iter().collect();
        let mut frontier_order: Vec<Var> = Vec::new();
        let mut exist_order: Vec<Var> = Vec::new();
        for _ in 0..2 {
            atoms.sort_by_key(|a| render_atom(a, &labels));
            frontier_order.clear();
            exist_order.clear();
            for a in &atoms {
                for v in a.vars() {
                    if frontier_set.contains(&v) {
                        if !frontier_order.contains(&v) {
                            frontier_order.push(v);
                        }
                    } else if !exist_order.contains(&v) {
                        exist_order.push(v);
                    }
                }
            }
            for (i, v) in frontier_order.iter().enumerate() {
                labels.insert(*v, format!("f{i}"));
            }
            for (i, v) in exist_order.iter().enumerate() {
                labels.insert(*v, format!("e{i}"));
            }
        }
        atoms.sort_by_key(|a| render_atom(a, &labels));
        let tau: String = atoms
            .iter()
            .map(|a| render_atom(a, &labels))
            .collect::<Vec<_>>()
            .join(",");

        let arity = frontier_order.len() as u32;
        let skolem_of = exist_order
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let tag = Symbol::intern(&format!("sk!{i}[{tau}]"));
                (*v, SkolemFn::intern(tag, arity))
            })
            .collect();

        SkolemizedRule {
            frontier: frontier_order,
            skolem_of,
        }
    }

    /// Instantiates the head of `rule` under a complete body assignment,
    /// producing the facts of `appl(ρ,σ)` (Definition 5) plus the frontier
    /// image used by provenance.
    ///
    /// `lookup` maps each frontier variable to its ground term.
    pub fn apply(&self, rule: &Tgd, lookup: impl Fn(Var) -> TermId) -> (Vec<Fact>, Vec<TermId>) {
        let frontier_args: Vec<TermId> = self.frontier.iter().map(|v| lookup(*v)).collect();
        let facts = self.apply_with_frontier(rule, &frontier_args, lookup);
        (facts, frontier_args)
    }

    /// Like [`apply`](Self::apply), but with the frontier image already
    /// computed by the caller (the chase computes it first, for trigger
    /// deduplication, and must not pay for it twice). `frontier_args` must
    /// be `lookup` applied to [`frontier`](Self::frontier), in order.
    pub fn apply_with_frontier(
        &self,
        rule: &Tgd,
        frontier_args: &[TermId],
        lookup: impl Fn(Var) -> TermId,
    ) -> Vec<Fact> {
        let mut args = Vec::new();
        self.instantiate_into(rule, frontier_args, lookup, &mut args);
        head_facts(rule, &args).map(|f| f.to_fact()).collect()
    }

    /// The allocation-free core of
    /// [`apply_with_frontier`](Self::apply_with_frontier): appends the
    /// arguments of every head atom, atom after atom in head order, to
    /// `out`. Head atom `j` occupies the `arity(j)` slots after those of
    /// atoms `0..j`, so a caller that reuses `out` builds no fact; it
    /// reads the facts back as views.
    pub fn instantiate_into(
        &self,
        rule: &Tgd,
        frontier_args: &[TermId],
        lookup: impl Fn(Var) -> TermId,
        out: &mut Vec<TermId>,
    ) {
        for a in rule.head() {
            out.extend(a.args.iter().map(|t| match t {
                QTerm::Var(v) => match self.skolem_of.get(v) {
                    Some(f) => TermId::skolem(*f, frontier_args),
                    None => lookup(*v),
                },
                QTerm::Const(c) => TermId::constant(*c),
            }));
        }
    }
}

/// The head facts of `rule` as views of `args`, the arguments
/// [`SkolemizedRule::instantiate_into`] wrote: head atom `j` takes the
/// `arity(j)` arguments after those of atoms `0..j`.
pub(crate) fn head_facts<'a>(
    rule: &'a Tgd,
    args: &'a [TermId],
) -> impl Iterator<Item = FactRef<'a>> + 'a {
    let mut end = 0;
    rule.head().iter().map(move |a| {
        let start = end;
        end += a.args.len();
        FactRef {
            pred: a.pred,
            args: &args[start..end],
        }
    })
}

fn render_atom(a: &QAtom, labels: &HashMap<Var, String>) -> String {
    let mut out = String::new();
    out.push_str(a.pred.name().as_str());
    out.push('/');
    out.push_str(&a.pred.arity().to_string());
    out.push('(');
    for (i, t) in a.args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match t {
            QTerm::Var(v) => match labels.get(v) {
                Some(l) => out.push_str(l),
                None => out.push('?'),
            },
            QTerm::Const(c) => {
                out.push('"');
                out.push_str(c.as_str());
                out.push('"');
            }
        }
    }
    out.push(')');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_syntax::parse_theory;

    #[test]
    fn isomorphic_heads_share_skolems() {
        // Two rules with different bodies but isomorphic heads must use the
        // same Skolem function (Definition 4: sh(ρ) does not depend on the
        // body).
        let t = parse_theory(
            "p(X) -> m(X, Y).\n\
             q(X, U), p(U) -> m(X, Y).",
        )
        .unwrap();
        let s1 = SkolemizedRule::new(&t.rules()[0]);
        let s2 = SkolemizedRule::new(&t.rules()[1]);
        let f1 = *s1.skolem_of.values().next().unwrap();
        let f2 = *s2.skolem_of.values().next().unwrap();
        assert_eq!(f1, f2);
    }

    #[test]
    fn different_equality_patterns_differ() {
        // R(y,v,z,v) vs R(y,v,z,w): different isomorphism types.
        let t = parse_theory(
            "e(X,Y,Z) -> r(Y,V,Z,V).\n\
             e(X,Y,Z) -> r(Y,V,Z,W).",
        )
        .unwrap();
        let s1 = SkolemizedRule::new(&t.rules()[0]);
        let s2 = SkolemizedRule::new(&t.rules()[1]);
        let f1 = *s1.skolem_of.values().next().unwrap();
        let f2: Vec<SkolemFn> = s2.skolem_of.values().copied().collect();
        assert!(!f2.contains(&f1));
    }

    #[test]
    fn skolem_ignores_non_frontier_body_vars() {
        // Semi-oblivious: E(x,y,z),P(x) ⇒ ∃v R(y,v,z,v) skolemizes v as
        // f(y,z) — x does not appear.
        let t = parse_theory("e(X,Y,Z), p(X) -> r(Y,V,Z,V).").unwrap();
        let s = SkolemizedRule::new(&t.rules()[0]);
        assert_eq!(s.frontier.len(), 2);
        let f = *s.skolem_of.values().next().unwrap();
        assert_eq!(f.arity(), 2);
    }

    #[test]
    fn apply_instantiates_head() {
        let t = parse_theory("human(X) -> mother(X, Y).").unwrap();
        let rule = &t.rules()[0];
        let s = SkolemizedRule::new(rule);
        let abel = TermId::constant(Symbol::intern("abel"));
        let (facts, frontier) = s.apply(rule, |_| abel);
        assert_eq!(frontier, vec![abel]);
        assert_eq!(facts.len(), 1);
        assert_eq!(facts[0].args[0], abel);
        assert!(!facts[0].args[1].is_const());
        // Determinism: applying twice yields the identical fact.
        let (facts2, _) = s.apply(rule, |_| abel);
        assert_eq!(facts, facts2);
    }

    #[test]
    fn multi_head_shares_existential_witness() {
        // true -> r(X,X), g(X,X): one existential X appearing in both atoms
        // must be witnessed by one Skolem term.
        let t = parse_theory("true -> r(X,X), g(X,X).").unwrap();
        let rule = &t.rules()[0];
        let s = SkolemizedRule::new(rule);
        assert!(s.frontier.is_empty());
        assert_eq!(s.skolem_of.len(), 1);
        let (facts, _) = s.apply(rule, |_| unreachable!("no frontier"));
        assert_eq!(facts.len(), 2);
        assert_eq!(facts[0].args[0], facts[0].args[1]);
        assert_eq!(facts[0].args[0], facts[1].args[0]);
    }
}

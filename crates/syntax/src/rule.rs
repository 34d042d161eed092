//! Tuple generating dependencies (existential rules) and theories.

use std::collections::HashSet;

use crate::atom::Pred;
use crate::query::{QAtom, Var};
use crate::symbol::Symbol;

/// A tuple generating dependency
/// `∀x̄,ȳ (β(x̄,ȳ) ⇒ ∃w̄ α(ȳ,w̄))`.
///
/// The body may be empty (the paper's `true ⇒ …` rules) and may contain the
/// builtin domain atom `dom(x)` to scope a variable over the active domain
/// (`∀x (true ⇒ ∃z R(x,z))` becomes `dom(X) -> r(X,Z)`). Heads may contain
/// several atoms (the paper's `T_d` uses multi-head rules; see the remark
/// below Definition 45).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Tgd {
    name: String,
    body: Vec<QAtom>,
    head: Vec<QAtom>,
    var_names: Vec<Symbol>,
}

impl Tgd {
    /// Creates a rule.
    ///
    /// # Panics
    /// Panics if the head is empty, if `dom` occurs in the head, or if a
    /// variable index is out of range of `var_names`.
    pub fn new(
        name: impl Into<String>,
        body: Vec<QAtom>,
        head: Vec<QAtom>,
        var_names: Vec<Symbol>,
    ) -> Tgd {
        assert!(!head.is_empty(), "rule head must be non-empty");
        let n = var_names.len() as u32;
        for a in body.iter().chain(head.iter()) {
            for v in a.vars() {
                assert!(v.0 < n, "variable index {v:?} out of range");
            }
        }
        for a in &head {
            assert!(
                !a.pred.is_dom(),
                "builtin dom/1 may not occur in a rule head"
            );
        }
        Tgd {
            name: name.into(),
            body,
            head,
            var_names,
        }
    }

    /// The rule's name (used in provenance and diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Body atoms (possibly including `dom/1` atoms; possibly empty).
    pub fn body(&self) -> &[QAtom] {
        &self.body
    }

    /// Head atoms.
    pub fn head(&self) -> &[QAtom] {
        &self.head
    }

    /// Display name of a variable.
    pub fn var_name(&self, v: Var) -> Symbol {
        self.var_names[v.index()]
    }

    /// The variable name table.
    pub fn var_names(&self) -> &[Symbol] {
        &self.var_names
    }

    /// Variables occurring in the body, in first-occurrence order.
    pub fn body_vars(&self) -> Vec<Var> {
        ordered_vars(&self.body)
    }

    /// Variables occurring in the head, in first-occurrence order.
    pub fn head_vars(&self) -> Vec<Var> {
        ordered_vars(&self.head)
    }

    /// The frontier `fr(ρ)`: variables occurring in both body and head.
    pub fn frontier(&self) -> Vec<Var> {
        let body: HashSet<Var> = self.body_vars().into_iter().collect();
        self.head_vars()
            .into_iter()
            .filter(|v| body.contains(v))
            .collect()
    }

    /// The existential variables `w̄`: head variables not in the body.
    pub fn existential_vars(&self) -> Vec<Var> {
        let body: HashSet<Var> = self.body_vars().into_iter().collect();
        self.head_vars()
            .into_iter()
            .filter(|v| !body.contains(v))
            .collect()
    }

    /// `true` iff the rule has no existential variables (a Datalog rule).
    pub fn is_datalog(&self) -> bool {
        self.existential_vars().is_empty()
    }

    /// `true` iff the frontier is empty — the paper's *detached* rules
    /// (Section 13).
    pub fn is_detached(&self) -> bool {
        self.frontier().is_empty()
    }

    /// `true` iff the body uses the builtin `dom/1` predicate or is empty,
    /// i.e. the rule is one of the paper's `true ⇒ …` rules. Such rules are
    /// supported by the chase but not by the generic rewriting engine.
    pub fn has_builtin_body(&self) -> bool {
        self.body.is_empty() || self.body.iter().any(|a| a.pred.is_dom())
    }

    /// A readable rendering, e.g. `human(X) -> mother(X,Y)`.
    pub fn render(&self) -> String {
        crate::display::render_tgd(self)
    }
}

fn ordered_vars(atoms: &[QAtom]) -> Vec<Var> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for a in atoms {
        for v in a.vars() {
            if seen.insert(v) {
                out.push(v);
            }
        }
    }
    out
}

/// A finite set of TGDs.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Theory {
    name: String,
    rules: Vec<Tgd>,
}

impl Theory {
    /// Creates a theory from rules.
    pub fn new(name: impl Into<String>, rules: Vec<Tgd>) -> Theory {
        Theory {
            name: name.into(),
            rules,
        }
    }

    /// The theory's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The rules.
    pub fn rules(&self) -> &[Tgd] {
        &self.rules
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// `true` iff the theory has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The signature: every non-builtin predicate occurring in some rule.
    pub fn signature(&self) -> Vec<Pred> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for r in &self.rules {
            for a in r.body().iter().chain(r.head().iter()) {
                if !a.pred.is_dom() && seen.insert(a.pred) {
                    out.push(a.pred);
                }
            }
        }
        out
    }

    /// Maximum predicate arity in the signature.
    pub fn max_arity(&self) -> u32 {
        self.signature()
            .iter()
            .map(|p| p.arity())
            .max()
            .unwrap_or(0)
    }

    /// The Datalog rules of the theory (the paper's `T_DL`).
    pub fn datalog_part(&self) -> Vec<&Tgd> {
        self.rules.iter().filter(|r| r.is_datalog()).collect()
    }

    /// The existential rules of the theory (the paper's `T_∃`).
    pub fn existential_part(&self) -> Vec<&Tgd> {
        self.rules.iter().filter(|r| !r.is_datalog()).collect()
    }

    /// `true` iff some rule has an empty or `dom`-scoped body.
    pub fn has_builtin_bodies(&self) -> bool {
        self.rules.iter().any(Tgd::has_builtin_body)
    }

    /// A readable multi-line rendering of the theory.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.rules {
            out.push_str(&r.render());
            out.push_str(".\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{QTerm, VarPool};

    fn binary(pred: &str, a: Var, b: Var) -> QAtom {
        QAtom::new(Pred::new(pred, 2), vec![QTerm::Var(a), QTerm::Var(b)])
    }

    fn unary(pred: &str, a: Var) -> QAtom {
        QAtom::new(Pred::new(pred, 1), vec![QTerm::Var(a)])
    }

    #[test]
    fn frontier_and_existentials() {
        // human(X) -> mother(X, Y)
        let mut pool = VarPool::new();
        let x = pool.var("X");
        let y = pool.var("Y");
        let r = Tgd::new(
            "r1",
            vec![unary("human", x)],
            vec![binary("mother", x, y)],
            pool.into_names(),
        );
        assert_eq!(r.frontier(), vec![x]);
        assert_eq!(r.existential_vars(), vec![y]);
        assert!(!r.is_datalog());
        assert!(!r.is_detached());
        assert!(!r.has_builtin_body());
    }

    #[test]
    fn datalog_and_detached_flags() {
        let mut pool = VarPool::new();
        let x = pool.var("X");
        let y = pool.var("Y");
        let dl = Tgd::new(
            "dl",
            vec![binary("mother", x, y)],
            vec![unary("human", y)],
            pool.names().to_vec(),
        );
        assert!(dl.is_datalog());
        let mut pool2 = VarPool::new();
        let u = pool2.var("U");
        let v = pool2.var("V");
        let det = Tgd::new(
            "det",
            vec![unary("p", u)],
            vec![unary("q", v)],
            pool2.into_names(),
        );
        assert!(det.is_detached());
    }

    #[test]
    fn builtin_body_rules() {
        let mut pool = VarPool::new();
        let x = pool.var("X");
        let z = pool.var("Z");
        // dom(X) -> r(X, Z)
        let pins = Tgd::new(
            "pins",
            vec![QAtom::new(Pred::dom(), vec![QTerm::Var(x)])],
            vec![binary("r", x, z)],
            pool.into_names(),
        );
        assert!(pins.has_builtin_body());
        assert_eq!(pins.frontier(), vec![x]);
        let mut pool2 = VarPool::new();
        let w = pool2.var("W");
        // true -> r(W, W)
        let loop_rule = Tgd::new("loop", vec![], vec![binary("r", w, w)], pool2.into_names());
        assert!(loop_rule.has_builtin_body());
        assert!(loop_rule.is_detached());
    }

    #[test]
    fn theory_signature() {
        let mut pool = VarPool::new();
        let x = pool.var("X");
        let y = pool.var("Y");
        let t = Theory::new(
            "t",
            vec![Tgd::new(
                "r",
                vec![unary("human", x)],
                vec![binary("mother", x, y)],
                pool.into_names(),
            )],
        );
        let sig = t.signature();
        assert_eq!(sig.len(), 2);
        assert_eq!(t.max_arity(), 2);
        assert_eq!(t.datalog_part().len(), 0);
        assert_eq!(t.existential_part().len(), 1);
    }

    #[test]
    #[should_panic(expected = "dom/1 may not occur in a rule head")]
    fn dom_rejected_in_head() {
        let mut pool = VarPool::new();
        let x = pool.var("X");
        let _ = Tgd::new(
            "bad",
            vec![unary("p", x)],
            vec![QAtom::new(Pred::dom(), vec![QTerm::Var(x)])],
            pool.into_names(),
        );
    }
}

//! The normalization algorithm of Appendix A (the engine behind the proof
//! of Theorem 3: *binary BDD theories are local*).
//!
//! A BDD theory `T` is transformed into `T_NF = T_II ∪ T_III`:
//!
//! * **Step one** (`T_I`): every existential rule's body is replaced by all
//!   elements of its UCQ rewriting under `T` ("body rewriting",
//!   Definition 67) — so bodies only need to match *existential* atoms.
//! * **Step two** (`T_II`): each body is split into its frontier-connected
//!   part `β` and the disconnected remainder `φ`, and `φ` is encapsulated
//!   in a new **nullary** predicate `M_φ`, named `m_nf#k` (`#` keeps it
//!   apart from every parsed predicate) ("body separation",
//!   Definition 68).
//! * **Step three** (`T_III`): rules `ζ ⇒ M_φ` for every `ζ ∈ rew_T(φ)`.
//!
//! The point (Example 66): ancestor sets of the raw theory can be blown up
//! by irrelevant disconnected side conditions; after normalization the
//! *connected* ancestors of every atom are bounded (the Crucial Lemma 77),
//! which yields the locality of binary BDD theories. [`lemma70_check`] and
//! [`corollary76_check`] validate the construction against the chase on
//! concrete instances, and `qr-bench`'s E13 measures the ancestor bounds.

use std::collections::HashMap;

use qr_chase::engine::{chase, chase_all, ChaseBudget};
use qr_chase::provenance::adversarial_ancestors;
use qr_rewrite::{rewrite, RewriteBudget, RewriteError};
use qr_syntax::gaifman;
use qr_syntax::query::{local_var_name, QAtom, QTerm, Var};
use qr_syntax::{ConjunctiveQuery, Instance, Pred, Symbol, Tgd, Theory};

/// The result of normalizing a theory.
#[derive(Clone, Debug)]
pub struct Normalized {
    /// `T_NF = T_II ∪ T_III` as one theory (`T_II` first).
    pub theory: Theory,
    /// Number of `T_II` rules (prefix of `theory`).
    pub n_t_ii: usize,
    /// The nullary predicates with the Boolean CQs they encapsulate.
    pub m_preds: Vec<(Pred, ConjunctiveQuery)>,
}

/// Normalization failures.
#[derive(Clone, Debug)]
pub enum NormalizeError {
    /// A body rewriting did not complete within budget — either the theory
    /// is not BDD, or the budget is too small.
    RewritingBudget {
        /// The rule whose body rewriting overflowed.
        rule: String,
    },
    /// The theory is outside the fragment (builtin bodies).
    Unsupported(String),
}

impl std::fmt::Display for NormalizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NormalizeError::RewritingBudget { rule } => {
                write!(f, "body rewriting exhausted its budget for rule: {rule}")
            }
            NormalizeError::Unsupported(m) => write!(f, "unsupported theory: {m}"),
        }
    }
}

impl std::error::Error for NormalizeError {}

impl From<RewriteError> for NormalizeError {
    fn from(e: RewriteError) -> Self {
        NormalizeError::Unsupported(e.to_string())
    }
}

/// Runs the three-step normalization algorithm of Appendix A.
pub fn normalize(theory: &Theory, budget: RewriteBudget) -> Result<Normalized, NormalizeError> {
    if theory.has_builtin_bodies() {
        return Err(NormalizeError::Unsupported(
            "builtin (true/dom) bodies are outside Appendix A's fragment".into(),
        ));
    }

    let mut t_ii: Vec<Tgd> = Vec::new();
    let mut m_preds: Vec<(Pred, ConjunctiveQuery)> = Vec::new();
    let mut m_by_key: HashMap<ConjunctiveQuery, Pred> = HashMap::new();

    for rule in theory.rules().iter().filter(|r| !r.is_datalog()) {
        // Step one: body rewriting with the frontier as answer tuple.
        let frontier = rule.frontier();
        let body_q = ConjunctiveQuery::new(
            frontier.clone(),
            rule.body().to_vec(),
            rule.var_names().to_vec(),
        );
        let rw = rewrite(theory, &body_q, budget)?;
        if !rw.is_complete() {
            return Err(NormalizeError::RewritingBudget {
                rule: rule.render(),
            });
        }
        for beta in rw.ucq.disjuncts() {
            // Step two: body separation around the frontier component(s).
            let (connected, phi) = separate(beta);
            let m_atom = match phi {
                None => None,
                Some(phi_q) => {
                    let key = phi_q.canonical();
                    let pred = *m_by_key.entry(key.clone()).or_insert_with(|| {
                        let p = Pred::new(format!("m_nf#{}", m_preds.len() + 1).as_str(), 0);
                        m_preds.push((p, key));
                        p
                    });
                    Some(QAtom::new(pred, Vec::new()))
                }
            };
            t_ii.push(assemble_rule(rule, beta, connected, m_atom, t_ii.len()));
        }
    }

    // Step three: rules producing the nullary predicates.
    let mut t_iii: Vec<Tgd> = Vec::new();
    for (pred, phi) in m_preds.iter() {
        let rw = rewrite(theory, phi, budget)?;
        if !rw.is_complete() {
            return Err(NormalizeError::RewritingBudget {
                rule: format!("{} <- {}", pred.name(), phi.render()),
            });
        }
        for zeta in rw.ucq.disjuncts() {
            let head = QAtom::new(*pred, Vec::new());
            t_iii.push(Tgd::new(
                format!("nf_m{}", t_iii.len() + 1),
                zeta.atoms().to_vec(),
                vec![head],
                zeta.var_names().to_vec(),
            ));
        }
    }

    let n_t_ii = t_ii.len();
    t_ii.extend(t_iii);
    Ok(Normalized {
        theory: Theory::new(format!("{}_nf", theory.name()), t_ii),
        n_t_ii,
        m_preds,
    })
}

/// Splits a rewritten body into the atoms whose Gaifman component touches
/// an answer (frontier) variable, and the Boolean remainder `φ` (if any).
fn separate(beta: &ConjunctiveQuery) -> (Vec<usize>, Option<ConjunctiveQuery>) {
    let graph = gaifman::of_query(beta);
    let components = graph.components();
    let frontier: Vec<Var> = beta.answer_vars().to_vec();
    let in_frontier_comp = |v: Var| {
        components
            .iter()
            .any(|c| c.contains(&v) && frontier.iter().any(|f| c.contains(f)))
    };
    let mut connected = Vec::new();
    let mut phi_atoms = Vec::new();
    for (i, a) in beta.atoms().iter().enumerate() {
        // An atom's variables form a Gaifman clique, so the first variable
        // determines the component; ground/nullary atoms and frontier-free
        // components go to φ, and for detached rules (empty frontier) the
        // whole body is φ.
        let touches = a.vars().next().is_some_and(in_frontier_comp);
        if !frontier.is_empty() && touches {
            connected.push(i);
        } else {
            phi_atoms.push(a.clone());
        }
    }
    if phi_atoms.is_empty() {
        (connected, None)
    } else {
        let phi = ConjunctiveQuery::new(Vec::new(), phi_atoms, beta.var_names().to_vec());
        (connected, Some(phi.canonical()))
    }
}

/// Builds the `T_II` rule `β ∧ M_φ ⇒ head(ρ)` in a fresh variable space.
fn assemble_rule(
    original: &Tgd,
    beta: &ConjunctiveQuery,
    connected: Vec<usize>,
    m_atom: Option<QAtom>,
    index: usize,
) -> Tgd {
    // Variable space: β's variables first, then the original head's
    // non-frontier variables appended; frontier variables of the head are
    // redirected to β's answer variables.
    let mut names: Vec<Symbol> = beta.var_names().to_vec();
    let frontier = original.frontier();
    let mut head_map: HashMap<Var, Var> = HashMap::new();
    for (i, f) in frontier.iter().enumerate() {
        head_map.insert(*f, beta.answer_vars()[i]);
    }
    for v in original.head_vars() {
        head_map.entry(v).or_insert_with(|| {
            let nv = Var(names.len() as u32);
            names.push(local_var_name(&names, original.var_name(v), names.len()));
            nv
        });
    }
    let head: Vec<QAtom> = original
        .head()
        .iter()
        .map(|a| {
            QAtom::new(
                a.pred,
                a.args
                    .iter()
                    .map(|t| match t {
                        QTerm::Var(v) => QTerm::Var(head_map[v]),
                        QTerm::Const(c) => QTerm::Const(*c),
                    })
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let mut body: Vec<QAtom> = connected
        .into_iter()
        .map(|i| beta.atoms()[i].clone())
        .collect();
    if let Some(m) = m_atom {
        body.push(m);
    }
    Tgd::new(format!("nf{}", index + 1), body, head, names)
}

/// Empirical check of Lemma 70 on one instance: the existential parts of
/// `Ch(T,D)` and `Ch(T_NF,D)` coincide, up to the ±2-round shift of
/// Lemmas 72/75. Returns `true` when both inclusions hold on the compared
/// prefixes.
pub fn lemma70_check(
    theory: &Theory,
    normalized: &Normalized,
    db: &Instance,
    depth: usize,
) -> bool {
    let budget = ChaseBudget {
        max_rounds: depth + 2,
        max_facts: 500_000,
    };
    let ch = chase(theory, db, budget);
    let ch_nf = chase(&normalized.theory, db, budget);

    let exist_part = |c: &qr_chase::Chase, t: &Theory, upto: usize| -> Instance {
        Instance::from_facts(c.instance.iter().enumerate().filter_map(|(i, f)| {
            if c.round_of[i] > upto {
                return None;
            }
            match c.derivations.get(i) {
                None => Some(f.to_fact()),
                Some(d) => {
                    let rule = &t.rules()[d.rule];
                    (!rule.is_datalog() && f.pred.arity() > 0).then(|| f.to_fact())
                }
            }
        }))
    };

    let e_t = exist_part(&ch, theory, depth);
    let e_nf_deep = exist_part(&ch_nf, &normalized.theory, depth + 2);
    let e_nf = exist_part(&ch_nf, &normalized.theory, depth);
    let e_t_deep = exist_part(&ch, theory, depth + 2);
    e_t.subset_of(&e_nf_deep) && e_nf.subset_of(&e_t_deep)
}

/// Empirical check of Corollary 76: closing the existential part of
/// `Ch(T_NF, D)` under the Datalog rules of `T` recovers `Ch(T,D)` (on the
/// compared prefixes).
pub fn corollary76_check(
    theory: &Theory,
    normalized: &Normalized,
    db: &Instance,
    depth: usize,
) -> bool {
    let budget = ChaseBudget {
        max_rounds: depth + 2,
        max_facts: 500_000,
    };
    let ch_nf = chase(&normalized.theory, db, budget);
    let base = Instance::from_facts(
        ch_nf
            .instance
            .iter()
            .filter(|f| f.pred.arity() > 0)
            .map(|f| f.to_fact()),
    );
    let datalog = Theory::new(
        "t_dl",
        theory
            .rules()
            .iter()
            .filter(|r| r.is_datalog())
            .cloned()
            .collect(),
    );
    let closed = chase(&datalog, &base, ChaseBudget::rounds(depth + 4));
    let ch = chase(
        theory,
        db,
        ChaseBudget {
            max_rounds: depth,
            max_facts: 500_000,
        },
    );
    ch.instance.subset_of(&closed.instance)
}

/// The union of (adversarial) ancestor sets over all atoms produced by
/// **existential** rules — the paper's `∪_{α ∈ S(t)} anc(α)` aggregated
/// over all trees (Lemmas 65/77). `connected_only` switches to the
/// connected-ancestor notion `canc` of Appendix A.
pub fn existential_ancestor_union(
    theory: &Theory,
    db: &Instance,
    depth: usize,
    connected_only: bool,
) -> usize {
    let budget = ChaseBudget {
        max_rounds: depth,
        max_facts: 200_000,
    };
    let run = chase_all(theory, db, budget);
    let anc = adversarial_ancestors(&run, connected_only);
    let mut union = std::collections::HashSet::new();
    for (i, d) in run.chase.derivations.iter().enumerate() {
        let Some(d) = d else {
            continue;
        };
        if theory.rules()[d.rule].is_datalog() {
            continue;
        }
        union.extend(anc[i].iter().copied());
    }
    union.len()
}

/// Measures, on one instance, the worst-case tree-ancestor bound of the
/// raw theory (the quantity the *false* Lemma 65 would bound) against the
/// *connected* tree-ancestor bound of the normalized theory (the quantity
/// the Crucial Lemma 77 does bound).
pub fn ancestor_bounds(
    theory: &Theory,
    normalized: &Normalized,
    db: &Instance,
    depth: usize,
) -> (usize, usize) {
    (
        existential_ancestor_union(theory, db, depth, false),
        existential_ancestor_union(&normalized.theory, db, depth, true),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theories::{ex66, t_a};
    use qr_syntax::parse_instance;

    fn ex66_instance(m: usize) -> Instance {
        let mut src = String::from("e(a0, a1).\n");
        for i in 1..=m {
            src.push_str(&format!("p(b{i}).\n"));
        }
        parse_instance(&src).unwrap()
    }

    #[test]
    fn normalizes_example_66() {
        let n = normalize(&ex66(), RewriteBudget::default()).unwrap();
        // One nullary predicate (for ∃z P(z)).
        assert_eq!(n.m_preds.len(), 1);
        // T_II: the connected body {E,R} and the separated {E} ∧ M_P.
        assert_eq!(n.n_t_ii, 2);
        // T_III: P(z) ⇒ M_P (plus any rewriting variants).
        assert!(n.theory.len() >= 3);
        // Every T_NF rule is existential or produces a nullary atom
        // (Observation 69's shape).
        for r in n.theory.rules() {
            assert!(!r.is_datalog() || r.head()[0].pred.arity() == 0);
        }
    }

    #[test]
    fn lemma_70_holds_on_example_66() {
        let t = ex66();
        let n = normalize(&t, RewriteBudget::default()).unwrap();
        for m in [1usize, 3] {
            assert!(lemma70_check(&t, &n, &ex66_instance(m), 4), "m={m}");
        }
    }

    #[test]
    fn corollary_76_holds_on_example_66() {
        let t = ex66();
        let n = normalize(&t, RewriteBudget::default()).unwrap();
        assert!(corollary76_check(&t, &n, &ex66_instance(2), 3));
    }

    #[test]
    fn ancestor_blowup_repaired() {
        // Example 66: an adversarial ancestor function charges the E-chain
        // a fresh P-atom per level, so the raw tree-ancestor union grows
        // with the instance (given enough depth); after normalization the
        // connected ancestors of the whole tree stay constant — exactly
        // why Lemma 65 is false and Lemma 77 holds.
        let t = ex66();
        let n = normalize(&t, RewriteBudget::default()).unwrap();
        let (raw2, nf2) = ancestor_bounds(&t, &n, &ex66_instance(2), 2 * 2 + 2);
        let (raw4, nf4) = ancestor_bounds(&t, &n, &ex66_instance(4), 2 * 4 + 2);
        assert!(raw4 > raw2, "raw bound should grow: {raw2} vs {raw4}");
        assert_eq!(nf2, nf4, "normalized bound must be flat");
        assert!(nf4 <= 2);
    }

    #[test]
    fn connected_theory_normalizes_trivially() {
        // T_a has connected bodies: no nullary predicates appear.
        let n = normalize(&t_a(), RewriteBudget::default()).unwrap();
        assert!(n.m_preds.is_empty());
        for r in n.theory.rules() {
            assert!(r.body().iter().all(|a| a.pred.arity() > 0));
        }
    }
}

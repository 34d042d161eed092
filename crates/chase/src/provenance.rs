//! Provenance over chase runs: birth atoms (Observation 10), frontiers
//! (Observation 9), ancestor functions (Appendix A) and minimal supports.
//!
//! The *ancestors* of a chase fact are the input facts used, transitively,
//! by its recorded derivation. As the paper's Example 66 shows, ancestor
//! sets are an artifact of the non-deterministic parent choice and can be
//! far from minimal; [`minimal_support`] therefore re-chases subsets to
//! compute an inclusion-minimal support for a query.

use std::collections::{HashMap, HashSet};

use qr_syntax::{ConjunctiveQuery, Fact, Instance, TermId, Theory};

use crate::engine::{chase, Chase, ChaseAll, ChaseBudget};

/// Read-only provenance views over a finished chase.
pub struct Provenance<'a> {
    chase: &'a Chase,
    facts_by_term: HashMap<TermId, Vec<usize>>,
}

impl<'a> Provenance<'a> {
    /// Builds the per-term fact index.
    pub fn new(chase: &'a Chase) -> Provenance<'a> {
        let mut facts_by_term: HashMap<TermId, Vec<usize>> = HashMap::new();
        for (i, f) in chase.instance.iter().enumerate() {
            let mut seen_in_fact: HashSet<TermId> = HashSet::new();
            for t in f.terms() {
                if seen_in_fact.insert(t) {
                    facts_by_term.entry(t).or_default().push(i);
                }
            }
        }
        Provenance {
            chase,
            facts_by_term,
        }
    }

    /// The frontier `fr(α)` of a derived fact (Observation 9); `None` for
    /// input facts.
    pub fn frontier_of(&self, fact_idx: usize) -> Option<&[TermId]> {
        self.chase.derivations[fact_idx]
            .as_ref()
            .map(|d| d.frontier.as_slice())
    }

    /// The birth atom of a chase-invented term (Observation 10): the unique
    /// fact in which the term occurs outside the frontier. Returns `None`
    /// for constants of the input instance.
    pub fn birth_atom(&self, term: TermId) -> Option<usize> {
        if term.is_const() {
            return None;
        }
        let candidates = self.facts_by_term.get(&term)?;
        candidates
            .iter()
            .copied()
            .find(|&i| match self.frontier_of(i) {
                Some(frontier) => !frontier.contains(&term),
                None => false,
            })
    }

    /// The ancestor set of a fact: input facts reachable through recorded
    /// derivations (one particular ancestor function in the paper's sense).
    pub fn ancestors(&self, fact_idx: usize) -> HashSet<usize> {
        let mut out = HashSet::new();
        let mut stack = vec![fact_idx];
        let mut seen = HashSet::new();
        while let Some(i) = stack.pop() {
            if !seen.insert(i) {
                continue;
            }
            match &self.chase.derivations[i] {
                None => {
                    out.insert(i);
                }
                Some(d) => stack.extend(d.trigger.iter().copied()),
            }
        }
        out
    }

    /// The ancestor set as an instance.
    pub fn ancestor_instance(&self, fact_idx: usize) -> Instance {
        Instance::from_facts(
            self.ancestors(fact_idx)
                .into_iter()
                .map(|i| self.chase.instance.fact(i).to_fact()),
        )
    }
}

/// The **adversarial** ancestor set of every fact of a [`chase_all`] run:
/// among all ancestor functions (one parent-derivation choice per fact),
/// greedily picks, per fact in derivation order, the derivation maximizing
/// the resulting ancestor set. This witnesses the paper's point (Example
/// 66) that ancestor sets of the raw theory can be made unboundedly
/// large. When `connected_only` is set, nullary parent facts are skipped —
/// the *connected ancestors* `canc` of Appendix A. Computed bottom-up:
/// triggers reference strictly earlier rounds, and facts are stored in
/// round order.
///
/// [`chase_all`]: crate::engine::chase_all
pub fn adversarial_ancestors(run: &ChaseAll, connected_only: bool) -> Vec<HashSet<usize>> {
    let ch = &run.chase;
    let n = ch.instance.len();
    let mut anc: Vec<HashSet<usize>> = Vec::with_capacity(n);
    for i in 0..n {
        if ch.derivations[i].is_none() {
            anc.push(HashSet::from([i]));
            continue;
        }
        let mut best: HashSet<usize> = HashSet::new();
        for d in &run.all_derivations[i] {
            let mut s = HashSet::new();
            for &p in &d.trigger {
                if connected_only && ch.instance.fact(p).pred.arity() == 0 {
                    continue;
                }
                s.extend(anc[p].iter().copied());
            }
            if s.len() > best.len() {
                best = s;
            }
        }
        anc.push(best);
    }
    anc
}

/// Greedily shrinks `base` to an inclusion-minimal subset still satisfying
/// `keep`. Requires `keep(base)`; the result satisfies `keep` and dropping
/// any single fact from it falsifies `keep`.
pub fn minimal_subset(base: &Instance, mut keep: impl FnMut(&Instance) -> bool) -> Instance {
    assert!(
        keep(base),
        "minimal_subset: base does not satisfy the predicate"
    );
    let mut current = base.clone();
    let facts: Vec<Fact> = base.iter().map(|f| f.to_fact()).collect();
    for f in facts {
        if !current.contains(&f) {
            continue;
        }
        let candidate = current.without_fact(&f);
        if keep(&candidate) {
            current = candidate;
        }
    }
    current
}

/// An inclusion-minimal subset `F ⊆ D` with `Ch_budget(T,F) ⊨ φ(ā)`, or
/// `None` if even the full instance does not entail the query within budget.
///
/// This is the quantity behind the paper's locality experiments: a local
/// theory admits supports of size `≤ l_T` per query atom (Definition 30),
/// while the theories of Examples 39/42 and `T_d` need unboundedly large
/// supports.
pub fn minimal_support(
    theory: &Theory,
    db: &Instance,
    query: &ConjunctiveQuery,
    answer: &[TermId],
    budget: ChaseBudget,
) -> Option<Instance> {
    let holds = |inst: &Instance| {
        let ch = chase(theory, inst, budget);
        qr_hom::holds(query, &ch.instance, answer)
    };
    if !holds(db) {
        return None;
    }
    Some(minimal_subset(db, holds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_syntax::{parse_instance, parse_query, parse_theory, Symbol};

    fn c(name: &str) -> TermId {
        TermId::constant(Symbol::intern(name))
    }

    #[test]
    fn birth_atoms_unique() {
        let t = parse_theory("human(Y) -> mother(Y, Z).\nmother(X,Y) -> human(Y).").unwrap();
        let d = parse_instance("human(abel).").unwrap();
        let ch = chase(&t, &d, ChaseBudget::rounds(4));
        let prov = Provenance::new(&ch);
        // Every non-constant term has exactly one birth atom.
        for &term in ch.instance.domain() {
            if term.is_const() {
                assert!(prov.birth_atom(term).is_none());
            } else {
                let b = prov.birth_atom(term).expect("birth atom exists");
                let fact = ch.instance.fact(b);
                assert!(fact.terms().any(|t| t == term));
            }
        }
    }

    #[test]
    fn ancestors_reach_input() {
        let t = parse_theory("e(X,Y), e(Y,Z) -> e(X,Z).").unwrap();
        let d = parse_instance("e(a,b). e(b,c). e(c,d).").unwrap();
        let ch = chase(&t, &d, ChaseBudget::default());
        let prov = Provenance::new(&ch);
        let target = Fact::new(qr_syntax::Pred::new("e", 2), vec![c("a"), c("d")]);
        let idx = ch.instance.iter().position(|f| f == target).unwrap();
        let anc = prov.ancestor_instance(idx);
        assert_eq!(anc, d); // e(a,d) needs all three input edges
    }

    #[test]
    fn minimal_support_shrinks() {
        let t = parse_theory("e(X,Y), e(Y,Z) -> e(X,Z).").unwrap();
        let d = parse_instance("e(a,b). e(b,c). e(x,y).").unwrap();
        let q = parse_query("? :- e(a, c).").unwrap();
        let sup = minimal_support(&t, &d, &q, &[], ChaseBudget::default()).unwrap();
        assert_eq!(sup, parse_instance("e(a,b). e(b,c).").unwrap());
    }

    #[test]
    fn minimal_support_none_when_not_entailed() {
        let t = parse_theory("e(X,Y), e(Y,Z) -> e(X,Z).").unwrap();
        let d = parse_instance("e(a,b).").unwrap();
        let q = parse_query("? :- e(a, c).").unwrap();
        assert!(minimal_support(&t, &d, &q, &[], ChaseBudget::default()).is_none());
    }

    #[test]
    fn minimal_subset_is_minimal() {
        let d = parse_instance("p(a). p(b). p(c). q(a).").unwrap();
        // keep: contains q(a) and at least 2 facts.
        let keep = |i: &Instance| i.len() >= 2 && i.iter().any(|f| f.pred.name().as_str() == "q");
        let m = minimal_subset(&d, keep);
        assert_eq!(m.len(), 2);
        assert!(m.iter().any(|f| f.pred.name().as_str() == "q"));
    }
}

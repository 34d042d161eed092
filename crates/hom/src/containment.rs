//! Conjunctive-query containment via the homomorphism theorem.
//!
//! Following the paper (Section 2): `φ(ȳ)` **contains** `ψ(ȳ)` iff for
//! every structure `D` and tuple `ā`, `D ⊨ φ(ā)` implies `D ⊨ ψ(ā)`.
//! By the Chandra–Merlin theorem this holds iff there is a homomorphism
//! from `ψ(ȳ)` into `φ(ȳ)` (queries viewed as structures over their
//! variables) that is the identity on the answer variables `ȳ`.

use qr_syntax::query::ConjunctiveQuery;

use crate::kernel::global_kernel;

/// `true` iff `phi` contains `psi` in the paper's sense: every answer of
/// `phi` is an answer of `psi` (so `phi` is the logically *stronger* query).
/// Witnessed by a homomorphism from `psi` into `phi` fixing the answer
/// variables positionally.
///
/// Delegates to the process-wide [`crate::kernel::HomKernel`], so repeated
/// checks against the same queries reuse the frozen instance, the compiled
/// component plans, and the prefilters.
pub fn contains(phi: &ConjunctiveQuery, psi: &ConjunctiveQuery) -> bool {
    global_kernel().contains_queries(phi, psi)
}

/// `true` iff the two queries are equivalent (mutual containment).
pub fn equivalent(a: &ConjunctiveQuery, b: &ConjunctiveQuery) -> bool {
    contains(a, b) && contains(b, a)
}

/// Disjunct-vs-set sweep: `true` iff some query in `kept`
/// [`contains`]-subsumes `cand` — i.e. `contains(cand, r)` holds for some
/// `r`, so `cand` adds no answers to the union `kept` already describes.
pub fn subsumed_by_any(cand: &ConjunctiveQuery, kept: &[&ConjunctiveQuery]) -> bool {
    let k = global_kernel();
    let cand_entry = k.entry(cand);
    let entries: Vec<_> = kept.iter().map(|r| k.entry(r)).collect();
    let refs: Vec<_> = entries.iter().collect();
    k.subsumed_by_any(&cand_entry, &refs)
}

/// Set-vs-disjunct sweep: one flag per query in `kept`, `true` iff
/// `contains(r, cand)` — i.e. `r` is subsumed by `cand` and can be evicted
/// from a union that now includes `cand`. Flags come back in `kept` order.
pub fn covered_by(kept: &[&ConjunctiveQuery], cand: &ConjunctiveQuery) -> Vec<bool> {
    let k = global_kernel();
    let cand_entry = k.entry(cand);
    let entries: Vec<_> = kept.iter().map(|r| k.entry(r)).collect();
    let refs: Vec<_> = entries.iter().collect();
    k.covered_by(&refs, &cand_entry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_syntax::parser::parse_query;

    #[test]
    fn longer_path_is_contained_in_shorter() {
        // Any D satisfying a 2-path from X also satisfies a 1-path from X.
        let p2 = parse_query("?(X) :- e(X,Y), e(Y,Z).").unwrap();
        let p1 = parse_query("?(X) :- e(X,Y).").unwrap();
        assert!(contains(&p2, &p1));
        assert!(!contains(&p1, &p2));
    }

    #[test]
    fn equivalence_up_to_redundancy() {
        let q1 = parse_query("?(X) :- e(X,Y).").unwrap();
        let q2 = parse_query("?(X) :- e(X,Y), e(X,Z).").unwrap();
        assert!(equivalent(&q1, &q2));
    }

    #[test]
    fn boolean_cycle_vs_path() {
        // Any D with a 2-cycle has an edge; the converse fails.
        let cycle = parse_query("? :- e(X,Y), e(Y,X).").unwrap();
        let path = parse_query("? :- e(X,Y).").unwrap();
        assert!(contains(&cycle, &path));
        assert!(!contains(&path, &cycle));
    }

    #[test]
    fn constants_matter() {
        let qa = parse_query("? :- p(a).").unwrap();
        let qx = parse_query("? :- p(X).").unwrap();
        assert!(contains(&qa, &qx)); // p(a) implies ∃x p(x)
        assert!(!contains(&qx, &qa)); // ∃x p(x) does not imply p(a)
    }

    #[test]
    fn answer_variables_are_rigid() {
        let q1 = parse_query("?(X,Y) :- e(X,Y).").unwrap();
        let q2 = parse_query("?(X,Y) :- e(Y,X).").unwrap();
        assert!(!contains(&q1, &q2));
        assert!(!contains(&q2, &q1));
    }

    #[test]
    fn containment_is_reflexive_and_transitive() {
        let p1 = parse_query("?(X) :- e(X,Y).").unwrap();
        let p2 = parse_query("?(X) :- e(X,Y), e(Y,Z).").unwrap();
        let p3 = parse_query("?(X) :- e(X,Y), e(Y,Z), e(Z,W).").unwrap();
        assert!(contains(&p1, &p1));
        assert!(contains(&p3, &p2) && contains(&p2, &p1) && contains(&p3, &p1));
    }
}

//! Query minimization: the core of a conjunctive query.
//!
//! A CQ is equivalent to its core — the smallest subquery it retracts onto
//! while fixing the answer variables. Cores are used to keep rewriting sets
//! small and to make the cheap structural deduplication of
//! [`qr_syntax::ConjunctiveQuery::canonical`] effective.

use qr_syntax::query::ConjunctiveQuery;

use crate::kernel::HomKernel;

/// Returns an equivalent subquery from which no atom can be dropped without
/// changing the semantics (a core of `q`).
///
/// Runs on a [`HomKernel`] that lives for this one call. The kernel finds
/// the core by searching directly for retraction endomorphisms on the
/// frozen instance — one search per drop attempt instead of a full
/// `equivalent` round-trip; callers that take many cores own one kernel
/// ([`HomKernel::query_core`]), which caches results per canonical form.
pub fn query_core(q: &ConjunctiveQuery) -> ConjunctiveQuery {
    HomKernel::new().query_core(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::equivalent;
    use qr_syntax::parser::parse_query;

    #[test]
    fn redundant_atom_removed() {
        let q = parse_query("?(X) :- e(X,Y), e(X,Z).").unwrap();
        let core = query_core(&q);
        assert_eq!(core.size(), 1);
        assert!(equivalent(&q, &core));
    }

    #[test]
    fn folds_path_onto_loop() {
        // A 3-path plus a loop retracts onto the loop.
        let q = parse_query("? :- e(X,X), e(X,Y), e(Y,Z), e(Z,W).").unwrap();
        let core = query_core(&q);
        assert_eq!(core.size(), 1);
    }

    #[test]
    fn minimal_query_untouched() {
        let q = parse_query("?(X) :- e(X,Y), e(Y,Z).").unwrap();
        let core = query_core(&q);
        assert_eq!(core.size(), 2);
        assert!(equivalent(&q, &core));
    }

    #[test]
    fn answer_vars_kept() {
        // The loop is on a non-answer variable; the answer path must stay.
        let q = parse_query("?(A) :- e(A,B), e(X,X).").unwrap();
        let core = query_core(&q);
        assert!(equivalent(&q, &core));
        assert_eq!(core.answer_vars().len(), 1);
        // e(X,X) absorbs e(A,B)? No: A is an answer variable, so both the
        // loop atom and an atom mentioning A must survive... in fact e(A,B)
        // maps onto e(X,X) only if A maps to X, which is forbidden.
        assert_eq!(core.size(), 2);
    }

    #[test]
    fn triangle_vs_cycle6() {
        // A 6-cycle with a triangle retracts onto the triangle.
        let q = parse_query(
            "? :- e(A,B), e(B,C), e(C,D), e(D,E), e(E,F), e(F,A), \
                  e(T1,T2), e(T2,T3), e(T3,T1).",
        )
        .unwrap();
        let core = query_core(&q);
        assert_eq!(core.size(), 3);
    }
}

//! Budget-truncated rewritings must stay *sound*: truncation may drop
//! coverage the full rewriting would have had, but it must never return a
//! disjunct that is not a genuine rewriting, and it must never lose the
//! coverage of queries it had already accepted.
//!
//! The regression test pins the historical `max_queries` truncation bug:
//! the merge broke out *after* a candidate's victims were evicted but
//! *before* the candidate was pushed, so the returned UCQ lost the
//! victims' coverage with nothing standing in for them.

use qr_chase::{chase, ChaseBudget};
use qr_hom::containment::subsumed_by_any;
use qr_hom::holds;
use qr_rewrite::{rewrite, rewrite_with_trace, RewriteBudget, RewriteOutcome};
use qr_syntax::{parse_query, parse_theory, ConjunctiveQuery, TermId};
use qr_testkit::{check, Rng};

/// Piece-rewritable theories: saturating shapes and divergent Datalog, so
/// random budgets hit `max_generated`, `max_queries` and `max_atoms`
/// truncation as well as complete runs.
const THEORIES: [&str; 6] = [
    "human(Y) -> mother(Y,Z).\nmother(X,Y) -> human(Y).",
    "e(X,Y) -> e(Y,Z).",
    "p(X), e(X,Y) -> p(Y).\nq(X) -> p(X).",
    "e(X,Y), e(Y,Z) -> e(X,Z).",
    "p(X) -> q(X).",
    "e(X,Y,Z), r(X,Z) -> r(Y,Z).",
];

const QUERIES: [&str; 5] = [
    "? :- e(A,B), e(B,C).",
    "?(A) :- e(A,B), e(B,C).",
    "? :- e(A,B).",
    "? :- q(A), p(A).",
    "? :- r(A,B), q(A).",
];

fn pick_inputs(rng: &mut Rng) -> (qr_syntax::Theory, ConjunctiveQuery, &'static str) {
    let theory_src = *rng.pick::<&str>(&THEORIES);
    let theory = parse_theory(theory_src).unwrap();
    // Ternary-`e` theories only get the matching-arity query.
    let query_src = if theory_src.contains("e(X,Y,Z)") {
        "? :- r(A,B), q(A)."
    } else {
        rng.pick::<&str>(&QUERIES)
    };
    (theory, parse_query(query_src).unwrap(), query_src)
}

/// Regression for the `max_queries` truncation hole. With `max_queries =
/// 0` the unguarded seed push leaves the set over capacity, so the first
/// accepted candidate both evicts the seed and trips the budget check —
/// the old loop broke between the two and returned an *empty* UCQ,
/// silently losing the seed's coverage. Every query accepted before the
/// truncation point must still be covered by some returned disjunct.
#[test]
fn budget_break_mid_eviction_keeps_coverage() {
    let theory = parse_theory("p(X) -> q(X).").unwrap();
    let query = parse_query("? :- q(A), p(A).").unwrap();
    let budget = RewriteBudget {
        max_queries: 0,
        max_generated: 100,
        max_atoms: 8,
    };
    let mut accepted: Vec<ConjunctiveQuery> = Vec::new();
    let r = rewrite_with_trace(&theory, &query, budget, |_, cq| accepted.push(cq.clone())).unwrap();
    assert_eq!(r.outcome, RewriteOutcome::Budget);
    // The candidate p(A) evicts the seed q(A),p(A) and must replace it:
    // the rescue push keeps exactly one disjunct.
    assert_eq!(r.ucq.len(), 1, "victim's replacement must be kept");
    let disjuncts: Vec<&ConjunctiveQuery> = r.ucq.disjuncts().iter().collect();
    for pre in &accepted {
        assert!(
            subsumed_by_any(pre, &disjuncts),
            "truncation lost coverage of accepted query {}",
            pre.render()
        );
    }
}

/// The fix must not truncate runs the old engine finished: at capacity
/// with an eviction freeing a slot, saturation continues (here to the
/// complete one-disjunct rewriting) instead of stopping early.
#[test]
fn eviction_at_capacity_still_saturates() {
    let theory = parse_theory("p(X) -> q(X).").unwrap();
    let query = parse_query("? :- q(A), p(A).").unwrap();
    let r = rewrite(
        &theory,
        &query,
        RewriteBudget {
            max_queries: 1,
            max_generated: 100,
            max_atoms: 8,
        },
    )
    .unwrap();
    assert_eq!(r.outcome, RewriteOutcome::Complete);
    assert_eq!(r.ucq.len(), 1);
    assert_eq!(r.ucq.disjuncts()[0].render(), "? :- p(U0)");
}

/// Semantic soundness of every truncated run: each returned disjunct `d`
/// entails the original query via the chase — freezing `d` into an
/// instance and chasing it (depth ≥ the run's rewriting depth) must
/// satisfy the query at `d`'s answer tuple, whatever mix of budget limits
/// cut the run short.
#[test]
fn truncated_disjuncts_entail_the_query() {
    check("truncated_disjuncts_entail_the_query", 24, |rng| {
        let (theory, query, query_src) = pick_inputs(rng);
        let budget = RewriteBudget {
            max_queries: rng.range(1, 8),
            max_generated: rng.range(5, 80),
            max_atoms: rng.range(3, 8),
        };
        let r = rewrite(&theory, &query, budget).unwrap();
        for d in r.ucq.disjuncts() {
            let (frozen, map) = d.freeze();
            let ch = chase(
                &theory,
                &frozen,
                ChaseBudget {
                    max_rounds: r.depth + 2,
                    max_facts: 50_000,
                },
            );
            let tuple: Vec<TermId> = d.answer_vars().iter().map(|v| map[v]).collect();
            assert!(
                holds(&query, &ch.instance, &tuple),
                "unsound truncated disjunct {} for query {query_src} under {} (budget {budget:?})",
                d.render(),
                theory.render()
            );
        }
    });
}

/// Tight-budget runs against their untruncated reference: when the
/// default-budget run completes, its kept set covers every sound
/// rewriting, so every disjunct a truncated run kept must be subsumed by
/// the complete run's set (entailed via `qr-hom` exactly as the reference
/// disjuncts are).
#[test]
fn truncated_disjuncts_covered_by_complete_reference() {
    check(
        "truncated_disjuncts_covered_by_complete_reference",
        24,
        |rng| {
            let (theory, query, query_src) = pick_inputs(rng);
            let reference = rewrite(&theory, &query, RewriteBudget::default()).unwrap();
            if !reference.is_complete() {
                return; // divergent pick: no finite reference set exists
            }
            let refs: Vec<&ConjunctiveQuery> = reference.ucq.disjuncts().iter().collect();
            for _ in 0..3 {
                let budget = RewriteBudget {
                    max_queries: rng.range(1, 8),
                    max_generated: rng.range(5, 80),
                    max_atoms: rng.range(3, 8),
                };
                let truncated = rewrite(&theory, &query, budget).unwrap();
                for d in truncated.ucq.disjuncts() {
                    assert!(
                        subsumed_by_any(d, &refs),
                        "disjunct {} of the {budget:?} run is not covered by the \
                     complete rewriting of {query_src} under {}",
                        d.render(),
                        theory.render()
                    );
                }
            }
        },
    );
}

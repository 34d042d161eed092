//! **E12 — Theorem 1**: the fundamental rewriting equivalence, checked
//! end-to-end: for every theory/query/instance/answer-tuple combination,
//! `D ⊨ rew(ψ)(ā)` iff `Ch(T,D) ⊨ ψ(ā)` (chase bounded well past the
//! query's entailment depth).
//!
//! For `T_d` the rewriting comes from the marked process (E3); for the
//! others from the generic piece-rewriting engine (all complete within
//! budget on these inputs).

use std::time::Instant;

use qr_chase::{chase, ChaseBudget};
use qr_core::marked::rewrite_td;
use qr_core::theories::{ex39, green_path, phi_r_n, t_a, t_p};
use qr_exec::Executor;
use qr_hom::{holds, holds_ucq_with};
use qr_rewrite::{rewrite, RewriteBudget};
use qr_syntax::{parse_instance, parse_query, ConjunctiveQuery, Instance, TermId, Theory, Ucq};

use crate::Table;

/// Checks the equivalence for one (theory, query, rewriting, instance):
/// returns `(agreements, disagreements)` over all answer tuples from
/// `dom(D)` (capped at 200 tuples). The rewriting-side disjunct sweep for
/// each tuple runs on `exec`'s worker pool.
pub fn check_equivalence(
    theory: &Theory,
    query: &ConjunctiveQuery,
    rewriting: &Ucq,
    rewriting_has_true: bool,
    db: &Instance,
    depth: usize,
    exec: &Executor,
) -> (usize, usize) {
    let ch = chase(
        theory,
        db,
        ChaseBudget {
            max_rounds: depth,
            max_facts: 2_000_000,
        },
    );
    let arity = query.answer_vars().len();
    let dom = db.domain();
    let mut tuples: Vec<Vec<TermId>> = vec![vec![]];
    for _ in 0..arity {
        tuples = tuples
            .into_iter()
            .flat_map(|t| {
                dom.iter().map(move |c| {
                    let mut t2 = t.clone();
                    t2.push(*c);
                    t2
                })
            })
            .collect();
        if tuples.len() > 200 {
            tuples.truncate(200);
        }
    }
    let (mut agree, mut disagree) = (0, 0);
    for tuple in tuples {
        let via_chase = holds(query, &ch.instance, &tuple);
        let via_rewriting = rewriting_has_true || holds_ucq_with(exec, rewriting, db, &tuple);
        if via_chase == via_rewriting {
            agree += 1;
        } else {
            disagree += 1;
        }
    }
    (agree, disagree)
}

/// The E12 table.
pub fn table(exec: &Executor) -> Table {
    let mut t = Table::new(
        "E12  Thm 1 — rewriting ≡ chase on every (theory, query, instance, tuple)",
        "zero disagreements everywhere",
        &["theory", "query", "instance", "tuples", "disagree", "ms"],
    );

    // Generic engine cases: (theory label, theory, query, named instances,
    // chase depth).
    type Case = (
        &'static str,
        Theory,
        ConjunctiveQuery,
        Vec<(&'static str, Instance)>,
        usize,
    );
    let cases: Vec<Case> = vec![
        (
            "T_a",
            t_a(),
            parse_query("?(X) :- mother(X, M).").expect("q"),
            vec![
                (
                    "family",
                    parse_instance("human(abel). mother(eve, abel).").expect("i"),
                ),
                ("humans", parse_instance("human(a). human(b).").expect("i")),
                ("empty-ish", parse_instance("p(z).").expect("i")),
            ],
            6,
        ),
        (
            "T_p",
            t_p(),
            parse_query("?(A) :- e(A,B), e(B,C).").expect("q"),
            vec![
                ("edge", parse_instance("e(a,b).").expect("i")),
                ("fork", parse_instance("e(a,b). e(c,b).").expect("i")),
                ("cycle", parse_instance("e(a,b). e(b,a).").expect("i")),
            ],
            6,
        ),
        (
            "Ex.39",
            ex39(),
            parse_query("?(A,D) :- e(A,B,C,D).").expect("q"),
            vec![
                ("star2", qr_core::theories::star_39(2)),
                ("star3", qr_core::theories::star_39(3)),
            ],
            5,
        ),
    ];
    for (name, theory, query, dbs, depth) in cases {
        let r = rewrite(&theory, &query, RewriteBudget::default()).expect("supported");
        assert!(r.is_complete(), "{name} rewriting incomplete");
        for (iname, db) in dbs {
            let t0 = Instant::now();
            let (agree, disagree) =
                check_equivalence(&theory, &query, &r.ucq, false, &db, depth, exec);
            t.row(vec![
                name.into(),
                query.render(),
                iname.into(),
                (agree + disagree).to_string(),
                disagree.to_string(),
                t0.elapsed().as_millis().to_string(),
            ]);
        }
    }

    // T_d via the marked process.
    let td = qr_core::theories::t_d();
    for n in [1usize, 2] {
        let q = phi_r_n(n);
        let mr = rewrite_td(&q, 10_000_000).expect("process terminates");
        let ucq = mr.ucq();
        for m in [(1 << n) - 1, 1 << n, (1 << n) + 1] {
            if m == 0 {
                continue;
            }
            let (db, _, _) = green_path(m, &format!("e12x{n}x{m}x"));
            let t0 = Instant::now();
            let (agree, disagree) =
                check_equivalence(&td, &q, &ucq, mr.has_true_disjunct, &db, 2 * n + 2, exec);
            t.row(vec![
                "T_d (marked)".into(),
                format!("φ_R^{n}"),
                format!("G^{m}"),
                (agree + disagree).to_string(),
                disagree.to_string(),
                t0.elapsed().as_millis().to_string(),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_disagreements_small() {
        let theory = t_p();
        let query = parse_query("?(A) :- e(A,B), e(B,C).").unwrap();
        let exec = Executor::sequential();
        let r = rewrite(&theory, &query, RewriteBudget::default()).unwrap();
        let db = parse_instance("e(a,b). e(c,d). e(d,a).").unwrap();
        let (_, disagree) = check_equivalence(&theory, &query, &r.ucq, false, &db, 6, &exec);
        assert_eq!(disagree, 0);
    }

    #[test]
    fn t_d_marked_rewriting_agrees_with_chase() {
        let td = qr_core::theories::t_d();
        let q = phi_r_n(1);
        let mr = rewrite_td(&q, 1_000_000).unwrap();
        for m in 1..=3usize {
            let (db, _, _) = green_path(m, &format!("t12x{m}x"));
            let (_, disagree) = check_equivalence(
                &td,
                &q,
                &mr.ucq(),
                mr.has_true_disjunct,
                &db,
                4,
                &Executor::with_threads(2),
            );
            assert_eq!(disagree, 0, "G^{m}");
        }
    }
}

//! **E14 — Exercises 13 & 17, Observation 29**: the "BDD is local"
//! intuitions, quantified.
//!
//! * Exercise 13: input constants joined by a chase fact were already close
//!   in `D` (bounded *edge contraction*) — flat for BDD theories, growing
//!   with the instance for transitive closure (not BDD).
//! * Exercise 17: facts about existing terms appear with constant delay
//!   (`n_at`) — again flat for BDD, growing for transitive closure.
//! * Observation 29: entailment is always witnessed by ≤ `rs_T(ψ)` facts.

use std::time::Instant;

use qr_classes::exercises::{edge_contraction_bound, observation29_check, production_delay_bound};
use qr_core::theories::{t_a, t_p};
use qr_syntax::{parse_instance, parse_query, parse_theory, Instance, Theory};

use crate::Table;

fn path(n: usize) -> Instance {
    let mut s = String::new();
    for i in 0..n {
        s.push_str(&format!("e(x{i}, x{}).\n", i + 1));
    }
    parse_instance(&s).expect("path parses")
}

/// The E14 table.
pub fn table() -> Table {
    let mut t = Table::new(
        "E14  Ex. 13/17, Obs. 29 — BDD locality intuitions, quantified",
        "contraction d and delay n_at flat for BDD theories, growing for transitive closure; Obs. 29 holds",
        &["theory", "|D| (path)", "Ex.13 d", "Ex.17 n_at", "Obs.29 ok", "ms"],
    );
    let tc = parse_theory("e(X,Y), e(Y,Z) -> e(X,Z).").expect("parses");
    let cases: Vec<(&str, Theory, usize)> = vec![
        ("T_p (BDD)", t_p(), 1),
        ("T_a (BDD)", t_a(), 1),
        ("transitive closure (not BDD)", tc, usize::MAX),
    ];
    for (name, theory, rs) in cases {
        for n in [4usize, 8, 16] {
            let t0 = Instant::now();
            let db = if name.starts_with("T_a") {
                parse_instance(&format!("human(h{n}). mother(h{n}, m{n}).\n")).expect("parses")
            } else {
                path(n)
            };
            let d = edge_contraction_bound(&theory, &db, 6);
            let delay = production_delay_bound(&theory, &db, 6);
            let obs29 = if rs == usize::MAX {
                "n/a".to_string()
            } else {
                let q = parse_query(if name.starts_with("T_a") {
                    "?(X) :- mother(X, M)."
                } else {
                    "? :- e(A,B), e(B,C)."
                })
                .expect("parses");
                let ans: Vec<qr_syntax::TermId> = if q.answer_vars().is_empty() {
                    vec![]
                } else {
                    vec![db.domain()[0]]
                };
                observation29_check(&theory, &q, rs, &db, &ans, 6).to_string()
            };
            t.row(vec![
                name.into(),
                db.len().to_string(),
                d.map_or("-".into(), |d| d.to_string()),
                delay.to_string(),
                obs29,
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
    fn bdd_flat_tc_grows() {
        let tc = parse_theory("e(X,Y), e(Y,Z) -> e(X,Z).").unwrap();
        assert!(
            edge_contraction_bound(&tc, &path(8), 6).unwrap()
                > edge_contraction_bound(&tc, &path(4), 6).unwrap()
        );
        let tp = t_p();
        assert_eq!(
            edge_contraction_bound(&tp, &path(4), 6),
            edge_contraction_bound(&tp, &path(8), 6)
        );
    }
}

//! **E7 — Observation 31 / Exercise 12 / Theorem 3**: local theories (all
//! linear ones, all binary BDD ones) admit rewritings with disjuncts of
//! size **linear** in `|ψ|` — in stark contrast to `T_d` (E3). We sweep
//! query size for two linear binary theories and record `rs_T(ψ)`.

use std::time::Instant;

use qr_core::theories::{t_a, t_p};
use qr_rewrite::{rewrite, RewriteBudget};
use qr_syntax::{parse_query, ConjunctiveQuery, Theory};

use crate::Table;

/// Mother-chain query of size `k`: `?(X0) :- mother(X0,X1), …`.
pub fn mother_chain(k: usize) -> ConjunctiveQuery {
    let atoms: Vec<String> = (0..k)
        .map(|i| format!("mother(X{i}, X{})", i + 1))
        .collect();
    parse_query(&format!("?(X0) :- {}.", atoms.join(", "))).expect("chain parses")
}

/// Edge-chain query of size `k` anchored at the answer variable.
pub fn edge_chain(k: usize) -> ConjunctiveQuery {
    let atoms: Vec<String> = (0..k).map(|i| format!("e(X{i}, X{})", i + 1)).collect();
    parse_query(&format!("?(X0) :- {}.", atoms.join(", "))).expect("chain parses")
}

/// Edge-chain query of size `k` anchored at **both** ends: the rewriting
/// must preserve the chain between the answers, so `rs` grows linearly —
/// the largest rewritings a local theory can produce (Observation 31).
pub fn anchored_chain(k: usize) -> ConjunctiveQuery {
    let atoms: Vec<String> = (0..k).map(|i| format!("e(X{i}, X{})", i + 1)).collect();
    parse_query(&format!("?(X0, X{k}) :- {}.", atoms.join(", "))).expect("chain parses")
}

fn measure(theory: &Theory, q: &ConjunctiveQuery) -> (bool, usize, usize) {
    let r = rewrite(theory, q, RewriteBudget::default()).expect("no builtin bodies");
    (r.is_complete(), r.ucq.len(), r.rs())
}

/// The E7 table.
pub fn table() -> Table {
    let mut t = Table::new(
        "E7  Obs. 31 / Thm 3 — linear (local) theories have linear-size rewritings",
        "complete rewritings; rs(ψ) ≤ l·|ψ| with small l (compare E3's exponential rs)",
        &[
            "theory",
            "|ψ|",
            "complete",
            "disjuncts",
            "rs",
            "rs/|ψ|",
            "ms",
        ],
    );
    for k in 1..=6usize {
        let t0 = Instant::now();
        let (complete, n, rs) = measure(&t_a(), &mother_chain(k));
        t.row(vec![
            "T_a (Ex. 1)".into(),
            k.to_string(),
            complete.to_string(),
            n.to_string(),
            rs.to_string(),
            format!("{:.2}", rs as f64 / k as f64),
            t0.elapsed().as_millis().to_string(),
        ]);
    }
    for k in 1..=6usize {
        let t0 = Instant::now();
        let (complete, n, rs) = measure(&t_p(), &edge_chain(k));
        t.row(vec![
            "T_p (Ex. 12)".into(),
            k.to_string(),
            complete.to_string(),
            n.to_string(),
            rs.to_string(),
            format!("{:.2}", rs as f64 / k as f64),
            t0.elapsed().as_millis().to_string(),
        ]);
    }
    for k in 1..=6usize {
        let t0 = Instant::now();
        let (complete, n, rs) = measure(&t_p(), &anchored_chain(k));
        t.row(vec![
            "T_p, both ends anchored".into(),
            k.to_string(),
            complete.to_string(),
            n.to_string(),
            rs.to_string(),
            format!("{:.2}", rs as f64 / k as f64),
            t0.elapsed().as_millis().to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_chase::provenance::minimal_support;
    use qr_chase::ChaseBudget;
    use qr_syntax::parse_instance;

    #[test]
    fn anchored_chain_rs_is_linear_not_constant() {
        // With both endpoints anchored, the rewriting keeps the chain:
        // rs = k exactly (the linear worst case of Observation 31).
        for k in [2usize, 4] {
            let (complete, _, rs) = measure(&t_p(), &anchored_chain(k));
            assert!(complete);
            assert_eq!(rs, k);
        }
    }

    #[test]
    fn rewritings_complete_and_linear() {
        for k in 1..=4usize {
            let (complete, _, rs) = measure(&t_a(), &mother_chain(k));
            assert!(complete);
            assert!(rs <= k, "rs {rs} exceeds linear bound at k={k}");
            let (complete, _, rs) = measure(&t_p(), &edge_chain(k));
            assert!(complete);
            assert!(rs <= k);
        }
    }

    #[test]
    fn locality_of_t_p_in_supports() {
        // Exercise 12's hint, support-style: every chase fact of T_p comes
        // from one input edge.
        let db = parse_instance("e(a,b). e(c,d). e(b,c).").unwrap();
        let q = parse_query("? :- e(b, X), e(X, Y).").unwrap();
        let s = minimal_support(&t_p(), &db, &q, &[], ChaseBudget::rounds(4)).unwrap();
        assert!(s.len() <= 2);
    }
}

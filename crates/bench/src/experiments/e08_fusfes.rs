//! **E8 — Theorem 4 / Observation 27 / Example 28**: the FUS/FES picture.
//!
//! * Exercise 23's theory is BDD + FES (and local): the per-instance
//!   constant `c_{T,D}` is **flat** across growing instances — the UBDD
//!   signature Theorem 4 predicts.
//! * `T_p` (Exercise 12/22) is BDD but not FES: no certificate exists.
//! * The Example 28 truncations are BDD + FES for every `K`, but
//!   `c_T(K) = K` grows — so the infinite union has no uniform bound,
//!   which is why the conjecture needs finite theories.

use std::time::Instant;

use qr_chase::core_term::CoreTermBudget;
use qr_core::fusfes::uniform_bound_profile;
use qr_core::theories::{ex23, ex28, t_p};
use qr_syntax::{parse_instance, Instance};

use crate::Table;

/// An `e`-path of `n` edges.
pub fn e_path(n: usize) -> Instance {
    let mut src = String::new();
    for i in 0..n {
        src.push_str(&format!("e(q{i}, q{}).\n", i + 1));
    }
    parse_instance(&src).expect("path parses")
}

/// The E8 table.
pub fn table() -> Table {
    let mut t = Table::new(
        "E8  Thm 4 / Obs. 27 / Ex. 28 — uniform chase bounds c_{T,D}",
        "Ex.23: flat c=2 (UBDD); T_p: no certificates (not FES); Ex.28: c grows with K",
        &["theory", "instance", "|D|", "c_{T,D}", "ms"],
    );
    let budget = CoreTermBudget::default();
    for n in [1usize, 2, 4, 6, 8] {
        let t0 = Instant::now();
        let p = uniform_bound_profile(&ex23(), &[e_path(n)], budget);
        t.row(vec![
            "Ex.23 (FES, local)".into(),
            format!("path {n}"),
            n.to_string(),
            p.per_instance[0].1.map_or("none".into(), |c| c.to_string()),
            t0.elapsed().as_millis().to_string(),
        ]);
    }
    for n in [1usize, 3, 5] {
        let t0 = Instant::now();
        let p = uniform_bound_profile(&t_p(), &[e_path(n)], budget);
        t.row(vec![
            "T_p (BDD, not FES)".into(),
            format!("path {n}"),
            n.to_string(),
            p.per_instance[0].1.map_or("none".into(), |c| c.to_string()),
            t0.elapsed().as_millis().to_string(),
        ]);
    }
    for k in 2..=5usize {
        let t0 = Instant::now();
        let db = parse_instance(&format!("e{k}(a, b).")).expect("parses");
        let p = uniform_bound_profile(
            &ex28(k),
            &[db],
            CoreTermBudget {
                max_depth: 8,
                lookahead: 2,
                max_facts: 100_000,
            },
        );
        t.row(vec![
            format!("Ex.28 truncation K={k}"),
            "single E_K edge".into(),
            "1".into(),
            p.per_instance[0].1.map_or("none".into(), |c| c.to_string()),
            t0.elapsed().as_millis().to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_core::fusfes::theorem4_certificate;

    #[test]
    fn flat_vs_growing() {
        let budget = CoreTermBudget::default();
        let flat = uniform_bound_profile(&ex23(), &[e_path(2), e_path(5)], budget);
        assert!(flat.is_flat() && flat.all_certified());
        let none = uniform_bound_profile(&t_p(), &[e_path(2)], budget);
        assert!(!none.all_certified());
    }

    #[test]
    fn theorem4_certificate_on_paths() {
        let (m, n) = theorem4_certificate(&ex23(), &e_path(3), 2, CoreTermBudget::default())
            .expect("certificate");
        assert!(e_path(3).subset_of(&m));
        assert!(n <= 2);
    }
}

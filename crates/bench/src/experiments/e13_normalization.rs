//! **E13 — Appendix A (Theorem 3)**: the normalization algorithm.
//!
//! Example 66 shows that the raw theory's ancestor sets can be made
//! unboundedly large by an adversarial ancestor function (Lemma 65 is
//! false), while the normalized theory `T_NF` bounds the *connected*
//! ancestors of every chase tree (the Crucial Lemma 77) — the key step in
//! proving binary BDD theories local. We measure both bounds, and verify
//! Lemma 70 / Corollary 76 (the chases of `T` and `T_NF` agree) on every
//! instance.

use std::time::Instant;

use qr_core::normalize::{ancestor_bounds, corollary76_check, lemma70_check, normalize};
use qr_core::theories::ex66;
use qr_rewrite::RewriteBudget;
use qr_syntax::{parse_instance, Instance};

use crate::Table;

/// Example 66's instance: one `E`-edge plus `m` irrelevant `P`-atoms.
pub fn ex66_instance(m: usize) -> Instance {
    let mut src = String::from("e(a0, a1).\n");
    for i in 1..=m {
        src.push_str(&format!("p(b{i}).\n"));
    }
    parse_instance(&src).expect("instance parses")
}

/// The E13 table.
pub fn table() -> Table {
    let mut t = Table::new(
        "E13  App. A / Thm 3 — normalization bounds connected ancestors (Ex. 66)",
        "raw adversarial tree-ancestor union grows with |D|; T_NF connected union stays ≤ 2; Lemma 70 & Cor. 76 hold",
        &["m (P-atoms)", "depth", "raw anc union", "T_NF canc union", "Lemma 70", "Cor. 76", "ms"],
    );
    let theory = ex66();
    let n = normalize(&theory, RewriteBudget::default()).expect("Ex. 66 is BDD");
    for m in [1usize, 2, 4, 6] {
        let t0 = Instant::now();
        let db = ex66_instance(m);
        let depth = 2 * m + 2;
        let (raw, nf) = ancestor_bounds(&theory, &n, &db, depth);
        let l70 = lemma70_check(&theory, &n, &db, 4);
        let c76 = corollary76_check(&theory, &n, &db, 3);
        t.row(vec![
            m.to_string(),
            depth.to_string(),
            raw.to_string(),
            nf.to_string(),
            l70.to_string(),
            c76.to_string(),
            t0.elapsed().as_millis().to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_grows_nf_flat() {
        let theory = ex66();
        let n = normalize(&theory, RewriteBudget::default()).unwrap();
        let (raw2, nf2) = ancestor_bounds(&theory, &n, &ex66_instance(2), 6);
        let (raw4, nf4) = ancestor_bounds(&theory, &n, &ex66_instance(4), 10);
        assert!(raw4 > raw2);
        assert_eq!(nf2, nf4);
    }
}

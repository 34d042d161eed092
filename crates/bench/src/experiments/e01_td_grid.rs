//! **E1 — Fig. 1 / Theorem 5B(i)**: `Ch(T_d, G^{2^n}(a,b)) ⊨ φ_R^n(a,b)`.
//!
//! Expected shape: the query of size `2n+1` is entailed on the green path
//! of length `2^n`; the chase depth needed grows linearly in `n` while the
//! chase itself grows exponentially (the grid of Fig. 1).

use std::time::Instant;

use qr_chase::{chase, ChaseBudget};
use qr_core::theories::{green_path, phi_r_n, t_d};
use qr_hom::HomKernel;

use crate::Table;

/// Largest `n` (path length `2^n`) the default harness run covers.
pub const MAX_N: usize = 3;

/// Runs E1 for one `n`: returns `(first entailment depth, chase facts at
/// that depth, entailed)`.
pub fn run_one(n: usize, max_rounds: usize) -> (Option<usize>, usize, bool) {
    let len = 1usize << n;
    let (db, a, b) = green_path(len, "a");
    let theory = t_d();
    let q = phi_r_n(n);
    let kernel = HomKernel::new();
    for rounds in 1..=max_rounds {
        let ch = chase(
            &theory,
            &db,
            ChaseBudget {
                max_rounds: rounds,
                max_facts: 2_000_000,
            },
        );
        if kernel.holds(&q, &ch.instance, &[a, b]) {
            return (Some(rounds), ch.instance.len(), true);
        }
    }
    (None, 0, false)
}

/// The E1 table.
pub fn table() -> Table {
    let mut t = Table::new(
        "E1  Fig. 1 / Thm 5B(i) — T_d entails φ_R^n on the green path G^{2^n}",
        "entailed at every n; depth grows ~linearly in n, chase size exponentially",
        &[
            "n",
            "|G path|",
            "|φ_R^n|",
            "entailed",
            "depth",
            "chase facts",
            "ms",
        ],
    );
    for n in 0..=MAX_N {
        let t0 = Instant::now();
        let (depth, facts, entailed) = run_one(n, 10);
        t.row(vec![
            n.to_string(),
            (1usize << n).to_string(),
            phi_r_n(n).size().to_string(),
            entailed.to_string(),
            depth.map_or("-".into(), |d| d.to_string()),
            facts.to_string(),
            t0.elapsed().as_millis().to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_hom::holds;

    #[test]
    fn small_n_entailed_at_expected_depths() {
        assert_eq!(run_one(0, 4).0, Some(1));
        assert_eq!(run_one(1, 4).0, Some(2));
        assert_eq!(run_one(2, 6).0, Some(4));
    }

    #[test]
    fn longer_paths_do_not_entail_early() {
        // φ_R^2 needs the exact doubling geometry: the path G^3 (≠ 2^2)
        // must not entail it.
        let (db, a, b) = green_path(3, "w");
        let ch = chase(&t_d(), &db, ChaseBudget::rounds(5));
        assert!(!holds(&phi_r_n(2), &ch.instance, &[a, b]));
    }
}

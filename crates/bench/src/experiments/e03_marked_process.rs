//! **E3 — Theorem 5(A), Sections 10–11**: the marked-query process
//! terminates on `φ_R^n` and its output contains the disjunct `G^{2^n}` —
//! a rewriting disjunct of size exponential in `|φ_R^n| = 2n+1`.

use std::time::Instant;

use qr_core::marked::rewrite_td;
use qr_core::theories::{g_power_query, phi_r_n};
use qr_hom::HomKernel;

use crate::Table;

/// Largest `n` covered by the default run.
pub const MAX_N: usize = 5;

/// The E3 table.
pub fn table() -> Table {
    let mut t = Table::new(
        "E3  Thm 5(A) — marked-query process computes rew(φ_R^n) under T_d",
        "terminates; contains the G^{2^n} disjunct; max disjunct size grows exponentially in n",
        &[
            "n",
            "|φ_R^n|",
            "steps",
            "disjuncts",
            "max size",
            "G^{2^n} present",
            "ms",
        ],
    );
    let kernel = HomKernel::new();
    for n in 1..=MAX_N {
        let t0 = Instant::now();
        let r = rewrite_td(&phi_r_n(n), 100_000_000).expect("process terminates");
        let gpath = g_power_query(1 << n);
        let present = r.disjuncts.iter().any(|d| kernel.equivalent(d, &gpath));
        t.row(vec![
            n.to_string(),
            phi_r_n(n).size().to_string(),
            r.stats.steps.to_string(),
            r.disjuncts.len().to_string(),
            r.max_disjunct_size().to_string(),
            present.to_string(),
            t0.elapsed().as_millis().to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_disjunct_growth() {
        let sizes: Vec<usize> = (1..=3)
            .map(|n| {
                rewrite_td(&phi_r_n(n), 10_000_000)
                    .unwrap()
                    .max_disjunct_size()
            })
            .collect();
        // Query grows by 2 atoms per n; the max disjunct roughly doubles.
        assert!(sizes[1] >= 2 * sizes[0]);
        assert!(sizes[2] as f64 >= 1.7 * sizes[1] as f64);
    }

    #[test]
    fn g_path_disjunct_present_n3() {
        let r = rewrite_td(&phi_r_n(3), 10_000_000).unwrap();
        let g8 = g_power_query(8);
        let kernel = HomKernel::new();
        assert!(r.disjuncts.iter().any(|d| kernel.equivalent(d, &g8)));
    }
}

//! **E2 — Theorem 5B(ii)**: the minimal support of `φ_R^n(a,b)` in
//! `G^{2^n}(a,b)` is the **whole path** (every proper subset disconnects
//! `a` from `b`), so `rew(φ_R^n)` has a disjunct of size `2^n` — and `T_d`
//! is not distancing (Definition 43): the chase pulls `a` and `b` to
//! distance `O(n)` while they are `2^n` apart in `D`.

use std::time::Instant;

use qr_chase::provenance::minimal_support;
use qr_chase::ChaseBudget;
use qr_classes::empirical::distancing_profile;
use qr_core::theories::{green_path, phi_r_n, t_d};

use crate::Table;

/// Largest `n` covered by the default run.
pub const MAX_N: usize = 3;

/// Chase depth that suffices for `φ_R^n` on `G^{2^n}` (E1 measures it; the
/// bound `2n + 1` covers the default range).
pub fn depth_for(n: usize) -> usize {
    2 * n + 1
}

/// The E2 table.
pub fn table() -> Table {
    let mut t = Table::new(
        "E2  Thm 5B(ii) — minimal support of φ_R^n is the whole path; T_d is not distancing",
        "support = 2^n (the full G-path); dist_D/dist_Ch crosses 1 at n=3 (2^n vs ~2n+1 through the grid)",
        &["n", "|D| = 2^n", "min support", "support = D", "worst dist_Ch", "worst dist_D/dist_Ch", "ms"],
    );
    for n in 0..=MAX_N {
        let t0 = Instant::now();
        let len = 1usize << n;
        let (db, a, b) = green_path(len, "a");
        let budget = ChaseBudget {
            max_rounds: depth_for(n),
            max_facts: 2_000_000,
        };
        let support =
            minimal_support(&t_d(), &db, &phi_r_n(n), &[a, b], budget).expect("entailed by E1");
        let dp = distancing_profile(&t_d(), &db, depth_for(n));
        let (d_ch, ratio) = dp
            .worst
            .map(|(_, _, d_ch, _)| {
                (
                    d_ch.to_string(),
                    format!("{:.1}", dp.max_ratio.unwrap_or(0.0)),
                )
            })
            .unwrap_or(("-".into(), "-".into()));
        t.row(vec![
            n.to_string(),
            db.len().to_string(),
            support.len().to_string(),
            (support == db).to_string(),
            d_ch,
            ratio,
            t0.elapsed().as_millis().to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn support_is_whole_path_small() {
        for n in 0..=2usize {
            let (db, a, b) = green_path(1 << n, "s");
            let budget = ChaseBudget {
                max_rounds: depth_for(n),
                max_facts: 500_000,
            };
            let s = minimal_support(&t_d(), &db, &phi_r_n(n), &[a, b], budget).unwrap();
            assert_eq!(s, db, "n={n}");
        }
    }

    #[test]
    fn distance_contracts_on_g8() {
        // On G^8 the endpoints are 8 apart in D but reachable in ≤ 7 steps
        // through the grid towers (the 2^n-vs-(2n+1) crossover at n = 3);
        // for larger n the gap is exponential.
        let (db, _, _) = green_path(8, "dc");
        let dp = distancing_profile(&t_d(), &db, 7);
        assert!(dp.max_ratio.unwrap() > 1.0, "{:?}", dp.worst);
    }
}

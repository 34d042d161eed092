//! **E9 — Section 12 / Theorem 6**: the `K`-colour theories `T_d^K`.
//!
//! The paper defers its `(K−1)`-fold-exponential witness query to the
//! journal version; what we reproduce is the *compounding mechanism*:
//!
//! 1. at **every** adjacent colour pair `(i+1, i)` of `T_d^K`, the marked
//!    process rewrites `φ^n_{i+1,i}` to a pure `I_i`-path of length `2^n`
//!    (the level-wise single exponential that stacks into the tower), and
//! 2. a recursive "tower" query (each level's bridge replaced by the
//!    level-below pattern) shows the per-level growth composing across
//!    `K = 2, 3, 4`.

use std::time::Instant;

use qr_core::marked::rewrite_tdk;
use qr_core::theories::{colour_path_query, phi_n};
use qr_hom::HomKernel;
use qr_syntax::{parse_query, ConjunctiveQuery};

use crate::Table;

/// The recursive tower query: `I_k`-paths of length `n` from `X` and `Y`
/// whose tips are bridged by the level-`(k−1)` pattern; the level-1 bridge
/// is a single `i1`-edge. `tower(2, n)` is `φ^n_{i2,i1}`.
pub fn tower(k: usize, n: usize) -> ConjunctiveQuery {
    fn bridge(k: usize, n: usize, x: &str, y: &str, fresh: &mut usize, atoms: &mut Vec<String>) {
        if k == 1 {
            atoms.push(format!("i1({x}, {y})"));
            return;
        }
        let (mut cx, mut cy) = (x.to_string(), y.to_string());
        for _ in 0..n {
            let nx = format!("V{}", *fresh);
            let ny = format!("V{}", *fresh + 1);
            *fresh += 2;
            atoms.push(format!("i{k}({cx}, {nx})"));
            atoms.push(format!("i{k}({cy}, {ny})"));
            cx = nx;
            cy = ny;
        }
        bridge(k - 1, n, &cx, &cy, fresh, atoms);
    }
    let mut atoms = Vec::new();
    let mut fresh = 0;
    bridge(k, n, "X", "Y", &mut fresh, &mut atoms);
    parse_query(&format!("?(X, Y) :- {}.", atoms.join(", "))).expect("tower parses")
}

/// The E9 table.
pub fn table() -> Table {
    let mut t = Table::new(
        "E9  §12 / Thm 6 — T_d^K: the per-level exponential compounds across colours",
        "each level pair yields pure low-colour paths of length 2^n; tower sizes grow with K and n",
        &[
            "K",
            "query",
            "|ψ|",
            "disjuncts",
            "max size",
            "2^n low path",
            "steps",
            "ms",
        ],
    );
    // (1) Per-level single exponential inside T_d^3.
    let kernel = HomKernel::new();
    for (level, hi, lo) in [(1u8, "i2", "i1"), (2u8, "i3", "i2")] {
        for n in 1..=3usize {
            let t0 = Instant::now();
            let q = phi_n(n, hi, lo);
            let r = rewrite_tdk(3, &q, 100_000_000).expect("terminates");
            let path = colour_path_query(1 << n, lo);
            let present = r.disjuncts.iter().any(|d| kernel.equivalent(d, &path));
            t.row(vec![
                "3".into(),
                format!("φ^{n} at level {}", level + 1),
                q.size().to_string(),
                r.disjuncts.len().to_string(),
                r.max_disjunct_size().to_string(),
                present.to_string(),
                r.stats.steps.to_string(),
                t0.elapsed().as_millis().to_string(),
            ]);
        }
    }
    // (2) Tower composites across K.
    for (k, n) in [(2usize, 2usize), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2)] {
        let t0 = Instant::now();
        let q = tower(k, n);
        let r = rewrite_tdk(k, &q, 100_000_000).expect("terminates");
        t.row(vec![
            k.to_string(),
            format!("tower(K={k}, n={n})"),
            q.size().to_string(),
            r.disjuncts.len().to_string(),
            r.max_disjunct_size().to_string(),
            "-".into(),
            r.stats.steps.to_string(),
            t0.elapsed().as_millis().to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_level_exponential() {
        let kernel = HomKernel::new();
        for (hi, lo) in [("i2", "i1"), ("i3", "i2")] {
            let q = phi_n(2, hi, lo);
            let r = rewrite_tdk(3, &q, 10_000_000).unwrap();
            let path = colour_path_query(4, lo);
            assert!(
                r.disjuncts.iter().any(|d| kernel.equivalent(d, &path)),
                "level ({hi},{lo}) missing its 2^2-path disjunct"
            );
        }
    }

    #[test]
    fn tower_grows_with_k() {
        let m2 = rewrite_tdk(2, &tower(2, 1), 1_000_000)
            .unwrap()
            .max_disjunct_size();
        let m3 = rewrite_tdk(3, &tower(3, 1), 1_000_000)
            .unwrap()
            .max_disjunct_size();
        let m4 = rewrite_tdk(4, &tower(4, 1), 1_000_000)
            .unwrap()
            .max_disjunct_size();
        assert!(m2 < m3 && m3 < m4, "{m2} {m3} {m4}");
    }
}

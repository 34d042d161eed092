//! **E5 — Example 42**: `T_c` is BDD but **not even bd-local**: on the
//! degree-2 cycle `D_n`, chase facts require all `n` input edges, so no
//! constant `l_T(2)` exists (Definition 40).

use std::time::Instant;

use qr_classes::empirical::empirical_locality;
use qr_core::theories::{cycle, t_c};

use crate::Table;

/// Cycle sizes covered by the default run.
pub const NS: [usize; 5] = [3, 4, 5, 6, 8];

/// The E5 table.
pub fn table() -> Table {
    let mut t = Table::new(
        "E5  Ex. 42 — T_c is BDD but not bd-local (degree-2 cycles need all n edges)",
        "degree stays 2 while max minimal support = n",
        &["n (cycle)", "degree", "chase depth", "max support", "ms"],
    );
    for n in NS {
        let t0 = Instant::now();
        let p = empirical_locality(&t_c(), &cycle(n), n + 1);
        t.row(vec![
            n.to_string(),
            p.degree.to_string(),
            p.depth.to_string(),
            p.max_support.to_string(),
            t0.elapsed().as_millis().to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_2_support_n() {
        for n in [3usize, 5] {
            let p = empirical_locality(&t_c(), &cycle(n), n + 1);
            assert_eq!(p.degree, 2);
            assert_eq!(p.max_support, n, "n={n}");
        }
    }
}

//! **E4 — Example 39**: the sticky (hence BDD) one-rule theory is **not
//! local**: on the star instance with `k` colours, chase facts of depth `k`
//! have minimal supports of size `k+1`, so no constant `l_T` works
//! (Definition 30). The culprit is the unbounded degree of vertex `a` —
//! which motivates bd-locality (Definition 40).

use std::time::Instant;

use qr_classes::empirical::empirical_locality;
use qr_core::theories::{ex39, star_39};

use crate::Table;

/// Colour counts covered by the default run.
pub const KS: [usize; 5] = [1, 2, 3, 4, 5];

/// The E4 table.
pub fn table() -> Table {
    let mut t = Table::new(
        "E4  Ex. 39 — sticky theory is BDD but not local (support grows with colours)",
        "max minimal support = k+1, growing with the star's degree",
        &["k (colours)", "degree", "chase depth", "max support", "ms"],
    );
    for k in KS {
        let t0 = Instant::now();
        let p = empirical_locality(&ex39(), &star_39(k), k);
        t.row(vec![
            k.to_string(),
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
    fn support_is_k_plus_one() {
        for k in [2usize, 3] {
            let p = empirical_locality(&ex39(), &star_39(k), k);
            assert_eq!(p.max_support, k + 1, "k={k}");
        }
    }
}

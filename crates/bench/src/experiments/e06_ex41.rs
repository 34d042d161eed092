//! **E6 — Example 41**: `E(x,y,z), R(x,z) ⇒ R(y,z)` is bd-local but **not
//! BDD**: the rewriting of the atomic query `?(Y,Z) :- r(Y,Z)` keeps
//! growing (each step prepends one `e`-atom), so the generic engine
//! exhausts any budget with ever-longer chains — while on bounded-degree
//! instances the minimal supports stay small.

use std::time::Instant;

use qr_classes::empirical::empirical_locality;
use qr_core::theories::ex41;
use qr_rewrite::{rewrite, RewriteBudget};
use qr_syntax::{parse_instance, parse_query, Instance};

use crate::Table;

/// A bounded-degree chain for the locality side: `e(xᵢ,xᵢ₊₁,zᵢ)` with
/// per-edge fresh `zᵢ` plus `r(x₀,z₀)`.
pub fn bounded_degree_chain(n: usize) -> Instance {
    let mut src = String::from("r(x0, z0).\n");
    for i in 0..n {
        src.push_str(&format!("e(x{i}, x{}, z{i}).\n", i + 1));
    }
    parse_instance(&src).expect("chain parses")
}

/// The E6 table.
pub fn table() -> Table {
    let mut t = Table::new(
        "E6  Ex. 41 — bd-local but not BDD: rewriting diverges, supports stay small",
        "disjunct count grows with the budget (never Complete); bounded-degree supports ≤ 2",
        &[
            "budget (max atoms)",
            "outcome",
            "disjuncts",
            "rs",
            "bd-chain support",
            "ms",
        ],
    );
    let q = parse_query("?(Y,Z) :- r(Y,Z).").expect("query parses");
    for max_atoms in [8usize, 16, 32] {
        let t0 = Instant::now();
        let r = rewrite(
            &ex41(),
            &q,
            RewriteBudget {
                max_queries: 4096,
                max_generated: 100_000,
                max_atoms,
            },
        )
        .expect("no builtin bodies");
        let p = empirical_locality(&ex41(), &bounded_degree_chain(6), 8);
        t.row(vec![
            max_atoms.to_string(),
            format!("{:?}", r.outcome),
            r.ucq.len().to_string(),
            r.rs().to_string(),
            p.max_support.to_string(),
            t0.elapsed().as_millis().to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_rewrite::RewriteOutcome;

    #[test]
    fn rewriting_diverges() {
        // One rewriting chain of every length exists, so the disjunct count
        // scales with whatever atom budget we allow: never Complete. The
        // generation budget is generous, so the only losses are atom-cap
        // discards — reported as AtomCapped (saturated modulo the cap)
        // with the discard count surfaced, not as Budget.
        let q = parse_query("?(Y,Z) :- r(Y,Z).").unwrap();
        let run = |max_atoms: usize| {
            rewrite(
                &ex41(),
                &q,
                RewriteBudget {
                    max_queries: 512,
                    max_generated: 100_000,
                    max_atoms,
                },
            )
            .unwrap()
        };
        let small = run(8);
        let large = run(24);
        assert_eq!(small.outcome, RewriteOutcome::AtomCapped);
        assert_eq!(large.outcome, RewriteOutcome::AtomCapped);
        assert!(small.oversized_discarded > 0);
        assert!(large.oversized_discarded > 0);
        assert!(!small.is_complete() && !large.is_complete());
        assert!(large.ucq.len() > small.ucq.len());
        assert!(large.rs() > small.rs());
    }

    #[test]
    fn bounded_degree_supports_small() {
        let p = empirical_locality(&ex41(), &bounded_degree_chain(5), 6);
        assert!(p.max_support <= 2, "got {}", p.max_support);
        assert!(p.degree <= 4);
    }
}

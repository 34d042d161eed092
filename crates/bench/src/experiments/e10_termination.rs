//! **E10 — Exercises 22/23, Definitions 18–21**: the termination taxonomy
//! across the zoo, as detected by the engine's probes, against the paper's
//! classification.

use std::time::Instant;

use qr_chase::core_term::{all_instances_termination, core_termination, CoreTermBudget};
use qr_classes::{is_binary, is_linear, is_sticky, is_weakly_acyclic};
use qr_core::theories::{ex23, ex28, ex39, ex41, t_a, t_c, t_d, t_p};
use qr_syntax::{parse_instance, Instance, Theory};

use crate::Table;

/// A small probe instance appropriate for each theory's signature.
fn probe_instance(theory: &Theory) -> Instance {
    let sig = theory.signature();
    let has = |name: &str| sig.iter().any(|p| p.name().as_str() == name);
    // The deepest relation of an Example 28 truncation (e3, e2, …).
    let top_ek = sig
        .iter()
        .filter_map(|p| {
            let name = p.name().as_str();
            name.strip_prefix('e')?
                .parse::<usize>()
                .ok()
                .filter(|_| p.arity() == 2)
        })
        .max();
    if has("mother") {
        parse_instance("human(abel).").expect("parses")
    } else if let Some(k) = top_ek {
        parse_instance(&format!("e{k}(a,b).")).expect("parses")
    } else if sig
        .iter()
        .any(|p| p.name().as_str() == "e" && p.arity() == 4)
    {
        parse_instance("e(a,b1,b2,c1). r(a,c1). r(a,c2).").expect("parses")
    } else if sig
        .iter()
        .any(|p| p.name().as_str() == "e" && p.arity() == 3)
    {
        parse_instance("e(a,b,c). r(a,c).").expect("parses")
    } else if sig
        .iter()
        .any(|p| p.name().as_str() == "r" && p.arity() == 4)
    {
        // T_c: only cycles exhibit its non-termination.
        qr_core::theories::cycle(3)
    } else if has("g") {
        parse_instance("g(a,b). g(b,c).").expect("parses")
    } else {
        parse_instance("e(a,b). e(b,c).").expect("parses")
    }
}

/// The E10 table.
pub fn table() -> Table {
    let mut t = Table::new(
        "E10  Ex. 22/23, Defs. 18–21 — termination taxonomy over the zoo",
        "T_p: BDD only; Ex.23: +FES; Ex.28: +FES with growing bound; Datalog-free rules AIT iff weakly acyclic",
        &["theory", "linear", "sticky", "binary", "weak-acyc", "AIT probe", "FES probe (c)", "ms"],
    );
    let zoo: Vec<(&str, Theory)> = vec![
        ("T_a (Ex.1)", t_a()),
        ("T_p (Ex.12)", t_p()),
        ("Ex.23", ex23()),
        ("Ex.28 K=3", ex28(3)),
        ("Ex.39 sticky", ex39()),
        ("Ex.41", ex41()),
        ("T_c (Ex.42)", t_c()),
        ("T_d (Def.45)", t_d()),
    ];
    for (name, theory) in zoo {
        let t0 = Instant::now();
        let db = probe_instance(&theory);
        // T_d's chase grows too fast for the default probe depth (and T_d
        // is not FES: no fold onto a prefix exists — the pins trees are
        // rigid); a shallow budget keeps the negative probe cheap.
        let budget = if name.starts_with("T_d") {
            CoreTermBudget {
                max_depth: 2,
                lookahead: 1,
                max_facts: 5_000,
            }
        } else {
            CoreTermBudget::default()
        };
        let ait =
            all_instances_termination(&theory, &db, if name.starts_with("T_d") { 4 } else { 12 });
        let fes = core_termination(&theory, &db, budget);
        t.row(vec![
            name.into(),
            is_linear(&theory).to_string(),
            is_sticky(&theory).to_string(),
            is_binary(&theory).to_string(),
            is_weakly_acyclic(&theory).to_string(),
            ait.map_or("-".into(), |n| format!("stops@{n}")),
            fes.depth().map_or("-".into(), |c| format!("c={c}")),
            t0.elapsed().as_millis().to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_classification_matches() {
        // T_p: neither AIT nor FES on the probe instance.
        let tp = t_p();
        let db = probe_instance(&tp);
        assert_eq!(all_instances_termination(&tp, &db, 10), None);
        assert!(!core_termination(&tp, &db, CoreTermBudget::default()).terminates());
        // Ex.23: FES but not AIT.
        let e = ex23();
        let db = probe_instance(&e);
        assert_eq!(all_instances_termination(&e, &db, 10), None);
        assert!(core_termination(&e, &db, CoreTermBudget::default()).terminates());
        // Ex.28: AIT on its probe (finite chain of relations).
        let e28 = ex28(3);
        let db = probe_instance(&e28);
        assert!(all_instances_termination(&e28, &db, 10).is_some());
        assert!(is_weakly_acyclic(&e28));
    }
}

//! **E11 — Observation 8 / Section 3**: engine properties.
//!
//! * Semi-naive vs naive chase: identical `Ch_i` prefixes, measured
//!   speedup on Datalog transitive closure over random graphs.
//! * Observation 8: for random `F` with `D ⊆ F ⊆ Ch(T,D)`, the chases of
//!   `F` and `D` coincide **literally** (same Skolem terms, same facts).

use std::time::Instant;

use qr_chase::{chase, chase_naive, chase_with, ChaseBudget};
use qr_core::theories::{t_a, t_d};
use qr_exec::Executor;
use qr_syntax::{parse_theory, Fact, Instance, Pred, Symbol, TermId, Theory};

use crate::report::ChaseRun;
use crate::Table;

/// A pseudo-random edge instance over `n` vertices with `m` edges
/// (deterministic LCG so the harness is reproducible).
pub fn random_graph(n: usize, m: usize, seed: u64) -> Instance {
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let e = Pred::new("e", 2);
    let mut inst = Instance::new();
    while inst.len() < m {
        let a = next() % n;
        let b = next() % n;
        inst.insert(Fact::new(
            e,
            vec![
                TermId::constant(Symbol::intern(&format!("v{a}"))),
                TermId::constant(Symbol::intern(&format!("v{b}"))),
            ],
        ));
    }
    inst
}

fn measured_run(
    label: &str,
    theory: &Theory,
    db: &Instance,
    budget: ChaseBudget,
    exec: &Executor,
) -> ChaseRun {
    let t0 = Instant::now();
    let ch = chase_with(theory, db, budget, exec);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    ChaseRun {
        workload: label.to_owned(),
        engine: "semi-naive",
        wall_ms,
        facts_out: ch.instance.len(),
        rounds_run: ch.rounds,
        memory: ch.instance.stats(),
        stats: ch.stats,
    }
}

/// The chase workloads E11 measures, re-run with the semi-naive engine on
/// `exec` and their per-round [`qr_chase::ChaseStats`] captured — this is
/// what the harness's `--json` mode writes to `BENCH_chase.json`. The
/// counters are thread-count-independent by the engine's determinism
/// contract; only the wall times vary.
pub fn stats_runs(exec: &Executor) -> Vec<ChaseRun> {
    let mut out = Vec::new();
    let tc = parse_theory("e(X,Y), e(Y,Z) -> e(X,Z).").expect("parses");
    for (n, m) in [(24usize, 40usize), (40, 80), (60, 120)] {
        let db = random_graph(n, m, 0xC0FFEE + n as u64);
        let budget = ChaseBudget {
            max_rounds: 12,
            max_facts: 2_000_000,
        };
        out.push(measured_run(
            &format!("TC on G({n},{m})"),
            &tc,
            &db,
            budget,
            exec,
        ));
    }
    let db = qr_syntax::parse_instance("human(abel). human(cain).").expect("parses");
    out.push(measured_run(
        "T_a chain depth 12",
        &t_a(),
        &db,
        ChaseBudget {
            max_rounds: 12,
            max_facts: 2_000_000,
        },
        exec,
    ));
    // The grid workload: T_d (Definition 45) grows a grid of fresh terms —
    // heavy on dom-delta sweeps and existential head application.
    let db = random_graph(6, 9, 0xD_0D0);
    out.push(measured_run(
        "T_d grid depth 5",
        &t_d(),
        &db,
        ChaseBudget {
            max_rounds: 5,
            max_facts: 2_000_000,
        },
        exec,
    ));
    out
}

/// The E11 table.
pub fn table() -> Table {
    let mut t = Table::new(
        "E11  Obs. 8 / §3 — engine properties: semi-naive speedup, literal chase equality",
        "identical prefixes; semi-naive faster on recursive Datalog; Obs. 8 holds on all samples",
        &[
            "workload",
            "facts out",
            "naive ms",
            "semi-naive ms",
            "equal prefixes",
            "Obs.8 ok",
        ],
    );
    let tc = parse_theory("e(X,Y), e(Y,Z) -> e(X,Z).").expect("parses");
    for (n, m) in [(24usize, 40usize), (40, 80), (60, 120)] {
        let db = random_graph(n, m, 0xC0FFEE + n as u64);
        let budget = ChaseBudget {
            max_rounds: 12,
            max_facts: 2_000_000,
        };
        let t0 = Instant::now();
        let slow = chase_naive(&tc, &db, budget);
        let naive_ms = t0.elapsed().as_millis();
        let t1 = Instant::now();
        let fast = chase(&tc, &db, budget);
        let fast_ms = t1.elapsed().as_millis();
        let equal = (0..=fast.rounds.max(slow.rounds)).all(|i| fast.prefix(i) == slow.prefix(i));
        // Observation 8 on this theory: pick F = Ch_1(D).
        let f = fast.prefix(1);
        let chf = chase(&tc, &f, budget);
        let obs8 = chf.instance == fast.instance;
        t.row(vec![
            format!("TC on G({n},{m})"),
            fast.instance.len().to_string(),
            naive_ms.to_string(),
            fast_ms.to_string(),
            equal.to_string(),
            obs8.to_string(),
        ]);
    }
    // Existential theory: the mother chain (infinite chase, fixed depth).
    let db = qr_syntax::parse_instance("human(abel). human(cain).").expect("parses");
    let budget = ChaseBudget {
        max_rounds: 12,
        max_facts: 2_000_000,
    };
    let t0 = Instant::now();
    let slow = chase_naive(&t_a(), &db, budget);
    let naive_ms = t0.elapsed().as_millis();
    let t1 = Instant::now();
    let fast = chase(&t_a(), &db, budget);
    let fast_ms = t1.elapsed().as_millis();
    let equal = (0..=fast.rounds).all(|i| fast.prefix(i) == slow.prefix(i));
    let f = fast.prefix(3);
    let chf = chase(&t_a(), &f, budget);
    // F is 3 rounds ahead, so compare on the common deep prefix.
    let obs8 = fast.instance.subset_of(&chf.instance);
    t.row(vec![
        "T_a chain depth 12".into(),
        fast.instance.len().to_string(),
        naive_ms.to_string(),
        fast_ms.to_string(),
        equal.to_string(),
        obs8.to_string(),
    ]);
    // The grid workload: T_d's (grid) rule joins two delta-heavy atoms, so
    // it exercises the multi-delta trigger dedup and the dom-delta sweeps.
    let db = random_graph(6, 9, 0xD_0D0);
    let budget = ChaseBudget {
        max_rounds: 5,
        max_facts: 2_000_000,
    };
    let t0 = Instant::now();
    let slow = chase_naive(&t_d(), &db, budget);
    let naive_ms = t0.elapsed().as_millis();
    let t1 = Instant::now();
    let fast = chase(&t_d(), &db, budget);
    let fast_ms = t1.elapsed().as_millis();
    let equal = (0..=fast.rounds.max(slow.rounds)).all(|i| fast.prefix(i) == slow.prefix(i));
    let f = fast.prefix(1);
    let chf = chase(&t_d(), &f, budget);
    let obs8 = fast.instance.subset_of(&chf.instance);
    t.row(vec![
        "T_d grid depth 5".into(),
        fast.instance.len().to_string(),
        naive_ms.to_string(),
        fast_ms.to_string(),
        equal.to_string(),
        obs8.to_string(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_graph_is_deterministic() {
        assert_eq!(random_graph(10, 20, 7), random_graph(10, 20, 7));
        assert_eq!(random_graph(10, 20, 7).len(), 20);
    }

    #[test]
    fn semi_naive_matches_naive_on_random_graphs() {
        let tc = parse_theory("e(X,Y), e(Y,Z) -> e(X,Z).").unwrap();
        for seed in 0..4u64 {
            let db = random_graph(12, 20, seed);
            let budget = ChaseBudget::rounds(8);
            let fast = chase(&tc, &db, budget);
            let slow = chase_naive(&tc, &db, budget);
            assert_eq!(fast.instance, slow.instance, "seed {seed}");
        }
    }

    #[test]
    fn stats_runs_carry_round_counters() {
        let runs = stats_runs(&Executor::sequential());
        assert_eq!(runs.len(), 5);
        assert!(runs.iter().any(|r| r.workload.starts_with("T_d grid")));
        for r in &runs {
            assert!(!r.stats.rounds.is_empty(), "{} has rounds", r.workload);
            assert!(r.stats.triggers() > 0, "{} enumerated triggers", r.workload);
            assert_eq!(
                r.stats.facts_added() + runs_input_len(&r.workload),
                r.facts_out
            );
        }
    }

    /// Input sizes of the `stats_runs` workloads, keyed by label.
    fn runs_input_len(workload: &str) -> usize {
        match workload {
            "TC on G(24,40)" => 40,
            "TC on G(40,80)" => 80,
            "TC on G(60,120)" => 120,
            "T_a chain depth 12" => 2,
            "T_d grid depth 5" => 9,
            other => panic!("unknown workload {other}"),
        }
    }

    #[test]
    fn observation_8_on_random_prefixes() {
        let tc = parse_theory("e(X,Y) -> e(Y,Z).").unwrap();
        let db = random_graph(6, 8, 3);
        let budget = ChaseBudget::rounds(6);
        let ch = chase(&tc, &db, budget);
        for i in 0..=2usize {
            let f = ch.prefix(i);
            let chf = chase(&tc, &f, budget);
            assert!(ch.instance.subset_of(&chf.instance));
        }
    }
}

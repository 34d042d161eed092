//! Cross-cutting chase engine properties on randomized inputs: semi-naive
//! ≡ naive, determinism (Skolem naming), complete derivation recording,
//! and prefix monotonicity.

use qr_chase::{
    adversarial_ancestors, chase, chase_all, chase_all_with, chase_naive, chase_with, Chase,
    ChaseBudget, Provenance,
};
use qr_exec::Executor;
use qr_syntax::{parse_instance, parse_theory, Fact, Instance, Theory};
use qr_testkit::{check, Rng};

fn edge_instance(rng: &mut Rng) -> Instance {
    let n = rng.range(1, 8);
    let mut src = String::new();
    for _ in 0..n {
        let a = rng.below(5);
        let b = rng.below(5);
        src.push_str(&format!("e(w{a}, w{b}).\n"));
    }
    parse_instance(&src).unwrap()
}

/// A pool of small theories exercising every semi-naive enumeration path:
/// existential rules, Datalog joins (multi-delta-atom triggers), mutual
/// recursion, `dom`-scoped variables, and ground `dom` bodies.
fn small_theory(rng: &mut Rng) -> Theory {
    let sources = [
        "e(X,Y) -> e(Y,Z).",
        "e(X,Y), e(Y,Z) -> e(X,Z).",
        "e(X,Y) -> p(Y).\np(X) -> e(X,W).",
        "e(X,Y), e(Y,X) -> loopy(X).\nloopy(X) -> e(X,Z).",
        "true -> r(X,X).\ndom(X) -> r(X,Z).",
        // Ground-dom bodies: fire iff the constant enters the active domain.
        "dom(w1) -> p(w1).\np(X) -> e(X,W).",
        "e(X,Y) -> e(Y,Z).\ndom(w0), dom(X) -> q(X).",
        // Multi-delta-atom trigger shapes (both body atoms can be new).
        "e(X,Y), e(Y,Z) -> f(X,Z).\nf(X,Y), f(Y,Z) -> g(X,Z).",
    ];
    parse_theory(rng.pick::<&str>(&sources)).unwrap()
}

#[test]
fn semi_naive_equals_naive() {
    check("semi_naive_equals_naive", 60, |rng| {
        let theory = small_theory(rng);
        let db = edge_instance(rng);
        let budget = ChaseBudget {
            max_rounds: 4,
            max_facts: 50_000,
        };
        let fast = chase(&theory, &db, budget);
        let slow = chase_naive(&theory, &db, budget);
        assert_eq!(
            fast.rounds,
            slow.rounds,
            "theory {}\ndb {}",
            theory.render(),
            db
        );
        for i in 0..=fast.rounds {
            assert_eq!(
                fast.prefix(i),
                slow.prefix(i),
                "round {i} differs: theory {}\ndb {}",
                theory.render(),
                db
            );
        }
    });
}

#[test]
fn chase_is_deterministic() {
    check("chase_is_deterministic", 40, |rng| {
        let theory = small_theory(rng);
        let db = edge_instance(rng);
        let budget = ChaseBudget {
            max_rounds: 4,
            max_facts: 50_000,
        };
        let a = chase(&theory, &db, budget);
        let b = chase(&theory, &db, budget);
        // Literal equality, including fact order (Skolem naming makes the
        // run a pure function of (T, D, budget)).
        let fa: Vec<_> = a.instance.iter().collect();
        let fb: Vec<_> = b.instance.iter().collect();
        assert_eq!(fa, fb);
    });
}

#[test]
fn prefixes_are_monotone() {
    check("prefixes_are_monotone", 40, |rng| {
        let theory = small_theory(rng);
        let db = edge_instance(rng);
        let ch = chase(
            &theory,
            &db,
            ChaseBudget {
                max_rounds: 4,
                max_facts: 50_000,
            },
        );
        for i in 1..=ch.rounds {
            assert!(ch.prefix(i - 1).subset_of(&ch.prefix(i)));
        }
        assert!(db.subset_of(&ch.prefix(0)));
    });
}

/// Equality of two runs on everything but wall times: fact stream,
/// domain order, `round_of`, provenance, round snapshots, round count,
/// outcome and every `RoundStats` counter.
fn assert_same_run(a: &Chase, b: &Chase, ctx: &str) {
    let facts = |c: &Chase| {
        c.instance
            .iter()
            .map(|f| f.to_fact())
            .collect::<Vec<Fact>>()
    };
    assert_eq!(facts(a), facts(b), "fact stream: {ctx}");
    assert_eq!(a.instance.domain(), b.instance.domain(), "domain: {ctx}");
    assert_eq!(a.round_of, b.round_of, "round_of: {ctx}");
    assert_eq!(a.derivations, b.derivations, "derivations: {ctx}");
    assert_eq!((a.rounds, a.outcome), (b.rounds, b.outcome), "{ctx}");
    let snaps = |c: &Chase| {
        c.round_snapshots
            .iter()
            .map(|s| (s.facts(), s.terms()))
            .collect::<Vec<_>>()
    };
    assert_eq!(snaps(a), snaps(b), "snapshots: {ctx}");
    let counters = |c: &Chase| {
        c.stats
            .rounds
            .iter()
            .map(|r| {
                (
                    r.round,
                    r.triggers,
                    r.candidates,
                    r.dom_sweeps,
                    r.dom_pruned,
                    r.facts_added,
                    r.terms_added,
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(counters(a), counters(b), "round counters: {ctx}");
    assert_eq!(a.stats.threads, b.stats.threads, "{ctx}");
}

#[test]
fn all_derivations_extend_first() {
    check("all_derivations_extend_first", 40, |rng| {
        let theory = small_theory(rng);
        let db = edge_instance(rng);
        let budget = ChaseBudget {
            max_rounds: 3,
            max_facts: 20_000,
        };
        for threads in [1, 2, 4] {
            let exec = Executor::with_threads(threads);
            let ctx = format!("{threads} threads, theory {}\ndb {}", theory.render(), db);
            let full = chase_all_with(&theory, &db, budget, &exec);
            // Recording every derivation leaves the chase itself untouched.
            assert_same_run(&full.chase, &chase_with(&theory, &db, budget, &exec), &ctx);
            assert_eq!(full.all_derivations.len(), full.chase.instance.len());
            for (i, first) in full.chase.derivations.iter().enumerate() {
                // Input facts (first = None) may still be *re*-derived by
                // rules and collect derivations; derived facts list their
                // first derivation first.
                if let Some(d) = first {
                    assert_eq!(d, full.all_derivations[i][0], "{ctx}");
                }
            }
            // Every recorded derivation list is duplicate-free.
            for derivs in &full.all_derivations {
                for (i, d) in derivs.iter().enumerate() {
                    assert!(
                        !derivs[i + 1..].contains(d),
                        "duplicate derivation recorded: {ctx}"
                    );
                }
            }
        }
    });
}

/// The checked-in proptest regression seed from the original suite:
/// transitive closure over `{e(w4,w0), e(w0,w1), e(w3,w3)}`.
#[test]
fn regression_transitive_closure_with_self_loop() {
    let theory = parse_theory("e(X,Y), e(Y,Z) -> e(X,Z).").unwrap();
    let db = parse_instance("e(w4,w0). e(w0,w1). e(w3,w3).").unwrap();
    let budget = ChaseBudget {
        max_rounds: 4,
        max_facts: 50_000,
    };
    let fast = chase(&theory, &db, budget);
    let slow = chase_naive(&theory, &db, budget);
    assert_eq!(fast.rounds, slow.rounds);
    for i in 0..=fast.rounds {
        assert_eq!(fast.prefix(i), slow.prefix(i), "round {i}");
    }
    // The closure adds exactly e(w4,w1); the self-loop re-derives itself.
    assert_eq!(fast.instance.len(), 4);
    let full = chase_all(&theory, &db, budget);
    assert_eq!(full.chase.instance, fast.instance);
    for derivs in &full.all_derivations {
        for (i, d) in derivs.iter().enumerate() {
            assert!(!derivs[i + 1..].contains(d), "duplicate derivation");
        }
    }
}

#[test]
fn all_derivations_on_example_66() {
    // E(a0,a1) + P(b1..b3): the chain fact e(a1, f(a1)) has one derivation
    // per colour choice.
    let t = parse_theory(
        "e(X,Y), r(Z,Y) -> e(Y,V).\n\
         e(X,Y), p(Z) -> r(Z,Y).",
    )
    .unwrap();
    let db = parse_instance("e(a0,a1). p(b1). p(b2). p(b3).").unwrap();
    let run = chase_all(&t, &db, ChaseBudget::rounds(3));
    let chain_fact_idx = run
        .chase
        .instance
        .iter()
        .position(|f| f.pred.name().as_str() == "e" && !f.is_original())
        .expect("derived e-fact exists");
    assert_eq!(run.all_derivations[chain_fact_idx].len(), 3);
    // Adversarial ancestors can reach beyond any single recorded choice.
    let prov = Provenance::new(&run.chase);
    let single = prov.ancestors(chain_fact_idx).len();
    let adversarial = adversarial_ancestors(&run, false)[chain_fact_idx].len();
    assert!(adversarial >= single);
}

#[test]
fn dom_theories_chase_deterministically() {
    let t = parse_theory("true -> r(X,X).\ndom(X) -> r(X,Z).").unwrap();
    let db = parse_instance("p(a). p(b).").unwrap();
    let a = chase(&t, &db, ChaseBudget::rounds(3));
    let b = chase(&t, &db, ChaseBudget::rounds(3));
    assert_eq!(a.instance, b.instance);
    // The loop element exists and is disjoint from dom(D)'s component.
    let loops: Vec<_> = a
        .instance
        .iter()
        .filter(|f| f.args.len() == 2 && f.args[0] == f.args[1])
        .collect();
    assert!(!loops.is_empty());
    assert!(loops.iter().all(|f| !f.args[0].is_const()));
}

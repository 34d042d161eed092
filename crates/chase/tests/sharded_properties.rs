//! Cross-crate properties of the sharded chase (`qr_chase::sharded`).
//!
//! The in-crate unit tests pin byte-identity on fixtures; here we drive
//! randomized theories and instances through `chase_sharded` at 1/2/4
//! threads and pin both byte-identity with `chase_with` and the exact
//! mode each run resolves to: Gaifman sharding for term-local theories,
//! the monolithic fallback for every other theory.

use qr_chase::{chase_sharded, chase_with, Chase, ChaseBudget, ShardMode};
use qr_exec::Executor;
use qr_syntax::{parse_instance, parse_theory, Instance, Theory};
use qr_testkit::Rng;

/// Field-by-field byte-identity of two chase runs (walls excluded: they
/// are measurements, not outputs).
fn assert_identical(a: &Chase, b: &Chase) {
    let facts_a: Vec<_> = a.instance.iter().map(|f| f.to_fact()).collect();
    let facts_b: Vec<_> = b.instance.iter().map(|f| f.to_fact()).collect();
    assert_eq!(facts_a, facts_b, "fact streams");
    assert_eq!(a.instance.domain(), b.instance.domain(), "domain order");
    assert_eq!(a.round_of, b.round_of, "rounds of facts");
    assert_eq!(a.rounds, b.rounds, "round count");
    assert_eq!(a.outcome, b.outcome, "outcome");
    assert_eq!(a.derivations, b.derivations, "provenance");
    assert_eq!(
        a.round_snapshots.len(),
        b.round_snapshots.len(),
        "snapshots"
    );
    for (sa, sb) in a.round_snapshots.iter().zip(&b.round_snapshots) {
        assert_eq!(sa.facts(), sb.facts(), "snapshot facts");
        assert_eq!(sa.terms(), sb.terms(), "snapshot terms");
    }
    assert_eq!(a.stats.rounds.len(), b.stats.rounds.len(), "stat rows");
    for (ra, rb) in a.stats.rounds.iter().zip(&b.stats.rounds) {
        assert_eq!(ra.triggers, rb.triggers, "round {} triggers", ra.round);
        assert_eq!(
            ra.candidates, rb.candidates,
            "round {} candidates",
            ra.round
        );
        assert_eq!(ra.facts_added, rb.facts_added, "round {} facts", ra.round);
        assert_eq!(ra.terms_added, rb.terms_added, "round {} terms", ra.round);
    }
}

/// A random theory from a pool of rules: always at least one term-local
/// rule, sometimes a term-unsafe one (a disconnected body or a head
/// constant), so the property exercises both the Gaifman and the
/// fallback modes. Returns the theory and whether a term-unsafe rule was
/// drawn.
fn random_theory(rng: &mut Rng) -> (Theory, bool) {
    let term_safe_pool = [
        "e(X,Y), e(Y,Z) -> e(X,Z).",
        "e(X,Y) -> e(Y,X).",
        "e(X,Y) -> n(X,W).",
        "n(X,W) -> p(X).",
        "q(X) -> r(X).",
    ];
    let term_unsafe_pool = ["q(X), r(Y) -> s(X,Y).", "q(X) -> s(X,a)."];
    let mut src = String::new();
    src.push_str(term_safe_pool[rng.below(term_safe_pool.len())]);
    for rule in &term_safe_pool {
        if rng.bool() {
            src.push_str(rule);
        }
    }
    let unsafe_drawn = rng.bool();
    if unsafe_drawn {
        src.push_str(term_unsafe_pool[rng.below(term_unsafe_pool.len())]);
    }
    (parse_theory(&src).unwrap(), unsafe_drawn)
}

/// A random instance of `comps` disconnected components, each a sprinkle
/// of `e`-edges (plus the occasional `q`/`r` fact) over its own
/// namespaced constants.
fn random_instance(rng: &mut Rng, comps: usize) -> Instance {
    let mut src = String::new();
    for c in 0..comps {
        let nodes = rng.range(2, 6);
        for _ in 0..rng.range(1, 8) {
            let a = rng.below(nodes);
            let b = rng.below(nodes);
            src.push_str(&format!("e(c{c}x{a},c{c}x{b})."));
        }
        if rng.bool() {
            src.push_str(&format!("q(c{c}x0)."));
        }
        if rng.bool() {
            src.push_str(&format!("r(c{c}x1)."));
        }
    }
    parse_instance(&src).unwrap()
}

#[test]
fn sharded_chase_is_byte_identical_across_thread_counts() {
    qr_testkit::check("sharded_byte_identity", 30, |rng: &mut Rng| {
        let (theory, unsafe_drawn) = random_theory(rng);
        let comps = rng.range(2, 7);
        let db = random_instance(rng, comps);
        let budget = if rng.bool() {
            ChaseBudget::default()
        } else {
            ChaseBudget::rounds(rng.range(1, 5))
        };
        let reference = chase_with(&theory, &db, budget, &Executor::sequential());
        for threads in [1, 2, 4] {
            let exec = Executor::with_threads(threads);
            let (sharded, stats) = chase_sharded(&theory, &db, budget, &exec);
            let expected = if threads == 1 {
                ShardMode::Bypass
            } else if unsafe_drawn {
                ShardMode::Fallback
            } else {
                ShardMode::Gaifman
            };
            assert_eq!(stats.mode, expected, "{threads} threads");
            if expected == ShardMode::Gaifman {
                assert!(stats.shards >= 2, "{} shards", stats.shards);
            }
            assert_identical(&sharded, &reference);
        }
    });
}

#[test]
fn connected_instances_bypass_sharding() {
    // One Gaifman component: partitioning would be pure overhead, so the
    // run must collapse to the monolithic engine.
    qr_testkit::check("connected_bypass", 20, |rng: &mut Rng| {
        let theory = parse_theory("e(X,Y), e(Y,Z) -> e(X,Z).").unwrap();
        let nodes = rng.range(3, 9);
        let mut src = String::new();
        for i in 1..nodes {
            // A random tree keeps everything connected.
            src.push_str(&format!("e(v{},v{i}).", rng.below(i)));
        }
        let db = parse_instance(&src).unwrap();
        let exec = Executor::with_threads(4);
        let (sharded, stats) = chase_sharded(&theory, &db, ChaseBudget::default(), &exec);
        assert_eq!(stats.mode, ShardMode::Bypass);
        let reference = chase_with(&theory, &db, ChaseBudget::default(), &exec);
        assert_identical(&sharded, &reference);
    });
}

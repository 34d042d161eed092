//! Snapshot contract of the chase: `Chase::prefix(n)` is now an O(1)
//! storage-snapshot restore rather than an O(n) filter-and-rebuild, so
//! these tests pin the equivalence of the two on randomized runs — same
//! fact stream, same domain order, same index contents, same storage
//! stats — plus the determinism of the new memory counters across thread
//! counts.

use qr_chase::{chase, chase_with, ChaseBudget};
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

fn small_theory(rng: &mut Rng) -> Theory {
    let sources = [
        "e(X,Y) -> e(Y,Z).",
        "e(X,Y), e(Y,Z) -> e(X,Z).",
        "e(X,Y) -> p(Y).\np(X) -> e(X,W).",
        "true -> r(X,X).\ndom(X) -> r(X,Z).",
        "dom(w1) -> p(w1).\np(X) -> e(X,W).",
        "e(X,Y), e(Y,Z) -> f(X,Z).\nf(X,Y), f(Y,Z) -> g(X,Z).",
    ];
    parse_theory(rng.pick::<&str>(&sources)).unwrap()
}

/// The pre-S20 `prefix` implementation: filter the fact stream by round
/// and rebuild an instance from scratch.
fn rebuilt_prefix(ch: &qr_chase::Chase, n: usize) -> Instance {
    Instance::from_facts(
        ch.instance
            .iter()
            .enumerate()
            .filter(|(i, _)| ch.round_of[*i] <= n)
            .map(|(_, f)| f.to_fact()),
    )
}

#[test]
fn snapshot_prefixes_equal_filter_rebuilt_prefixes() {
    check(
        "snapshot_prefixes_equal_filter_rebuilt_prefixes",
        60,
        |rng| {
            let theory = small_theory(rng);
            let db = edge_instance(rng);
            let budget = ChaseBudget {
                max_rounds: 4,
                max_facts: 50_000,
            };
            let ch = chase(&theory, &db, budget);
            for n in 0..=ch.rounds {
                let fast = ch.prefix(n);
                let slow = rebuilt_prefix(&ch, n);
                let ctx = format!("prefix({n}), theory {}\ndb {}", theory.render(), db);
                assert_eq!(fast, slow, "{ctx}");
                // Not just set-equal: identical streams, domain order, indexes
                // and storage stats — a restored prefix is indistinguishable
                // from an instance that never saw the later rounds.
                let ff: Vec<Fact> = fast.iter().map(|f| f.to_fact()).collect();
                let sf: Vec<Fact> = slow.iter().map(|f| f.to_fact()).collect();
                assert_eq!(ff, sf, "{ctx}");
                assert_eq!(fast.domain(), slow.domain(), "{ctx}");
                assert_eq!(fast.stats(), slow.stats(), "{ctx}");
                for f in &ff {
                    assert_eq!(fast.index_of(f), slow.index_of(f), "{ctx}");
                }
            }
            // The full-run prefix is the chase instance itself (including its
            // high-water mark, since the chase only grows).
            let full = ch.prefix(ch.rounds);
            assert_eq!(full, ch.instance);
            assert_eq!(ch.instance.stats().peak_facts, ch.instance.len());
        },
    );
}

#[test]
fn round_snapshots_cover_every_round() {
    check("round_snapshots_cover_every_round", 40, |rng| {
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
        // One snapshot per completed round plus the input load.
        assert_eq!(ch.round_snapshots.len(), ch.rounds + 1);
        assert_eq!(ch.round_snapshots[0].facts(), db.len());
        for (n, snap) in ch.round_snapshots.iter().enumerate() {
            assert_eq!(snap.facts(), ch.prefix(n).len(), "round {n}");
        }
        // Snapshot sizes are monotone (rounds only append).
        for w in ch.round_snapshots.windows(2) {
            assert!(w[0].facts() <= w[1].facts());
        }
    });
}

#[test]
fn memory_counters_are_thread_invariant() {
    check("memory_counters_are_thread_invariant", 30, |rng| {
        let theory = small_theory(rng);
        let db = edge_instance(rng);
        let budget = ChaseBudget {
            max_rounds: 4,
            max_facts: 50_000,
        };
        let seq = chase_with(&theory, &db, budget, &Executor::sequential());
        assert_eq!(seq.instance.stats().peak_facts, seq.instance.len());
        for threads in [2, 4] {
            let par = chase_with(&theory, &db, budget, &Executor::with_threads(threads));
            let ctx = format!("{} threads, theory {}", threads, theory.render());
            assert_eq!(seq.instance.stats(), par.instance.stats(), "{ctx}");
        }
    });
}

#[test]
fn mid_chase_checkpoint_resumes_identically() {
    check("mid_chase_checkpoint_resumes_identically", 30, |rng| {
        let theory = small_theory(rng);
        let db = edge_instance(rng);
        let budget = ChaseBudget {
            max_rounds: 5,
            max_facts: 50_000,
        };
        let full = chase(&theory, &db, budget);
        if full.rounds == 0 {
            return;
        }
        let k = rng.range(0, full.rounds);
        let prefix = full.prefix(k);

        // Serialize the mid-run prefix and resume from the decoded bytes;
        // the resumed run must replay a control run from the un-serialized
        // prefix byte for byte (Observation 8 guarantees the *final* chase
        // is also set-equal to the uninterrupted run).
        let restored = Instance::from_bytes(&prefix.to_bytes()).expect("decode");
        assert_eq!(restored, prefix);
        let control = chase(&theory, &prefix, budget);
        let resumed = chase(&theory, &restored, budget);
        let cf: Vec<Fact> = control.instance.iter().map(|f| f.to_fact()).collect();
        let rf: Vec<Fact> = resumed.instance.iter().map(|f| f.to_fact()).collect();
        assert_eq!(cf, rf, "theory {}\ndb {}", theory.render(), db);
        assert_eq!(control.round_of, resumed.round_of);
        assert_eq!(control.instance.stats(), resumed.instance.stats());
        // Set-equality with the uninterrupted run: Ch(T, F) = Ch(T, D) for
        // D ⊆ F ⊆ Ch(T, D) under a round budget large enough for both.
        assert!(resumed.instance.subset_of(&full.instance) || resumed.rounds == budget.max_rounds);
    });
}

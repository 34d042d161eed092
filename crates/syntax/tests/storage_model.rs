//! Model-based property tests for the storage-backed [`Instance`].
//!
//! The S20 refactor swapped the `Vec<Fact>` + `HashMap` instance layout
//! for `qr-storage`'s columnar fact store. The chase engine depends on the
//! *observable* contract of the old layout — dense insertion-ordered
//! `FactIdx` values, first-occurrence domain order, per-`(pred)` and
//! `(pred, pos, term)` index streams — so these tests replay randomized
//! insertion sequences against an in-test reference model implementing the
//! old layout directly, and demand byte-for-byte identical observations.

use std::collections::{HashMap, HashSet};

use qr_syntax::{Fact, Instance, Pred, SkolemFn, Symbol, TermId};
use qr_testkit::{check, Rng};

/// The pre-S20 instance layout, reimplemented naively: fact vector plus
/// hash indexes, exactly as `qr_syntax::instance` kept them before the
/// columnar store.
#[derive(Default)]
struct ModelInstance {
    facts: Vec<Fact>,
    seen: HashSet<Fact>,
    by_pred: HashMap<Pred, Vec<usize>>,
    by_pred_pos_term: HashMap<(Pred, u32, TermId), Vec<usize>>,
    domain: Vec<TermId>,
    domain_seen: HashSet<TermId>,
}

impl ModelInstance {
    fn insert(&mut self, fact: Fact) -> Option<usize> {
        if self.seen.contains(&fact) {
            return None;
        }
        let idx = self.facts.len();
        for &t in &fact.args {
            if self.domain_seen.insert(t) {
                self.domain.push(t);
            }
        }
        self.by_pred.entry(fact.pred).or_default().push(idx);
        for (pos, &t) in fact.args.iter().enumerate() {
            self.by_pred_pos_term
                .entry((fact.pred, pos as u32, t))
                .or_default()
                .push(idx);
        }
        self.seen.insert(fact.clone());
        self.facts.push(fact);
        Some(idx)
    }
}

/// A pool of predicates of mixed arity (including a propositional one) and
/// a term generator mixing constants with nested Skolem terms, as chase
/// outputs do.
fn pred_pool() -> Vec<Pred> {
    vec![
        Pred::new("e", 2),
        Pred::new("r", 3),
        Pred::new("p", 1),
        Pred::new("flag", 0),
        Pred::new("e", 1), // same name, different arity: distinct predicate
    ]
}

fn random_term(rng: &mut Rng) -> TermId {
    let c = TermId::constant(Symbol::intern(&format!("c{}", rng.below(6))));
    match rng.below(4) {
        0 | 1 => c,
        2 => TermId::skolem(SkolemFn::intern(Symbol::intern("f"), 1), &[c]),
        _ => {
            let inner = TermId::skolem(SkolemFn::intern(Symbol::intern("g"), 1), &[c]);
            TermId::skolem(SkolemFn::intern(Symbol::intern("f"), 1), &[inner])
        }
    }
}

fn random_fact(rng: &mut Rng, preds: &[Pred]) -> Fact {
    let pred = *rng.pick(preds);
    let args: Vec<TermId> = (0..pred.arity()).map(|_| random_term(rng)).collect();
    Fact::new(pred, args)
}

#[test]
fn storage_instance_replays_the_legacy_layout() {
    let preds = pred_pool();
    check("storage_instance_replays_the_legacy_layout", 120, |rng| {
        let mut model = ModelInstance::default();
        let mut inst = Instance::new();
        let inserts = rng.range(1, 60);
        for _ in 0..inserts {
            let fact = random_fact(rng, &preds);
            // Same dedup outcome and same assigned index.
            assert_eq!(inst.insert(fact.clone()), model.insert(fact));
        }

        // Fact stream: dense indexes, insertion order, identical rendering.
        assert_eq!(inst.len(), model.facts.len());
        for (idx, expected) in model.facts.iter().enumerate() {
            let got = inst.fact(idx);
            assert_eq!(got, *expected);
            assert_eq!(got.to_fact(), *expected);
            assert_eq!(format!("{got}"), format!("{expected}"));
            assert_eq!(inst.index_of(expected), Some(idx));
        }
        let streamed: Vec<Fact> = inst.iter().map(|f| f.to_fact()).collect();
        assert_eq!(streamed, model.facts);

        // Domain: first-occurrence order, exactly as the old layout kept it
        // (the chase's dom-sweep enumeration order depends on this).
        assert_eq!(inst.domain(), model.domain.as_slice());
        assert_eq!(inst.domain_len(), model.domain.len());
        for &t in &model.domain {
            assert!(inst.contains_term(t));
        }

        // Index streams: same posting lists, in insertion order.
        for &pred in &preds {
            let got: Vec<usize> = inst.with_pred(pred).iter().map(|&i| i as usize).collect();
            let want = model.by_pred.get(&pred).cloned().unwrap_or_default();
            assert_eq!(got, want, "with_pred({pred:?})");
        }
        for ((pred, pos, term), want) in &model.by_pred_pos_term {
            let got: Vec<usize> = inst
                .with_pred_pos_term(*pred, *pos, *term)
                .iter()
                .map(|&i| i as usize)
                .collect();
            assert_eq!(got, *want, "with_pred_pos_term({pred:?},{pos},{term:?})");
        }

        // Membership agrees for seen facts and fresh probes alike.
        for _ in 0..10 {
            let probe = random_fact(rng, &preds);
            assert_eq!(inst.contains(&probe), model.seen.contains(&probe));
        }
    });
}

#[test]
fn snapshots_restore_the_exact_model_prefix() {
    let preds = pred_pool();
    check("snapshots_restore_the_exact_model_prefix", 60, |rng| {
        let facts: Vec<Fact> = (0..rng.range(2, 40))
            .map(|_| random_fact(rng, &preds))
            .collect();

        // Insert a prefix, snapshot, insert the rest, restore: the result
        // must be indistinguishable from an instance that only ever saw the
        // prefix — including indexes, domain order and byte accounting.
        let cut = rng.below(facts.len());
        let mut inst = Instance::new();
        for f in &facts[..cut] {
            inst.insert(f.clone());
        }
        let snap = inst.snapshot();
        let peak_before = inst.stats().peak_facts;
        for f in &facts[cut..] {
            inst.insert(f.clone());
        }
        let truncated = inst.truncated(&snap);
        inst.restore(&snap);

        let mut fresh = Instance::new();
        for f in &facts[..cut] {
            fresh.insert(f.clone());
        }
        assert_eq!(inst, fresh);
        assert_eq!(truncated, fresh);
        assert_eq!(truncated.stats(), fresh.stats());
        assert_eq!(inst.domain(), fresh.domain());
        for &pred in &preds {
            assert_eq!(inst.with_pred(pred), fresh.with_pred(pred));
        }
        let streamed: Vec<Fact> = inst.iter().map(|f| f.to_fact()).collect();
        let fresh_streamed: Vec<Fact> = fresh.iter().map(|f| f.to_fact()).collect();
        assert_eq!(streamed, fresh_streamed);

        // `restore` keeps the high-water mark; everything else matches the
        // fresh build exactly.
        let mut stats = inst.stats();
        assert!(stats.peak_facts >= peak_before);
        stats.peak_facts = fresh.stats().peak_facts;
        assert_eq!(stats, fresh.stats());

        // Restoring and re-inserting the suffix replays the original run.
        let mut replay = fresh;
        for f in &facts[cut..] {
            replay.insert(f.clone());
        }
        let mut full = Instance::new();
        for f in &facts {
            full.insert(f.clone());
        }
        assert_eq!(replay, full);
        assert_eq!(replay.stats(), full.stats());
    });
}

#[test]
fn checkpoint_bytes_roundtrip_randomized_instances() {
    let preds = pred_pool();
    check(
        "checkpoint_bytes_roundtrip_randomized_instances",
        60,
        |rng| {
            let mut inst = Instance::new();
            for _ in 0..rng.range(0, 40) {
                inst.insert(random_fact(rng, &preds));
            }
            let bytes = inst.to_bytes();
            let back = Instance::from_bytes(&bytes).expect("decode");
            assert_eq!(back, inst);
            // In-process the round-trip is bit-identical, not merely set-equal:
            // same fact order, same indexes, same counters.
            let a: Vec<Fact> = inst.iter().map(|f| f.to_fact()).collect();
            let b: Vec<Fact> = back.iter().map(|f| f.to_fact()).collect();
            assert_eq!(a, b);
            assert_eq!(back.domain(), inst.domain());
            assert_eq!(back.stats(), inst.stats());
            assert_eq!(back.to_bytes(), bytes);
        },
    );
}

/// Asserts that `inst` is indistinguishable from a fresh build of `live`
/// (in order): checkpoint bytes, domain, every index slice over `terms`,
/// and the byte accounting with only the high-water mark masked.
fn assert_matches_rebuild(inst: &Instance, live: &[Fact], preds: &[Pred], terms: &[TermId]) {
    let fresh = Instance::from_facts(live.iter().cloned());
    assert_eq!(inst.to_bytes(), fresh.to_bytes());
    assert_eq!(inst.domain(), fresh.domain());
    for &pred in preds {
        assert_eq!(inst.with_pred(pred), fresh.with_pred(pred), "{pred:?}");
        for pos in 0..pred.arity() {
            for &t in terms {
                assert_eq!(
                    inst.with_pred_pos_term(pred, pos, t),
                    fresh.with_pred_pos_term(pred, pos, t),
                    "with_pred_pos_term({pred:?},{pos},{t:?})"
                );
            }
        }
    }
    let mut stats = inst.stats();
    assert!(stats.peak_facts >= stats.facts);
    stats.peak_facts = fresh.stats().peak_facts;
    assert_eq!(stats, fresh.stats());
}

#[test]
fn retract_in_place_equals_a_rebuild_of_the_survivors() {
    // Three binary predicates over a small term pool share argument
    // tuples; `e/1`, `r/3`, `p/1` and `flag/0` add mixed arities.
    let mut preds = pred_pool();
    preds.extend([Pred::new("s", 2), Pred::new("t", 2)]);
    check(
        "retract_in_place_equals_a_rebuild_of_the_survivors",
        150,
        |rng| {
            let mut inst = Instance::new();
            let mut live: Vec<Fact> = Vec::new();
            let mut terms: Vec<TermId> = Vec::new();
            for _ in 0..rng.range(3, 8) {
                for _ in 0..rng.range(0, 25) {
                    let fact = random_fact(rng, &preds);
                    for &t in &fact.args {
                        if !terms.contains(&t) {
                            terms.push(t);
                        }
                    }
                    if inst.insert(fact.clone()).is_some() {
                        live.push(fact);
                    }
                }
                assert_matches_rebuild(&inst, &live, &preds, &terms);

                let n = live.len();
                let k = rng.range(1, 4).min(n.max(1));
                let mut picked: Vec<Fact> = match (n, rng.below(5)) {
                    (0, _) => Vec::new(),
                    (_, 0) => live[..k].to_vec(),
                    (_, 1) => {
                        let at = rng.below(n + 1 - k);
                        live[at..at + k].to_vec()
                    }
                    (_, 2) => live[n - k..].to_vec(),
                    (_, 3) => live.clone(),
                    _ => (0..k).map(|_| rng.pick(&live).clone()).collect(),
                };
                if rng.bool() && !picked.is_empty() {
                    picked.push(picked[0].clone());
                }
                for _ in 0..rng.below(3) {
                    let absent = random_fact(rng, &preds);
                    if !live.contains(&absent) {
                        picked.insert(rng.below(picked.len() + 1), absent);
                    }
                }
                let expect = live.iter().filter(|f| picked.contains(f)).count() as u64;
                assert_eq!(inst.retract(&picked), expect);
                live.retain(|f| !picked.contains(f));
                assert_matches_rebuild(&inst, &live, &preds, &terms);
            }
        },
    );
}

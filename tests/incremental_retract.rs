//! Retract-only batches through `IncrementalChase`. A cone drop rebuilds
//! the chase from the facts that survive the retraction; it is exact only
//! when no dead fact is derived again and no rule body has a `dom` atom.
//! Each case here breaks one of those guards, so the batch must re-chase,
//! and the result must still be the cold chase of the shrunken base at
//! every width.

use query_rewritability::chase::{
    chase_with, BatchMode, Chase, ChaseBudget, IncrementalChase, WriteBatch,
};
use query_rewritability::exec::Executor;
use query_rewritability::prelude::*;

/// The byte contract: everything but the enumeration-work counters and
/// the wall times.
fn assert_same_chase(incr: &Chase, cold: &Chase) {
    assert_eq!(incr.instance, cold.instance);
    assert_eq!(incr.round_of, cold.round_of);
    assert_eq!(incr.rounds, cold.rounds);
    assert_eq!(incr.outcome, cold.outcome);
    assert_eq!(incr.derivations, cold.derivations);
    let snaps = |c: &Chase| -> Vec<(usize, usize)> {
        let s = c.round_snapshots.iter();
        s.map(|s| (s.facts(), s.terms())).collect()
    };
    assert_eq!(snaps(incr), snaps(cold));
    assert_eq!(incr.instance.stats(), cold.instance.stats());
    let growth = |c: &Chase| -> Vec<(usize, usize, usize)> {
        let r = c.stats.rounds.iter();
        r.map(|r| (r.round, r.facts_added, r.terms_added)).collect()
    };
    assert_eq!(growth(incr), growth(cold));
}

/// Retracts the facts of `retract` from the chase of `base` at 1, 2 and
/// 4 threads: each batch re-chases, lands on the cold chase of the
/// shrunken base, and reports the same cone size, which is returned.
fn retract_rechases(theory: &str, base: &str, retract: &str) -> u64 {
    let t = parse_theory(theory).unwrap();
    let d = parse_instance(base).unwrap();
    let gone = parse_instance(retract).unwrap();
    let batch = WriteBatch::retract(gone.iter().map(|f| f.to_fact()));
    let mut kept = Instance::new();
    for f in d.iter().filter(|&f| gone.index_of_ref(f).is_none()) {
        kept.insert(f.to_fact());
    }
    let budget = ChaseBudget::default();
    let mut cones = Vec::new();
    for threads in [1, 2, 4] {
        let exec = Executor::with_threads(threads);
        let mut incr = IncrementalChase::new(&t, &d, budget, &exec);
        let bs = incr.apply(&t, &batch, budget, &exec);
        assert_eq!(bs.mode, BatchMode::Rechase, "{theory} minus {retract}");
        assert_same_chase(incr.chase(), &chase_with(&t, &kept, budget, &exec));
        cones.push(bs.cone_facts);
    }
    assert!(cones.windows(2).all(|w| w[0] == w[1]), "{cones:?}");
    cones[0]
}

const TC: &str = "e(X,Y), e(Y,Z) -> e(X,Z).";

#[test]
fn retracted_base_fact_derived_again_rechases() {
    // e(a,c) comes back in round 1 from e(a,b), e(b,c).
    assert_eq!(
        retract_rechases(TC, "e(a,b). e(b,c). e(a,c).", "e(a,c)."),
        0
    );
}

#[test]
fn cone_fact_with_a_second_path_rechases() {
    // e(a,c) was first derived through e(a,b); e(a,x), e(x,c) derive it too.
    let base = "e(a,b). e(b,c). e(a,x). e(x,c).";
    assert_eq!(retract_rechases(TC, base, "e(a,b)."), 1);
}

#[test]
fn skolem_fact_with_another_trigger_rechases() {
    // r(a, f(a)) was first derived from p(a,b); p(a,c) has the same
    // frontier image, so it derives the same null.
    let theory = "p(X,Y) -> r(X,Z).\nr(X,Z) -> s(Z).";
    assert_eq!(retract_rechases(theory, "p(a,b). p(a,c).", "p(a,b)."), 2);
}

#[test]
fn skolem_fact_supported_by_an_isomorphic_head_rechases() {
    // Isomorphic heads share their Skolem function: q(a) derives the null
    // that p(a) derived first.
    let theory = "p(X) -> r(X,Z).\nq(X) -> r(X,Z).";
    assert_eq!(retract_rechases(theory, "p(a). q(a).", "p(a)."), 1);
}

#[test]
fn dom_body_rechases_when_a_term_leaves_the_domain() {
    // t(a,c) was derived with c in the domain; its trail names e(a,b)
    // only, so the cone misses it when p(c) goes.
    let theory = "e(X,Y), dom(Z) -> t(X,Z).";
    assert_eq!(retract_rechases(theory, "e(a,b). p(c).", "p(c)."), 0);
}

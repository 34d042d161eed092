//! End-to-end certification of the pinned serving workload: the golden
//! smoke replay answers byte-identically to its committed trace, and every
//! rewriting it served is then re-derived, round-tripped through the
//! `QRRC` codec, and verified by the independent checker — all without
//! touching the serving counters.

use qr_rewrite::RewriteBudget;
use qr_serve::{render_trace, Engine, EngineConfig};

const REQUESTS: &str = include_str!("replays/smoke.requests");
const GOLDEN: &str = include_str!("replays/smoke.trace");

fn smoke_engine() -> Engine {
    let mut e = Engine::new(EngineConfig {
        // Matches `replay_trace.rs`: the tc tenant budgets out (pinning
        // certification of an incomplete rewriting), the rest saturate.
        rewrite_budget: RewriteBudget {
            max_queries: 24,
            max_generated: 800,
            max_atoms: 8,
        },
        ..EngineConfig::default()
    });
    e.register(
        "path",
        "e(X,Y) -> e(Y,Z).",
        "e(a,b). e(b,c). e(c,d). e(x,y).",
    )
    .unwrap();
    e.register(
        "family",
        "human(Y) -> mother(Y,Z).\nmother(X,Y) -> human(Y).",
        "mother(ann,bob). mother(bob,carol). human(dave).",
    )
    .unwrap();
    e.register(
        "guarded",
        "p(X), e(X,Y) -> p(Y).\nq(X) -> p(X).",
        "q(s). e(s,t). e(t,u).",
    )
    .unwrap();
    e.register("tc", "e(X,Y), e(Y,Z) -> e(X,Z).", "e(a,b). e(b,c). e(c,d).")
        .unwrap();
    e
}

#[test]
fn golden_replay_certifies_end_to_end() {
    let mut engine = smoke_engine();
    let responses = engine.replay(REQUESTS).expect("smoke replay parses");
    assert_eq!(
        render_trace(&responses),
        GOLDEN,
        "the golden trace must replay byte-identically before certifying"
    );

    let before = engine.stats().counters;
    let report = engine.certify_replay(REQUESTS).expect("replay parses");
    assert!(report.ok(), "replay failures: {:?}", report.failures);
    assert_eq!(report.chase_certs, 0, "serving certifies rewrites only");
    assert!(
        report.rewrite_certs > 0,
        "every served rewriting carries certificates"
    );
    assert!(report.cert_bytes > 0);

    // Certification runs off the fast path: not one serving counter
    // moves, and a warm re-replay after certifying renders the same bytes
    // as on a control engine that never certified.
    assert_eq!(&before, &engine.stats().counters);
    let warm_certified = render_trace(&engine.replay(REQUESTS).expect("parses"));
    let mut control = smoke_engine();
    control.replay(REQUESTS).expect("parses");
    let warm_control = render_trace(&control.replay(REQUESTS).expect("parses"));
    assert_eq!(
        warm_certified, warm_control,
        "serving after certification is byte-identical to never certifying"
    );
}

#[test]
fn certification_covers_each_cache_identity_once() {
    let engine = smoke_engine();
    let report = engine.certify_replay(REQUESTS).expect("parses");
    assert!(report.ok(), "{:?}", report.failures);
    // The smoke stream holds 16 requests, 2 of which reject and several of
    // which are isomorphic repeats; certification dedups by the cache's
    // (tenant, freeze-key) identity, so the cert count is bounded by the
    // distinct shapes, not the request count.
    let distinct_shapes = 10;
    assert!(
        report.rewrite_certs >= distinct_shapes,
        "every distinct shape certifies at least its seed: {}",
        report.rewrite_certs
    );
}

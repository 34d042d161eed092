//! The deterministic trace-replay pin: the smoke replay's request/response
//! stream renders to the bytes committed as `tests/replays/smoke.trace`.
//! The engine is built with `threads: 4`: the field selects nothing, and
//! `perfbench`'s width-2 replay check relies on that.
//!
//! Regenerate the golden file after an intentional behavior change with
//! `QR_BLESS=1 cargo test -p qr-serve --test replay_trace`.

use std::path::PathBuf;

use qr_rewrite::RewriteBudget;
use qr_serve::{render_trace, Engine, EngineConfig, Response, ResponseStatus, Tier};

const REQUESTS: &str = include_str!("replays/smoke.requests");

fn smoke_engine() -> Engine {
    let mut e = Engine::new(EngineConfig {
        threads: 4,
        // Small enough that the transitive-closure rewriting budgets out
        // (pinning the `complete=false` serving path), large enough that
        // every other tenant's rewriting saturates.
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

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/replays/smoke.trace")
}

#[test]
fn replay_trace_matches_the_golden_file() {
    let responses = smoke_engine()
        .replay(REQUESTS)
        .expect("smoke replay parses");
    let reference = &render_trace(&responses);

    // The smoke stream exercises every serving path.
    let tiers = |r: &Response| match &r.status {
        ResponseStatus::Answered { tier, .. } => Some(*tier),
        ResponseStatus::Rejected { .. } | ResponseStatus::Written { .. } => None,
    };
    let hits = responses
        .iter()
        .filter(|r| tiers(r) == Some(Tier::Hit))
        .count();
    let misses = responses
        .iter()
        .filter(|r| tiers(r) == Some(Tier::Miss))
        .count();
    let rejected = responses
        .iter()
        .filter(|r| matches!(&r.status, ResponseStatus::Rejected { .. }))
        .count();
    let written = responses
        .iter()
        .filter(|r| matches!(&r.status, ResponseStatus::Written { .. }))
        .count();
    assert!(hits >= 4, "isomorphic/hot repeats must hit, got {hits}");
    assert!(misses >= 6, "cold shapes must miss, got {misses}");
    assert_eq!(rejected, 3, "unknown theory (query + write) + parse error");
    assert_eq!(written, 2, "insert + retract on the path tenant");
    assert!(
        responses.iter().any(|r| matches!(
            &r.status,
            ResponseStatus::Answered {
                complete: false,
                ..
            }
        )),
        "the tc tenant must serve a budget-capped (incomplete) rewriting"
    );

    // Byte-for-byte pin against the committed golden trace.
    if std::env::var_os("QR_BLESS").is_some() {
        std::fs::write(golden_path(), reference).expect("bless golden trace");
        return;
    }
    let golden = std::fs::read_to_string(golden_path())
        .expect("golden trace missing — regenerate with QR_BLESS=1");
    assert_eq!(
        reference, &golden,
        "trace drifted from tests/replays/smoke.trace (QR_BLESS=1 to re-pin intentionally)"
    );
}

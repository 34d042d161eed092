//! Certification workloads behind `BENCH_check.json` (the harness's
//! `--check` mode).
//!
//! Every pinned rewrite fixture is re-run through the certificate-emitting
//! entry point ([`qr_rewrite::rewrite_certified`]), its bundle pushed
//! through the `QRRC` codec, and replayed by [`qr_check::check_rewrite`];
//! the E11 transitive-closure chase on `G(60,120)` does the same through
//! `QRCC` and [`qr_check::check_chase`]. The drift-gated invariant is
//! that `failures` is empty: every certificate replays. The checker only
//! verifies recorded witnesses and never searches: `qr-check` does not
//! depend on `qr-hom`, so it has no homomorphism kernel to search with,
//! and CI fails if that dependency edge appears.
//!
//! Only `wall_ms` is machine-dependent; certificate counts and encoded
//! sizes are pure functions of (theory, query/instance, budget). Prover
//! and checker both run on the caller thread, so a run records no width.

use std::time::Instant;

use qr_chase::{chase, emit_chase_certs, ChaseBudget};
use qr_check::{
    check_chase, check_rewrite, decode_chase_certs, decode_rewrite_certs, encode_chase_certs,
    encode_rewrite_certs,
};
use qr_rewrite::{rewrite_certified, RewriteBudget};
use qr_syntax::{parse_query, parse_theory};

use crate::experiments::e11_chase_engine::random_graph;
use crate::report::CheckRun;
use crate::rewrite_workloads;

/// Certifies one pinned rewrite fixture end to end: engine → codec →
/// replay. The wall time covers the decode+replay span only.
fn rewrite_check(
    label: &str,
    theory_src: &str,
    query_src: &str,
    budget: RewriteBudget,
) -> CheckRun {
    let theory = parse_theory(theory_src).expect("fixture theory parses");
    let query = parse_query(query_src).expect("fixture query parses");
    let (r, bundle) = rewrite_certified(&theory, &query, budget).expect("no builtin bodies");
    let bytes = encode_rewrite_certs(&bundle);

    let t0 = Instant::now();
    let mut failures = Vec::new();
    let certs = match decode_rewrite_certs(&bytes) {
        Ok(decoded) => match check_rewrite(&theory, &query, &r.ucq, &decoded) {
            Ok(n) => n,
            Err(e) => {
                failures.push(e.to_string());
                0
            }
        },
        Err(e) => {
            failures.push(e.to_string());
            0
        }
    };
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    CheckRun {
        workload: label.to_owned(),
        kind: "rewrite",
        wall_ms,
        certs,
        cert_bytes: bytes.len(),
        failures,
    }
}

/// Certifies the E11 chase workload `TC on G(60,120)` (the largest pinned
/// transitive-closure instance) end to end.
fn chase_check() -> CheckRun {
    let theory = parse_theory("e(X,Y), e(Y,Z) -> e(X,Z).").expect("parses");
    let db = random_graph(60, 120, 0xC0FFEE + 60);
    let budget = ChaseBudget {
        max_rounds: 12,
        max_facts: 2_000_000,
    };
    let c = chase(&theory, &db, budget);
    let bundle = emit_chase_certs(&theory, &c);
    let bytes = encode_chase_certs(&bundle);

    let t0 = Instant::now();
    let mut failures = Vec::new();
    let certs = match decode_chase_certs(&bytes) {
        Ok(decoded) => match check_chase(&theory, &c.instance, &decoded) {
            Ok(n) => n,
            Err(e) => {
                failures.push(e.to_string());
                0
            }
        },
        Err(e) => {
            failures.push(e.to_string());
            0
        }
    };
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    CheckRun {
        workload: "TC on G(60,120)".to_owned(),
        kind: "chase",
        wall_ms,
        certs,
        cert_bytes: bytes.len(),
        failures,
    }
}

/// Runs the full certification suite: every pinned rewrite fixture plus
/// the E11 chase workload.
pub fn stats_runs() -> Vec<CheckRun> {
    let mut out = Vec::new();
    for (label, t, q, budget) in rewrite_workloads::fixtures() {
        out.push(rewrite_check(label, t, q, budget));
    }
    out.push(chase_check());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pinned_workload_certifies_cleanly() {
        let runs = stats_runs();
        assert_eq!(runs.len(), rewrite_workloads::fixtures().len() + 1);
        for r in &runs {
            assert!(r.failures.is_empty(), "{}: {:?}", r.workload, r.failures);
            assert!(r.certs > 0, "{}: no certificates emitted", r.workload);
            assert!(r.cert_bytes > 0, "{}", r.workload);
        }
        assert_eq!(runs.last().unwrap().kind, "chase");
        assert!(runs[..runs.len() - 1].iter().all(|r| r.kind == "rewrite"));
    }
}

//! End-to-end certification: engine → encode → decode → replay, with
//! zero homomorphism searches on the checker's side.

use qr_chase::{chase, emit_chase_certs, ChaseBudget};
use qr_check::{
    check_chase, check_rewrite, decode_chase_certs, decode_rewrite_certs, encode_chase_certs,
    encode_rewrite_certs,
};
use qr_hom::global_kernel;
use qr_rewrite::{rewrite_certified, RewriteBudget};
use qr_syntax::{parse_instance, parse_query, parse_theory};

const REWRITE_WORKLOADS: &[(&str, &str, &str)] = &[
    (
        "t_a",
        "human(Y) -> mother(Y,Z).\nmother(X,Y) -> human(Y).",
        "?(X) :- mother(X, M).",
    ),
    ("t_p", "e(X,Y) -> e(Y,Z).", "?(A) :- e(A,B), e(B,C)."),
    (
        "ex39",
        "e(X,Y,Y1,T), r(X,T1) -> e(X,Y1,Y2,T1).",
        "?(A,D) :- e(A,B,C,D).",
    ),
    (
        "guarded",
        "p(X), e(X,Y) -> p(Y).\nq(X) -> p(X).",
        "? :- p(A).",
    ),
];

#[test]
fn rewrite_workloads_certify_through_the_codec() {
    for &(label, t, q) in REWRITE_WORKLOADS {
        let theory = parse_theory(t).unwrap();
        let query = parse_query(q).unwrap();
        let (r, bundle) = rewrite_certified(&theory, &query, RewriteBudget::default()).unwrap();
        let bytes = encode_rewrite_certs(&bundle);
        let decoded = decode_rewrite_certs(&bytes).unwrap();
        assert_eq!(decoded, bundle, "{label}: codec must be lossless");

        // The checker must not touch the shared kernel: replay is pure
        // recorded-witness verification, zero search.
        let before = global_kernel().stats();
        let n = check_rewrite(&theory, &query, &r.ucq, &decoded)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let after = global_kernel().stats();
        assert_eq!(n, bundle.certs.len(), "{label}");
        assert_eq!(after.searches, before.searches, "{label}: kernel searched");
        assert_eq!(after.freezes, before.freezes, "{label}: kernel froze");
        assert_eq!(
            after.core_searches, before.core_searches,
            "{label}: kernel folded cores"
        );
    }
}

/// The per-window counters the bench drift-gates (everything but walls).
fn counter_rows(s: &qr_rewrite::RewriteStats) -> Vec<[usize; 15]> {
    s.windows
        .iter()
        .map(|w| {
            [
                w.window,
                w.items,
                w.merged,
                w.dead_skipped,
                w.generated,
                w.dedup_hits,
                w.subsumption_hits,
                w.evictions,
                w.oversized,
                w.accepted,
                w.kept,
                w.unifier_probes,
                w.unifier_skipped,
                w.trie_probes,
                w.trie_skipped,
            ]
        })
        .collect()
}

/// Certificate emission is output-invariant: UCQ renders, outcome, and
/// every drift-gated counter are identical with the cert sink on vs off.
#[test]
fn certified_runs_match_uncertified_runs_exactly() {
    use qr_rewrite::rewrite;
    for &(tag, t, q) in REWRITE_WORKLOADS {
        let theory = parse_theory(t).unwrap();
        let query = parse_query(q).unwrap();
        let plain = rewrite(&theory, &query, RewriteBudget::default()).unwrap();
        let (certified, bundle) =
            rewrite_certified(&theory, &query, RewriteBudget::default()).unwrap();
        assert_eq!(certified.ucq, plain.ucq, "{tag}");
        let render: Vec<String> = certified
            .ucq
            .disjuncts()
            .iter()
            .map(|d| d.render())
            .collect();
        let plain_render: Vec<String> = plain.ucq.disjuncts().iter().map(|d| d.render()).collect();
        assert_eq!(render, plain_render, "{tag}: UCQ renders");
        assert_eq!(certified.generated, plain.generated, "{tag}");
        assert_eq!(certified.outcome, plain.outcome, "{tag}");
        assert_eq!(certified.depth, plain.depth, "{tag}");
        assert_eq!(
            certified.oversized_discarded, plain.oversized_discarded,
            "{tag}"
        );
        assert_eq!(
            counter_rows(&certified.stats),
            counter_rows(&plain.stats),
            "{tag}: window counters"
        );
        assert_eq!(certified.hom, plain.hom, "{tag}: kernel stats");
        check_rewrite(&theory, &query, &certified.ucq, &bundle)
            .unwrap_or_else(|e| panic!("{tag}: {e}"));
    }
}

#[test]
fn chase_workloads_certify_through_the_codec() {
    let workloads: &[(&str, &str, &str)] = &[
        ("tc", "e(X,Y), e(Y,Z) -> e(X,Z).", "e(a,b). e(b,c). e(c,d)."),
        ("exist", "human(X) -> mother(X,Y).", "human(abel)."),
        (
            "dom",
            "dom(X) -> p(X).\np(X), e(X,Y) -> p(Y).",
            "e(a,b). e(b,c).",
        ),
    ];
    for &(label, t, db) in workloads {
        let theory = parse_theory(t).unwrap();
        let d = parse_instance(db).unwrap();
        let c = chase(&theory, &d, ChaseBudget::default());
        let bundle = emit_chase_certs(&theory, &c);
        let bytes = encode_chase_certs(&bundle);
        let decoded = decode_chase_certs(&bytes).unwrap();
        assert_eq!(decoded, bundle, "{label}");

        let before = global_kernel().stats();
        let n =
            check_chase(&theory, &c.instance, &decoded).unwrap_or_else(|e| panic!("{label}: {e}"));
        let after = global_kernel().stats();
        assert_eq!(n, c.instance.len() - bundle.base as usize, "{label}");
        assert_eq!(after.searches, before.searches, "{label}: kernel searched");
    }
}

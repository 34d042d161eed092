//! Writes and cached rewritings stay coherent: a write changes the tenant
//! instance and nothing else. Random interleavings of queries, inserts and
//! retracts over two tenants run through one engine at 1, 2 and 4 worker
//! threads, and every response is checked against a model:
//!
//! - a write reports exactly the facts it changed in a model base that
//!   mirrors the engine's semantics (retracts first, then inserts appended
//!   if absent, survivors in their original order);
//! - a query's status equals, except for its tier, the status a fresh
//!   engine gives when registered on the tenant's post-write base;
//! - a query hits iff it was served before on its tenant, whatever writes
//!   came in between (the cache is large enough never to evict).

use std::cell::Cell;

use qr_serve::{
    CqRequest, Engine, EngineConfig, FactWrite, Request, ResponseStatus, Tier, WriteBatch,
};
use qr_syntax::parse_instance;
use qr_testkit::{check, Rng};

struct TenantSpec {
    id: &'static str,
    theory: &'static str,
    base: &'static [&'static str],
    /// Pairwise non-isomorphic queries, so equal text ⇔ equal cache key.
    queries: &'static [&'static str],
    consts: &'static [&'static str],
    /// Predicates with their arities.
    preds: &'static [(&'static str, usize)],
}

const TENANTS: [TenantSpec; 2] = [
    TenantSpec {
        id: "path",
        theory: "e(X,Y) -> e(Y,Z).",
        base: &["e(a,b)", "e(b,c)", "e(c,d)"],
        queries: &[
            "?(A) :- e(A,B).",
            "?(A) :- e(A,B), e(B,C).",
            "? :- e(a,X).",
            "?(B) :- e(a,B).",
            "?(A,B) :- e(A,B).",
            "? :- e(X,c), e(c,Y).",
        ],
        consts: &["a", "b", "c", "d"],
        preds: &[("e", 2)],
    },
    TenantSpec {
        id: "family",
        theory: "human(Y) -> mother(Y,Z).\nmother(X,Y) -> human(Y).",
        base: &["mother(ann,bob)", "human(dave)"],
        queries: &[
            "?(X) :- mother(X,M).",
            "?(P) :- human(P).",
            "? :- human(bob).",
            "?(C) :- mother(ann,C).",
            "?(X) :- mother(X,Y), mother(Y,Z).",
        ],
        consts: &["ann", "bob", "carol", "dave"],
        preds: &[("mother", 2), ("human", 1)],
    },
];

fn random_fact(rng: &mut Rng, spec: &TenantSpec) -> String {
    let (pred, arity) = *rng.pick(spec.preds);
    let args: Vec<&str> = (0..arity).map(|_| *rng.pick(spec.consts)).collect();
    format!("{pred}({})", args.join(","))
}

fn facts(texts: &[String]) -> Vec<qr_syntax::Fact> {
    parse_instance(&texts.iter().map(|f| format!("{f}.")).collect::<String>())
        .unwrap()
        .iter()
        .map(|fr| fr.to_fact())
        .collect()
}

/// The status a fresh engine gives `query` on `tenant` registered with
/// `base`.
fn fresh_status(spec: &TenantSpec, base: &[String], query: &str) -> ResponseStatus {
    let mut fresh = Engine::new(EngineConfig::default());
    let data: String = base.iter().map(|f| format!("{f}. ")).collect();
    fresh.register(spec.id, spec.theory, &data).unwrap();
    fresh
        .submit(CqRequest {
            theory: spec.id.to_owned(),
            query: query.to_owned(),
        })
        .status
}

/// A random interleaving of queries and writes, each with the status the
/// model expects for it. Counts into `hits_after_writes` the queries that
/// should hit an entry first served before a write changed its tenant.
fn random_stream(rng: &mut Rng, hits_after_writes: &Cell<usize>) -> Vec<(Request, ResponseStatus)> {
    let mut bases: Vec<Vec<String>> = TENANTS
        .iter()
        .map(|t| t.base.iter().map(|f| f.to_string()).collect())
        .collect();
    // Per tenant: each query served so far, and whether a changing write
    // has landed since it was first served.
    let mut served: Vec<Vec<(&str, bool)>> = vec![Vec::new(); TENANTS.len()];
    let len = rng.range(8, 28);
    (0..len)
        .map(|_| {
            let t = rng.below(TENANTS.len());
            let spec = &TENANTS[t];
            let base = &mut bases[t];
            if rng.below(5) < 2 {
                let retracts: Vec<String> = (0..rng.below(3))
                    .map(|_| {
                        if !base.is_empty() && rng.bool() {
                            rng.pick(base).clone()
                        } else {
                            random_fact(rng, spec)
                        }
                    })
                    .collect();
                let inserts: Vec<String> = (0..rng.range(0, 3))
                    .map(|_| random_fact(rng, spec))
                    .collect();
                let before = base.len();
                base.retain(|f| !retracts.contains(f));
                let retracted = (before - base.len()) as u64;
                let mut inserted = 0;
                for f in &inserts {
                    if !base.contains(f) {
                        base.push(f.clone());
                        inserted += 1;
                    }
                }
                let write = FactWrite {
                    theory: spec.id.to_owned(),
                    batch: WriteBatch {
                        inserts: facts(&inserts),
                        retracts: facts(&retracts),
                    },
                };
                if inserted + retracted > 0 {
                    served[t]
                        .iter_mut()
                        .for_each(|(_, crossed)| *crossed = true);
                }
                (
                    Request::Write(write),
                    ResponseStatus::Written {
                        inserted,
                        retracted,
                    },
                )
            } else {
                let query = *rng.pick(spec.queries);
                let tier = match served[t].iter().find(|(q, _)| *q == query) {
                    Some(&(_, crossed)) => {
                        if crossed {
                            hits_after_writes.set(hits_after_writes.get() + 1);
                        }
                        Tier::Hit
                    }
                    None => {
                        served[t].push((query, false));
                        Tier::Miss
                    }
                };
                let mut status = fresh_status(spec, base, query);
                if let ResponseStatus::Answered { tier: slot, .. } = &mut status {
                    *slot = tier;
                }
                let request = Request::Query(CqRequest {
                    theory: spec.id.to_owned(),
                    query: query.to_owned(),
                });
                (request, status)
            }
        })
        .collect()
}

#[test]
fn writes_keep_cached_rewritings_exact() {
    let hits_after_writes = Cell::new(0usize);
    check("serve-write-coherence", 48, |rng| {
        let stream = random_stream(rng, &hits_after_writes);
        let requests: Vec<Request> = stream.iter().map(|(r, _)| r.clone()).collect();
        for threads in [1, 2, 4] {
            let mut engine = Engine::new(EngineConfig {
                threads,
                ..EngineConfig::default()
            });
            for spec in &TENANTS {
                let data: String = spec.base.iter().map(|f| format!("{f}. ")).collect();
                engine.register(spec.id, spec.theory, &data).unwrap();
            }
            let responses = engine.run_requests(requests.clone());
            for (i, ((_, want), got)) in stream.iter().zip(&responses).enumerate() {
                assert_eq!(&got.status, want, "request {i} at {threads} threads");
            }
            let c = engine.stats().counters;
            assert_eq!(c.cache_invalidations, 0);
            assert_eq!(c.requests, c.answered + c.writes);
        }
    });
    assert!(
        hits_after_writes.get() > 0,
        "the streams must hit rewritings cached before a changing write"
    );
}

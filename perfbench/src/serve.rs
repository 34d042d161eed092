//! `serve`: a closed loop of one client with one request in flight,
//! through `Engine::submit` / `Engine::submit_write` on a 1-wide pool.
//!
//! Primary op kind: reads (the median lands on cache hits). Secondary op
//! kind: fact writes (the median lands on inserts; retract batches, which
//! rebuild the tenant instance, are the write tail).

use std::time::Instant;

use qr_exec::Executor;
use qr_hom::canonical_key;
use qr_rewrite::{rewrite_with_mode, RewriteBudget, SaturationMode};
use qr_serve::{CacheEntry, Engine, EngineConfig, Request, Response, ResponseStatus, Tier};
use qr_syntax::{parse_query, parse_theory, Theory};

use crate::gen::{self, OpKind, ServeStream, TENANTS};
use crate::trace::Tracer;
use crate::{
    median, peak_rss_mb, quantile, ratio, record_overhead, traced_op, Args, Outcome, Samples,
    SetupTimer,
};

/// Engine pool width under measurement: one request in flight leaves
/// nothing to pipeline.
const POOL_WIDTH: usize = 1;
/// Pool width of the untimed replay whose trace must match.
const REPLAY_WIDTH: usize = 2;
/// Untimed ops after the stream's prelude, so the cache holds its
/// steady-state mix before measuring.
const WARMUP_OPS: usize = 2_000;
/// Measured requests after which the peak resident set is read. The
/// rewriter interns fresh symbols that are never freed, so the footprint
/// keeps growing with the requests answered; reading it after a fixed
/// amount of work keeps a faster engine from looking bigger. A 20 s run
/// measures well over 100 000 requests on a 2-vCPU host; a run that stops
/// short sends the rest of these requests untimed before reading it.
const RSS_AT_OPS: usize = 1 << 15;
/// Replay chunk: requests pipelined per `run_requests` call.
const REPLAY_CHUNK: usize = 1_024;

/// The engine configuration. The rewrite budget caps the budget-bound
/// tenants (`guarded`, `tc`) at a few milliseconds per miss, so that rare
/// misses do not swamp the request mix; `path` and `family` saturate well
/// inside it.
fn config(threads: usize) -> EngineConfig {
    EngineConfig {
        threads,
        cache_bytes: 1 << 20,
        rewrite_budget: RewriteBudget {
            max_queries: 16,
            max_generated: 60,
            max_atoms: 8,
        },
        answer_limit: 12,
    }
}

fn engine(threads: usize, data: &[String]) -> Engine {
    let mut e = Engine::new(config(threads));
    for (spec, text) in TENANTS.iter().zip(data) {
        e.register(spec.id, spec.rules, text)
            .expect("generated tenants register");
    }
    e
}

/// 64-bit FNV-1a, folded incrementally over trace lines.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn line(&mut self, r: &Response) {
        for &b in r.trace_line().as_bytes().iter().chain(b"\n") {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();

    // Set-up: generate the tenants' data and register them (parse, index).
    let mut setup = || {
        let data = gen::tenant_data(args.seed);
        (engine(POOL_WIDTH, &data), data)
    };
    let ((mut eng, data), mut setup_timer) = SetupTimer::start(&mut setup);
    let theories: Vec<Theory> = TENANTS
        .iter()
        .map(|s| parse_theory(s.rules).expect("tenant rules parse"))
        .collect();
    let budget = config(POOL_WIDTH).rewrite_budget;

    let mut stream = ServeStream::new(args.seed);
    let mut hash = Fnv::new();
    let warmup = ServeStream::prelude_len() + WARMUP_OPS;
    for _ in 0..warmup {
        let (_, req) = stream.next().expect("the stream is endless");
        let resp = match req {
            Request::Query(q) => eng.submit(q),
            Request::Write(w) => eng.submit_write(w),
        };
        hash.line(&resp);
    }

    let (mut reads, mut writes) = (Samples::default(), Samples::default());
    let (mut hit_s, mut miss_s, mut insert_s, mut retract_s) = (vec![], vec![], vec![], vec![]);
    let before = eng.stats().counters;
    let start = Instant::now();
    let mut ops = 0usize;
    let mut rss = f64::NAN;
    while start.elapsed().as_secs_f64() < args.seconds {
        setup_timer.between_ops(&mut setup);
        let (kind, req) = stream.next().expect("the stream is endless");
        let traced = traced_op(args, ops, 64);
        tracer.set_on(traced);
        let req_id = (warmup + ops) as u64;
        let resp = match req {
            Request::Query(q) => {
                let root = tracer.begin("serve.read", req_id);
                // Traced reads also call the layers the engine calls inside
                // `submit`, so that each gets a span of its own.
                let parsed = traced.then(|| {
                    let s = tracer.begin("syntax.parse", req_id);
                    let query = parse_query(&q.query).expect("generated queries parse");
                    tracer.end(s);
                    let s = tracer.begin("hom.key", req_id);
                    std::hint::black_box(canonical_key(&query));
                    tracer.end(s);
                    query
                });
                let tenant = TENANTS
                    .iter()
                    .position(|s| s.id == q.theory)
                    .expect("generated reads name known tenants");
                let s = tracer.begin("serve.submit", req_id);
                let t0 = Instant::now();
                let resp = eng.submit(q);
                let dt = t0.elapsed().as_secs_f64();
                let miss = matches!(
                    resp.status,
                    ResponseStatus::Answered {
                        tier: Tier::Miss,
                        ..
                    }
                );
                tracer.end_as(s, Some(if miss { "serve.miss" } else { "serve.hit" }));
                reads.push(traced, dt);
                if miss {
                    miss_s.push(dt)
                } else {
                    hit_s.push(dt)
                }
                if let (true, Some(query)) = (miss, &parsed) {
                    // Re-derive the missed rewriting as the engine's cold
                    // path does: sequential executor, same budget and mode.
                    let s = tracer.begin("rewrite.saturate", req_id);
                    let r = rewrite_with_mode(
                        &theories[tenant],
                        query,
                        budget,
                        &Executor::sequential(),
                        SaturationMode::Pipelined,
                    )
                    .expect("serve tenants have no builtin bodies");
                    tracer.end(s);
                    let s = tracer.begin("hom.plan_compile", req_id);
                    std::hint::black_box(CacheEntry::from_rewriting(r));
                    tracer.end(s);
                }
                tracer.end(root);
                resp
            }
            Request::Write(w) => {
                let name = if kind == OpKind::Insert {
                    "serve.insert"
                } else {
                    "serve.retract"
                };
                let s = tracer.begin(name, req_id);
                let t0 = Instant::now();
                let resp = eng.submit_write(w);
                let dt = t0.elapsed().as_secs_f64();
                tracer.end(s);
                writes.push(traced, dt);
                if kind == OpKind::Insert {
                    insert_s.push(dt)
                } else {
                    retract_s.push(dt)
                }
                resp
            }
        };
        if let ResponseStatus::Rejected { reason } = &resp.status {
            out.failed += 1;
            if out.failed <= 3 {
                out.errors
                    .push(format!("request {} rejected: {reason}", resp.seq));
            }
        }
        hash.line(&resp);
        ops += 1;
        if ops == RSS_AT_OPS {
            rss = peak_rss_mb();
        }
    }
    let wall = start.elapsed().as_secs_f64() - setup_timer.paused();
    tracer.set_on(false);
    let after = eng.stats().counters;
    out.attempted = ops as u64;
    let setup_s = setup_timer.finish(&mut setup);
    // The stream continues untimed up to the footprint's fixed point.
    let mut sent = warmup + ops;
    if ops < RSS_AT_OPS {
        eprintln!(
            "serve: {ops} requests measured; {} more sent untimed before reading peak_rss_mb",
            RSS_AT_OPS - ops
        );
        for (_, req) in stream.by_ref().take(RSS_AT_OPS - ops) {
            let resp = match req {
                Request::Query(q) => eng.submit(q),
                Request::Write(w) => eng.submit_write(w),
            };
            out.check(
                !matches!(resp.status, ResponseStatus::Rejected { .. }),
                || format!("untimed request {} rejected", resp.seq),
            );
            hash.line(&resp);
        }
        sent = warmup + RSS_AT_OPS;
        rss = peak_rss_mb();
    }

    // Output checks, untimed.
    let c = eng.stats().counters;
    out.check(c.rejected == 0, || {
        format!("{} requests rejected", c.rejected)
    });
    out.check(c.requests == c.answered + c.rejected + c.writes, || {
        format!(
            "requests {} != answered {} + rejected {} + writes {}",
            c.requests, c.answered, c.rejected, c.writes
        )
    });
    out.check(c.requests as usize == sent, || {
        "request count drifted".into()
    });
    let mut replay = engine(REPLAY_WIDTH, &data);
    let mut replay_hash = Fnv::new();
    let mut rest = ServeStream::new(args.seed).take(sent).map(|(_, r)| r);
    loop {
        let chunk: Vec<Request> = rest.by_ref().take(REPLAY_CHUNK).collect();
        if chunk.is_empty() {
            break;
        }
        for r in replay.run_requests(chunk) {
            replay_hash.line(&r);
        }
    }
    out.check(hash.0 == replay_hash.0, || {
        format!(
            "trace hash {:016x} != width-{REPLAY_WIDTH} replay {:016x}",
            hash.0, replay_hash.0
        )
    });
    out.check(replay.stats().counters == c, || {
        "replay counters differ".into()
    });

    // Counter ratios cover the measured loop only.
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    let n_writes = after.writes - before.writes;
    let invalidations = after.cache_invalidations - before.cache_invalidations;
    let generated = after.rewrite_generated - before.rewrite_generated;
    let candidates = after.match_candidates - before.match_candidates;
    let answered = after.answered - before.answered;
    out.metrics.insert("setup_s", setup_s);
    out.metrics.insert("peak_rss_mb", rss);
    out.metrics.insert("ops_per_s", ops as f64 / wall);
    out.metrics
        .insert("primary_p50_ms", median(&reads.all()) * 1e3);
    out.metrics
        .insert("secondary_p50_ms", median(&writes.all()) * 1e3);

    // Read and write p99s go to stderr only: every end-to-end metric must
    // exist on every workload, and materialize has too few ops for a p99.
    let tail = |s: &[f64]| {
        let n = s.len();
        let beyond = n - (0.99 * n as f64).ceil() as usize;
        format!(
            "p99 {:.3} ms ({n} samples, {beyond} beyond)",
            quantile(s, 0.99) * 1e3
        )
    };
    eprintln!(
        "serve: {ops} ops in {wall:.2} s; reads (hits {hits}, misses {misses}, hit share {:.3}), writes {n_writes} (inserts {}, retracts {})",
        ratio(hits as f64, (hits + misses) as f64),
        insert_s.len(),
        retract_s.len()
    );
    eprintln!(
        "serve: read {}; write {}",
        tail(&reads.all()),
        tail(&writes.all())
    );
    eprintln!(
        "serve: hit p50 {:.4} ms, miss p50 {:.4} ms, insert p50 {:.4} ms, retract p50 {:.4} ms",
        median(&hit_s) * 1e3,
        median(&miss_s) * 1e3,
        median(&insert_s) * 1e3,
        median(&retract_s) * 1e3
    );

    if args.trace {
        let us = |name: &str| median(&tracer.durations(name)) * 1e6;
        let l = &mut out.layers;
        for (metric, span) in [
            ("syntax.parse_us", "syntax.parse"),
            ("hom.key_us", "hom.key"),
            ("serve.hit_us", "serve.hit"),
            ("serve.miss_us", "serve.miss"),
            ("serve.insert_us", "serve.insert"),
            ("serve.retract_us", "serve.retract"),
            ("rewrite.saturate_us", "rewrite.saturate"),
            ("hom.plan_compile_us", "hom.plan_compile"),
        ] {
            l.insert(metric, us(span));
        }
        l.insert(
            "serve.hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
        );
        l.insert(
            "serve.invalidations_per_write",
            ratio(invalidations as f64, n_writes as f64),
        );
        l.insert(
            "rewrite.generated_per_miss",
            ratio(generated as f64, misses as f64),
        );
        l.insert(
            "hom.candidates_per_read",
            ratio(candidates as f64, answered as f64),
        );
        record_overhead(&mut out, &reads, &writes);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// At toy scale the real engine sees the shares the percentile rule
    /// needs: hits a clear majority of reads, misses well above 1%, and
    /// inserts a clear majority of writes.
    #[test]
    fn engine_sees_the_designed_tier_shares() {
        let data = gen::tenant_data(3);
        let mut e = engine(1, &data);
        let mut inserts = 0u64;
        for (kind, req) in ServeStream::new(3).take(6_000) {
            inserts += (kind == OpKind::Insert) as u64;
            let resp = e.run_requests(vec![req]).pop().unwrap();
            assert!(!matches!(resp.status, ResponseStatus::Rejected { .. }));
        }
        let c = &e.stats().counters;
        let hit_share = c.hits as f64 / (c.hits + c.misses) as f64;
        assert!(hit_share > 0.7, "hit share {hit_share}");
        assert!(c.misses as f64 / c.answered as f64 > 0.03, "miss share");
        assert!(
            inserts as f64 / c.writes as f64 > 0.7,
            "insert share of writes"
        );
        assert_eq!(c.facts_inserted, inserts, "every insert adds a fresh fact");
    }
}

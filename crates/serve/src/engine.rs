//! The serve loop: pipelined request answering over the rewriting cache.
//!
//! A batch of requests flows through [`qr_exec::Executor::pipeline_ordered`]:
//! workers *prepare* requests speculatively (parse, compute the freeze key,
//! and — when the key is not resident — run the cold rewrite and compile
//! its plans), while the caller thread *finishes* them strictly in
//! submission order: the authoritative cache lookup, LRU bookkeeping,
//! eviction, plan execution, and counter updates all happen at the merge
//! point. A speculative rewrite that loses the race to an earlier
//! isomorphic request is discarded; a missing one (the entry was resident
//! at prepare time but evicted before merge) is recomputed inline. Either
//! way the installed entry is the same value — rewriting is a pure
//! function of (theory, query) — so responses, traces, and every counter
//! in [`ServeCounters`](crate::ServeCounters) are identical at any
//! worker-pool width.

use std::collections::HashSet;
use std::ops::ControlFlow;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qr_chase::WriteBatch;
use qr_exec::Executor;
use qr_hom::{canonical_key, MatchCounters};
use qr_rewrite::{rewrite_with, RewriteBudget};
use qr_syntax::{parse_query, ConjunctiveQuery, Instance, TermId, Theory};

use crate::cache::{CacheEntry, CacheKey, RewriteCache};
use crate::replay::ReplayError;
use crate::stats::ServeStats;

/// Engine configuration. The worker-pool width is explicit — the crate
/// never reads `QR_THREADS`; size the pool where you construct the config.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Worker-pool width, plumbed into [`Executor::with_threads`].
    /// 1 runs the whole pipeline inline on the calling thread.
    pub threads: usize,
    /// LRU byte budget of the rewriting cache (logical bytes, see
    /// [`crate::cache`]).
    pub cache_bytes: usize,
    /// Budget handed to every cold rewrite.
    pub rewrite_budget: RewriteBudget,
    /// Per-request cap on emitted answer tuples; 0 means unlimited.
    pub answer_limit: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            threads: 1,
            cache_bytes: 1 << 20,
            rewrite_budget: RewriteBudget::default(),
            answer_limit: 0,
        }
    }
}

/// One query request: a registered theory id plus CQ text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CqRequest {
    /// Which registered theory to answer against.
    pub theory: String,
    /// The conjunctive query, in the repo's text format.
    pub query: String,
}

/// A base-fact write against one tenant's instance. Writes ride the same
/// ordered request stream as queries: the batch is applied at the merge
/// point, in submission order, so every later query sees the updated
/// instance and every counter stays deterministic at any worker-pool width.
/// Rewritings are pure in (theory, query) and survive writes: a cached
/// entry's plans run on the post-write instance at each request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FactWrite {
    /// Which registered theory's instance to write.
    pub theory: String,
    /// The facts to insert and retract.
    pub batch: WriteBatch,
}

/// One item of a mixed request stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Answer a conjunctive query.
    Query(CqRequest),
    /// Apply a base-fact write batch.
    Write(FactWrite),
}

impl From<CqRequest> for Request {
    fn from(r: CqRequest) -> Request {
        Request::Query(r)
    }
}

impl From<FactWrite> for Request {
    fn from(w: FactWrite) -> Request {
        Request::Write(w)
    }
}

impl Request {
    /// The theory id the request names.
    pub fn theory(&self) -> &str {
        match self {
            Request::Query(q) => &q.theory,
            Request::Write(w) => &w.theory,
        }
    }
}

/// Which cache tier answered the request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// The freeze key was resident: cached UCQ + compiled plans reused.
    Hit,
    /// Cold path: the rewriting was computed (or recomputed) and cached.
    Miss,
}

/// Per-request outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResponseStatus {
    /// The request was answered through a rewriting.
    Answered {
        /// Hit or miss on the rewriting cache.
        tier: Tier,
        /// `true` iff the rewriting saturated; `false` means the answers
        /// are sound but possibly incomplete (budget-capped rewriting).
        complete: bool,
        /// `true` iff the answer enumeration stopped at
        /// [`EngineConfig::answer_limit`].
        truncated: bool,
        /// Disjuncts in the executed UCQ.
        disjuncts: usize,
        /// Matcher scan work for this request (deterministic).
        candidates: u64,
        /// Answer tuples, rendered (constants by name), in deterministic
        /// enumeration order. A boolean query answers with one empty
        /// tuple for *true* and none for *false*.
        answers: Vec<Vec<String>>,
    },
    /// A fact write was applied to the tenant's instance.
    Written {
        /// Base facts actually added (inserts already present are not
        /// counted).
        inserted: u64,
        /// Base facts actually removed (absent retractions are not
        /// counted).
        retracted: u64,
    },
    /// The request never reached a rewriting.
    Rejected {
        /// Why (unknown theory, parse error).
        reason: String,
    },
}

/// One answered (or rejected) request.
#[derive(Clone, Debug)]
pub struct Response {
    /// Engine-lifetime sequence number (submission order).
    pub seq: u64,
    /// The theory id the request named.
    pub theory: String,
    /// Outcome.
    pub status: ResponseStatus,
    /// Service time: the worker-side prepare (parse, freeze key,
    /// speculative rewrite) plus the merge-side finish (cache decision,
    /// plan execution or write application). Time spent queued between
    /// the two stages is left out. Wall-clock: excluded from trace lines
    /// and never drift-gated.
    pub wall: Duration,
}

impl Response {
    /// `true` iff the request was answered from the rewriting cache.
    pub fn is_hit(&self) -> bool {
        matches!(
            self.status,
            ResponseStatus::Answered {
                tier: Tier::Hit,
                ..
            }
        )
    }

    /// Renders the deterministic trace record for this response — stable
    /// bytes at any thread count, pinned by the replay tests.
    pub fn trace_line(&self) -> String {
        match &self.status {
            ResponseStatus::Rejected { reason } => {
                format!("[{}] {} rejected: {}", self.seq, self.theory, reason)
            }
            ResponseStatus::Written {
                inserted,
                retracted,
            } => format!(
                "[{}] {} write inserted={} retracted={}",
                self.seq, self.theory, inserted, retracted
            ),
            ResponseStatus::Answered {
                tier,
                complete,
                truncated,
                disjuncts,
                candidates,
                answers,
            } => {
                let tier = match tier {
                    Tier::Hit => "hit",
                    Tier::Miss => "miss",
                };
                let mut line = format!(
                    "[{}] {} ok tier={} complete={} disjuncts={} candidates={} answers={}",
                    self.seq,
                    self.theory,
                    tier,
                    complete,
                    disjuncts,
                    candidates,
                    answers.len()
                );
                for tuple in answers {
                    line.push_str(" (");
                    line.push_str(&tuple.join(","));
                    line.push(')');
                }
                if *truncated {
                    line.push_str(" truncated");
                }
                line
            }
        }
    }
}

struct Tenant {
    id: String,
    theory: Theory,
    /// The live base instance. Workers never touch it — queries read it
    /// and writes change it only at the ordered merge point — but the
    /// pipeline shares `&Tenant` across threads, so interior mutability
    /// keeps the borrow checker honest.
    data: Mutex<Instance>,
}

/// The long-lived answering engine. See the crate docs for the design.
pub struct Engine {
    config: EngineConfig,
    exec: Executor,
    tenants: Vec<Tenant>,
    cache: Mutex<RewriteCache>,
    stats: ServeStats,
    next_seq: u64,
}

/// Worker-side result: everything computable without touching engine
/// state authoritatively.
struct Prepared {
    /// A query's parse outcome plus any speculative rewrite; `None` for a
    /// write, which has nothing to precompute (application is merge-only).
    query: Option<Result<ParsedReq, String>>,
    /// Time the worker spent preparing (parse, freeze key, speculative
    /// rewrite); counted into [`Response::wall`].
    wall: Duration,
}

struct ParsedReq {
    tenant: usize,
    query: ConjunctiveQuery,
    key: CacheKey,
    speculative: Option<Arc<CacheEntry>>,
}

impl Engine {
    /// Builds an engine with an explicitly-sized worker pool.
    pub fn new(config: EngineConfig) -> Engine {
        Engine {
            exec: Executor::with_threads(config.threads.max(1)),
            cache: Mutex::new(RewriteCache::new(config.cache_bytes)),
            config,
            tenants: Vec::new(),
            stats: ServeStats::default(),
            next_seq: 0,
        }
    }

    /// Registers a theory and its shared instance from text.
    pub fn register(&mut self, id: &str, theory_src: &str, data_src: &str) -> Result<(), String> {
        let theory = qr_syntax::parse_theory(theory_src).map_err(|e| format!("theory: {e}"))?;
        let data = qr_syntax::parse_instance(data_src).map_err(|e| format!("instance: {e}"))?;
        self.register_parsed(id, theory, data)
    }

    /// Registers an already-parsed theory and instance under `id`.
    ///
    /// Theories with builtin (`dom`) bodies are rejected here so that the
    /// serve path's rewrites cannot fail.
    pub fn register_parsed(
        &mut self,
        id: &str,
        theory: Theory,
        data: Instance,
    ) -> Result<(), String> {
        if self.tenants.iter().any(|t| t.id == id) {
            return Err(format!("theory '{id}' is already registered"));
        }
        if theory.has_builtin_bodies() {
            return Err(format!("theory '{id}' has builtin-predicate bodies"));
        }
        self.tenants.push(Tenant {
            id: id.to_owned(),
            theory,
            data: Mutex::new(data),
        });
        Ok(())
    }

    /// Registered theory ids, in registration order.
    pub fn theories(&self) -> Vec<&str> {
        self.tenants.iter().map(|t| t.id.as_str()).collect()
    }

    /// The engine's worker-pool width.
    pub fn threads(&self) -> usize {
        self.exec.threads()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Resident rewriting-cache entries.
    pub fn cached_rewritings(&self) -> usize {
        self.cache.lock().expect("serve cache poisoned").len()
    }

    /// Answers a single query inline.
    pub fn submit(&mut self, request: CqRequest) -> Response {
        self.run(vec![request])
            .pop()
            .expect("one request yields one response")
    }

    /// Applies a single fact write inline.
    pub fn submit_write(&mut self, write: FactWrite) -> Response {
        self.run_requests(vec![Request::Write(write)])
            .pop()
            .expect("one request yields one response")
    }

    /// Answers a query-only batch (see [`Engine::run_requests`]).
    pub fn run(&mut self, requests: Vec<CqRequest>) -> Vec<Response> {
        self.run_requests(requests.into_iter().map(Request::Query).collect())
    }

    /// Runs a mixed batch of queries and fact writes: cold rewrites run
    /// speculatively on the pool while the caller thread finishes
    /// responses strictly in submission order. Writes mutate tenant
    /// instances only at that merge point, so a query later in the batch
    /// always executes against the post-write instance — and speculative
    /// rewrites started before the write stay valid, because a rewriting
    /// is a pure function of (theory, query), never of the data.
    pub fn run_requests(&mut self, requests: Vec<Request>) -> Vec<Response> {
        let first_seq = self.next_seq;
        self.next_seq += requests.len() as u64;
        let seeds: Vec<(u64, Request)> = requests
            .into_iter()
            .enumerate()
            .map(|(i, r)| (first_seq + i as u64, r))
            .collect();
        let mut responses: Vec<Response> = Vec::with_capacity(seeds.len());
        let exec = self.exec;
        let Engine {
            ref tenants,
            ref cache,
            ref config,
            ref mut stats,
            ..
        } = *self;
        exec.pipeline_ordered(
            seeds,
            |(_, req)| {
                let t0 = Instant::now();
                let query = match req {
                    Request::Query(q) => Some(prepare(tenants, cache, config, q)),
                    Request::Write(_) => None,
                };
                Prepared {
                    query,
                    wall: t0.elapsed(),
                }
            },
            |(seq, req), prep, _ctx| {
                responses.push(finish(tenants, cache, config, stats, seq, req, prep));
                ControlFlow::Continue(())
            },
        );
        responses
    }

    /// Parses a replay file (see [`crate::replay`]) and runs it.
    pub fn replay(&mut self, src: &str) -> Result<Vec<Response>, ReplayError> {
        Ok(self.run_requests(crate::replay::parse_replay(src)?))
    }

    /// Certifies the rewriting behind every answerable request of a
    /// replay stream: each distinct (tenant, freeze-key) pair — the same
    /// identity the serving cache uses — is re-derived once through the
    /// certificate-emitting engine entry point, round-tripped through the
    /// `QRRC` codec, and replayed by the independent checker
    /// ([`qr_check::check_rewrite`]). Requests that would be rejected
    /// (unknown theory, parse error) have no rewriting and are skipped.
    ///
    /// This runs entirely off the serving fast path: `&self`, a private
    /// sequential executor, no cache or counter traffic — so certified
    /// and uncertified serving stay byte-identical.
    pub fn certify_replay(&self, src: &str) -> Result<qr_check::CheckReport, ReplayError> {
        let requests = crate::replay::parse_replay(src)?;
        let mut report = qr_check::CheckReport::new();
        let mut seen: HashSet<CacheKey> = HashSet::new();
        // Fact writes never touch a rewriting (pure in (theory, query)),
        // so only the query lines have certificates to check.
        for req in requests.iter().filter_map(|r| match r {
            Request::Query(q) => Some(q),
            Request::Write(_) => None,
        }) {
            let Some(tenant) = self.tenants.iter().position(|t| t.id == req.theory) else {
                continue;
            };
            let Ok(query) = parse_query(&req.query) else {
                continue;
            };
            let key = CacheKey {
                tenant: tenant as u32,
                key: canonical_key(&query),
            };
            if !seen.insert(key) {
                continue;
            }
            let label = format!("{} {}", req.theory, req.query.trim());
            let theory = &self.tenants[tenant].theory;
            match qr_rewrite::rewrite_certified(
                theory,
                &query,
                self.config.rewrite_budget,
                &Executor::sequential(),
            ) {
                Ok((r, bundle)) => {
                    let bytes = qr_check::encode_rewrite_certs(&bundle);
                    report.cert_bytes += bytes.len();
                    match qr_check::decode_rewrite_certs(&bytes) {
                        Ok(decoded) => {
                            match qr_check::check_rewrite(theory, &query, &r.ucq, &decoded) {
                                Ok(n) => report.rewrite_certs += n,
                                Err(e) => report.fail(&label, e),
                            }
                        }
                        Err(e) => report.fail(&label, e),
                    }
                }
                Err(e) => report.fail(&label, format!("rewrite failed: {e:?}")),
            }
        }
        Ok(report)
    }
}

/// Worker stage: parse, key, and — if the key is not resident — compute
/// the rewriting speculatively. Pure per-request work; no counters.
fn prepare(
    tenants: &[Tenant],
    cache: &Mutex<RewriteCache>,
    config: &EngineConfig,
    req: &CqRequest,
) -> Result<ParsedReq, String> {
    let tenant = tenants
        .iter()
        .position(|t| t.id == req.theory)
        .ok_or_else(|| format!("unknown theory '{}'", req.theory))?;
    let query = parse_query(&req.query).map_err(|e| format!("parse error: {e}"))?;
    let key = CacheKey {
        tenant: tenant as u32,
        key: canonical_key(&query),
    };
    let resident = cache.lock().expect("serve cache poisoned").contains(&key);
    let speculative = if resident {
        None
    } else {
        Some(build_entry(&tenants[tenant].theory, &query, config))
    };
    Ok(ParsedReq {
        tenant,
        query,
        key,
        speculative,
    })
}

/// The cold path: rewrite and compile. Runs the saturation engine
/// sequentially — batch concurrency comes from pipelining across
/// requests, not from nesting pools inside a worker.
fn build_entry(
    theory: &Theory,
    query: &ConjunctiveQuery,
    config: &EngineConfig,
) -> Arc<CacheEntry> {
    let r = rewrite_with(
        theory,
        query,
        config.rewrite_budget,
        &Executor::sequential(),
    )
    .expect("builtin-body theories are rejected at registration");
    CacheEntry::from_rewriting(r)
}

/// Merge stage: authoritative cache decision, execution, counters. Runs on
/// the caller thread in submission order — the only place engine state
/// mutates.
fn finish(
    tenants: &[Tenant],
    cache: &Mutex<RewriteCache>,
    config: &EngineConfig,
    stats: &mut ServeStats,
    seq: u64,
    req: Request,
    prep: Prepared,
) -> Response {
    let t0 = Instant::now();
    stats.counters.requests += 1;
    let theory_id = req.theory().to_owned();
    let status = match (req, prep.query) {
        (Request::Write(w), _) => finish_write(tenants, stats, &w),
        (Request::Query(_), None) => unreachable!("queries prepare a parse outcome"),
        (Request::Query(_), Some(Err(reason))) => {
            stats.counters.rejected += 1;
            ResponseStatus::Rejected { reason }
        }
        (Request::Query(_), Some(Ok(p))) => {
            let mut c = cache.lock().expect("serve cache poisoned");
            let (entry, tier) = match c.get(&p.key) {
                Some(entry) => {
                    stats.counters.hits += 1;
                    stats.counters.plan_reuses += entry.plans.len() as u64;
                    (entry, Tier::Hit)
                }
                None => {
                    let entry = p.speculative.unwrap_or_else(|| {
                        // Resident at prepare time, evicted since: the
                        // rewrite is recomputed inline — same pure value.
                        build_entry(&tenants[p.tenant].theory, &p.query, config)
                    });
                    stats.counters.misses += 1;
                    stats.counters.plan_compiles += entry.plans.len() as u64;
                    stats.counters.rewrite_generated += entry.generated as u64;
                    stats.counters.evictions += c.insert(p.key, Arc::clone(&entry));
                    (entry, Tier::Miss)
                }
            };
            stats.counters.cache_bytes = c.bytes() as u64;
            stats.counters.peak_cache_bytes = c.peak_bytes() as u64;
            drop(c);
            let data = tenants[p.tenant].data.lock().expect("tenant data poisoned");
            let (answers, candidates, truncated) = execute(&entry, &data, config.answer_limit);
            drop(data);
            stats.counters.answered += 1;
            if !entry.complete {
                stats.counters.incomplete += 1;
            }
            if truncated {
                stats.counters.truncated += 1;
            }
            stats.counters.answers_emitted += answers.len() as u64;
            stats.counters.match_candidates += candidates;
            ResponseStatus::Answered {
                tier,
                complete: entry.complete,
                truncated,
                disjuncts: entry.plans.len(),
                candidates,
                answers: answers
                    .iter()
                    .map(|tuple| tuple.iter().map(|t| t.to_string()).collect())
                    .collect(),
            }
        }
    };
    let wall = prep.wall + t0.elapsed();
    stats.record_latency(wall);
    Response {
        seq,
        theory: theory_id,
        status,
        wall,
    }
}

/// Write-side merge stage: apply the batch to the tenant instance. The
/// cache is not touched: rewritings are pure in (theory, query) and survive
/// writes, and a later hit runs its cached plans on the post-write
/// instance, which is exact because plans are evaluated per request.
fn finish_write(tenants: &[Tenant], stats: &mut ServeStats, write: &FactWrite) -> ResponseStatus {
    let Some(tenant) = tenants.iter().position(|t| t.id == write.theory) else {
        stats.counters.rejected += 1;
        return ResponseStatus::Rejected {
            reason: format!("unknown theory '{}'", write.theory),
        };
    };
    let mut data = tenants[tenant].data.lock().expect("tenant data poisoned");
    let (inserted, retracted) = apply_write(&mut data, &write.batch);
    drop(data);
    stats.counters.writes += 1;
    stats.counters.facts_inserted += inserted;
    stats.counters.facts_retracted += retracted;
    ResponseStatus::Written {
        inserted,
        retracted,
    }
}

/// Applies a write batch to a base instance, mirroring the incremental
/// chase's base semantics: retractions first, then inserts appended if
/// absent. Returns the facts actually (inserted, retracted).
///
/// Retractions go through [`Instance::retract`], which pops the instance
/// back to the oldest retracted fact and re-inserts the survivors after
/// it: O(k + facts after the oldest retracted one), with a result
/// byte-identical to rebuilding the instance from its survivors. The
/// stream's usual retract names recent inserts, so the suffix is short: on
/// `perfbench --workload serve --seed 1 --trace 1` (2-vCPU container) the
/// median retract fell from 2 601 µs (whole-instance rebuild) to 24 µs,
/// against 10 µs per insert. Retracting a tenant's oldest fact still pays
/// for the whole instance.
fn apply_write(data: &mut Instance, batch: &WriteBatch) -> (u64, u64) {
    let retracted = data.retract(&batch.retracts);
    let inserted = batch
        .inserts
        .iter()
        .filter(|f| data.insert((*f).clone()).is_some())
        .count() as u64;
    (inserted, retracted)
}

/// Executes a cached entry over an instance: every disjunct's compiled
/// plan enumerates matches, answer variables project to tuples, and the
/// union dedups in first-seen order. Fully sequential per request, so
/// answer order and `candidates` are deterministic.
fn execute(entry: &CacheEntry, inst: &Instance, limit: usize) -> (Vec<Vec<TermId>>, u64, bool) {
    let mut counters = MatchCounters::default();
    let mut seen: HashSet<Vec<TermId>> = HashSet::new();
    let mut out: Vec<Vec<TermId>> = Vec::new();
    let mut truncated = false;
    for dp in &entry.plans {
        let completed = dp.plan.for_each_match(inst, &[], &mut counters, |asg| {
            let tuple: Vec<TermId> = dp
                .answer_vars
                .iter()
                .map(|v| asg[v.index()].expect("answer variables are bound by query safety"))
                .collect();
            if seen.insert(tuple.clone()) {
                out.push(tuple);
            }
            limit == 0 || out.len() < limit
        });
        if !completed {
            truncated = true;
            break;
        }
    }
    (out, counters.candidates, truncated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeCounters;

    fn path_engine(threads: usize) -> Engine {
        let mut e = Engine::new(EngineConfig {
            threads,
            ..EngineConfig::default()
        });
        e.register(
            "path",
            "e(X,Y) -> e(Y,Z).",
            "e(a,b). e(b,c). e(c,d). e(x,y).",
        )
        .unwrap();
        e
    }

    fn req(theory: &str, query: &str) -> CqRequest {
        CqRequest {
            theory: theory.into(),
            query: query.into(),
        }
    }

    #[test]
    fn answers_reach_through_the_theory() {
        // ?(A) :- e(A,B), e(B,C): under e(X,Y) -> e(Y,Z) every node touching
        // an edge (either end) certainly heads a 2-path, so the certain
        // answers are all edge endpoints.
        let mut e = path_engine(1);
        let r = e.submit(req("path", "?(A) :- e(A,B), e(B,C)."));
        let ResponseStatus::Answered {
            tier,
            complete,
            answers,
            ..
        } = &r.status
        else {
            panic!("expected an answer, got {:?}", r.status);
        };
        assert_eq!(*tier, Tier::Miss);
        assert!(complete);
        let flat: Vec<&str> = answers.iter().map(|t| t[0].as_str()).collect();
        assert_eq!(
            flat,
            ["a", "b", "c", "x", "d", "y"],
            "answers are certain answers"
        );
    }

    #[test]
    fn isomorphic_requests_hit_the_cache() {
        let mut e = path_engine(1);
        let cold = e.submit(req("path", "?(A) :- e(A,B), e(B,C)."));
        let warm = e.submit(req("path", "?(Src) :- e(Mid,Last), e(Src,Mid)."));
        assert!(!cold.is_hit());
        assert!(warm.is_hit(), "renamed/permuted query shares the key");
        let (
            ResponseStatus::Answered { answers: a, .. },
            ResponseStatus::Answered { answers: b, .. },
        ) = (&cold.status, &warm.status)
        else {
            panic!("both answered");
        };
        assert_eq!(a, b, "hit answers are byte-identical to the cold run");
        assert_eq!(e.stats().counters.hits, 1);
        assert_eq!(e.stats().counters.misses, 1);
        assert_eq!(e.cached_rewritings(), 1);
    }

    #[test]
    fn rejections_are_reported_not_panicked() {
        let mut e = path_engine(1);
        let unknown = e.submit(req("nope", "? :- e(a,b)."));
        assert!(matches!(unknown.status, ResponseStatus::Rejected { .. }));
        let garbled = e.submit(req("path", "this is not a query"));
        assert!(matches!(garbled.status, ResponseStatus::Rejected { .. }));
        assert_eq!(e.stats().counters.rejected, 2);
        assert_eq!(e.stats().counters.requests, 2);
    }

    #[test]
    fn batches_answer_in_submission_order_at_any_width() {
        let requests: Vec<CqRequest> = (0..12)
            .map(|i| match i % 3 {
                0 => req("path", "?(A) :- e(A,B)."),
                1 => req("path", "?(Z) :- e(Z,W)."),
                _ => req("path", "? :- e(a,Q)."),
            })
            .collect();
        let baseline: Vec<String> = path_engine(1)
            .run(requests.clone())
            .iter()
            .map(Response::trace_line)
            .collect();
        for threads in [2, 4] {
            let got: Vec<String> = path_engine(threads)
                .run(requests.clone())
                .iter()
                .map(Response::trace_line)
                .collect();
            assert_eq!(baseline, got, "trace stable at {threads} threads");
        }
    }

    #[test]
    fn answer_limit_truncates_and_flags() {
        let mut e = Engine::new(EngineConfig {
            answer_limit: 2,
            ..EngineConfig::default()
        });
        e.register("path", "e(X,Y) -> e(Y,Z).", "e(a,b). e(b,c). e(c,d).")
            .unwrap();
        let r = e.submit(req("path", "?(A) :- e(A,B)."));
        let ResponseStatus::Answered {
            answers, truncated, ..
        } = &r.status
        else {
            panic!("answered");
        };
        assert_eq!(answers.len(), 2);
        assert!(truncated);
        assert_eq!(e.stats().counters.truncated, 1);
    }

    #[test]
    fn builtin_body_theories_rejected_at_registration() {
        let mut e = Engine::new(EngineConfig::default());
        let err = e
            .register("bad", "dom(X) -> p(X).", "p(a).")
            .expect_err("builtin bodies must not register");
        assert!(err.contains("builtin"), "{err}");
        assert!(e.register("dup", "q(X) -> p(X).", "q(a).").is_ok());
        assert!(e.register("dup", "q(X) -> p(X).", "").is_err());
    }

    fn facts(src: &str) -> Vec<qr_syntax::Fact> {
        qr_syntax::parse_instance(src)
            .unwrap()
            .iter()
            .map(|fr| fr.to_fact())
            .collect()
    }

    #[test]
    fn write_then_query_sees_new_data() {
        let mut e = path_engine(1);
        let before = e.submit(req("path", "? :- e(q,r)."));
        let ResponseStatus::Answered { answers, .. } = &before.status else {
            panic!("answered expected");
        };
        assert!(answers.is_empty(), "q->r edge not present yet");

        let w = e.submit_write(FactWrite {
            theory: "path".into(),
            batch: WriteBatch::insert(facts("e(q,r).")),
        });
        let ResponseStatus::Written {
            inserted,
            retracted,
        } = w.status
        else {
            panic!("written expected, got {:?}", w.status);
        };
        assert_eq!((inserted, retracted), (1, 0));

        let after = e.submit(req("path", "? :- e(q,r)."));
        let ResponseStatus::Answered { tier, answers, .. } = &after.status else {
            panic!("answered expected");
        };
        assert_eq!(*tier, Tier::Hit, "the rewriting survived the write");
        assert_eq!(answers.len(), 1, "the inserted edge is now certain");

        let r = e.submit_write(FactWrite {
            theory: "path".into(),
            batch: WriteBatch::retract(facts("e(q,r).")),
        });
        let ResponseStatus::Written {
            inserted,
            retracted,
        } = r.status
        else {
            panic!("written expected");
        };
        assert_eq!((inserted, retracted), (0, 1));
        let gone = e.submit(req("path", "? :- e(q,r)."));
        let ResponseStatus::Answered { tier, answers, .. } = &gone.status else {
            panic!("answered expected");
        };
        assert_eq!(*tier, Tier::Hit, "the rewriting survived the retract");
        assert!(answers.is_empty(), "retraction undoes the insert");
    }

    #[test]
    fn writes_keep_every_tenant_resident() {
        let mut e = Engine::new(EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        });
        e.register("path", "e(X,Y) -> e(Y,Z).", "e(a,b).").unwrap();
        e.register("family", "parent(X,Y) -> person(Y).", "parent(ann,bob).")
            .unwrap();
        e.submit(req("path", "?(A) :- e(A,B)."));
        e.submit(req("family", "?(P) :- person(P)."));
        assert_eq!(e.cached_rewritings(), 2);
        let bytes = e.stats().counters.cache_bytes;

        // A changing write, then a no-op one: an insert of a present fact
        // and a retract of an absent one.
        let changing = e.submit_write(FactWrite {
            theory: "path".into(),
            batch: WriteBatch::insert(facts("e(b,c).")),
        });
        let noop = e.submit_write(FactWrite {
            theory: "path".into(),
            batch: WriteBatch {
                inserts: facts("e(a,b)."),
                retracts: facts("e(zz,ww)."),
            },
        });
        let counts: Vec<(u64, u64)> = [changing, noop]
            .iter()
            .map(|w| match w.status {
                ResponseStatus::Written {
                    inserted,
                    retracted,
                } => (inserted, retracted),
                _ => panic!("written expected, got {:?}", w.status),
            })
            .collect();
        assert_eq!(counts, [(1, 0), (0, 0)]);
        assert_eq!(e.cached_rewritings(), 2, "writes drop no rewriting");
        assert_eq!(e.stats().counters.cache_bytes, bytes);
        assert_eq!(e.stats().counters.cache_invalidations, 0);

        let path = e.submit(req("path", "?(Z) :- e(Z,W)."));
        let family = e.submit(req("family", "?(Q) :- person(Q)."));
        assert!(path.is_hit(), "the written tenant stays resident");
        assert!(family.is_hit(), "the other tenant stays resident");
        let ResponseStatus::Answered { answers, .. } = &path.status else {
            panic!("answered expected");
        };
        let flat: Vec<&str> = answers.iter().map(|t| t[0].as_str()).collect();
        assert_eq!(flat, ["a", "b", "c"], "the hit sees the inserted e(b,c)");
    }

    #[test]
    fn unknown_theory_write_is_rejected() {
        let mut e = path_engine(1);
        let w = e.submit_write(FactWrite {
            theory: "nosuch".into(),
            batch: WriteBatch::insert(facts("e(a,b).")),
        });
        let ResponseStatus::Rejected { reason } = &w.status else {
            panic!("rejected expected, got {:?}", w.status);
        };
        assert!(reason.contains("unknown theory"), "{reason}");
        assert_eq!(e.stats().counters.rejected, 1);
        assert_eq!(e.stats().counters.writes, 0, "rejected writes do not count");
    }

    #[test]
    fn counters_balance_across_mixed_batches() {
        let mut e = path_engine(1);
        let batch: Vec<Request> = vec![
            Request::Query(req("path", "?(A) :- e(A,B).")),
            Request::Write(FactWrite {
                theory: "path".into(),
                batch: WriteBatch::insert(facts("e(d,e).")),
            }),
            Request::Query(req("path", "?(A) :- e(A,B).")),
            Request::Query(req("nosuch", "? :- p(a).")),
            Request::Write(FactWrite {
                theory: "nosuch".into(),
                batch: WriteBatch::insert(facts("p(a).")),
            }),
        ];
        e.run_requests(batch);
        let c = e.stats().counters;
        assert_eq!(c.requests, 5);
        assert_eq!(c.answered, 2);
        assert_eq!(c.rejected, 2);
        assert_eq!(c.writes, 1);
        assert_eq!(c.requests, c.answered + c.rejected + c.writes);
        assert_eq!(c.facts_inserted, 1);
        assert_eq!(c.facts_retracted, 0);
    }

    /// Retracting registration-time facts (the oldest, and one in the
    /// middle) alongside inserts leaves the tenant answering exactly as a
    /// fresh engine registered with the surviving base, in the same order.
    #[test]
    fn oldest_fact_retracts_match_a_fresh_engine() {
        const THEORY: &str = "e(X,Y) -> e(Y,Z).\nlabel(X) -> e(X,Y).";
        let writes = || {
            vec![
                Request::Write(FactWrite {
                    theory: "g".into(),
                    batch: WriteBatch {
                        inserts: facts("e(d,a). label(z)."),
                        retracts: facts("label(a). e(b,c). e(q,q)."),
                    },
                }),
                Request::Write(FactWrite {
                    theory: "g".into(),
                    batch: WriteBatch {
                        inserts: facts("e(c,a)."),
                        retracts: facts("e(c,d). e(d,a). e(c,d)."),
                    },
                }),
            ]
        };
        let queries = || {
            [
                "?(A) :- e(A,B), e(B,C).",
                "?(A) :- label(A).",
                "?(A,B) :- e(A,B).",
                "? :- e(c,d).",
                "?(A) :- e(A,B), label(B).",
                "?(B) :- e(a,B).",
            ]
            .map(|q| Request::Query(req("g", q)))
        };
        for threads in [1, 2, 4] {
            let config = EngineConfig {
                threads,
                ..EngineConfig::default()
            };
            let mut written = Engine::new(config);
            written
                .register(
                    "g",
                    THEORY,
                    "label(a). e(a,b). e(b,c). label(c). e(c,d). e(x,y).",
                )
                .unwrap();
            let mut fresh = Engine::new(config);
            fresh
                .register("g", THEORY, "e(a,b). label(c). e(x,y). label(z). e(c,a).")
                .unwrap();

            let mut batch = writes();
            batch.extend(queries());
            let got = written.run_requests(batch);
            let want = fresh.run_requests(queries().into());
            let retracted: Vec<u64> = got[..2]
                .iter()
                .map(|r| match r.status {
                    ResponseStatus::Written { retracted, .. } => retracted,
                    _ => panic!("written expected, got {:?}", r.status),
                })
                .collect();
            assert_eq!(retracted, [2, 2], "absent and repeated retracts ignored");
            for (g, w) in got[2..].iter().zip(&want) {
                assert_eq!(g.status, w.status, "at {threads} threads");
            }
            let mut expect = fresh.stats().counters;
            expect.requests += 2;
            expect.writes += 2;
            expect.facts_inserted += 3;
            expect.facts_retracted += 4;
            assert_eq!(written.stats().counters, expect, "at {threads} threads");
        }
    }

    #[test]
    fn mixed_batches_pin_byte_identically_at_any_width() {
        let batch = || -> Vec<Request> {
            vec![
                Request::Query(req("path", "?(A) :- e(A,B), e(B,C).")),
                Request::Write(FactWrite {
                    theory: "path".into(),
                    batch: WriteBatch::insert(facts("e(y,z). e(z,a).")),
                }),
                Request::Query(req("path", "?(A) :- e(A,B), e(B,C).")),
                Request::Write(FactWrite {
                    theory: "path".into(),
                    batch: WriteBatch::retract(facts("e(x,y).")),
                }),
                Request::Query(req("path", "?(Src) :- e(Mid,Last), e(Src,Mid).")),
                Request::Query(req("path", "? :- e(z,a).")),
            ]
        };
        let mut reference: Option<(String, ServeCounters)> = None;
        for threads in [1, 2, 4] {
            let mut e = path_engine(threads);
            let responses = e.run_requests(batch());
            let trace = crate::replay::render_trace(&responses);
            let counters = e.stats().counters;
            match &reference {
                None => reference = Some((trace, counters)),
                Some((t, c)) => {
                    assert_eq!(&trace, t, "trace diverges at {threads} threads");
                    assert_eq!(&counters, c, "counters diverge at {threads} threads");
                }
            }
        }
    }
}

//! The serve loop: request answering over the rewriting cache, on the
//! caller thread.
//!
//! Each request of a batch runs to completion before the next starts:
//! parse, freeze key, cache lookup, the cold rewrite on a miss, then plan
//! execution (or, for a write, its application to the tenant instance).
//! The cache, the tenant instances and every counter in
//! [`ServeCounters`](crate::ServeCounters) therefore change in submission
//! order, so responses and traces are a function of the request stream.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qr_chase::WriteBatch;
use qr_hom::{canonical_key, MatchCounters};
use qr_rewrite::{rewrite, RewriteBudget};
use qr_syntax::{parse_query, ConjunctiveQuery, Instance, TermId, Theory};

use crate::cache::{CacheEntry, CacheKey, RewriteCache};
use crate::replay::ReplayError;
use crate::stats::ServeStats;

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Reported by [`Engine::threads`] and selects nothing: every request
    /// runs on the calling thread. Kept because the standalone `perfbench`
    /// crate sets it.
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
/// request stream as queries and apply in submission order, so every later
/// query sees the updated instance.
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
    /// Service time: parse, freeze key, cache decision, any cold rewrite,
    /// and plan execution or write application. Wall-clock: excluded from
    /// trace lines and never drift-gated.
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
    /// bytes, pinned by the replay tests.
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
    /// The live base instance.
    data: Instance,
}

/// The long-lived answering engine. See the crate docs for the design.
pub struct Engine {
    config: EngineConfig,
    tenants: Vec<Tenant>,
    cache: RewriteCache,
    stats: ServeStats,
    next_seq: u64,
}

impl Engine {
    /// Builds an engine.
    pub fn new(config: EngineConfig) -> Engine {
        Engine {
            cache: RewriteCache::new(config.cache_bytes),
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
            data,
        });
        Ok(())
    }

    /// Registered theory ids, in registration order.
    pub fn theories(&self) -> Vec<&str> {
        self.tenants.iter().map(|t| t.id.as_str()).collect()
    }

    /// [`EngineConfig::threads`], as configured (it selects nothing).
    pub fn threads(&self) -> usize {
        self.config.threads
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Resident rewriting-cache entries.
    pub fn cached_rewritings(&self) -> usize {
        self.cache.len()
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

    /// Runs a mixed batch of queries and fact writes, one request after
    /// the other in submission order: a query later in the batch executes
    /// against the instance every earlier write left.
    pub fn run_requests(&mut self, requests: Vec<Request>) -> Vec<Response> {
        requests.into_iter().map(|r| self.answer(r)).collect()
    }

    /// Serves one request: parse, key, cache lookup, rewrite on a miss and
    /// plan execution for a query; application for a write.
    fn answer(&mut self, req: Request) -> Response {
        let t0 = Instant::now();
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.counters.requests += 1;
        let theory = req.theory().to_owned();
        let tenant = self.tenants.iter().position(|t| t.id == theory);
        let status = match (req, tenant) {
            (_, None) => {
                self.stats.counters.rejected += 1;
                ResponseStatus::Rejected {
                    reason: format!("unknown theory '{theory}'"),
                }
            }
            (Request::Write(w), Some(t)) => self.write(t, &w.batch),
            (Request::Query(q), Some(t)) => match parse_query(&q.query) {
                Err(e) => {
                    self.stats.counters.rejected += 1;
                    ResponseStatus::Rejected {
                        reason: format!("parse error: {e}"),
                    }
                }
                Ok(query) => self.query(t, &query),
            },
        };
        let wall = t0.elapsed();
        self.stats.record_latency(wall);
        Response {
            seq,
            theory,
            status,
            wall,
        }
    }

    /// Answers a parsed query for tenant `t` through the rewriting cache.
    fn query(&mut self, t: usize, query: &ConjunctiveQuery) -> ResponseStatus {
        let key = CacheKey {
            tenant: t as u32,
            key: canonical_key(query),
        };
        let c = &mut self.stats.counters;
        let (entry, tier) = match self.cache.get(&key) {
            Some(entry) => {
                c.hits += 1;
                c.plan_reuses += entry.plans.len() as u64;
                (entry, Tier::Hit)
            }
            None => {
                let r = rewrite(&self.tenants[t].theory, query, self.config.rewrite_budget)
                    .expect("builtin-body theories are rejected at registration");
                let entry = CacheEntry::from_rewriting(r);
                c.misses += 1;
                c.plan_compiles += entry.plans.len() as u64;
                c.rewrite_generated += entry.generated as u64;
                c.evictions += self.cache.insert(key, Arc::clone(&entry));
                (entry, Tier::Miss)
            }
        };
        c.cache_bytes = self.cache.bytes() as u64;
        c.peak_cache_bytes = self.cache.peak_bytes() as u64;
        let (answers, candidates, truncated) =
            execute(&entry, &self.tenants[t].data, self.config.answer_limit);
        c.answered += 1;
        if !entry.complete {
            c.incomplete += 1;
        }
        if truncated {
            c.truncated += 1;
        }
        c.answers_emitted += answers.len() as u64;
        c.match_candidates += candidates;
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

    /// Applies a write batch to tenant `t`'s instance. The cache is not
    /// touched: rewritings are pure in (theory, query) and survive writes,
    /// and a later hit runs its cached plans on the post-write instance,
    /// which is exact because plans are evaluated per request.
    fn write(&mut self, t: usize, batch: &WriteBatch) -> ResponseStatus {
        let (inserted, retracted) = apply_write(&mut self.tenants[t].data, batch);
        let c = &mut self.stats.counters;
        c.writes += 1;
        c.facts_inserted += inserted;
        c.facts_retracted += retracted;
        ResponseStatus::Written {
            inserted,
            retracted,
        }
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
    /// This runs entirely off the serving fast path: `&self`, no cache or
    /// counter traffic — so certified and uncertified serving stay
    /// byte-identical.
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
            match qr_rewrite::rewrite_certified(theory, &query, self.config.rewrite_budget) {
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

    fn path_engine() -> Engine {
        let mut e = Engine::new(EngineConfig::default());
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
        let mut e = path_engine();
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
        let mut e = path_engine();
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
        let mut e = path_engine();
        let unknown = e.submit(req("nope", "? :- e(a,b)."));
        assert!(matches!(unknown.status, ResponseStatus::Rejected { .. }));
        let garbled = e.submit(req("path", "this is not a query"));
        assert!(matches!(garbled.status, ResponseStatus::Rejected { .. }));
        assert_eq!(e.stats().counters.rejected, 2);
        assert_eq!(e.stats().counters.requests, 2);
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
        let mut e = path_engine();
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
        let mut e = Engine::new(EngineConfig::default());
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
        let mut e = path_engine();
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
        let mut e = path_engine();
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
        let mut written = Engine::new(EngineConfig::default());
        written
            .register(
                "g",
                THEORY,
                "label(a). e(a,b). e(b,c). label(c). e(c,d). e(x,y).",
            )
            .unwrap();
        let mut fresh = Engine::new(EngineConfig::default());
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
            assert_eq!(g.status, w.status);
        }
        let mut expect = fresh.stats().counters;
        expect.requests += 2;
        expect.writes += 2;
        expect.facts_inserted += 3;
        expect.facts_retracted += 4;
        assert_eq!(written.stats().counters, expect);
    }

    /// A batch answers exactly as its requests submitted one at a time.
    #[test]
    fn mixed_batches_answer_like_single_submissions() {
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
        let mut batched = path_engine();
        let trace = crate::replay::render_trace(&batched.run_requests(batch()));
        let mut single = path_engine();
        let one_by_one: Vec<Response> = batch()
            .into_iter()
            .map(|r| match r {
                Request::Query(q) => single.submit(q),
                Request::Write(w) => single.submit_write(w),
            })
            .collect();
        assert_eq!(trace, crate::replay::render_trace(&one_by_one));
        assert_eq!(batched.stats().counters, single.stats().counters);
    }
}

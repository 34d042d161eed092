//! Serve-layer observability: deterministic counters plus wall-clock
//! latency percentiles.
//!
//! The split mirrors the rest of the repo: [`ServeCounters`] is the
//! drift-gated tier — every field is a pure function of (registered
//! tenants, request stream, engine config), because the engine updates it
//! once per request, in submission order.
//! Latencies are wall-clock and machine-dependent; they are *reported*
//! (p50/p95/p99) but never gated.

use std::time::Duration;

/// Deterministic counters, updated once per request in submission order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Requests observed (answered + rejected).
    pub requests: u64,
    /// Requests answered through a rewriting.
    pub answered: u64,
    /// Requests rejected (unknown theory, parse error).
    pub rejected: u64,
    /// Rewrite-cache tier: requests whose freeze key was resident.
    pub hits: u64,
    /// Rewrite-cache tier: requests that forced a (re)computation.
    pub misses: u64,
    /// Rewrite-cache tier: entries evicted by the LRU byte budget.
    pub evictions: u64,
    /// Plan tier: join plans compiled on misses (one per disjunct).
    pub plan_compiles: u64,
    /// Plan tier: compiled plans reused on hits.
    pub plan_reuses: u64,
    /// Answers served from a non-`Complete` rewriting (sound but possibly
    /// missing certain answers).
    pub incomplete: u64,
    /// Responses cut short by [`EngineConfig::answer_limit`].
    ///
    /// [`EngineConfig::answer_limit`]: crate::EngineConfig::answer_limit
    pub truncated: u64,
    /// Answer tuples emitted across all responses.
    pub answers_emitted: u64,
    /// Matcher scan work (candidate facts visited) across all responses.
    pub match_candidates: u64,
    /// Saturation candidates generated by cold rewrites (counted once per
    /// miss, from the entry actually installed).
    pub rewrite_generated: u64,
    /// Cache residency in logical bytes after the last request.
    pub cache_bytes: u64,
    /// High-water mark of the cache's logical bytes.
    pub peak_cache_bytes: u64,
    /// [`FactWrite`](crate::FactWrite) requests applied (rejected writes
    /// count under `rejected`). `requests` covers queries and writes
    /// alike, so `requests == answered + rejected + writes`.
    pub writes: u64,
    /// Base facts actually added by writes (inserts already present in
    /// the tenant instance do not count).
    pub facts_inserted: u64,
    /// Base facts actually removed by writes (retractions of absent
    /// facts do not count).
    pub facts_retracted: u64,
    /// Cache entries dropped by writes. Always 0: rewritings are pure in
    /// (theory, query) and survive writes. Only a future cache of
    /// *answers*, which depend on the data, would count here.
    pub cache_invalidations: u64,
}

/// Counters plus the per-request latency record.
#[derive(Clone, Debug, Default)]
pub struct ServeStats {
    /// The deterministic tier.
    pub counters: ServeCounters,
    latencies_us: Vec<u64>,
}

impl ServeStats {
    pub(crate) fn record_latency(&mut self, wall: Duration) {
        self.latencies_us.push(wall.as_micros() as u64);
    }

    /// Number of recorded per-request latencies.
    pub fn latency_samples(&self) -> usize {
        self.latencies_us.len()
    }

    /// Nearest-rank percentile of the per-request wall times, in
    /// milliseconds. `p` is in `(0, 100]`; returns 0 with no samples.
    pub fn latency_percentile_ms(&self, p: f64) -> f64 {
        if self.latencies_us.is_empty() {
            return 0.0;
        }
        let mut sorted = self.latencies_us.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1] as f64 / 1e3
    }

    /// Median per-request wall time, ms.
    pub fn p50_ms(&self) -> f64 {
        self.latency_percentile_ms(50.0)
    }

    /// 95th-percentile per-request wall time, ms.
    pub fn p95_ms(&self) -> f64 {
        self.latency_percentile_ms(95.0)
    }

    /// 99th-percentile per-request wall time, ms.
    pub fn p99_ms(&self) -> f64 {
        self.latency_percentile_ms(99.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = ServeStats::default();
        for us in [1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000] {
            s.record_latency(Duration::from_micros(us));
        }
        assert_eq!(s.latency_samples(), 10);
        assert_eq!(s.p50_ms(), 5.0);
        assert_eq!(s.p95_ms(), 10.0);
        assert_eq!(s.p99_ms(), 10.0);
        assert_eq!(s.latency_percentile_ms(10.0), 1.0);
    }

    #[test]
    fn empty_stats_report_zero() {
        let s = ServeStats::default();
        assert_eq!(s.p50_ms(), 0.0);
        assert_eq!(s.latency_samples(), 0);
    }
}

//! Serving workloads behind `BENCH_serve.json`.
//!
//! Each workload is a *seeded, pinned* request stream against a fixed set
//! of tenants, replayed through [`qr_serve::Engine`]. The stream mixes
//! labeled segments — cold distinct shapes, α-renamed isomorphic variants
//! of a small base pool, and hot exact repeats — shuffled together, so the
//! cache sees realistic interleaved traffic while per-segment hit rates
//! stay attributable. Everything the report carries except wall times is
//! deterministic: the engine's [`ServeCounters`](qr_serve::ServeCounters)
//! are updated once per request in submission order, and the full
//! response trace is condensed into an FNV-1a hash that pins
//! request/response behavior byte-for-byte across commits.

use std::time::Instant;

use qr_rewrite::RewriteBudget;
use qr_serve::{render_trace, CqRequest, Engine, EngineConfig, ResponseStatus, Tier};
use qr_testkit::Rng;

use crate::report::{ServeRun, ServeSegment};

/// One pinned serving workload: label, engine config, and the tagged
/// request stream.
pub struct ServeWorkload {
    /// Workload label (the `BENCH_serve.json` key).
    pub label: &'static str,
    /// Engine config the workload runs under.
    pub config: EngineConfig,
    /// The request stream, in submission order.
    pub requests: Vec<CqRequest>,
    /// Segment tag per request, aligned with `requests`.
    pub tags: Vec<&'static str>,
}

/// FNV-1a over the rendered response trace: a 64-bit determinism pin that
/// is cheap to store in the baseline and collides only on real drift.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Registers the four benchmark tenants. `path`/`family`/`guarded`
/// saturate under the workload budget; `tc` (transitive closure) budgets
/// out, pinning the sound-but-incomplete serving path.
fn register_tenants(engine: &mut Engine) {
    let mut path_data = String::new();
    for i in 0..20 {
        path_data.push_str(&format!("e(n{i},n{}). ", i + 1));
    }
    engine
        .register("path", "e(X,Y) -> e(Y,Z).", &path_data)
        .expect("path tenant registers");

    let mut family_data = String::new();
    for i in 0..9 {
        family_data.push_str(&format!("mother(m{i},m{}). ", i + 1));
    }
    family_data.push_str("human(solo).");
    engine
        .register(
            "family",
            "human(Y) -> mother(Y,Z).\nmother(X,Y) -> human(Y).",
            &family_data,
        )
        .expect("family tenant registers");

    let mut guarded_data = String::from("q(g0). ");
    for i in 0..9 {
        guarded_data.push_str(&format!("e(g{i},g{}). ", i + 1));
    }
    engine
        .register(
            "guarded",
            "p(X), e(X,Y) -> p(Y).\nq(X) -> p(X).",
            &guarded_data,
        )
        .expect("guarded tenant registers");

    engine
        .register(
            "tc",
            "e(X,Y), e(Y,Z) -> e(X,Z).",
            "e(c0,c1). e(c1,c2). e(c2,c3). e(c3,c4).",
        )
        .expect("tc tenant registers");
}

/// The isomorphism base pool: query templates whose `{i}` slots are
/// variable placeholders. Rendering a template with any injective naming
/// (same slot order) parses to the same structure, so every rendering of
/// one template shares a freeze key — the α-renamed cache-hit traffic.
const ISO_SHAPES: [(&str, &str); 16] = [
    ("path", "?({0}) :- e({0},{1}), e({1},{2})."),
    ("path", "? :- e({0},{1}), e({1},{2}), e({2},{3})."),
    ("path", "?({0},{2}) :- e({0},{1}), e({1},{2})."),
    ("path", "? :- e(n0, {0}), e({0}, n2)."),
    ("family", "?({0}) :- mother({0},{1})."),
    ("family", "?({1}) :- mother({0},{1}), mother({1},{2})."),
    ("family", "? :- mother({0},{1}), human({1})."),
    ("family", "?({0}) :- human({0})."),
    ("guarded", "? :- p({0})."),
    ("guarded", "? :- p({0}), e({0},{1})."),
    ("guarded", "? :- p({0}), p({1})."),
    ("tc", "? :- e(c0,{0}), e({0},c2)."),
    ("path", "?({0}) :- e({0},{1}), e({2},{1})."),
    ("family", "? :- mother({0},{1}), mother({2},{1})."),
    ("guarded", "? :- q({0}), e({0},{1})."),
    ("path", "? :- e({0},{0})."),
];

/// Renders a template, substituting `{i}` with `name(i)`.
fn render_template(tpl: &str, name: &dyn Fn(usize) -> String) -> String {
    let mut out = String::new();
    let bytes = tpl.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'{' {
            let close = tpl[i..].find('}').expect("template braces balance") + i;
            let slot: usize = tpl[i + 1..close].parse().expect("numeric template slot");
            out.push_str(&name(slot));
            i = close + 1;
        } else {
            out.push(bytes[i] as char);
            i += 1;
        }
    }
    out
}

fn request(theory: &str, query: String) -> CqRequest {
    CqRequest {
        theory: theory.to_owned(),
        query,
    }
}

/// The workload budget: small enough that the `tc` tenant's rewritings
/// budget out quickly (bounding per-miss cost and pinning the incomplete
/// path), large enough that every other tenant saturates.
fn workload_budget() -> RewriteBudget {
    RewriteBudget {
        max_queries: 24,
        max_generated: 400,
        max_atoms: 8,
    }
}

/// `serve-mixed`: 1200 requests — 120 cold distinct shapes, 700 α-renamed
/// variants over the 16-template base pool, 380 hot exact repeats —
/// shuffled under a pinned seed. The isomorphic-variant segment's hit rate
/// is ≥ (700 − 16)/700 ≈ 97% by construction (each template misses at
/// most once across the whole stream).
pub fn serve_mixed() -> ServeWorkload {
    let mut rng = Rng::new(0x5e7_e01);
    let mut tagged: Vec<(&'static str, CqRequest)> = Vec::new();

    // Cold segment: distinct freeze keys via constant anchors, each
    // submitted exactly once.
    for i in 0..20 {
        tagged.push((
            "cold",
            request("path", format!("? :- e(n{i}, V0), e(V0, V1).")),
        ));
        tagged.push(("cold", request("path", format!("?(V0) :- e(n{i}, V0)."))));
        tagged.push((
            "cold",
            request("path", format!("? :- e(n{i},V0), e(V0,V1), e(V1,V2).")),
        ));
    }
    for i in 0..10 {
        tagged.push(("cold", request("family", format!("? :- mother(m{i}, V0)."))));
        tagged.push((
            "cold",
            request("family", format!("?(V0) :- mother(V0, m{i}).")),
        ));
        tagged.push(("cold", request("guarded", format!("? :- p(g{i})."))));
        tagged.push((
            "cold",
            request("family", format!("? :- mother(m{i}, V0), mother(V0, V1).")),
        ));
        tagged.push((
            "cold",
            request("guarded", format!("? :- p(g{i}), e(g{i}, V0).")),
        ));
    }
    for (i, j) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
        tagged.push(("cold", request("tc", format!("? :- e(c{i}, c{j})."))));
    }
    assert_eq!(tagged.len(), 116, "cold pool is pinned");

    // Isomorphic-variant segment: α-renamings of the base pool. The salt
    // keeps names fresh per request; slot order is untouched, so every
    // rendering of a template shares its freeze key.
    for _ in 0..704 {
        let (tenant, tpl) = *rng.pick(&ISO_SHAPES);
        let salt = rng.below(100_000);
        tagged.push((
            "iso",
            request(tenant, render_template(tpl, &|v| format!("V{salt}x{v}"))),
        ));
    }

    // Hot segment: exact repeats of the first eight templates' identity
    // renderings — the steady-state cache-resident traffic.
    for _ in 0..380 {
        let (tenant, tpl) = ISO_SHAPES[rng.below(8)];
        tagged.push((
            "hot",
            request(tenant, render_template(tpl, &|v| format!("H{v}"))),
        ));
    }

    // Fisher–Yates under the same pinned stream: the mixed order is part
    // of the workload definition.
    for i in (1..tagged.len()).rev() {
        let j = rng.below(i + 1);
        tagged.swap(i, j);
    }

    let (tags, requests) = tagged.into_iter().unzip();
    ServeWorkload {
        label: "serve-mixed",
        config: EngineConfig {
            threads: 1,
            cache_bytes: 1 << 20,
            rewrite_budget: workload_budget(),
            answer_limit: 12,
        },
        requests,
        tags,
    }
}

/// `serve-churn`: 320 requests cycling through 40 distinct shapes under a
/// byte budget that holds only a handful of entries — the LRU eviction
/// stress. Immediate repeats (25% of steps) are the only hits; cyclic
/// sweeps through 40 keys always evict before reuse.
pub fn serve_churn() -> ServeWorkload {
    let mut rng = Rng::new(0xc4u64);
    let mut requests = Vec::new();
    let mut tags = Vec::new();
    let mut k = 0usize;
    while requests.len() < 320 {
        let repeat = !requests.is_empty() && rng.below(4) == 0;
        if !repeat {
            k = (k + 1) % 40;
        }
        requests.push(request(
            "path",
            format!("? :- e(n{}, V0), e(V0, V1).", k % 40),
        ));
        tags.push("churn");
    }
    ServeWorkload {
        label: "serve-churn",
        config: EngineConfig {
            threads: 1,
            cache_bytes: 3_000,
            rewrite_budget: workload_budget(),
            answer_limit: 0,
        },
        requests,
        tags,
    }
}

/// Replays a workload and condenses the outcome into a [`ServeRun`].
pub fn run_workload(w: &ServeWorkload) -> ServeRun {
    let mut engine = Engine::new(w.config);
    register_tenants(&mut engine);
    let t0 = Instant::now();
    let responses = engine.run(w.requests.clone());
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut segments: Vec<ServeSegment> = Vec::new();
    for (tag, resp) in w.tags.iter().zip(&responses) {
        let seg = match segments.iter_mut().find(|s| s.name == *tag) {
            Some(seg) => seg,
            None => {
                segments.push(ServeSegment {
                    name: (*tag).to_owned(),
                    requests: 0,
                    hits: 0,
                    misses: 0,
                });
                segments.last_mut().expect("just pushed")
            }
        };
        seg.requests += 1;
        match resp.status {
            ResponseStatus::Answered {
                tier: Tier::Hit, ..
            } => seg.hits += 1,
            ResponseStatus::Answered {
                tier: Tier::Miss, ..
            } => seg.misses += 1,
            ResponseStatus::Rejected { .. } | ResponseStatus::Written { .. } => {}
        }
    }
    segments.sort_by(|a, b| a.name.cmp(&b.name));

    let stats = engine.stats();
    ServeRun {
        workload: w.label.to_owned(),
        threads: engine.threads(),
        wall_ms,
        counters: stats.counters,
        segments,
        trace_fnv: fnv1a(render_trace(&responses).as_bytes()),
        p50_ms: stats.p50_ms(),
        p95_ms: stats.p95_ms(),
        p99_ms: stats.p99_ms(),
    }
}

/// Known serve workload labels, in run order.
pub fn workload_labels() -> Vec<&'static str> {
    vec!["serve-mixed", "serve-churn"]
}

/// All serve runs for `BENCH_serve.json`, optionally filtered by label
/// (empty filter = all).
pub fn stats_runs(filter: &[String]) -> Vec<ServeRun> {
    let selected = |label: &str| filter.is_empty() || filter.iter().any(|f| f == label);
    let mut out = Vec::new();
    if selected("serve-mixed") {
        out.push(run_workload(&serve_mixed()));
    }
    if selected("serve-churn") {
        out.push(run_workload(&serve_churn()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segment<'a>(run: &'a ServeRun, name: &str) -> &'a ServeSegment {
        run.segments
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("segment {name} missing"))
    }

    #[test]
    fn generator_is_pinned() {
        let a = serve_mixed();
        let b = serve_mixed();
        assert_eq!(a.requests, b.requests, "seeded stream is reproducible");
        assert_eq!(a.tags, b.tags);
        assert!(a.requests.len() >= 1000, "acceptance floor");
        let c = serve_churn();
        assert_eq!(c.requests, serve_churn().requests);
    }

    /// The acceptance gate: ≥ 1000 mixed requests and > 80% hit rate on
    /// the isomorphic-variant segment.
    #[test]
    fn mixed_workload_hits_the_cache() {
        let w = serve_mixed();
        let run = run_workload(&w);
        assert_eq!(run.counters.requests as usize, w.requests.len());
        assert_eq!(run.counters.rejected, 0, "the generator emits no garbage");

        let iso = segment(&run, "iso");
        assert!(
            iso.hits as f64 > 0.8 * iso.requests as f64,
            "iso segment hit rate must exceed 80%: {}/{} hits",
            iso.hits,
            iso.requests
        );
        let cold = segment(&run, "cold");
        assert_eq!(cold.hits, 0, "cold shapes are all distinct");
        assert_eq!(cold.misses, 116);
        let hot = segment(&run, "hot");
        assert!(hot.hits > hot.misses, "hot repeats are cache-resident");

        assert!(
            run.counters.incomplete > 0,
            "tc serves budget-capped answers"
        );
        assert!(run.counters.truncated > 0, "the answer limit fires");
        assert_eq!(run.counters.evictions, 0, "mixed fits its byte budget");
    }

    #[test]
    fn churn_workload_forces_evictions_soundly() {
        let w = serve_churn();
        let run = run_workload(&w);
        assert!(run.counters.evictions > 0, "the tiny budget must churn");
        assert!(run.counters.hits > 0, "immediate repeats still hit");
        assert!(
            run.counters.misses > run.counters.hits,
            "cyclic sweeps defeat a tiny LRU"
        );
        // Eviction-churn must stay invisible in the answers: same stream,
        // roomy cache, same responses modulo the hit/miss tier. Answer
        // counts are part of the trace, so compare emitted totals.
        let mut roomy = Engine::new(EngineConfig {
            cache_bytes: 1 << 20,
            ..w.config
        });
        register_tenants(&mut roomy);
        let responses = roomy.run(w.requests.clone());
        assert_eq!(
            roomy.stats().counters.answers_emitted,
            run.counters.answers_emitted,
            "evictions change tiers, never answers"
        );
        assert_eq!(roomy.stats().counters.evictions, 0);
        assert_eq!(responses.len(), w.requests.len());
    }

    #[test]
    fn template_renderer_substitutes_slots() {
        let q = render_template("?({0}) :- e({0},{1}).", &|v| format!("Z{v}"));
        assert_eq!(q, "?(Z0) :- e(Z0,Z1).");
    }

    #[test]
    fn fnv_is_the_reference_implementation() {
        // Pinned reference vectors for 64-bit FNV-1a.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}

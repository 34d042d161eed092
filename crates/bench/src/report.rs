//! Machine-readable bench output.
//!
//! The harness's `--json` mode writes each run family to a `BENCH_*.json`
//! dump, so the repo's perf trajectory is recorded as data points across
//! PRs instead of anecdotes in commit messages. Every dump is one [`Json`]
//! tree: the shared [`SCHEMA`] tag plus one array of run records, each
//! built by its struct's [`ToJson::to_json`], which lists every emitted
//! field exactly once. One layout rule prints any tree (see [`Json`]), and
//! `bench_diff` reads the dumps back with [`Json::parse`]. The format is
//! hand-rolled (the workspace is offline — no serde) but stable.

use std::fmt;
use std::time::Duration;

use qr_chase::{ChaseStats, IncrementalStats, RoundStats};
use qr_hom::HomStats;
use qr_rewrite::{RewriteStats, WindowStats};
use qr_syntax::StorageStats;

/// Schema tag shared by every `BENCH_*.json` dump.
pub const SCHEMA: &str = "qr-bench/v6";

/// A JSON value. Numbers keep their literal token, so dumps compare
/// exactly and never round-trip through `f64`.
///
/// `Display` prints one layout: a container whose children are all
/// scalars goes on one line; any other container puts each child on its
/// own line, indented two spaces per level.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its literal token (`"4555"`, `"0.250"`).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in field order.
    Obj(Vec<(String, Json)>),
}

/// Builds the field list of a [`Json::Obj`] from `key => value` pairs,
/// converting each value with `Json::from`.
macro_rules! fields {
    ($($key:literal => $val:expr),* $(,)?) => {
        vec![$(($key.to_owned(), Json::from($val))),*]
    };
}

impl Json {
    /// A millisecond figure, printed with three decimals.
    fn ms(v: f64) -> Json {
        Json::Num(format!("{v:.3}"))
    }

    fn dur(d: Duration) -> Json {
        Json::ms(d.as_secs_f64() * 1e3)
    }

    /// The value under `key`, if `self` is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, if `self` is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parses a whole document (objects, arrays, strings with escapes,
    /// numbers, booleans, null).
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: src.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }

    fn write(&self, out: &mut String, depth: usize) {
        let (open, close, children): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => return out.push_str(n),
            Json::Str(s) => return write_str(out, s),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => (
                '{',
                '}',
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
        };
        let flat = children
            .iter()
            .all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_)));
        let indent = |out: &mut String, depth: usize| {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        };
        out.push(open);
        for (i, (key, v)) in children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if !flat {
                indent(out, depth + 1);
            } else if i > 0 {
                out.push(' ');
            }
            if let Some(k) = key {
                write_str(out, k);
                out.push_str(": ");
            }
            v.write(out, depth + 1);
        }
        if !flat {
            indent(out, depth);
        }
        out.push(close);
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, 0);
        f.write_str(&out)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v.to_string())
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v.to_string())
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .filter(|s| s.parse::<f64>().is_ok())
            .map(|s| Json::Num(s.to_owned()))
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 passes through unchanged.
                    let s = &self.bytes[self.pos..];
                    let ch_len = match s[0] {
                        b if b < 0x80 => 1,
                        b if b >= 0xF0 => 4,
                        b if b >= 0xE0 => 3,
                        _ => 2,
                    };
                    out.push_str(
                        std::str::from_utf8(&s[..ch_len.min(s.len())])
                            .map_err(|e| e.to_string())?,
                    );
                    self.pos += ch_len;
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }
}

/// A record that lists its fields once, as a [`Json`] object.
pub trait ToJson {
    /// The record as one object of the dump.
    fn to_json(&self) -> Json;
}

/// A run array of a dump.
pub fn list<T: ToJson>(items: &[T]) -> Json {
    Json::Arr(items.iter().map(ToJson::to_json).collect())
}

/// One whole dump: the [`SCHEMA`] tag followed by the named `sections`.
pub fn dump(sections: Vec<(&str, Json)>) -> Json {
    let mut fields = fields! { "schema" => SCHEMA };
    fields.extend(sections.into_iter().map(|(k, v)| (k.to_owned(), v)));
    Json::Obj(fields)
}

/// One measured chase run: a named workload plus the engine's own counters.
pub struct ChaseRun {
    /// Workload label (matches the E11 table's `workload` column).
    pub workload: String,
    /// Which engine ran (`"semi-naive"` / `"naive"`).
    pub engine: &'static str,
    /// End-to-end wall time of the run, in milliseconds.
    pub wall_ms: f64,
    /// Facts in the final instance.
    pub facts_out: usize,
    /// Completed rounds.
    pub rounds_run: usize,
    /// Per-round engine counters.
    pub stats: ChaseStats,
    /// Storage footprint of the final instance.
    pub memory: StorageStats,
}

/// One measured incremental-maintenance run (the harness's `--incr`
/// mode): a pinned write-batch sequence absorbed by
/// [`qr_chase::IncrementalChase`], plus a cold re-chase of the final base
/// as the per-batch baseline. The mode/replay/cone counters and both
/// candidate totals are deterministic and drift-gated; every `*_ms` field
/// and `threads` are machine-dependent.
pub struct IncrRun {
    /// Workload label (`"TC incr on G(24,40)"`, ...).
    pub workload: String,
    /// Worker-pool width the run used.
    pub threads: usize,
    /// Write batches absorbed (inserts plus the final retraction).
    pub batches: usize,
    /// Total incremental-maintenance wall time, ms.
    pub wall_ms: f64,
    /// Amortized wall time per batch, ms.
    pub batch_ms: f64,
    /// Wall time of one cold chase of the final base, ms — what each
    /// batch would cost if writes re-chased the world.
    pub rechase_ms: f64,
    /// Facts in the final maintained instance.
    pub facts_out: usize,
    /// Completed rounds of the final maintained chase.
    pub rounds_run: usize,
    /// Cumulative batch-mode and replay/rederive/cone counters.
    pub counters: IncrementalStats,
    /// Matcher candidates enumerated across the insert batches.
    pub candidates_incr: u64,
    /// Matcher candidates of the one cold chase of the final base.
    pub candidates_cold: u64,
}

/// Frontier counters of one marked-query process run (`T_d` / `T_d^k`).
pub struct MarkedCounters {
    /// Frontier steps executed before the process terminated.
    pub steps: usize,
    /// Largest frontier reached.
    pub max_frontier: usize,
    /// Improperly-marked queries dropped along the way.
    pub dropped: usize,
    /// Whether the rewriting contains the always-true disjunct.
    pub has_true: bool,
}

/// One measured rewrite run. Saturation fixtures (`engine: "saturation"`)
/// carry the engine's per-window [`RewriteStats`]; marked-process runs
/// (`engine: "marked"`) carry the process counters instead.
pub struct RewriteRun {
    /// Workload label (theory + query + budget shape).
    pub workload: String,
    /// Which rewriter ran (`"saturation"` / `"marked"`).
    pub engine: &'static str,
    /// End-to-end wall time, ms.
    pub wall_ms: f64,
    /// `RewriteOutcome` as a string (`"Complete"`, `"AtomCapped"`, ...).
    pub outcome: String,
    /// Disjuncts in the returned UCQ.
    pub disjuncts: usize,
    /// Rewriting size `rs` (atoms in the largest disjunct).
    pub rs: usize,
    /// Candidates generated before subsumption.
    pub generated: usize,
    /// Candidates discarded for exceeding the atom cap.
    pub oversized_discarded: usize,
    /// Deepest rewriting step applied.
    pub depth: usize,
    /// Per-window engine counters (saturation runs).
    pub stats: Option<RewriteStats>,
    /// Process counters (marked runs).
    pub process: Option<MarkedCounters>,
    /// Homomorphism-kernel counters (runs that exercise the kernel); every
    /// one is deterministic and drift-gated.
    pub hom: Option<HomStats>,
}

/// Per-segment cache outcome of one serve run. Requests/hits/misses are
/// deterministic (the engine decides tiers at its ordered merge point), so
/// all three are drift-gated.
pub struct ServeSegment {
    /// Segment tag (`"cold"`, `"iso"`, `"hot"`, ...).
    pub name: String,
    /// Requests carrying this tag.
    pub requests: u64,
    /// Rewriting-cache hits within the segment.
    pub hits: u64,
    /// Rewriting-cache misses within the segment.
    pub misses: u64,
}

/// One measured serve-workload replay: the engine's deterministic
/// [`ServeCounters`](qr_serve::ServeCounters), per-segment cache outcomes,
/// and an FNV-1a hash of the full response trace. Only `wall_ms` and the
/// latency percentiles are machine-dependent.
pub struct ServeRun {
    /// Workload label (`"serve-mixed"`, ...).
    pub workload: String,
    /// The engine's [`EngineConfig::threads`](qr_serve::EngineConfig::threads),
    /// which selects nothing. Never gated.
    pub threads: usize,
    /// End-to-end wall time of the replay, ms.
    pub wall_ms: f64,
    /// The engine's deterministic counter snapshot.
    pub counters: qr_serve::ServeCounters,
    /// Per-segment cache outcomes, sorted by name.
    pub segments: Vec<ServeSegment>,
    /// FNV-1a of the rendered response trace (thread-invariant).
    pub trace_fnv: u64,
    /// Median per-request service time, ms (reported, never gated).
    pub p50_ms: f64,
    /// 95th-percentile per-request service time, ms.
    pub p95_ms: f64,
    /// 99th-percentile per-request service time, ms.
    pub p99_ms: f64,
}

/// One measured bulk-sharding run (the harness's `--shard` mode): a bulk
/// workload chased through [`qr_chase::chase_sharded`] on a pinned
/// worker-pool width. Each workload appears twice — once on a 1-thread
/// pool (`engine: "chase"`, the monolithic bypass) and once on a 4-thread
/// pool (`engine: "sharded"`) — so `BENCH_chase.json` records the speedup
/// pair. Every counter is deterministic (sharding is byte-identical to
/// the monolithic chase; partitioning and packing are deterministic
/// functions of the instance) and drift-gated; `*_ms` fields and
/// `threads` are machine-dependent.
pub struct ShardRun {
    /// Workload label plus engine (`"bulk-tc/sharded"`, ...).
    pub workload: String,
    /// Which engine ran (`"chase"` for the 1-thread bypass, `"sharded"`).
    pub engine: &'static str,
    /// Pinned worker-pool width of this run.
    pub threads: usize,
    /// [`ShardMode`](qr_chase::ShardMode) the run resolved to, as a
    /// string (`"bypass"` / `"gaifman"` / `"fallback"`).
    pub mode: String,
    /// Gaifman components found (0 when partitioning was skipped).
    pub components: usize,
    /// Shards actually chased (0 on bypass).
    pub shards: usize,
    /// End-to-end wall time, ms.
    pub wall_ms: f64,
    /// Wall time partitioning the base, ms.
    pub partition_ms: f64,
    /// Wall time chasing the shards, ms.
    pub shard_ms: f64,
    /// Wall time merging the shard results, ms.
    pub merge_ms: f64,
    /// Facts in the final merged instance.
    pub facts_out: usize,
    /// Completed rounds of the merged chase.
    pub rounds_run: usize,
    /// Total triggers across the run.
    pub triggers: u64,
    /// Total matcher candidates across the run.
    pub candidates: u64,
}

/// One certification replay (the harness's `--check` mode): a workload's
/// certificates pushed through the codec and re-verified by `qr-check`.
/// Everything but `wall_ms` is deterministic — certificate counts and
/// encoded sizes are pure functions of (theory, query/instance, budget),
/// `kernel_searches` is pinned to zero (the checker never searches), and
/// `failures` is pinned empty.
pub struct CheckRun {
    /// Workload label (matches the rewrite fixture / E11 chase labels).
    pub workload: String,
    /// Which certificate family replayed (`"rewrite"` / `"chase"`).
    pub kind: &'static str,
    /// Always 1: prover and checker both run on the caller thread. Never
    /// gated.
    pub threads: usize,
    /// Wall time of the decode+replay span, ms (reported, never gated).
    pub wall_ms: f64,
    /// Certificates replayed successfully.
    pub certs: usize,
    /// Encoded bundle size, bytes.
    pub cert_bytes: usize,
    /// Homomorphism-kernel searches during the replay — zero by the
    /// checker's no-search contract, and drift-gated at zero.
    pub kernel_searches: u64,
    /// Rendered located errors; empty on a fully certified run.
    pub failures: Vec<String>,
}

/// Wall time of one whole experiment table.
pub struct ExperimentTiming {
    /// Experiment id (`"e11"`, ...).
    pub id: String,
    /// Wall time to build the table, in milliseconds.
    pub wall_ms: f64,
}

/// The per-round chase counters, shared by each round and the run totals.
fn round_counters(r: &RoundStats) -> Vec<(String, Json)> {
    fields! {
        "triggers" => r.triggers,
        "candidates" => r.candidates,
        "dom_sweeps" => r.dom_sweeps,
        "dom_pruned" => r.dom_pruned,
        "facts_added" => r.facts_added,
        "terms_added" => r.terms_added,
        "enum_ms" => Json::dur(r.enum_wall),
        "merge_ms" => Json::dur(r.merge_wall),
    }
}

impl ToJson for ChaseRun {
    fn to_json(&self) -> Json {
        let s = &self.stats;
        let totals = RoundStats {
            round: 0,
            triggers: s.triggers(),
            candidates: s.candidates(),
            dom_sweeps: s.dom_sweeps(),
            dom_pruned: s.dom_pruned(),
            facts_added: s.facts_added(),
            terms_added: s.terms_added(),
            enum_wall: s.enum_wall(),
            merge_wall: s.merge_wall(),
            wall: s.wall(),
        };
        let rounds = s.rounds.iter().map(|r| {
            let mut f = fields! { "round" => r.round };
            f.extend(round_counters(r));
            f.extend(fields! { "wall_ms" => Json::dur(r.wall) });
            Json::Obj(f)
        });
        Json::Obj(fields! {
            "workload" => self.workload.as_str(),
            "engine" => self.engine,
            "threads" => s.threads,
            "wall_ms" => Json::ms(self.wall_ms),
            "facts_out" => self.facts_out,
            "rounds_run" => self.rounds_run,
            "memory" => Json::Obj(fields! {
                "peak_facts" => self.memory.peak_facts,
                "bytes_facts" => self.memory.bytes_facts,
                "bytes_index" => self.memory.bytes_index,
                "bytes_tuples" => self.memory.bytes_tuples,
            }),
            "totals" => Json::Obj(round_counters(&totals)),
            "rounds" => rounds.collect::<Vec<_>>(),
        })
    }
}

impl ToJson for IncrRun {
    fn to_json(&self) -> Json {
        let c = &self.counters;
        Json::Obj(fields! {
            "workload" => self.workload.as_str(),
            "threads" => self.threads,
            "batches" => self.batches,
            "wall_ms" => Json::ms(self.wall_ms),
            "batch_ms" => Json::ms(self.batch_ms),
            "rechase_ms" => Json::ms(self.rechase_ms),
            "facts_out" => self.facts_out,
            "rounds_run" => self.rounds_run,
            "modes" => Json::Obj(fields! {
                "noops" => c.noops,
                "seeded_inserts" => c.seeded_inserts,
                "rechases" => c.rechases,
            }),
            "counters" => Json::Obj(fields! {
                "replayed_facts" => c.replayed_facts,
                "rederived_facts" => c.rederived_facts,
                "cone_facts" => c.cone_facts,
                "candidates_incr" => self.candidates_incr,
                "candidates_cold" => self.candidates_cold,
            }),
        })
    }
}

/// One rewrite window's counters; with `per_window` off, the run totals
/// (no window identity or capacity fields).
fn window_counters(w: &WindowStats, per_window: bool) -> Json {
    let mut f = Vec::new();
    if per_window {
        f.extend(fields! { "window" => w.window, "items" => w.items });
    }
    f.extend(fields! {
        "merged" => w.merged,
        "dead_skipped" => w.dead_skipped,
        "generated" => w.generated,
        "dedup_hits" => w.dedup_hits,
        "subsumption_hits" => w.subsumption_hits,
        "evictions" => w.evictions,
        "oversized" => w.oversized,
        "accepted" => w.accepted,
    });
    if per_window {
        f.extend(fields! { "kept" => w.kept });
    }
    f.extend(fields! {
        "unifier_probes" => w.unifier_probes,
        "unifier_skipped" => w.unifier_skipped,
        "trie_probes" => w.trie_probes,
        "trie_skipped" => w.trie_skipped,
        "gen_ms" => Json::dur(w.gen_wall),
        "merge_ms" => Json::dur(w.merge_wall),
    });
    Json::Obj(f)
}

impl ToJson for RewriteRun {
    fn to_json(&self) -> Json {
        let mut f = fields! {
            "workload" => self.workload.as_str(),
            "engine" => self.engine,
            "wall_ms" => Json::ms(self.wall_ms),
            "outcome" => self.outcome.as_str(),
            "disjuncts" => self.disjuncts,
            "rs" => self.rs,
            "generated" => self.generated,
            "oversized_discarded" => self.oversized_discarded,
            "depth" => self.depth,
        };
        if let Some(s) = &self.stats {
            let totals = WindowStats {
                merged: s.merged(),
                dead_skipped: s.dead_skipped(),
                generated: s.generated(),
                dedup_hits: s.dedup_hits(),
                subsumption_hits: s.subsumption_hits(),
                evictions: s.evictions(),
                oversized: s.oversized(),
                accepted: s.accepted(),
                unifier_probes: s.unifier_probes(),
                unifier_skipped: s.unifier_skipped(),
                trie_probes: s.trie_probes(),
                trie_skipped: s.trie_skipped(),
                gen_wall: s.gen_wall(),
                merge_wall: s.merge_wall(),
                ..WindowStats::default()
            };
            let windows = s.windows.iter().map(|w| window_counters(w, true));
            f.extend(fields! {
                "totals" => window_counters(&totals, false),
                "windows" => windows.collect::<Vec<_>>(),
            });
        }
        if let Some(p) = &self.process {
            f.extend(fields! {
                "process" => Json::Obj(fields! {
                    "steps" => p.steps,
                    "max_frontier" => p.max_frontier,
                    "dropped" => p.dropped,
                    "has_true" => p.has_true,
                }),
            });
        }
        if let Some(s) = &self.hom {
            let hom = fields! {
                "freezes" => s.freezes,
                "freeze_cache_hits" => s.freeze_cache_hits,
                "plan_compiles" => s.plan_compiles,
                "plan_cache_hits" => s.plan_cache_hits,
                "prefilter_rejects" => s.prefilter_rejects,
                "components" => s.components,
                "searches" => s.searches,
                "search_candidates" => s.search_candidates,
                "core_rounds" => s.core_rounds,
                "core_searches" => s.core_searches,
                "core_cache_hits" => s.core_cache_hits,
            };
            f.extend(fields! { "hom" => Json::Obj(hom) });
        }
        Json::Obj(f)
    }
}

impl ToJson for ServeRun {
    fn to_json(&self) -> Json {
        let c = &self.counters;
        let segments = self.segments.iter().map(|s| {
            Json::Obj(fields! {
                "name" => s.name.as_str(),
                "requests" => s.requests,
                "hits" => s.hits,
                "misses" => s.misses,
            })
        });
        Json::Obj(fields! {
            "workload" => self.workload.as_str(),
            "threads" => self.threads,
            "wall_ms" => Json::ms(self.wall_ms),
            "p50_ms" => Json::ms(self.p50_ms),
            "p95_ms" => Json::ms(self.p95_ms),
            "p99_ms" => Json::ms(self.p99_ms),
            // Hex, so the 64-bit hash survives f64-based JSON readers.
            "trace_fnv" => format!("{:#018x}", self.trace_fnv).as_str(),
            "counters" => Json::Obj(fields! {
                "requests" => c.requests,
                "answered" => c.answered,
                "rejected" => c.rejected,
                "hits" => c.hits,
                "misses" => c.misses,
                "evictions" => c.evictions,
                "plan_compiles" => c.plan_compiles,
                "plan_reuses" => c.plan_reuses,
                "incomplete" => c.incomplete,
                "truncated" => c.truncated,
                "answers_emitted" => c.answers_emitted,
                "match_candidates" => c.match_candidates,
                "rewrite_generated" => c.rewrite_generated,
                "cache_bytes" => c.cache_bytes,
                "peak_cache_bytes" => c.peak_cache_bytes,
                "writes" => c.writes,
                "facts_inserted" => c.facts_inserted,
                "facts_retracted" => c.facts_retracted,
                "cache_invalidations" => c.cache_invalidations,
            }),
            "segments" => segments.collect::<Vec<_>>(),
        })
    }
}

impl ToJson for ShardRun {
    fn to_json(&self) -> Json {
        Json::Obj(fields! {
            "workload" => self.workload.as_str(),
            "engine" => self.engine,
            "threads" => self.threads,
            "mode" => self.mode.as_str(),
            "wall_ms" => Json::ms(self.wall_ms),
            "partition_ms" => Json::ms(self.partition_ms),
            "shard_ms" => Json::ms(self.shard_ms),
            "merge_ms" => Json::ms(self.merge_ms),
            "components" => self.components,
            "shards" => self.shards,
            "facts_out" => self.facts_out,
            "rounds_run" => self.rounds_run,
            "triggers" => self.triggers,
            "candidates" => self.candidates,
        })
    }
}

impl ToJson for CheckRun {
    fn to_json(&self) -> Json {
        let failures = self.failures.iter().map(|f| Json::from(f.as_str()));
        Json::Obj(fields! {
            "workload" => self.workload.as_str(),
            "kind" => self.kind,
            "threads" => self.threads,
            "wall_ms" => Json::ms(self.wall_ms),
            "certs" => self.certs,
            "cert_bytes" => self.cert_bytes,
            "kernel_searches" => self.kernel_searches,
            "failures" => failures.collect::<Vec<_>>(),
        })
    }
}

impl ToJson for ExperimentTiming {
    fn to_json(&self) -> Json {
        Json::Obj(fields! {
            "id" => self.id.as_str(),
            "wall_ms" => Json::ms(self.wall_ms),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed dumps, as `(file name, contents)`.
    const BASELINES: [(&str, &str); 4] = [
        (
            "BENCH_chase.json",
            include_str!("../../../BENCH_chase.json"),
        ),
        (
            "BENCH_rewrite.json",
            include_str!("../../../BENCH_rewrite.json"),
        ),
        (
            "BENCH_serve.json",
            include_str!("../../../BENCH_serve.json"),
        ),
        (
            "BENCH_check.json",
            include_str!("../../../BENCH_check.json"),
        ),
    ];

    #[test]
    fn committed_dumps_round_trip_byte_for_byte() {
        for (name, src) in BASELINES {
            let tree = Json::parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(tree.get("schema"), Some(&Json::from(SCHEMA)), "{name}");
            assert_eq!(format!("{tree}\n"), src, "{name} does not re-render");
        }
    }

    #[test]
    fn parser_round_trips_escapes_and_numbers() {
        let src = r#"{"a": "x\"y\nz\u0001", "b": [1, -2.5, 1e3], "c": true, "d": null}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_str), Some("x\"y\nz\u{1}"));
        assert_eq!(
            v.get("b"),
            Some(&Json::Arr(vec![
                Json::Num("1".into()),
                Json::Num("-2.5".into()),
                Json::Num("1e3".into()),
            ]))
        );
        assert_eq!(v.get("c"), Some(&Json::Bool(true)));
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert_eq!(v.get("b").unwrap().to_string(), "[1, -2.5, 1e3]");
        assert_eq!(
            Json::from("x\"y\\z\nw\u{1}").to_string(),
            r#""x\"y\\z\nw\u0001""#
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("[1.2.3]").is_err());
    }
}

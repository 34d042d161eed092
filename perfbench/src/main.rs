//! End-to-end and per-layer benchmark for the query-rewritability
//! workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve|materialize|maintain --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload builds its inputs from `--seed`, measures for `--seconds`,
//! checks every output outside the timed region, and prints one JSON line
//! last: `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` every other op is
//! traced and the metrics are the per-layer ones, plus the tracing
//! overhead. Spans of a traced run are written to
//! `.bench_trace/<workload>-<seed>.jsonl`. See `README.md` beside this
//! crate for the design.

mod gen;
mod maintain;
mod materialize;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use trace::Tracer;

/// End-to-end metrics, reported by every workload with tracing off. The
/// two latency medians are per op kind; each workload's module says which
/// kind is primary and which secondary.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("primary_p50_ms", "ms"),
    ("secondary_p50_ms", "ms"),
];

/// Per-layer metrics, reported by every workload in a traced run. A layer
/// a workload does not call reads 0 there.
const PER_LAYER: [(&str, &str); 36] = [
    ("syntax.parse_us", "us"),
    ("hom.key_us", "us"),
    ("serve.hit_us", "us"),
    ("serve.miss_us", "us"),
    ("serve.insert_us", "us"),
    ("serve.retract_us", "us"),
    ("serve.hit_ratio", "ratio"),
    ("serve.invalidations_per_write", "count"),
    ("rewrite.saturate_us", "us"),
    ("rewrite.generated_per_miss", "count"),
    ("hom.plan_compile_us", "us"),
    ("hom.candidates_per_read", "count"),
    ("chase.sharded.partition_s", "s"),
    ("chase.sharded.shard_s", "s"),
    ("chase.sharded.merge_s", "s"),
    ("chase.sharded.shards", "count"),
    ("chase.sharded.components", "count"),
    ("chase.sharded_over_mono", "ratio"),
    ("chase.enum_s", "s"),
    ("chase.round_merge_s", "s"),
    ("chase.triggers", "count"),
    ("chase.candidates", "count"),
    ("chase.rounds", "count"),
    ("chase.fire_ratio", "ratio"),
    ("storage.facts", "count"),
    ("storage.bytes_total", "bytes"),
    ("chase.cold_s", "s"),
    ("chase.incremental.rechases", "count"),
    ("chase.incremental.seeded_inserts", "count"),
    ("chase.incremental.truncated_retracts", "count"),
    ("chase.incremental.cone_facts", "count"),
    ("chase.incremental.rederived_facts", "count"),
    ("chase.incremental.rederived_per_cone", "ratio"),
    ("chase.incremental.replayed_facts", "count"),
    ("trace.overhead_primary_pct", "%"),
    ("trace.overhead_secondary_pct", "%"),
];

/// Command-line arguments; every one is required.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(bad)?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a workload run produced. `metrics` holds every end-to-end metric;
/// a traced run also fills `layers`.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed, as messages.
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// Latency samples of one op kind, split by whether the op was traced.
#[derive(Default)]
pub struct Samples {
    pub untraced: Vec<f64>,
    pub traced: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, traced: bool, secs: f64) {
        if traced {
            self.traced.push(secs);
        } else {
            self.untraced.push(secs);
        }
    }

    pub fn all(&self) -> Vec<f64> {
        self.untraced.iter().chain(&self.traced).copied().collect()
    }
}

/// The `q`-quantile (0..=1) by nearest rank on a sorted copy; `NaN` when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `numerator / denominator`, 0 when nothing was counted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Times a workload's set-up, repeated through the whole run.
///
/// The set-up runs once before the measured loop, which needs its result,
/// and again between two ops whenever [`SETUP_EVERY_SECS`] have passed, its
/// result dropped at once. On a shared host that switches between a fast
/// and a slow state for seconds at a time, set-ups timed back to back all
/// land in one state; repeats spread over the run see the same mix of host
/// states as the measured ops do. `setup_s` is the median of all repeats.
pub struct SetupTimer {
    times: Vec<f64>,
    /// Wall time the repeats took inside the measured loop.
    paused: f64,
    last: Instant,
}

impl SetupTimer {
    /// Runs and times the first set-up, and returns its result.
    pub fn start<T>(setup: &mut impl FnMut() -> T) -> (T, SetupTimer) {
        let t0 = Instant::now();
        let value = setup();
        let timer = SetupTimer {
            times: vec![t0.elapsed().as_secs_f64()],
            paused: 0.0,
            last: Instant::now(),
        };
        (value, timer)
    }

    /// Between two ops: repeats the set-up if it is due.
    pub fn between_ops<T>(&mut self, setup: &mut impl FnMut() -> T) {
        if self.last.elapsed().as_secs_f64() >= SETUP_EVERY_SECS {
            self.repeat(setup);
        }
    }

    fn repeat<T>(&mut self, setup: &mut impl FnMut() -> T) {
        let t0 = Instant::now();
        let value = setup();
        self.times.push(t0.elapsed().as_secs_f64());
        drop(value);
        self.paused += t0.elapsed().as_secs_f64();
        self.last = Instant::now();
    }

    /// Wall time spent on repeats so far, to leave out of throughput.
    pub fn paused(&self) -> f64 {
        self.paused
    }

    /// Tops the repeats up to [`SETUP_MIN_REPS`] and returns the median
    /// set-up time in seconds.
    pub fn finish<T>(mut self, setup: &mut impl FnMut() -> T) -> f64 {
        while self.times.len() < SETUP_MIN_REPS {
            self.repeat(setup);
        }
        median(&self.times)
    }
}

const SETUP_EVERY_SECS: f64 = 0.5;
const SETUP_MIN_REPS: usize = 7;

/// Whether op `i` is traced: in a traced run, alternate blocks of `block`
/// ops so traced and untraced ops see the same conditions; the difference
/// between them is the tracing overhead.
pub fn traced_op(args: &Args, i: usize, block: usize) -> bool {
    args.trace && (i / block) % 2 == 1
}

/// Fills the tracing-overhead metrics of a traced run: how much slower
/// the traced ops of each kind were than the untraced ones, by median.
pub fn record_overhead(out: &mut Outcome, primary: &Samples, secondary: &Samples) {
    let pct = |s: &Samples| {
        let (t, u) = (median(&s.traced), median(&s.untraced));
        if t.is_finite() && u.is_finite() && u > 0.0 {
            100.0 * (t - u) / u
        } else {
            0.0
        }
    };
    out.layers
        .insert("trace.overhead_primary_pct", pct(primary));
    out.layers
        .insert("trace.overhead_secondary_pct", pct(secondary));
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload serve|materialize|maintain --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new();
    let outcome = match args.workload.as_str() {
        "serve" => serve::run(&args, &mut tracer),
        "materialize" => materialize::run(&args, &mut tracer),
        "maintain" => maintain::run(&args, &mut tracer),
        other => {
            eprintln!("perfbench: unknown workload {other} (serve, materialize, maintain)");
            return ExitCode::from(2);
        }
    };

    if args.trace {
        let path =
            PathBuf::from(".bench_trace").join(format!("{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
        eprintln!(
            "spans ({} kept, written to {}):",
            tracer.len(),
            path.display()
        );
        eprintln!(
            "  {:<36} {:>8} {:>12} {:>12}",
            "name", "count", "total_s", "self_s"
        );
        for (name, (n, total, own)) in tracer.summary() {
            eprintln!("  {name:<36} {n:>8} {total:>12.6} {own:>12.6}");
        }
    }
    let mut errors = outcome.errors;
    if outcome.attempted == 0 {
        errors.push("no operation was attempted".into());
    }
    // Every end-to-end metric must be a measured number; a layer that saw
    // no traced call reads 0.
    let mut metrics = Vec::new();
    let (table, source): (&[(&str, &str)], _) = if args.trace {
        (&PER_LAYER, &outcome.layers)
    } else {
        (&END_TO_END, &outcome.metrics)
    };
    for (name, unit) in table {
        let value = match source.get(name) {
            Some(v) if v.is_finite() => *v,
            _ if args.trace => 0.0,
            other => {
                errors.push(format!("{name} was not measured ({other:?})"));
                continue;
            }
        };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for e in &errors {
        eprintln!("perfbench: check failed: {e}");
    }

    let correct = errors.is_empty() && outcome.failed == 0;
    if !correct {
        metrics.clear();
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics this binary prints.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.0);
        assert_eq!(quantile(&v, 0.25), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }
}

//! Prints every experiment table of DESIGN.md (E1-E12), streaming each as
//! it completes.
//!
//! Usage: `cargo run -p qr-bench --release --bin harness [--json]
//! [--threads N] [--serve] [--check] [--incr] [--shard] [--list]
//! [e01 e07 serve-mixed ...]`
//!
//! With no experiment arguments all experiments run in order. With
//! `--json`, per-experiment wall times plus the chase engine's per-round
//! counters (the E11 workloads re-run under [`qr_chase::ChaseStats`]) are
//! written to `BENCH_chase.json`, and the rewrite engine's per-window
//! counters and wall splits (saturation fixtures + T_d marked-query runs
//! under [`qr_rewrite::RewriteStats`], plus a deterministic `hom`
//! microbench workload; every run also carries the homomorphism kernel's
//! cache counters) to `BENCH_rewrite.json`, both in the current
//! directory. Every dump carries the one schema tag `qr-bench/v6`
//! ([`report::SCHEMA`]). `--threads N` sizes the worker pool the parallel
//! chase engines run on (rewrite saturation and serving run on the caller
//! thread): the count is plumbed into the [`Executor`] explicitly
//! (the `QR_THREADS` env var is only read as a default, never written).
//! Thread count never changes any counter or table value — only wall
//! times. `--serve` replays the pinned serving workloads through the
//! `qr-serve` engine and prints a per-workload cache summary; with
//! `--json` the runs are also written to `BENCH_serve.json`. Individual
//! serve workloads can be selected by listing their ids (`serve-mixed`,
//! `serve-churn`) — naming one implies `--serve`. `--check` certifies
//! every pinned rewrite fixture and the E11 chase workload through
//! `qr-check` (engine → codec → linear replay, zero homomorphism
//! searches) and prints a per-workload summary; with `--json` the runs
//! are written to `BENCH_check.json`. `--incr` (or the `chase-incr` id)
//! measures the pinned incremental-maintenance workloads — write batches
//! absorbed by `qr_chase::IncrementalChase` on the E11-scale TC
//! instances, against a full-re-chase baseline — and, with `--json`,
//! records them in `BENCH_chase.json`'s `incr_runs` array. `--shard` (or
//! a bulk workload id: `bulk-tc`, `bulk-shallow`) chases
//! the bulk-instance workloads through `qr_chase::chase_sharded` on
//! pinned 1-thread (monolithic) and 4-thread (sharded) pools and, with
//! `--json`, records the speedup pairs in `BENCH_chase.json`'s
//! `shard_runs` array. `BENCH_chase.json` is written only when
//! experiments run, so `--json` with `--incr` or `--shard` needs an
//! experiment id too (e.g. `e11`); without one the harness exits 2
//! instead of silently recording nothing. `--list` prints the
//! available experiment and workload ids and exits. Unknown options and
//! unknown ids are rejected (a misspelled `--thread 4` used to silently
//! run everything single-threaded as two never-matching experiment
//! filters).

use qr_bench::experiments;
use qr_bench::report::{self, ExperimentTiming, Json};
use qr_exec::Executor;

fn usage() -> ! {
    eprintln!(
        "usage: harness [--json] [--threads N] [--serve] [--check] [--incr] [--shard] [--list] [ID ...]\n\
         \n\
         options:\n\
         \x20 --json       also write BENCH_chase.json, BENCH_rewrite.json\n\
         \x20              (BENCH_serve.json / BENCH_check.json when those modes run)\n\
         \x20              (--incr/--shard runs go to BENCH_chase.json: name an experiment, e.g. e11)\n\
         \x20 --threads N  size the worker pool (default: QR_THREADS or all cores)\n\
         \x20 --serve      replay the pinned serving workloads (qr-serve)\n\
         \x20 --check      certify the pinned workloads' certificates (qr-check)\n\
         \x20 --incr       measure the incremental chase-maintenance workloads\n\
         \x20 --shard      chase the bulk workloads monolithic-vs-sharded (pinned 1/4-thread pools)\n\
         \x20 --list       print available experiment and workload ids\n\
         \n\
         IDs select experiments (e01 ...), serve workloads (serve-mixed,\n\
         serve-churn; naming one implies --serve) and/or bulk workloads\n\
         (bulk-tc, bulk-shallow; naming one implies --shard);\n\
         the chase-incr id implies --incr; with no IDs, all experiments\n\
         run in order"
    );
    std::process::exit(2);
}

/// Writes one dump (the shared schema tag plus `sections`) to `path`.
fn write_dump(path: &str, sections: Vec<(&str, Json)>) {
    let counts: Vec<String> = sections
        .iter()
        .map(|(name, v)| match v {
            Json::Arr(items) => format!("{} {name}", items.len()),
            _ => name.to_string(),
        })
        .collect();
    if let Err(e) = std::fs::write(path, format!("{}\n", report::dump(sections))) {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path} ({})", counts.join(", "));
}

fn main() {
    let known_ids: Vec<&str> = experiments::all().iter().map(|(id, _)| *id).collect();
    let known_serve = qr_bench::serve_workloads::workload_labels();
    let known_bulk = qr_bench::bulk_workloads::workload_labels();
    let mut filters: Vec<String> = Vec::new();
    let mut serve_filters: Vec<String> = Vec::new();
    let mut bulk_filters: Vec<String> = Vec::new();
    let mut json = false;
    let mut serve = false;
    let mut check = false;
    let mut incr = false;
    let mut shard = false;
    let mut threads: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let lower = arg.to_ascii_lowercase();
        match lower.as_str() {
            "--json" => json = true,
            "--serve" => serve = true,
            "--check" => check = true,
            "--incr" => incr = true,
            "--shard" => shard = true,
            "--list" => {
                for id in &known_ids {
                    println!("{id}");
                }
                for id in &known_serve {
                    println!("{id}");
                }
                println!("chase-incr");
                for id in &known_bulk {
                    println!("{id}");
                }
                return;
            }
            "--threads" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("harness: --threads requires a positive integer");
                        std::process::exit(2);
                    });
                threads = Some(n);
            }
            "--help" | "-h" => usage(),
            opt if opt.starts_with('-') => {
                eprintln!("harness: unknown option '{arg}'");
                usage();
            }
            id => {
                if known_ids.contains(&id) {
                    filters.push(lower);
                } else if known_serve.contains(&id) {
                    serve = true;
                    serve_filters.push(lower);
                } else if id == "chase-incr" {
                    incr = true;
                } else if known_bulk.contains(&id) {
                    shard = true;
                    bulk_filters.push(lower);
                } else {
                    eprintln!("harness: unknown id '{arg}' (try --list)");
                    std::process::exit(2);
                }
            }
        }
    }
    // Serve-/check-/incr-/shard-only invocations (their flags or ids
    // without experiment ids) skip the experiment tables and their JSON
    // dumps entirely.
    let run_experiments = !filters.is_empty() || (!serve && !check && !incr && !shard);
    if json && (incr || shard) && !run_experiments {
        eprintln!(
            "harness: --json records --incr/--shard runs in BENCH_chase.json, which is \
             written only when experiments run; name one too (e.g. e11)"
        );
        std::process::exit(2);
    }

    // The explicit flag wins; the env var is a read-only default.
    let exec = match threads {
        Some(n) => Executor::with_threads(n),
        None => Executor::from_env(),
    };
    eprintln!("worker pool: {} thread(s)", exec.threads());

    let mut timings: Vec<ExperimentTiming> = Vec::new();
    if run_experiments {
        for (id, build) in experiments::all() {
            if !filters.is_empty() && !filters.iter().any(|f| f == id) {
                continue;
            }
            let t0 = std::time::Instant::now();
            let table = build();
            let wall = t0.elapsed();
            println!("{table}   [{id} total {wall:?}]\n");
            timings.push(ExperimentTiming {
                id: id.to_owned(),
                wall_ms: wall.as_secs_f64() * 1e3,
            });
        }
    }

    let incr_runs = if incr {
        let runs = qr_bench::incr_workloads::stats_runs(&exec);
        for r in &runs {
            let c = &r.counters;
            println!(
                "{}: {} batches in {:.1} ms ({:.3} ms/batch amortized, full re-chase {:.3} ms) — \
                 {} seeded, {} cone drops, {} re-chased, {} rederived facts, cone {}, \
                 candidates {} incr, {} retract vs {} cold",
                r.workload,
                r.batches,
                r.wall_ms,
                r.batch_ms,
                r.rechase_ms,
                c.seeded_inserts,
                c.cone_drops,
                c.rechases,
                c.rederived_facts,
                c.cone_facts,
                r.candidates_incr,
                r.candidates_retract,
                r.candidates_cold,
            );
        }
        runs
    } else {
        Vec::new()
    };

    let shard_runs = if shard {
        let runs = qr_bench::bulk_workloads::stats_runs(&bulk_filters);
        for r in &runs {
            println!(
                "{}: {} facts in {:.1} ms [{}] — {} components, {} shards, \
                 partition {:.1} ms / shard {:.1} ms / merge {:.1} ms",
                r.workload,
                r.facts_out,
                r.wall_ms,
                r.mode,
                r.components,
                r.shards,
                r.partition_ms,
                r.shard_ms,
                r.merge_ms,
            );
        }
        runs
    } else {
        Vec::new()
    };

    if json && run_experiments {
        let runs = experiments::e11_chase_engine::stats_runs(&exec);
        write_dump(
            "BENCH_chase.json",
            vec![
                ("experiments", report::list(&timings)),
                ("chase_runs", report::list(&runs)),
                ("incr_runs", report::list(&incr_runs)),
                ("shard_runs", report::list(&shard_runs)),
            ],
        );
        let rruns = qr_bench::rewrite_workloads::stats_runs();
        write_dump(
            "BENCH_rewrite.json",
            vec![("rewrite_runs", report::list(&rruns))],
        );
    }

    if serve {
        let sruns = qr_bench::serve_workloads::stats_runs(&serve_filters);
        for r in &sruns {
            let c = &r.counters;
            println!(
                "{}: {} requests in {:.1} ms — {} hits / {} misses / {} evictions, \
                 {} answers, p50 {:.3} ms p95 {:.3} ms p99 {:.3} ms",
                r.workload,
                c.requests,
                r.wall_ms,
                c.hits,
                c.misses,
                c.evictions,
                c.answers_emitted,
                r.p50_ms,
                r.p95_ms,
                r.p99_ms,
            );
            for s in &r.segments {
                println!(
                    "  segment {}: {} requests, {} hits, {} misses",
                    s.name, s.requests, s.hits, s.misses
                );
            }
        }
        if json {
            write_dump(
                "BENCH_serve.json",
                vec![("serve_runs", report::list(&sruns))],
            );
        }
    }

    if check {
        let cruns = qr_bench::check_workloads::stats_runs();
        let mut failed = false;
        for r in &cruns {
            println!(
                "{} [{}]: {} certificates, {} bytes, {} failures in {:.1} ms",
                r.workload,
                r.kind,
                r.certs,
                r.cert_bytes,
                r.failures.len(),
                r.wall_ms,
            );
            for f in &r.failures {
                eprintln!("  FAILED: {f}");
                failed = true;
            }
        }
        if json {
            write_dump(
                "BENCH_check.json",
                vec![("check_runs", report::list(&cruns))],
            );
        }
        if failed {
            std::process::exit(1);
        }
    }
}

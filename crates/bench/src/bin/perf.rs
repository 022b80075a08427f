//! Simulation-throughput benchmarking (wall-clock, min-of-N).
//!
//! Runs each selected benchmark under each selected design `--repeat N`
//! times with *no* tracer or profiling sink attached — the configuration a
//! large sweep actually runs — and records the **minimum** wall time per
//! run. Min-of-N is the standard defense against timer noise and scheduler
//! jitter: the shortest observed time is the closest estimate of the true
//! cost (BENCH_pr3.json carried single-shot `wall_s` values as low as
//! 0.07 s, which are noise-dominated).
//!
//! Emits `BENCH_pr5.json` (`dac-bench-pr5/v1`, schema-checked by
//! `--check-bench`, used by CI) and, when a baseline record is available,
//! prints the geomean cycles/sec speedup against it. With `--full-chip`
//! the machine is the full 15-SM GTX 480 and the record is
//! `BENCH_pr6.json` (`dac-bench-pr6/v1`): same row shape, machine size
//! pinned by the schema.

use dac_bench::cli::{require_runnable, CommonArgs, COMMON_USAGE};
use simt_harness::{json, DesignPoint, Job};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const USAGE: &str = "\
usage: perf [options]
       perf --check-bench FILE

Times every selected benchmark (default: BFS,LIB,MQ,SPV) under every
selected design (default: baseline,cae,mta,dac) with no tracer attached,
taking the minimum wall time over --repeat N runs, and writes a throughput
record to --bench-json (default BENCH_pr5.json, or BENCH_pr6.json with
--full-chip). Timed runs always simulate; the result cache is not
consulted. If --baseline FILE exists it also prints the geomean
cycles/sec speedup against it.

With --pr8 the run is the telemetry-overhead check: full-chip machine,
record written to BENCH_pr8.json (dac-bench-pr8/v1), compared against the
PR 7 era BENCH_pr6.json baseline, and the record carries the measured
throughput_ratio — the schema requires it to stay >= 0.97 (within 3%).

perf options:
  --repeat N         timed iterations per run; min wall time kept (default 3)
  --bench-json FILE  where to write the throughput record
  --baseline FILE    prior record to compare against (default BENCH_pr3.json,
                     or BENCH_pr6.json with --full-chip / --pr8)
  --pr8              telemetry-overhead mode: implies --full-chip, writes
                     BENCH_pr8.json with a pinned baseline ratio
  --check-bench FILE validate FILE against the bench schema matching its
                     \"schema\" field (pr5, pr6, or pr8) and exit
                     (0 = valid)";

/// Same suite as the profile binary, so BENCH_pr5.json rows are directly
/// comparable to BENCH_pr3.json rows.
const DEFAULT_BENCHES: &str = "BFS,LIB,MQ,SPV";

fn usage_exit(error: &str) -> ! {
    if error == "help" {
        println!("{USAGE}\n\n{COMMON_USAGE}");
        std::process::exit(0);
    }
    eprintln!("perf: {error}\n\n{USAGE}\n\n{COMMON_USAGE}");
    std::process::exit(2);
}

fn main() {
    simt_obs::log::init_from_env();
    let raw: Vec<String> = std::env::args().skip(1).collect();

    // Strip perf-only flags before handing the rest to CommonArgs.
    let mut repeat: usize = 3;
    let mut bench_json: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut check_bench: Option<PathBuf> = None;
    let mut pr8 = false;
    let mut rest: Vec<String> = Vec::new();
    let mut it = raw.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--repeat" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => repeat = n,
                _ => usage_exit("--repeat requires a positive number"),
            },
            "--pr8" => pr8 = true,
            "--bench-json" => match it.next() {
                Some(v) => bench_json = Some(PathBuf::from(v)),
                None => usage_exit("--bench-json requires a path"),
            },
            "--baseline" => match it.next() {
                Some(v) => baseline = Some(PathBuf::from(v)),
                None => usage_exit("--baseline requires a path"),
            },
            "--check-bench" => match it.next() {
                Some(v) => check_bench = Some(PathBuf::from(v)),
                None => usage_exit("--check-bench requires a path"),
            },
            _ => rest.push(arg),
        }
    }
    // --pr8 measures the telemetry-overhead config: the same full-chip
    // machine BENCH_pr6.json was recorded on.
    if pr8 && !rest.iter().any(|a| a == "--full-chip") {
        rest.push("--full-chip".into());
    }
    let mut args = CommonArgs::parse(&rest).unwrap_or_else(|e| usage_exit(&e));
    if let Some(stray) = args.positional.first() {
        usage_exit(&format!("unexpected argument {stray:?}"));
    }

    if let Some(path) = check_bench {
        std::process::exit(check_bench_file(&path));
    }

    // --full-chip times the full 15-SM machine and records a pr6 file;
    // a full-chip record only compares sensibly against another one.
    // --pr8 is the same machine but records the telemetry-overhead ratio
    // against the PR 7 era baseline.
    let schema = if pr8 {
        "dac-bench-pr8/v1"
    } else if args.full_chip {
        "dac-bench-pr6/v1"
    } else {
        "dac-bench-pr5/v1"
    };
    let default_json = if pr8 {
        "BENCH_pr8.json"
    } else if args.full_chip {
        "BENCH_pr6.json"
    } else {
        "BENCH_pr5.json"
    };
    let bench_json = bench_json.unwrap_or_else(|| PathBuf::from(default_json));
    let baseline = baseline.unwrap_or_else(|| {
        PathBuf::from(if args.full_chip {
            "BENCH_pr6.json"
        } else {
            "BENCH_pr3.json"
        })
    });

    if args.bench_filter.is_none() {
        args.bench_filter = Some(DEFAULT_BENCHES.split(',').map(|s| s.to_string()).collect());
    }
    let benches = args.benchmarks().unwrap_or_else(|e| usage_exit(&e));
    let points: Vec<DesignPoint> = args
        .designs
        .clone()
        .unwrap_or_else(|| DesignPoint::HW_ALL.to_vec());

    eprintln!(
        "perf: {} benchmarks x {} designs, repeat {} (scale {})",
        benches.len(),
        points.len(),
        repeat,
        args.scale
    );

    // (bench, design, cycles, warp_instructions, min wall_s) per run.
    let mut timings: Vec<(String, String, u64, u64, f64)> = Vec::new();
    for w in &benches {
        for &point in &points {
            let workload = Arc::new(
                gpu_workloads::benchmark(w.abbr, args.scale)
                    .unwrap_or_else(|| usage_exit(&format!("unknown benchmark {:?}", w.abbr))),
            );
            let mut job = Job::new(workload, args.scale, point);
            job.overrides = args.overrides.clone();
            require_runnable("perf", &job);
            let mut min_wall_s = f64::INFINITY;
            let mut pinned: Option<(u64, u64, u64)> = None;
            for _ in 0..repeat {
                let result = job.execute();
                let sig = (
                    result.report.cycles,
                    result.report.stats.warp_instructions,
                    result.output_digest,
                );
                // Repeats double as a determinism smoke: a hot-path change
                // that perturbs results shows up here before it reaches CI.
                match pinned {
                    None => pinned = Some(sig),
                    Some(p) => assert_eq!(p, sig, "{} nondeterministic", job.label()),
                }
                min_wall_s = min_wall_s.min(result.wall_ms / 1e3);
            }
            let (cycles, instrs, _) = pinned.unwrap();
            if !args.quiet {
                eprintln!(
                    "  {}/{}: {} cycles in {:.4}s ({:.0} cycles/sec)",
                    w.abbr,
                    point.name(),
                    cycles,
                    min_wall_s,
                    if min_wall_s > 0.0 {
                        cycles as f64 / min_wall_s
                    } else {
                        0.0
                    }
                );
            }
            timings.push((
                w.abbr.to_string(),
                point.name().to_string(),
                cycles,
                instrs,
                min_wall_s,
            ));
        }
    }

    // --pr8 pins the telemetry-overhead ratio into the record itself: the
    // schema rejects a record more than 3% below the PR 7 era baseline.
    let pr8_baseline = if pr8 {
        match baseline_ratio(&baseline, &timings) {
            Some(info) => Some(info),
            None => {
                eprintln!(
                    "perf: --pr8 needs a baseline with matching rows ({})",
                    baseline.display()
                );
                std::process::exit(1);
            }
        }
    } else {
        None
    };
    let text = bench_record_json(schema, &args, repeat, &timings, pr8_baseline.as_ref());
    if let Err(e) = json::parse(&text) {
        panic!(
            "{}: generated record is invalid JSON: {e}",
            bench_json.display()
        );
    }
    if let Err(e) = std::fs::write(&bench_json, &text) {
        eprintln!("perf: cannot write {}: {e}", bench_json.display());
        std::process::exit(1);
    }

    let geo = geomean_cycles_per_sec(&timings);
    println!(
        "perf: {} runs -> {} (geomean {:.0} cycles/sec)",
        timings.len(),
        bench_json.display(),
        geo
    );
    compare_baseline(&baseline, &timings);
}

/// Geomean of per-run cycles/sec over the timing rows.
fn geomean_cycles_per_sec(timings: &[(String, String, u64, u64, f64)]) -> f64 {
    dac_bench::geomean(
        timings
            .iter()
            .filter(|t| t.4 > 0.0)
            .map(|t| t.2 as f64 / t.4),
    )
}

/// The measured relationship to a prior throughput record: matched rows,
/// the geomean new/old cycles-per-sec ratio, and the baseline's own
/// geomean (for the record).
struct BaselineRatio {
    file: String,
    matched: usize,
    ratio: f64,
    baseline_geomean: f64,
}

/// Compare against a prior throughput record, matching rows by
/// `(bench, design)`. `None` when the file is unreadable or no rows match.
fn baseline_ratio(
    path: &Path,
    timings: &[(String, String, u64, u64, f64)],
) -> Option<BaselineRatio> {
    let text = std::fs::read_to_string(path).ok()?;
    let value = json::parse(&text).ok()?;
    let runs = value.get("runs").and_then(|v| v.as_arr())?;
    let mut ratios = Vec::new();
    for (bench, design, cycles, _, wall_s) in timings {
        if *wall_s <= 0.0 {
            continue;
        }
        let new_rate = *cycles as f64 / wall_s;
        let old_rate = runs.iter().find_map(|r| {
            let b = r.get("bench").and_then(json::Value::as_str)?;
            let d = r.get("design").and_then(json::Value::as_str)?;
            (b == bench && d == design)
                .then(|| r.get("cycles_per_sec").and_then(json::Value::as_f64))
                .flatten()
        });
        if let Some(old_rate) = old_rate {
            if old_rate > 0.0 {
                ratios.push(new_rate / old_rate);
            }
        }
    }
    if ratios.is_empty() {
        return None;
    }
    Some(BaselineRatio {
        file: path.display().to_string(),
        matched: ratios.len(),
        ratio: dac_bench::geomean(ratios),
        baseline_geomean: value
            .get("totals")
            .and_then(|t| t.get("geomean_cycles_per_sec"))
            .and_then(json::Value::as_f64)
            .unwrap_or(0.0),
    })
}

/// Print the geomean cycles/sec speedup against a prior throughput record
/// (BENCH_pr3.json or an earlier BENCH_pr5.json), matching rows by
/// `(bench, design)`. Silent when the baseline file does not exist.
fn compare_baseline(path: &Path, timings: &[(String, String, u64, u64, f64)]) {
    if !path.exists() {
        return;
    }
    let Some(r) = baseline_ratio(path, timings) else {
        eprintln!(
            "perf: no matching (bench, design) rows in {}; skipping compare",
            path.display()
        );
        return;
    };
    println!(
        "perf: geomean cycles/sec speedup vs {}: {:.2}x over {} matched runs",
        path.display(),
        r.ratio,
        r.matched
    );
}

/// Render a throughput record (`dac-bench-pr5/v1`, `dac-bench-pr6/v1`, or
/// `dac-bench-pr8/v1`). Same row shape as `dac-bench-pr3/v1` plus a
/// top-level `repeat`, so rows stay directly comparable across schemas;
/// pr8 records additionally pin the measured `throughput_ratio` against
/// their baseline.
fn bench_record_json(
    schema: &str,
    args: &CommonArgs,
    repeat: usize,
    timings: &[(String, String, u64, u64, f64)],
    baseline: Option<&BaselineRatio>,
) -> String {
    use std::fmt::Write as _;
    let mut out = format!("{{\"schema\": \"{schema}\"");
    let _ = write!(out, ", \"scale\": {}", args.scale);
    let _ = write!(out, ", \"repeat\": {repeat}");
    out.push_str(", \"overrides\": {");
    let mut first = true;
    for (k, v) in args
        .overrides
        .relevant(DesignPoint::Hw(gpu_workloads::Design::Dac))
    {
        if !first {
            out.push_str(", ");
        }
        first = false;
        let _ = write!(out, "\"{k}\": {v}");
    }
    out.push_str("}, \"runs\": [");
    let mut total_wall = 0.0;
    let mut total_instr = 0u64;
    for (i, (bench, design, cycles, instrs, wall_s)) in timings.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        total_wall += wall_s;
        total_instr += instrs;
        let rate = |n: u64| {
            if *wall_s > 0.0 {
                n as f64 / wall_s
            } else {
                0.0
            }
        };
        let _ = write!(
            out,
            "{{\"bench\": \"{bench}\", \"design\": \"{design}\", \"cycles\": {cycles}, \
             \"warp_instructions\": {instrs}, \"wall_s\": {wall_s:.4}, \
             \"warp_instr_per_sec\": {:.1}, \"cycles_per_sec\": {:.1}}}",
            rate(*instrs),
            rate(*cycles)
        );
    }
    let _ = write!(
        out,
        "], \"totals\": {{\"runs\": {}, \"wall_s\": {:.4}, \"warp_instr_per_sec\": {:.1}, \
         \"geomean_cycles_per_sec\": {:.1}}}",
        timings.len(),
        total_wall,
        if total_wall > 0.0 {
            total_instr as f64 / total_wall
        } else {
            0.0
        },
        geomean_cycles_per_sec(timings)
    );
    if let Some(b) = baseline {
        let _ = write!(
            out,
            ", \"baseline\": {{\"file\": \"{}\", \"matched_runs\": {}, \
             \"geomean_cycles_per_sec\": {:.1}}}, \"throughput_ratio\": {:.4}",
            b.file, b.matched, b.baseline_geomean, b.ratio
        );
    }
    out.push_str("}\n");
    out
}

/// `--check-bench FILE`: validate a throughput record against the
/// checked-in schema matching its `"schema"` field
/// (`schemas/bench_pr5.schema.json` or `schemas/bench_pr6.schema.json`).
/// Returns the process exit code.
fn check_bench_file(path: &Path) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perf: cannot read {}: {e}", path.display());
            return 2;
        }
    };
    let value = match json::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perf: {} is invalid JSON: {e}", path.display());
            return 1;
        }
    };
    let declared = value.get("schema").and_then(json::Value::as_str);
    let schema_path = match declared {
        Some("dac-bench-pr5/v1") => Path::new("schemas/bench_pr5.schema.json"),
        Some("dac-bench-pr6/v1") => Path::new("schemas/bench_pr6.schema.json"),
        Some("dac-bench-pr8/v1") => Path::new("schemas/bench_pr8.schema.json"),
        other => {
            eprintln!("perf: {} declares unknown schema {other:?}", path.display());
            return 1;
        }
    };
    let schema_text = match std::fs::read_to_string(schema_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perf: cannot read {}: {e}", schema_path.display());
            return 2;
        }
    };
    let schema = match json::parse(&schema_text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perf: schema is invalid JSON: {e}");
            return 2;
        }
    };
    let mut errors = Vec::new();
    json::validate(&value, &schema, "$", &mut errors);
    if errors.is_empty() {
        println!(
            "perf: {} conforms to {}",
            path.display(),
            declared.unwrap_or("?")
        );
        0
    } else {
        for e in &errors {
            eprintln!("perf: {e}");
        }
        eprintln!(
            "perf: {} FAILED validation ({} errors)",
            path.display(),
            errors.len()
        );
        1
    }
}

//! Cross-design bottleneck profiling.
//!
//! Runs each selected benchmark under each selected design with a
//! [`simt_profile::ProfileSink`] attached, then emits:
//!
//! * `report.md` + `profile.json` — the deterministic bottleneck report
//!   (top-down CPI stacks, hit rates, latency/occupancy percentiles, and
//!   headline comparisons). Byte-identical across runs and machines.
//! * `BENCH_pr3.json` — wall-clock simulation-throughput record
//!   (warp-instructions/sec, cycles/sec per run). Machine-dependent by
//!   nature, so it is kept out of the report files.
//!
//! `--debug DESIGN` replaces the old `debug_dac` / `debug_mta` /
//! `trace_loop` binaries: a per-benchmark diagnostic dump comparing one
//! design against the baseline. `--check-bench FILE` validates a
//! `BENCH_pr3.json` against the checked-in schema (used by CI).

use dac_bench::cli::{require_runnable, CommonArgs, COMMON_USAGE};
use simt_harness::{json, DesignPoint, Job};
use simt_profile::{report, DesignProfile, ProfileSink, WorkloadProfile};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const USAGE: &str = "\
usage: profile [options]
       profile --debug DESIGN [options]
       profile --check-bench FILE

Runs every selected benchmark (default: BFS,LIB,MQ,SPV) under every
selected design (default: baseline,cae,mta,dac) with the profiling sink
attached, and writes a deterministic bottleneck report (report.md +
profile.json) to --out (default results/profile) plus a wall-clock
throughput record to --bench-json (default BENCH_pr3.json). Profiled runs
always simulate; the result cache is not consulted.

profile options:
  --debug DESIGN     print a per-benchmark diagnostic dump comparing
                     DESIGN against baseline, instead of writing reports
  --bench-json FILE  where to write the throughput record
  --check-bench FILE validate FILE against schemas/bench_pr3.schema.json
                     and exit (0 = valid)";

/// The default profiling suite: two memory-intensive benchmarks where DAC's
/// dequeue story shows (BFS irregular, LIB streaming), one compute-intensive
/// control (MQ), and one sparse workload exercising the coalescer (SPV).
const DEFAULT_BENCHES: &str = "BFS,LIB,MQ,SPV";

fn usage_exit(error: &str) -> ! {
    if error == "help" {
        println!("{USAGE}\n\n{COMMON_USAGE}");
        std::process::exit(0);
    }
    eprintln!("profile: {error}\n\n{USAGE}\n\n{COMMON_USAGE}");
    std::process::exit(2);
}

fn main() {
    simt_obs::log::init_from_env();
    let raw: Vec<String> = std::env::args().skip(1).collect();

    // Strip profile-only flags before handing the rest to CommonArgs.
    let mut debug: Option<String> = None;
    let mut bench_json = PathBuf::from("BENCH_pr3.json");
    let mut check_bench: Option<PathBuf> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut it = raw.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--debug" => match it.next() {
                Some(v) => debug = Some(v),
                None => usage_exit("--debug requires a design name"),
            },
            "--bench-json" => match it.next() {
                Some(v) => bench_json = PathBuf::from(v),
                None => usage_exit("--bench-json requires a path"),
            },
            "--check-bench" => match it.next() {
                Some(v) => check_bench = Some(PathBuf::from(v)),
                None => usage_exit("--check-bench requires a path"),
            },
            _ => rest.push(arg),
        }
    }
    let mut args = CommonArgs::parse(&rest).unwrap_or_else(|e| usage_exit(&e));
    if let Some(stray) = args.positional.first() {
        usage_exit(&format!("unexpected argument {stray:?}"));
    }

    if let Some(path) = check_bench {
        std::process::exit(check_bench_file(&path));
    }

    if args.bench_filter.is_none() {
        args.bench_filter = Some(DEFAULT_BENCHES.split(',').map(|s| s.to_string()).collect());
    }
    let benches = args.benchmarks().unwrap_or_else(|e| usage_exit(&e));
    let points: Vec<DesignPoint> = args
        .designs
        .clone()
        .unwrap_or_else(|| DesignPoint::HW_ALL.to_vec());

    if let Some(design) = debug {
        let point = DesignPoint::parse(&design)
            .unwrap_or_else(|| usage_exit(&format!("--debug: unknown design {design:?}")));
        run_debug(&args, &benches, point);
        return;
    }

    run_profile(&args, benches, &points, &bench_json);
}

/// One profiled execution: the job runs with a fresh [`ProfileSink`]
/// attached (never cached — the sink's aggregates come from the live event
/// stream) and reports its wall time.
fn profiled_run(args: &CommonArgs, abbr: &str, point: DesignPoint) -> (DesignProfile, f64) {
    let workload = gpu_workloads::benchmark(abbr, args.scale)
        .unwrap_or_else(|| usage_exit(&format!("unknown benchmark {abbr:?}")));
    let mut job = Job::new(Arc::new(workload), args.scale, point);
    job.overrides = args.overrides.clone();
    require_runnable("profile", &job);
    let cfg = job.overrides.apply_gpu(gpu_workloads::gpu_for(match point {
        DesignPoint::Hw(d) => d,
        DesignPoint::PerfectMem => gpu_workloads::Design::Baseline,
    }));
    let cutoff = cfg.mem.l1_hit_latency.max(cfg.mem.prefetch_buffer_latency);
    let mut sink = ProfileSink::new(cutoff);
    let result = job.execute_traced(&mut sink);
    let wall_s = result.wall_ms / 1e3;
    (
        DesignProfile::new(point.name(), &result.report, sink),
        wall_s,
    )
}

fn run_profile(
    args: &CommonArgs,
    benches: Vec<gpu_workloads::Workload>,
    points: &[DesignPoint],
    bench_json: &Path,
) {
    let out_dir = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("results/profile"));
    eprintln!(
        "profile: {} benchmarks x {} designs (scale {})",
        benches.len(),
        points.len(),
        args.scale
    );

    let mut workloads: Vec<WorkloadProfile> = Vec::new();
    // (bench, design, cycles, warp_instructions, wall_s) per run.
    let mut timings: Vec<(String, String, u64, u64, f64)> = Vec::new();
    for w in &benches {
        let mut designs = Vec::new();
        for &point in points {
            if !args.quiet {
                eprintln!("  {}/{} ...", w.abbr, point.name());
            }
            let (profile, wall_s) = profiled_run(args, w.abbr, point);
            timings.push((
                w.abbr.to_string(),
                point.name().to_string(),
                profile.cycles,
                profile.stats.warp_instructions,
                wall_s,
            ));
            designs.push(profile);
        }
        workloads.push(WorkloadProfile {
            bench: w.abbr.to_string(),
            scale: args.scale,
            designs,
        });
    }

    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("profile: cannot create {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    let md_path = out_dir.join("report.md");
    let json_path = out_dir.join("profile.json");
    let md = report::markdown(&workloads);
    let js = report::json(&workloads);
    // The JSON report must round-trip through the project parser.
    if let Err(e) = json::parse(&js) {
        panic!("profile.json is invalid JSON: {e}");
    }
    for (path, text) in [(&md_path, &md), (&json_path, &js)] {
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("profile: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }

    // Print the headline findings to stdout as well.
    for wp in &workloads {
        for h in wp.headlines() {
            println!("{}: {h}", wp.bench);
        }
    }

    let bench_text = bench_pr3_json(args, &timings);
    if let Err(e) = json::parse(&bench_text) {
        panic!("BENCH_pr3.json is invalid JSON: {e}");
    }
    if let Err(e) = std::fs::write(bench_json, &bench_text) {
        eprintln!("profile: cannot write {}: {e}", bench_json.display());
        std::process::exit(1);
    }
    println!(
        "profile: report -> {} / {}, throughput -> {}",
        md_path.display(),
        json_path.display(),
        bench_json.display()
    );
}

/// Render the `BENCH_pr3.json` throughput record: wall-clock simulation
/// speed per run. Deliberately separate from the report — these numbers
/// depend on the machine.
fn bench_pr3_json(args: &CommonArgs, timings: &[(String, String, u64, u64, f64)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\"schema\": \"dac-bench-pr3/v1\"");
    let _ = write!(out, ", \"scale\": {}", args.scale);
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
    let _ = writeln!(
        out,
        "], \"totals\": {{\"runs\": {}, \"wall_s\": {:.4}, \"warp_instr_per_sec\": {:.1}}}}}",
        timings.len(),
        total_wall,
        if total_wall > 0.0 {
            total_instr as f64 / total_wall
        } else {
            0.0
        }
    );
    out
}

/// `--debug DESIGN`: per-benchmark diagnostic dump against baseline
/// (subsumes the old `debug_dac` / `debug_mta` binaries).
fn run_debug(args: &CommonArgs, benches: &[gpu_workloads::Workload], point: DesignPoint) {
    for w in benches {
        let (base, _) = profiled_run(args, w.abbr, DesignPoint::parse("baseline").unwrap());
        let (d, _) = profiled_run(args, w.abbr, point);
        println!("== {} ==", w.abbr);
        println!(
            "cycles: base {} {} {} speedup {:.3}",
            base.cycles,
            d.design,
            d.cycles,
            base.cycles as f64 / d.cycles as f64
        );
        println!(
            "warp instrs: base {} {} {} (+affine {})",
            base.stats.warp_instructions,
            d.design,
            d.stats.warp_instructions,
            d.stats.affine_instructions
        );
        println!(
            "loads: {} decoupled {} ({:.1}%); prefetches issued {}",
            d.stats.global_loads,
            d.stats.decoupled_loads,
            100.0 * d.stats.decoupled_load_fraction(),
            d.stats.prefetches_issued
        );
        println!(
            "dac queues: aeu {} peu {} enq_full {} deq_empty {} deq_data {}",
            d.stats.aeu_records,
            d.stats.peu_records,
            d.stats.enq_full_stalls,
            d.stats.deq_empty_stalls,
            d.stats.deq_data_stalls
        );
        println!(
            "mem: L1 base {:.2} {} {:.2} | L2 base {:.2} {} {:.2} | row base {:.2} {} {:.2}",
            base.mem.l1_hit_rate(),
            d.design,
            d.mem.l1_hit_rate(),
            base.mem.l2_hit_rate(),
            d.design,
            d.mem.l2_hit_rate(),
            base.mem.row_hit_rate(),
            d.design,
            d.mem.row_hit_rate()
        );
        println!(
            "mta buffer: pbuf_hits {} pbuf_fills {} unused_evictions {} redundant {}",
            d.mem.pbuf_hits,
            d.mem.pbuf_fills,
            d.mem.pbuf_unused_evictions,
            d.mem.redundant_prefetches
        );
        for p in [&base, &d] {
            let cells: Vec<String> = p
                .cpi
                .buckets()
                .iter()
                .filter(|&&(_, v)| v > 0)
                .map(|&(n, _)| format!("{n} {:.1}%", 100.0 * p.cpi.fraction(n)))
                .collect();
            println!("cpi stack ({}): {}", p.design, cells.join(", "));
        }
    }
}

/// `--check-bench FILE`: validate a throughput record against the
/// checked-in schema (`schemas/bench_pr3.schema.json`). Returns the
/// process exit code.
fn check_bench_file(path: &Path) -> i32 {
    let schema_path = Path::new("schemas/bench_pr3.schema.json");
    let schema_text = match std::fs::read_to_string(schema_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("profile: cannot read {}: {e}", schema_path.display());
            return 2;
        }
    };
    let schema = match json::parse(&schema_text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("profile: schema is invalid JSON: {e}");
            return 2;
        }
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("profile: cannot read {}: {e}", path.display());
            return 2;
        }
    };
    let value = match json::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("profile: {} is invalid JSON: {e}", path.display());
            return 1;
        }
    };
    let mut errors = Vec::new();
    validate(&value, &schema, "$", &mut errors);
    if errors.is_empty() {
        println!("profile: {} conforms to dac-bench-pr3/v1", path.display());
        0
    } else {
        for e in &errors {
            eprintln!("profile: {e}");
        }
        eprintln!(
            "profile: {} FAILED validation ({} errors)",
            path.display(),
            errors.len()
        );
        1
    }
}

/// Minimal JSON-Schema-subset validator: `type`, `required`, `properties`,
/// `items`, `const`, `minItems`. Enough to pin the artifact shape without
/// an external schema library.
fn validate(value: &json::Value, schema: &json::Value, at: &str, errors: &mut Vec<String>) {
    use json::Value;
    if let Some(expected) = schema.get("const") {
        let matches = match (expected, value) {
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        };
        if !matches {
            errors.push(format!("{at}: expected const {expected:?}"));
        }
    }
    if let Some(t) = schema.get("type").and_then(Value::as_str) {
        let ok = match t {
            "object" => value.as_obj().is_some(),
            "array" => value.as_arr().is_some(),
            "string" => value.as_str().is_some(),
            "number" => value.as_f64().is_some(),
            "integer" => value.as_u64().is_some(),
            "boolean" => value.as_bool().is_some(),
            _ => true,
        };
        if !ok {
            errors.push(format!("{at}: expected type {t}"));
            return;
        }
    }
    if let Some(obj) = value.as_obj() {
        if let Some(required) = schema.get("required").and_then(Value::as_arr) {
            for name in required.iter().filter_map(Value::as_str) {
                if !obj.iter().any(|(k, _)| k == name) {
                    errors.push(format!("{at}: missing required field {name:?}"));
                }
            }
        }
        if let Some(props) = schema.get("properties").and_then(Value::as_obj) {
            for (name, sub) in props {
                if let Some((_, v)) = obj.iter().find(|(k, _)| k == name) {
                    validate(v, sub, &format!("{at}.{name}"), errors);
                }
            }
        }
    }
    if let Some(arr) = value.as_arr() {
        if let Some(min) = schema.get("minItems").and_then(Value::as_u64) {
            if (arr.len() as u64) < min {
                errors.push(format!(
                    "{at}: expected at least {min} items, got {}",
                    arr.len()
                ));
            }
        }
        if let Some(items) = schema.get("items") {
            for (i, v) in arr.iter().enumerate() {
                validate(v, items, &format!("{at}[{i}]"), errors);
            }
        }
    }
}

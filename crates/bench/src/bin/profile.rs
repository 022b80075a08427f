//! Cross-design bottleneck profiling.
//!
//! Runs each selected benchmark under each selected design with a
//! [`simt_profile::ProfileSink`] attached, then writes `report.md` +
//! `profile.json` — the deterministic bottleneck report (top-down CPI
//! stacks, hit rates, latency/occupancy percentiles, and headline
//! comparisons). Byte-identical across runs and machines.
//!
//! `--debug DESIGN` replaces the old `debug_dac` / `debug_mta` /
//! `trace_loop` binaries: a per-benchmark diagnostic dump comparing one
//! design against the baseline.

use dac_bench::cli::{require_runnable, CommonArgs, COMMON_USAGE};
use simt_harness::{json, DesignPoint, Job};
use simt_profile::{report, DesignProfile, ProfileSink, WorkloadProfile};
use std::path::PathBuf;
use std::sync::Arc;

const USAGE: &str = "\
usage: profile [options]
       profile --debug DESIGN [options]

Runs every selected benchmark (default: BFS,LIB,MQ,SPV) under every
selected design (default: baseline,cae,mta,dac) with the profiling sink
attached, and writes a deterministic bottleneck report (report.md +
profile.json) to --out (default results/profile). Profiled runs always
simulate; the result cache is not consulted.

profile options:
  --debug DESIGN     print a per-benchmark diagnostic dump comparing
                     DESIGN against baseline, instead of writing reports";

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
    let mut rest: Vec<String> = Vec::new();
    let mut it = raw.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--debug" => match it.next() {
                Some(v) => debug = Some(v),
                None => usage_exit("--debug requires a design name"),
            },
            _ => rest.push(arg),
        }
    }
    let mut args = CommonArgs::parse(&rest).unwrap_or_else(|e| usage_exit(&e));
    if let Some(stray) = args.positional.first() {
        usage_exit(&format!("unexpected argument {stray:?}"));
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

    run_profile(&args, benches, &points);
}

/// One profiled execution: the job runs with a fresh [`ProfileSink`]
/// attached (never cached — the sink's aggregates come from the live event
/// stream).
fn profiled_run(args: &CommonArgs, abbr: &str, point: DesignPoint) -> DesignProfile {
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
    DesignProfile::new(point.name(), &result.report, sink)
}

fn run_profile(args: &CommonArgs, benches: Vec<gpu_workloads::Workload>, points: &[DesignPoint]) {
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
    for w in &benches {
        let mut designs = Vec::new();
        for &point in points {
            if !args.quiet {
                eprintln!("  {}/{} ...", w.abbr, point.name());
            }
            designs.push(profiled_run(args, w.abbr, point));
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

    println!(
        "profile: report -> {} / {}",
        md_path.display(),
        json_path.display()
    );
}

/// `--debug DESIGN`: per-benchmark diagnostic dump against baseline
/// (subsumes the old `debug_dac` / `debug_mta` binaries).
fn run_debug(args: &CommonArgs, benches: &[gpu_workloads::Workload], point: DesignPoint) {
    for w in benches {
        let base = profiled_run(args, w.abbr, DesignPoint::parse("baseline").unwrap());
        let d = profiled_run(args, w.abbr, point);
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

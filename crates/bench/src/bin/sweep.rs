//! Run the benchmark × design matrix and emit machine-readable artifacts.
//!
//! The workhorse for bulk experiments: every (workload, design) pair
//! becomes one harness job, results stream into `results/cache/` (so a
//! second identical invocation simulates nothing) and one JSONL record per
//! job lands under `results/runs/`. The printed table and the artifact are
//! byte-identical for any `--jobs N` — results are aggregated by job
//! index, not completion order.

use dac_bench::cli::{exit_unrunnable, CommonArgs, COMMON_USAGE};
use dac_bench::geomean;
use gpu_workloads::Design;
use simt_harness::{scenario_jobs, suite_jobs, DesignPoint};

const USAGE: &str = "\
usage: sweep [options]

Runs every selected benchmark under every selected design (default:
baseline, cae, mta, dac) and writes one JSONL record per simulation to
--out (default results/runs). Fully cached: rerunning an identical sweep
hits results/cache and simulates nothing.

With --set streams=NAME the sweep instead runs that multi-kernel stream
scenario under every selected design (concurrent kernel streams dispatched
by the command processor; --set cta_policy=greedy|rr picks the placement
policy) and prints chip-wide plus per-kernel cycle counts.";

fn usage_exit(error: &str) -> ! {
    if error == "help" {
        println!("{USAGE}\n\n{COMMON_USAGE}");
        std::process::exit(0);
    }
    // One line, not the usage dump: parse errors already name the valid
    // choices, and burying them under 40 lines of usage hides the message.
    eprintln!("sweep: {error} (run `sweep --help` for usage)");
    std::process::exit(2);
}

fn main() {
    simt_obs::log::init_from_env();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = CommonArgs::parse(&raw).unwrap_or_else(|e| usage_exit(&e));
    if let Some(stray) = args.positional.first() {
        usage_exit(&format!("unexpected argument {stray:?}"));
    }
    let points = args
        .designs
        .clone()
        .unwrap_or_else(|| DesignPoint::HW_ALL.to_vec());
    if let Some(name) = args.overrides.streams.clone() {
        scenario_sweep(&args, &name, &points);
        return;
    }
    let benches = args.benchmarks().unwrap_or_else(|e| usage_exit(&e));

    let harness = args.harness(Some("results/runs"));
    let jobs = suite_jobs(benches, args.scale, &points, &args.overrides);
    eprintln!(
        "sweep: {} jobs ({} benchmarks x {} designs) on {} workers",
        jobs.len(),
        jobs.len() / points.len(),
        points.len(),
        harness.workers()
    );
    let t0 = std::time::Instant::now();
    let out = harness
        .try_run(&jobs)
        .unwrap_or_else(|f| exit_unrunnable("sweep", &f));
    let wall = t0.elapsed();

    // One row per benchmark, one column per design; speedups are relative
    // to the baseline column when it is part of the sweep.
    let base_col = points
        .iter()
        .position(|&p| p == DesignPoint::Hw(Design::Baseline));
    print!("{:<6} {:>12}", "bench", "design:cycles");
    println!();
    let mut dac_speedups = Vec::new();
    for (row, chunk) in out.results.chunks(points.len()).enumerate() {
        let mut line = format!("{:<6}", jobs[row * points.len()].bench());
        for (col, r) in chunk.iter().enumerate() {
            let mut cell = format!("{}={}", points[col].name(), r.report.cycles);
            if let Some(b) = base_col {
                if col != b {
                    let speedup = chunk[b].report.cycles as f64 / r.report.cycles as f64;
                    cell.push_str(&format!(" ({speedup:.2}x)"));
                    if points[col] == DesignPoint::Hw(Design::Dac) {
                        dac_speedups.push(speedup);
                    }
                }
            }
            line.push_str(&format!(" {cell:>24}"));
        }
        println!("{line}");
    }
    if !dac_speedups.is_empty() {
        println!(
            "GEOMEAN dac speedup over baseline: {:.3}x",
            geomean(dac_speedups)
        );
    }
    eprintln!(
        "sweep: {} simulated, {} from cache in {:.1}s",
        out.executed,
        out.cache_hits,
        wall.as_secs_f64()
    );
    if let Some(path) = &out.artifact_path {
        eprintln!("sweep: artifacts -> {}", path.display());
    }
    if let Some(dir) = &args.trace_dir {
        eprintln!("sweep: traces -> {}", dir.display());
    }
    if out.trace_drops > 0 {
        simt_obs::warn!("bench.sweep",
            "trace events dropped; exported timelines keep only the newest \
             events (raise --trace-events)";
            dropped = out.trace_drops,
            jobs = out.trace_dropped_jobs,
            capacity = args.trace_events);
    }
}

/// Run one multi-kernel stream scenario under every selected design and
/// print chip-wide plus per-kernel cycle counts.
fn scenario_sweep(args: &CommonArgs, name: &str, points: &[DesignPoint]) {
    let sc = gpu_workloads::scenario(name, args.scale).unwrap_or_else(|| {
        usage_exit(&format!(
            "unknown scenario {name:?} (expected one of: {})",
            gpu_workloads::ALL_SCENARIOS.join(", ")
        ))
    });
    let harness = args.harness(Some("results/runs"));
    let jobs = scenario_jobs(vec![sc], args.scale, points, &args.overrides);
    eprintln!(
        "sweep: scenario {name} ({} policy), {} designs on {} workers",
        jobs[0].policy().name(),
        points.len(),
        harness.workers()
    );
    let t0 = std::time::Instant::now();
    let out = harness
        .try_run(&jobs)
        .unwrap_or_else(|f| exit_unrunnable("sweep", &f));
    let wall = t0.elapsed();

    let base_col = points
        .iter()
        .position(|&p| p == DesignPoint::Hw(Design::Baseline));
    for (col, (job, r)) in jobs.iter().zip(&out.results).enumerate() {
        let mut head = format!("{:<10} {:>10} cycles", job.label(), r.report.cycles);
        if let Some(b) = base_col {
            if col != b {
                head.push_str(&format!(
                    " ({:.2}x)",
                    out.results[b].report.cycles as f64 / r.report.cycles as f64
                ));
            }
        }
        println!("{head}");
        for k in &r.per_kernel {
            println!(
                "  s{}.{} {:<10} {:>10} cycles ({}..{}), {} ctas, {} instrs",
                k.stream,
                k.seq,
                k.label,
                k.stats.cycles,
                k.first_cycle,
                k.done_cycle,
                k.ctas,
                k.stats.total_instructions()
            );
        }
    }
    eprintln!(
        "sweep: {} simulated, {} from cache in {:.1}s",
        out.executed,
        out.cache_hits,
        wall.as_secs_f64()
    );
    if let Some(path) = &out.artifact_path {
        eprintln!("sweep: artifacts -> {}", path.display());
    }
}

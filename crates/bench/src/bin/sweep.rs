//! The one experiment front end: run the benchmark × design matrix, or
//! print one of the paper's tables and figures.
//!
//! With no experiment, every (workload, design) pair becomes one harness
//! job, results stream into `results/cache/` (so a second identical
//! invocation simulates nothing) and one JSONL record per job lands under
//! `results/runs/`. The printed table and the artifact are byte-identical
//! for any `--jobs N` — results are aggregated by job index, not
//! completion order. The matrix is also the one front end for the
//! observers: `--trace` writes a timeline per job, `--profile DIR` one
//! bottleneck report over the run. `sweep EXPERIMENT` prints that part of
//! the paper's evaluation instead ([`dac_bench::figures`]).

use dac_bench::cli::{exit_unrunnable, CommonArgs};
use dac_bench::{figures, geomean, outln};
use gpu_workloads::Design;
use simt_harness::{refuse_idle_knobs, scenario_jobs, suite_jobs, DesignPoint, RunOutput, KNOBS};
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage: sweep [EXPERIMENT] [options]

Without an EXPERIMENT, runs every selected benchmark under every selected
design (default: baseline, cae, mta, dac) and writes one JSONL record per
simulation to --out (default results/runs). Fully cached: rerunning an
identical sweep hits results/cache and simulates nothing.

With --set streams=NAME the sweep instead runs that multi-kernel stream
scenario under every selected design (concurrent kernel streams dispatched
by the command processor; --set cta_policy picks the placement policy)
and prints chip-wide plus per-kernel cycle counts.

--trace writes one event timeline per job (Chrome JSON + dac-trace/v1
JSONL); --profile DIR writes one bottleneck report over every job
(report.md + dac-profile/v1 profile.json). Either one simulates every job:
the cache is stored to but not read.

With an EXPERIMENT, prints that part of the paper's evaluation over the
selected benchmarks (cached; artifacts only with --out):
  table1   simulator configuration
  table2   benchmark list + measured compute/memory classification
  fig6     % static instructions that are potentially affine
  fig16    speedups of CAE / MTA / DAC over baseline
  fig17    DAC warp-instruction count normalized to baseline
  fig18    affine coverage, DAC vs CAE (compute-intensive set)
  fig19    % of loads issued by the affine warp (memory-intensive set)
  fig20    MTA prefetcher coverage (memory-intensive set)
  fig21    energy normalized to baseline
  mem      L1 / L2 / DRAM row-buffer hit rates per design
  area     DAC area overhead (§4.8)
  ablate   DAC queue-size / ATQ / line-locking ablations (beyond paper)
  all      everything above

options:
  --scale N          workload scale factor (default 1)
  --bench A,B,...    only these benchmarks (Table 2 abbreviations)
  --jobs N, -j N     worker threads, at most 256 (default: all cores)
  --no-cache         ignore and do not update results/cache
  --cache-dir DIR    result cache location (default results/cache)
  --out DIR          write JSONL run artifacts to DIR
  --designs a,b,...  matrix only: design points baseline, cae, mta, dac,
                     perfect
  --set KEY=VALUE    config override (repeatable, each knob once; knobs
                     below)
  --trace            write per-job event traces to results/traces
  --trace-dir DIR    write per-job event traces to DIR (implies --trace)
  --trace-events N   trace ring-buffer capacity (default 1000000)
  --profile DIR      matrix only: profile every job and write one bottleneck
                     report (report.md + profile.json) to DIR
  --quiet, -q        no per-job progress on stderr
  --help, -h         this text

knobs, as KEY (scope): VALUES. A knob that would change no point of the
run (scope dac without the dac design, scenario or payload without a
stream scenario) is refused:";

fn usage_exit(error: &str) -> ! {
    if error == "help" {
        outln!("{USAGE}");
        for knob in KNOBS {
            outln!("  {} ({}): {}", knob.name, knob.scope.name(), knob.domain);
            let default = knob.default.map_or(String::new(), |d| {
                format!(" (default: {})", d().to_json().trim_matches('"'))
            });
            outln!("      {}{default}", knob.doc);
        }
        std::process::exit(0);
    }
    // One line, not the usage dump: parse errors already name the valid
    // choices, and burying them under 60 lines of usage hides the message.
    eprintln!("sweep: {error} (run `sweep --help` for usage)");
    std::process::exit(2);
}

fn main() {
    simt_obs::log::init_from_env();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = CommonArgs::parse(&raw).unwrap_or_else(|e| usage_exit(&e));
    match args.positional.as_slice() {
        [] => {}
        [name] => return figures::run(name, &args).unwrap_or_else(|e| usage_exit(&e)),
        more => usage_exit(&format!("expected at most one experiment, got {more:?}")),
    }
    let points = args
        .designs
        .clone()
        .unwrap_or_else(|| DesignPoint::HW_ALL.to_vec());
    let streams = args.overrides.streams.clone();
    refuse_idle_knobs(&args.overrides, &points, streams.is_some())
        .unwrap_or_else(|e| usage_exit(&e));
    if let Some(name) = streams {
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
    let t0 = Instant::now();
    let out = harness
        .try_run(&jobs)
        .unwrap_or_else(|f| exit_unrunnable(&f));
    let wall = t0.elapsed();

    // One row per benchmark, one column per design; speedups are relative
    // to the baseline column when it is part of the sweep.
    let base_col = points
        .iter()
        .position(|&p| p == DesignPoint::Hw(Design::Baseline));
    outln!("{:<6} {:>12}", "bench", "design:cycles");
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
        outln!("{line}");
    }
    if !dac_speedups.is_empty() {
        outln!(
            "GEOMEAN dac speedup over baseline: {:.3}x",
            geomean(dac_speedups)
        );
    }
    summarize(&args, &out, wall);
}

/// The stderr tail of a run: what was simulated and where its files went.
fn summarize(args: &CommonArgs, out: &RunOutput, wall: Duration) {
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
    if let Some([md, js]) = &out.profile_paths {
        eprintln!("sweep: profile -> {} / {}", md.display(), js.display());
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
    let sc = gpu_workloads::scenario(name, args.scale).expect("`--set streams` names a scenario");
    let harness = args.harness(Some("results/runs"));
    let jobs = scenario_jobs(vec![sc], args.scale, points, &args.overrides);
    eprintln!(
        "sweep: scenario {name} ({} policy), {} designs on {} workers",
        jobs[0].policy().name(),
        points.len(),
        harness.workers()
    );
    let t0 = Instant::now();
    let out = harness
        .try_run(&jobs)
        .unwrap_or_else(|f| exit_unrunnable(&f));
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
        outln!("{head}");
        for k in &r.per_kernel {
            outln!(
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
    summarize(args, &out, wall);
}

//! Trace one `workload × design` run and export its timeline.
//!
//! The observability front end: runs a single cycle-level simulation with
//! the event tracer attached, writes a Chrome `trace_event` JSON (load it
//! in `chrome://tracing` or Perfetto) plus a `dac-trace/v1` JSONL, then
//! validates the written JSON by re-parsing it and prints derived
//! time-series summaries (IPC windows, queue occupancy, run-ahead
//! histogram).

use dac_bench::cli::{require_runnable, CommonArgs, COMMON_USAGE};
use simt_harness::{json, DesignPoint, Job};
use simt_trace::{chrome, jsonl, series, RingSink, TraceEvent};
use std::path::PathBuf;
use std::sync::Arc;

const USAGE: &str = "\
usage: trace BENCH [options]

Runs one benchmark under one design (--designs, default dac) with the
event tracer attached, writes BENCH-sN-DESIGN.trace.json (Chrome
trace_event format) and .trace.jsonl (dac-trace/v1) to --trace-dir
(default results/traces), validates the written JSON, and prints derived
time-series summaries. Never cached: a trace run always simulates.";

fn usage_exit(error: &str) -> ! {
    if error == "help" {
        println!("{USAGE}\n\n{COMMON_USAGE}");
        std::process::exit(0);
    }
    eprintln!("trace: {error}\n\n{USAGE}\n\n{COMMON_USAGE}");
    std::process::exit(2);
}

fn main() {
    simt_obs::log::init_from_env();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = CommonArgs::parse(&raw).unwrap_or_else(|e| usage_exit(&e));
    let abbr = match args.positional.as_slice() {
        [one] => one.clone(),
        [] => usage_exit("expected a benchmark abbreviation"),
        more => usage_exit(&format!("expected one benchmark, got {more:?}")),
    };
    let point = match args.designs.as_deref() {
        None => DesignPoint::Hw(gpu_workloads::Design::Dac),
        Some([one]) => *one,
        Some(more) => usage_exit(&format!(
            "trace runs one design at a time, got {} via --designs",
            more.len()
        )),
    };
    let workload = gpu_workloads::benchmark(&abbr, args.scale)
        .unwrap_or_else(|| usage_exit(&format!("unknown benchmark {abbr:?}")));
    let dir = args
        .trace_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("results/traces"));

    let mut job = Job::new(Arc::new(workload), args.scale, point);
    job.overrides = args.overrides.clone();
    require_runnable("trace", &job);
    eprintln!(
        "trace: {} (scale {}, ring capacity {})",
        job.label(),
        args.scale,
        args.trace_events
    );
    let mut sink = RingSink::new(args.trace_events);
    let result = job.execute_traced(&mut sink);
    eprintln!(
        "trace: {} cycles, {} events emitted, {} dropped ({:.1}s)",
        result.report.cycles,
        sink.emitted(),
        sink.dropped(),
        result.wall_ms / 1e3
    );

    // Export both formats.
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("trace: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let stem = format!(
        "{}-s{}-{}",
        job.bench().to_ascii_lowercase(),
        job.scale,
        point.name()
    );
    let chrome_path = dir.join(format!("{stem}.trace.json"));
    let jsonl_path = dir.join(format!("{stem}.trace.jsonl"));
    let chrome_text = chrome::export(sink.events(), sink.dropped());
    let scale = args.scale.to_string();
    let meta = [
        ("bench", job.bench()),
        ("scale", scale.as_str()),
        ("design", point.name()),
    ];
    let jsonl_text = jsonl::export(sink.events(), &meta, sink.dropped());
    for (path, text) in [(&chrome_path, &chrome_text), (&jsonl_path, &jsonl_text)] {
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("trace: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }

    // Validate what was written: the Chrome file must parse as JSON and
    // carry every retained event; every JSONL line must parse too.
    let parsed = json::parse(&chrome_text)
        .unwrap_or_else(|e| panic!("exported Chrome trace is invalid JSON: {e}"));
    let n = parsed
        .get("traceEvents")
        .and_then(json::Value::as_arr)
        .map_or(0, |a| a.len());
    for (i, line) in jsonl_text.lines().enumerate() {
        json::parse(line)
            .unwrap_or_else(|e| panic!("exported JSONL line {} is invalid: {e}", i + 1));
    }
    println!("trace: {n} events (validated) -> {}", chrome_path.display());
    println!(
        "trace: {} JSONL lines (validated) -> {}",
        jsonl_text.lines().count(),
        jsonl_path.display()
    );

    summarize(&sink, result.report.cycles);

    if sink.dropped() > 0 {
        simt_obs::warn!("bench.trace",
            "ring buffer dropped events; the exported timeline keeps only \
             the newest (raise --trace-events)";
            dropped = sink.dropped(),
            total = sink.emitted(),
            kept = sink.len(),
            capacity = args.trace_events);
    }
}

/// Print derived time-series: issue-rate windows, queue occupancy, and the
/// affine run-ahead histogram.
fn summarize(sink: &RingSink, cycles: u64) {
    let events: Vec<_> = sink.events().copied().collect();

    let window = 1000;
    let ipc = series::ipc_windows(events.iter(), window);
    if !ipc.is_empty() {
        let peak = ipc.iter().map(|w| w.issued).max().unwrap_or(0);
        let total: u64 = ipc.iter().map(|w| w.issued).sum();
        println!(
            "issue rate: {} windows of {window} cycles, mean {:.1} peak {} issues/window",
            ipc.len(),
            total as f64 / ipc.len() as f64,
            peak
        );
    }

    let queues = series::queue_series(events.iter());
    if !queues.is_empty() {
        let max_atq = queues.iter().map(|p| p.atq).max().unwrap_or(0);
        let max_pwaq = queues.iter().map(|p| p.pwaq).max().unwrap_or(0);
        let max_pwpq = queues.iter().map(|p| p.pwpq).max().unwrap_or(0);
        let mean_atq: f64 = queues.iter().map(|p| p.atq as f64).sum::<f64>() / queues.len() as f64;
        println!(
            "queues: atq mean {mean_atq:.1} max {max_atq}, pwaq max {max_pwaq}, \
             pwpq max {max_pwpq} (summed over SMs, {} samples)",
            queues.len()
        );
    }

    let hist = series::runahead_histogram(events.iter(), 8, 8);
    if hist.iter().any(|&c| c > 0) {
        let cells: Vec<String> = hist
            .iter()
            .enumerate()
            .map(|(i, c)| {
                if i + 1 == hist.len() {
                    format!("{}+={c}", i * 8)
                } else {
                    format!("{}-{}={c}", i * 8, i * 8 + 7)
                }
            })
            .collect();
        println!("run-ahead histogram (records): {}", cells.join(" "));
    }

    let mem_events = events
        .iter()
        .filter(|e| matches!(e.event, TraceEvent::MemResp { .. }))
        .count();
    println!(
        "memory: {} completed request lifecycles traced over {cycles} cycles",
        mem_events
    );
}

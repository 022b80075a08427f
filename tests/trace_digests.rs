//! The `dac-trace/v1` event stream, pinned in
//! `results/pins/trace_digests.txt`: FNV-1a digests of the JSONL bytes
//! `sweep --trace` writes, for benchmark × design runs on one SM and one
//! stream scenario × design run on two SMs. A
//! change to where or in which order the simulator emits trace events (the
//! SM tick, the fabric, a coprocessor's `step` or `pump`) moves a digest;
//! a change that only restructures the code does not.
//!
//! PF under DAC runs the affine warp, both expansion units and the early
//! line requests through a `bar.sync` kernel; LIB under MTA runs the
//! prefetcher past many of its prefetch-buffer throttle evaluations (one
//! every 2048 cycles). The pipeline scenario under DAC runs one DAC
//! instance per kernel launch while the command processor binds and
//! re-binds the two SMs between launches.

#[path = "support/pin.rs"]
mod pin;

use dac_gpu::harness::{fnv1a64, Design, DesignPoint, Job};
use dac_gpu::workloads::{benchmark, scenario};
use simt_trace::{jsonl, RingSink};
use std::sync::Arc;

/// Ring capacity: above the largest run's event count, so nothing drops.
const RING_EVENTS: usize = 1 << 20;

/// The pinned row of `job`: its cycle count and the digest of its JSONL
/// document.
fn trace_row(job: &Job) -> String {
    let mut sink = RingSink::new(RING_EVENTS);
    let result = job.execute_traced(&mut sink);
    assert_eq!(sink.dropped(), 0, "{}: ring dropped events", job.label());
    let design = job.point.name();
    let meta = [("bench", job.bench()), ("scale", "1"), ("design", design)];
    let text = jsonl::export(sink.events(), &meta, sink.dropped());
    format!(
        "{}/{design} cycles={} jsonl={:#018x}",
        job.bench(),
        result.report.cycles,
        fnv1a64(text.as_bytes())
    )
}

/// `job` at scale 1 on `num_sms` SMs with 16 warp slots each.
fn on_sms(mut job: Job, num_sms: usize) -> Job {
    job.overrides.num_sms = Some(num_sms);
    job.overrides.max_warps_per_sm = Some(16);
    job
}

#[test]
fn trace_streams_are_pinned() {
    let mut jobs: Vec<Job> = [("PF", Design::Dac), ("LIB", Design::Mta)]
        .into_iter()
        .map(|(abbr, design)| {
            let w = benchmark(abbr, 1).expect("Table 2 benchmark");
            on_sms(Job::new(Arc::new(w), 1, DesignPoint::Hw(design)), 1)
        })
        .collect();
    let pipeline = scenario("pipeline", 1).expect("shipped scenario");
    let dac = DesignPoint::Hw(Design::Dac);
    jobs.push(on_sms(Job::for_scenario(Arc::new(pipeline), 1, dac), 2));
    let rows = pin::lines(jobs.iter().map(trace_row));
    pin::check("results/pins/trace_digests.txt", &rows);
}

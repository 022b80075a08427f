//! The `dac-trace/v1` event stream, pinned in
//! `results/pins/trace_digests.txt`: FNV-1a digests of the JSONL bytes
//! `sweep --trace` writes, for benchmark × design runs on one SM and one
//! stream scenario × design run on two SMs. A
//! change to where or in which order the simulator emits trace events (the
//! SM tick, the fabric, a coprocessor's `step`) moves a digest; a change
//! that only restructures the code does not.
//!
//! The same three streams also state the order of an SM cycle: events
//! never go back in time, and a coprocessor's fabric request (DAC's early
//! line, MTA's prefetch; accepted or refused) precedes its SM's first
//! `warp_issue` of the cycle, because `step` submits it before the issue
//! stage.
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
use simt_trace::{jsonl, RingSink, TimedEvent, TraceClient, TraceEvent};
use std::collections::HashSet;
use std::sync::Arc;

/// Ring capacity: above the largest run's event count, so nothing drops.
const RING_EVENTS: usize = 1 << 20;

/// The pinned row of `job`: its cycle count and the digest of its JSONL
/// document.
fn trace_row(job: &Job) -> String {
    let mut sink = RingSink::new(RING_EVENTS);
    let result = job.execute_traced(&mut sink);
    assert_eq!(sink.dropped(), 0, "{}: ring dropped events", job.label());
    check_cycle_order(&job.label(), sink.events());
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

/// Panic unless `events` are cycle-monotone and, in each SM-cycle, every
/// DAC/MTA fabric request comes before that SM's first `warp_issue`.
fn check_cycle_order<'a>(label: &str, events: impl Iterator<Item = &'a TimedEvent>) {
    let mut cycle = 0;
    // SMs that issued a warp instruction in `cycle`.
    let mut issued = HashSet::new();
    for e in events {
        assert!(e.cycle >= cycle, "{label}: cycle {} after {cycle}", e.cycle);
        if e.cycle > cycle {
            cycle = e.cycle;
            issued.clear();
        }
        match e.event {
            TraceEvent::WarpIssue { sm, .. } => {
                issued.insert(sm);
            }
            TraceEvent::MemReq { sm, client, .. } | TraceEvent::MemStall { sm, client, .. }
                if matches!(client, TraceClient::Dac | TraceClient::Mta) =>
            {
                assert!(
                    !issued.contains(&sm),
                    "{label}: SM {sm} issued before its coprocessor's request at cycle {cycle}"
                );
            }
            _ => {}
        }
    }
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

//! The `dac-trace/v1` event stream, pinned in
//! `results/pins/trace_digests.txt`: FNV-1a digests of the JSONL bytes
//! `sweep --trace` writes, for benchmark × design runs on one SM. A
//! change to where or in which order the simulator emits trace events (the
//! SM tick, the fabric, a coprocessor's `step` or `pump`) moves a digest;
//! a change that only restructures the code does not.
//!
//! PF under DAC runs the affine warp, both expansion units and the early
//! line requests through a `bar.sync` kernel; LIB under MTA runs the
//! prefetcher past many of its prefetch-buffer throttle evaluations (one
//! every 2048 cycles).

#[path = "support/pin.rs"]
mod pin;

use dac_gpu::harness::{fnv1a64, Design, DesignPoint, Job};
use dac_gpu::workloads::benchmark;
use simt_trace::{jsonl, RingSink};
use std::sync::Arc;

/// Ring capacity: above the largest run's event count, so nothing drops.
const RING_EVENTS: usize = 1 << 20;

/// Digest of the JSONL document of `abbr` under `design` at scale 1 on
/// one SM with 16 warp slots, and the run's cycle count.
fn trace_digest(abbr: &str, design: Design) -> (u64, u64) {
    let w = benchmark(abbr, 1).expect("Table 2 benchmark");
    let mut job = Job::new(Arc::new(w), 1, DesignPoint::Hw(design));
    job.overrides.num_sms = Some(1);
    job.overrides.max_warps_per_sm = Some(16);
    let mut sink = RingSink::new(RING_EVENTS);
    let result = job.execute_traced(&mut sink);
    assert_eq!(sink.dropped(), 0, "{}: ring dropped events", job.label());
    let meta = [
        ("bench", job.bench()),
        ("scale", "1"),
        ("design", design.name()),
    ];
    let text = jsonl::export(sink.events(), &meta, sink.dropped());
    (fnv1a64(text.as_bytes()), result.report.cycles)
}

#[test]
fn trace_streams_are_pinned() {
    let rows = [("PF", Design::Dac), ("LIB", Design::Mta)].map(|(abbr, design)| {
        let (digest, cycles) = trace_digest(abbr, design);
        format!(
            "{abbr}/{} cycles={cycles} jsonl={digest:#018x}",
            design.name()
        )
    });
    pin::check("results/pins/trace_digests.txt", &pin::lines(rows));
}

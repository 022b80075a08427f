//! `simt-profile`: a metrics layer on top of the simulator's counters and
//! the `simt-trace` event stream.
//!
//! Three pieces:
//!
//! * [`Histogram`] — fixed-bucket, allocation-free latency/occupancy
//!   histograms with p50/p90/p99;
//! * [`ProfileSink`] — a [`simt_trace::Tracer`] that aggregates events
//!   online (no retained event buffer, so it never drops anything);
//! * [`report`] — deterministic markdown + JSON bottleneck reports
//!   comparing designs side by side: the issue-slot buckets and cycle
//!   ledger of [`simt_sim::SimStats`], hit rates and the sink's
//!   histograms.

#![forbid(unsafe_code)]

mod hist;
pub mod report;
mod sink;

pub use hist::Histogram;
pub use report::{DesignProfile, WorkloadProfile};
pub use sink::ProfileSink;

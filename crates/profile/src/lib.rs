//! `simt-profile`: a metrics layer on top of the simulator's counters and
//! the `simt-trace` event stream.
//!
//! Three pieces:
//!
//! * [`Histogram`] — fixed-bucket, allocation-free latency/occupancy
//!   histograms with p50/p90/p99;
//! * [`ProfileSink`] — a [`simt_trace::Tracer`] that aggregates events
//!   online (no retained event buffer, so it never drops anything);
//! * [`CpiStack`] — the top-down issue-slot accounting view of
//!   [`simt_sim::SimStats`], with the checked invariant that every
//!   scheduler slot of every cycle lands in exactly one bucket;
//! * [`report`] — deterministic markdown + JSON bottleneck reports
//!   comparing designs side by side.

#![forbid(unsafe_code)]

mod cpi;
mod hist;
pub mod report;
mod sink;

pub use cpi::CpiStack;
pub use hist::Histogram;
pub use report::{DesignProfile, WorkloadProfile};
pub use sink::ProfileSink;

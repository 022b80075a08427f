//! # simt-trace — cycle-level event tracing for the DAC simulator stack
//!
//! A structured tracing subsystem threaded through `simt-sim`, `simt-mem`,
//! and the coprocessors. Design invariants:
//!
//! * **Zero-cost when disabled.** Every emit site in the simulators is
//!   written `if tracer.enabled() { tracer.emit(..) }`; with the
//!   [`NullTracer`] the branch is one virtual call returning a constant,
//!   and no event value is ever built. Entry points keep their original
//!   untraced signatures (`MemoryFabric::cycle`, `GpuSim::run_with`, …)
//!   delegating to `*_traced` twins with a `NullTracer`.
//! * **Pure observation.** A tracer receives copies of state and has no
//!   way to influence timing, so a `SimReport` is byte-identical with
//!   tracing on or off (asserted by the harness determinism test).
//! * **Bounded memory.** The standard sink is a [`RingSink`] that evicts
//!   the oldest events when full and counts what it dropped.
//!
//! Exporters: [`chrome::export`] writes Chrome `trace_event` JSON for
//! `chrome://tracing` / Perfetto; [`jsonl::export`] writes the
//! `dac-trace/v1` line format (one JSON object per event, mirroring the
//! harness's `dac-run/v1` artifacts). [`series`] derives aggregate
//! time-series (IPC windows, queue occupancy, run-ahead histogram) from a
//! retained event stream.

#![forbid(unsafe_code)]

pub mod chrome;
pub mod event;
pub mod jsonl;
pub mod series;
pub mod sink;

pub use event::{StallCause, TimedEvent, TraceClient, TraceEvent, TraceReqKind};
pub use sink::{NullTracer, RingSink, Tracer};

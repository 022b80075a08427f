//! `simt-sim` — a cycle-level SIMT GPU simulator.
//!
//! This is the reproduction's stand-in for GPGPU-sim 3.2.2: an execution-
//! driven, single-clock model of a Fermi-class GPU (GTX 480 by default):
//!
//! * 15 SMs, each with 32 SIMT lanes split across two schedulers that issue
//!   one warp instruction per scheduler with an initiation interval of two
//!   cycles (32 threads over 16 lanes);
//! * per-warp SIMT reconvergence stacks using immediate-post-dominator
//!   reconvergence;
//! * a per-warp scoreboard blocking RAW/WAW hazards, with variable-latency
//!   writeback;
//! * a two-level warp scheduler (active pool + pending pool, after
//!   Narasiman et al. — Table 1's "Two Level Active");
//! * a memory coalescer generating one transaction per unique 128 B line;
//! * CTA launch/retire management and `bar.sync` barriers;
//! * a [`CoProcessor`] hook through which the DAC hardware, the CAE affine
//!   units, and the MTA prefetcher attach to the pipeline without the core
//!   simulator knowing about any of them.
//!
//! Functional execution happens at instruction issue (as in GPGPU-sim's
//! PTX mode); timing unfolds separately through the scoreboard and the
//! memory fabric.

#![forbid(unsafe_code)]

pub mod cmdproc;
pub mod coalesce;
pub mod config;
pub mod coproc;
pub mod gpu;
pub mod sm;
pub mod stack;
pub mod stats;
pub mod stream;
pub mod warp;

pub use cmdproc::{CommandProcessor, LaunchState, MultiCoProcessor, PlacementPolicy};
pub use config::GpuConfig;
pub use coproc::{AddrRecord, CoCtx, CoProcessor, IssueCost, NullCoProcessor, RecordKind};
pub use gpu::{GpuSim, KernelReport, SimReport, StreamReport};
pub use stack::SimtStack;
pub use stats::SimStats;
pub use stream::{Stream, StreamLaunch};

//! `dac-core` — the Decoupled Affine Computation hardware model.
//!
//! This crate is the *hardware half* of the paper (§4): it attaches to the
//! `simt-sim` pipeline through the [`simt_sim::CoProcessor`] hooks and
//! provides:
//!
//! * the **affine warp** ([`engine`]) — a per-SM sequencer that executes
//!   the affine instruction stream on affine tuples, once per resident CTA
//!   (see DESIGN.md for why per-CTA execution matches the paper's measured
//!   9× replacement factor), sharing the SM's issue slots;
//! * the **Affine Tuple Queue**, **Per-Warp Address Queues**, and
//!   **Per-Warp Predicate Queues** ([`queues`]) with Table 1 capacities;
//! * the **Address Expansion Unit** and **Predicate Expansion Unit**
//!   ([`coproc`]) that turn enqueued tuples into per-warp cache-line
//!   address records and predicate bit vectors, issue early (L1-locking)
//!   memory requests, and respect barrier epochs (§4.2–4.3);
//! * the **two-level Affine SIMT Stack** ([`astack`]) tracking the affine
//!   warp's control flow at warp granularity with per-thread fallback
//!   (§4.5);
//! * divergent affine tuples — values that differ across limited control
//!   flow divergence, selected per thread at expansion time (§4.6).
//!
//! # Example
//!
//! ```no_run
//! use dac_core::{Dac, DacConfig};
//! use affine::{AffineAnalysis, decouple};
//! use simt_ir::{Program, LaunchConfig};
//! use simt_sim::{GpuSim, GpuConfig};
//! use simt_mem::SparseMemory;
//!
//! # fn demo(kernel: simt_ir::Kernel, launch: LaunchConfig) {
//! let analysis = AffineAnalysis::run(&kernel);
//! let dk = affine::decouple(&kernel, &analysis);
//! let program = Program::new(dk.non_affine.clone(), launch).unwrap();
//! let mut dac = Dac::new(DacConfig::default(), dk);
//! let mut mem = SparseMemory::new();
//! let report = GpuSim::new(GpuConfig::gtx480()).run_with(&program, &mut mem, &mut dac);
//! println!("{} cycles", report.cycles);
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod astack;
pub mod config;
pub mod coproc;
pub mod engine;
pub mod queues;

pub use config::DacConfig;
pub use coproc::Dac;
pub use queues::{AtqEntry, DacQueues};

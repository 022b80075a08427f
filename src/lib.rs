//! `dac-gpu` — facade crate for the Decoupled Affine Computation (DAC)
//! reproduction (Wang & Lin, ISCA 2017).
//!
//! Re-exports every sub-crate of the workspace under one roof so examples,
//! integration tests, and downstream users can depend on a single crate:
//!
//! * [`ir`] — PTX-like kernel IR, builder, assembler, CFG analyses.
//! * [`mem`] — caches, MSHRs, DRAM, the memory fabric.
//! * [`sim`] — the cycle-level SIMT GPU simulator.
//! * [`affine`] — affine tuples, the affine type lattice, and the
//!   decoupling compiler.
//! * [`dac`] — the DAC hardware model (expansion units, queues, affine
//!   warp).
//! * [`baselines`] — CAE and MTA comparison designs.
//! * [`energy`] — the GPUWattch-style energy/area model.
//! * [`workloads`] — the 29 synthetic GPGPU benchmarks.
//! * [`harness`] — parallel experiment orchestration, result caching, and
//!   JSONL artifacts.

#![forbid(unsafe_code)]

pub use affine;
pub use dac_core as dac;
pub use gpu_baselines as baselines;
pub use gpu_energy as energy;
pub use gpu_workloads as workloads;
pub use simt_harness as harness;
pub use simt_ir as ir;
pub use simt_mem as mem;
pub use simt_sim as sim;

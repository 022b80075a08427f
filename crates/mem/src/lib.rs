//! `simt-mem` — the GPU memory system substrate.
//!
//! The paper's evaluation modifies GPGPU-sim "to better model the memory
//! system"; this crate is our from-scratch equivalent. It provides:
//!
//! * [`SparseMemory`] — functional byte-addressable global/local memory;
//! * [`Cache`] — a set-associative tag array with LRU replacement and the
//!   per-line **lock counters** DAC adds to keep early requests resident
//!   until their demand access (paper §4.2);
//! * [`MshrTable`] — miss-status holding registers with request merging;
//! * [`DramPartition`] — banked DRAM with row-buffer hit/miss timing and a
//!   bandwidth-limited data bus;
//! * [`MemoryFabric`] — the full hierarchy: per-SM L1 (plus an optional
//!   dedicated prefetch buffer for the MTA baseline), address-interleaved L2
//!   partitions, and per-partition DRAM, advanced one cycle at a time.
//!
//! All timing is expressed in core clock cycles (a single clock domain; see
//! DESIGN.md). The fabric is deterministic: identical request sequences
//! produce identical timings.

#![forbid(unsafe_code)]

pub mod cache;
pub mod config;
pub mod dram;
pub mod fabric;
pub mod fxhash;
pub mod mshr;
pub mod sparse;
pub mod stats;

pub use cache::{Cache, CacheOutcome};
pub use config::MemConfig;
pub use dram::DramPartition;
pub use fabric::{AccessOutcome, Client, MemRequest, MemResponse, MemoryFabric, ReqKind};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use mshr::MshrTable;
pub use sparse::{LaneAddrs, SparseMemory};
pub use stats::MemStats;

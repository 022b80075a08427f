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
pub mod ring;
pub mod sparse;
pub mod stats;

pub use cache::{Cache, CacheOutcome};
pub use config::MemConfig;
pub use dram::DramPartition;
pub use fabric::{AccessOutcome, Client, MemRequest, MemResponse, MemoryFabric, ReqKind};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use mshr::MshrTable;
pub use ring::IdRing;
pub use sparse::{LaneAddrs, SparseMemory};
pub use stats::MemStats;

/// Seeded SplitMix64 stream for this crate's randomized unit tests (the
/// crate has no dependencies to borrow one from).
#[cfg(test)]
pub(crate) mod test_rng {
    pub struct Rng(pub u64);

    impl Rng {
        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        pub fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n
        }
    }
}

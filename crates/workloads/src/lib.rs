//! `gpu-workloads` — the 29 synthetic GPGPU benchmarks (paper Table 2).
//!
//! The paper evaluates CUDA benchmarks from the GPGPU-sim distribution,
//! Rodinia, the CUDA SDK, and Parboil. Those binaries cannot run on a
//! from-scratch Rust simulator, so each benchmark here is a *synthetic
//! equivalent written in our IR* that reproduces the property DAC actually
//! responds to: the benchmark's **address-computation structure** (affine
//! streaming, tiled shared-memory, modulo-mapped, indirect/pointer-chasing,
//! atomic histogramming, …) and its **compute-to-memory balance**. Table 2's
//! compute/memory classification is reproduced by measurement — a benchmark
//! is memory-intensive when perfect memory speeds it up ≥ 1.5× (§5.1.2) —
//! not by fiat.
//!
//! Every workload also carries an output region so the test suite can prove
//! that DAC/CAE/MTA preserve program semantics bit-for-bit.

#![forbid(unsafe_code)]

pub mod kernels;
pub mod runner;
pub mod scenarios;

use simt_ir::{Kernel, LaunchConfig, Program};
use simt_mem::SparseMemory;

pub use kernels::ALL_ABBRS;
pub use runner::{
    classify, gpu_for, run_dac, run_dac_traced, run_design, run_design_traced, run_scenario_design,
    run_scenario_design_traced, BenchRun, Design, ScenarioRun,
};
pub use scenarios::{all_scenarios, scenario, Scenario, ScenarioKernel, ALL_SCENARIOS};

/// Benchmark suite of origin (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// GPGPU-sim distribution.
    GpgpuSim,
    /// Rodinia.
    Rodinia,
    /// CUDA SDK.
    CudaSdk,
    /// Parboil.
    Parboil,
}

impl Suite {
    /// One-letter tag used in Table 2.
    pub fn tag(self) -> char {
        match self {
            Suite::GpgpuSim => 'G',
            Suite::Rodinia => 'R',
            Suite::CudaSdk => 'C',
            Suite::Parboil => 'P',
        }
    }
}

/// The paper's classification (Table 2), used to check our measured split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperClass {
    /// Compute-intensive in Table 2.
    Compute,
    /// Memory-intensive in Table 2.
    Memory,
}

/// A fully-specified benchmark instance.
#[derive(Clone)]
pub struct Workload {
    /// Full name (Table 2 "Name").
    pub name: &'static str,
    /// Abbreviation (Table 2 "Abbr.").
    pub abbr: &'static str,
    /// Suite of origin.
    pub suite: Suite,
    /// Table 2 classification.
    pub paper_class: PaperClass,
    /// The kernel.
    pub kernel: Kernel,
    /// Launch geometry and parameters.
    pub launch: LaunchConfig,
    /// Initial memory image.
    pub memory: SparseMemory,
    /// Output region `(base, words)` compared across designs for
    /// correctness.
    pub output: (u64, usize),
}

impl Workload {
    /// The program (validated kernel + launch).
    ///
    /// # Panics
    ///
    /// Panics if the kernel is malformed — workload constructors are tested.
    pub fn program(&self) -> Program {
        Program::new(self.kernel.clone(), self.launch.clone()).expect("invalid workload")
    }

    /// A fresh copy of the initial memory image.
    pub fn fresh_memory(&self) -> SparseMemory {
        self.memory.clone()
    }
}

/// Build every benchmark at `scale` (1 = the default evaluation size; the
/// harness uses larger scales for longer, more stable runs).
pub fn all_benchmarks(scale: u32) -> Vec<Workload> {
    kernels::all(scale)
}

/// Look up one benchmark by abbreviation (case-insensitive).
pub fn benchmark(abbr: &str, scale: u32) -> Option<Workload> {
    kernels::by_abbr(abbr, scale)
}

/// The eight divergence-stress workloads promoted from the fuzz corpus —
/// a validation suite, deliberately *not* part of [`all_benchmarks`] (the
/// 29-benchmark registry mirrors the paper's Table 2).
pub fn divergence_stress() -> Vec<Workload> {
    kernels::stress::divergence_stress()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is one table: `ALL_ABBRS` is Table 2 (compute first),
    /// `all_benchmarks` builds it in that order, and `benchmark` builds the
    /// same workload `all_benchmarks` does, under any spelling.
    #[test]
    fn registry_is_table_2_and_lookup_matches_the_suite() {
        const TABLE_2: [&str; 29] = [
            "CP", "STO", "AES", "MQ", "TP", "FFT", "BP", "SR1", "HS", "PF", "BS", "LIB", "SG",
            "ST", "IMG", "HI", "LBM", "SPV", "BT", "LUD", "SR2", "SC", "KM", "BFS", "CFD", "MC",
            "MT", "SP", "CS",
        ];
        assert_eq!(ALL_ABBRS, TABLE_2);
        for scale in [1, 2] {
            let all = all_benchmarks(scale);
            assert_eq!(all.iter().map(|w| w.abbr).collect::<Vec<_>>(), TABLE_2);
            for (abbr, entry) in TABLE_2.iter().zip(&all) {
                for spelling in [abbr.to_string(), abbr.to_lowercase()] {
                    let one = benchmark(&spelling, scale)
                        .unwrap_or_else(|| panic!("{spelling} not found at scale {scale}"));
                    let what = format!("{spelling} at scale {scale}");
                    assert_eq!(one.abbr, entry.abbr, "{what}");
                    assert_eq!(one.kernel, entry.kernel, "{what}");
                    assert_eq!(one.launch, entry.launch, "{what}");
                    assert_eq!(one.output, entry.output, "{what}");
                    assert!(one.memory == entry.memory, "{what}: memory image");
                }
            }
        }
    }

    #[test]
    fn all_kernels_validate() {
        for w in all_benchmarks(1) {
            w.kernel
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", w.abbr));
            assert_eq!(
                w.launch.params.len(),
                w.kernel.num_params as usize,
                "{}: param count",
                w.abbr
            );
            assert!(w.output.1 > 0, "{}: empty output region", w.abbr);
        }
    }

    #[test]
    fn paper_split_is_11_and_18() {
        let all = all_benchmarks(1);
        let compute = all
            .iter()
            .filter(|w| w.paper_class == PaperClass::Compute)
            .count();
        assert_eq!(compute, 11);
        assert_eq!(all.len() - compute, 18);
    }

    #[test]
    fn lookup_by_abbr() {
        assert!(benchmark("bfs", 1).is_some());
        assert!(benchmark("CP", 1).is_some());
        assert!(benchmark("nope", 1).is_none());
    }
}

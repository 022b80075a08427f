//! Divergence-stress workloads promoted from the `simt-fuzz` corpus.
//!
//! Each kernel was found by the differential fuzzer (seed 1 of generator
//! version 1) and frozen here as `.asm` text so the stress suite does not
//! depend on the generator staying bit-stable. The eight cover the axes the
//! fuzzer is biased toward — affine streaming, nested/irregular divergence,
//! switch-heavy control flow, partial warps, atomic pressure — and were
//! picked so the four designs react *differently*: two are strong DAC wins,
//! two are DAC degradations, and the rest are neutral stress.
//!
//! They deliberately live outside [`crate::kernels::all`]: the 29-benchmark
//! registry reproduces the paper's Table 2, while this set exists for
//! validation (pinned in `results/pins/counters.txt`, and the
//! affine-coverage table in EXPERIMENTS.md).

use super::{SplitMix64, ARR_A, ARR_B, ARR_C};
use crate::{PaperClass, Suite, Workload};
use simt_ir::LaunchConfig;
use simt_mem::SparseMemory;

/// Words in each read-only input array — matches the fuzzer's `A_WORDS`.
const A_WORDS: u64 = 4096;
/// Atomic slots after the per-thread output words.
const SLOTS: u64 = 8;
/// The fuzzer seeds its memory image from `seed ^ MEM_SEED_XOR`; the frozen
/// kernels all come from seed 1, so the image replicates exactly.
const MEM_SEED: u64 = 1 ^ 0x5EED_F00D_D00F_DEE5;

struct Frozen {
    name: &'static str,
    abbr: &'static str,
    asm: &'static str,
    grid: u32,
    block: u32,
}

/// The frozen corpus: (generator index, launch geometry, character).
const FROZEN: [Frozen; 8] = [
    Frozen {
        name: "stress: switch-heavy decoupled streams (fz5)",
        abbr: "FZS05",
        asm: include_str!("stress/fz5.asm"),
        grid: 2,
        block: 64,
    },
    Frozen {
        name: "stress: affine loop, strong DAC win (fz7)",
        abbr: "FZS07",
        asm: include_str!("stress/fz7.asm"),
        grid: 2,
        block: 32,
    },
    Frozen {
        name: "stress: switch-dense, DAC degradation (fz11)",
        abbr: "FZS11",
        asm: include_str!("stress/fz11.asm"),
        grid: 3,
        block: 32,
    },
    Frozen {
        name: "stress: deeply nested divergence, affine-free (fz12)",
        abbr: "FZS12",
        asm: include_str!("stress/fz12.asm"),
        grid: 2,
        block: 64,
    },
    Frozen {
        name: "stress: ragged partial warp, pure affine (fz22)",
        abbr: "FZS22",
        asm: include_str!("stress/fz22.asm"),
        grid: 1,
        block: 11,
    },
    Frozen {
        name: "stress: irregular loop nest, long-running (fz66)",
        abbr: "FZS66",
        asm: include_str!("stress/fz66.asm"),
        grid: 1,
        block: 82,
    },
    Frozen {
        name: "stress: atomic chain, DAC degradation (fz77)",
        abbr: "FZS77",
        asm: include_str!("stress/fz77.asm"),
        grid: 1,
        block: 64,
    },
    Frozen {
        name: "stress: mixed atomics/switch/if, partial warps (fz85)",
        abbr: "FZS85",
        asm: include_str!("stress/fz85.asm"),
        grid: 3,
        block: 48,
    },
];

/// Build the eight divergence-stress workloads (fixed-size repros; no scale
/// knob — the geometry is part of each kernel's identity).
pub fn divergence_stress() -> Vec<Workload> {
    // One shared memory image: all frozen kernels come from the same
    // generator seed, so their input arrays and atomic-slot inits agree.
    FROZEN
        .iter()
        .map(|f| {
            let kernel = simt_ir::asm::parse_kernel(f.asm)
                .unwrap_or_else(|e| panic!("{}: frozen asm failed to parse: {e}", f.abbr));
            let threads = f.grid as u64 * f.block as u64;
            let d_base = ARR_C + threads * 4;
            let mut memory = SparseMemory::new();
            let mut rng = SplitMix64::new(MEM_SEED);
            for i in 0..A_WORDS {
                memory.write_u32(ARR_A + i * 4, rng.next_u64() as u32);
            }
            for i in 0..A_WORDS {
                memory.write_u32(ARR_B + i * 4, rng.next_u64() as u32);
            }
            for s in 0..SLOTS {
                memory.write_u32(d_base + s * 4, (rng.next_u64() & 0x3FFF_FFFF) as u32);
            }
            Workload {
                name: f.name,
                abbr: f.abbr,
                suite: Suite::GpgpuSim,
                paper_class: PaperClass::Compute,
                kernel,
                launch: LaunchConfig::linear(f.grid, f.block, vec![ARR_A, ARR_B, ARR_C, d_base]),
                memory,
                output: (ARR_C, (threads + SLOTS) as usize),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frozen_corpus_parses_and_validates() {
        let all = divergence_stress();
        assert_eq!(all.len(), 8);
        for w in &all {
            w.kernel
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", w.abbr));
            assert_eq!(w.launch.params.len(), w.kernel.num_params as usize);
            assert!(w.output.1 > 0);
        }
        // Abbreviations are unique and disjoint from the Table 2 registry.
        for w in &all {
            assert!(crate::benchmark(w.abbr, 1).is_none(), "{} collides", w.abbr);
        }
    }
}

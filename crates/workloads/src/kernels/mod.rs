//! The 29 benchmark kernels, plus shared construction helpers.

pub mod compute;
pub mod memory;
pub mod stress;

use crate::Workload;
use simt_ir::{KernelBuilder, Op, Operand, RegId};
use simt_mem::SparseMemory;

/// Deterministic SplitMix64 stream (Steele et al.), used for input
/// generation so the crate needs no external PRNG: the build environment is
/// offline, and the exact stream is pinned in `results/pins/counters.txt`.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeded generator; equal seeds yield equal streams forever.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (n > 0). Multiply-shift keeps it unbiased enough
    /// for synthetic inputs while staying branch-free and portable.
    pub fn below(&mut self, n: u32) -> u32 {
        ((self.next_u64() >> 32).wrapping_mul(n as u64) >> 32) as u32
    }

    /// Uniform `f32` in `[lo, hi)`.
    pub fn f32_range(&mut self, lo: f32, hi: f32) -> f32 {
        let unit = (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        lo + unit * (hi - lo)
    }
}

/// Standard array base addresses, 16 MiB apart.
pub const ARR_A: u64 = 0x0100_0000;
/// Second array.
pub const ARR_B: u64 = 0x0200_0000;
/// Third array.
pub const ARR_C: u64 = 0x0300_0000;
/// Fourth array.
pub const ARR_D: u64 = 0x0400_0000;

/// Builds one benchmark at a scale.
type Constructor = fn(u32) -> Workload;

/// Table 2 in order (compute-intensive first): abbreviation →
/// constructor. The one list [`ALL_ABBRS`], [`all`] and [`by_abbr`] derive
/// from.
const REGISTRY: [(&str, Constructor); 29] = [
    // Compute-intensive (11).
    ("CP", compute::cp),
    ("STO", compute::sto),
    ("AES", compute::aes),
    ("MQ", compute::mq),
    ("TP", compute::tp),
    ("FFT", compute::fft),
    ("BP", compute::bp),
    ("SR1", compute::sr1),
    ("HS", compute::hs),
    ("PF", compute::pf),
    ("BS", compute::bs),
    // Memory-intensive (18).
    ("LIB", memory::lib),
    ("SG", memory::sg),
    ("ST", memory::st),
    ("IMG", memory::img),
    ("HI", memory::hi),
    ("LBM", memory::lbm),
    ("SPV", memory::spv),
    ("BT", memory::bt),
    ("LUD", memory::lud),
    ("SR2", memory::sr2),
    ("SC", memory::sc),
    ("KM", memory::km),
    ("BFS", memory::bfs),
    ("CFD", memory::cfd),
    ("MC", memory::mc),
    ("MT", memory::mt),
    ("SP", memory::sp),
    ("CS", memory::cs),
];

/// Abbreviations of all 29 benchmarks in Table 2 order
/// (compute-intensive first).
pub const ALL_ABBRS: [&str; REGISTRY.len()] = {
    let mut abbrs = [""; REGISTRY.len()];
    let mut i = 0;
    while i < abbrs.len() {
        abbrs[i] = REGISTRY[i].0;
        i += 1;
    }
    abbrs
};

/// Build every benchmark at `scale`.
pub fn all(scale: u32) -> Vec<Workload> {
    REGISTRY.iter().map(|(_, build)| build(scale)).collect()
}

/// Build the one benchmark `abbr` names (case-insensitive), and only it.
pub fn by_abbr(abbr: &str, scale: u32) -> Option<Workload> {
    let (_, build) = REGISTRY
        .iter()
        .find(|(a, _)| a.eq_ignore_ascii_case(abbr))?;
    Some(build(scale))
}

/// Emit `tid = ctaid.x * ntid.x + tid.x` plus the guarded byte address
/// `base_param + (tid << shift)`.
pub(crate) fn tid_elem_addr(b: &mut KernelBuilder, param: u16, shift: i64) -> (RegId, RegId) {
    let tid = b.tid_linear_x();
    let off = b.alu2(Op::Shl, Operand::Reg(tid), Operand::Imm(shift));
    let addr = b.alu2(Op::Add, Operand::Param(param), Operand::Reg(off));
    (tid, addr)
}

/// Deterministic pseudo-random `f32` inputs in (lo, hi).
pub(crate) fn init_f32(mem: &mut SparseMemory, base: u64, n: usize, seed: u64, lo: f32, hi: f32) {
    let mut rng = SplitMix64::new(seed);
    let data: Vec<f32> = (0..n).map(|_| rng.f32_range(lo, hi)).collect();
    mem.write_f32_slice(base, &data);
}

/// Deterministic pseudo-random `u32` inputs in `[0, modulo)`.
pub(crate) fn init_u32(mem: &mut SparseMemory, base: u64, n: usize, seed: u64, modulo: u32) {
    let mut rng = SplitMix64::new(seed);
    let data: Vec<u32> = (0..n).map(|_| rng.below(modulo)).collect();
    mem.write_u32_slice(base, &data);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_helpers_are_deterministic() {
        let mut m1 = SparseMemory::new();
        let mut m2 = SparseMemory::new();
        init_f32(&mut m1, 0x1000, 64, 42, -1.0, 1.0);
        init_f32(&mut m2, 0x1000, 64, 42, -1.0, 1.0);
        assert_eq!(m1.read_u32_vec(0x1000, 64), m2.read_u32_vec(0x1000, 64));
        init_u32(&mut m1, 0x9000, 16, 7, 100);
        for v in m1.read_u32_vec(0x9000, 16) {
            assert!(v < 100);
        }
    }
}

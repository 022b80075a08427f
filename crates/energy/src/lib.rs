//! `gpu-energy` — a GPUWattch-style event-based energy model and a
//! CACTI-style area model for DAC's added hardware (paper §4.8, §5.6).
//!
//! The simulator counts events (lane-level ALU ops, register-file accesses,
//! cache and DRAM accesses, DAC queue traffic); this crate converts them to
//! energy with per-event constants. The constants are plausible 40 nm-class
//! values — Figure 21 is a *relative* comparison, so only the ratios between
//! components matter, and those are dominated by the event counts the
//! simulator measures exactly. DAC's added-SRAM energies are the paper's
//! Table 1 numbers.

#![forbid(unsafe_code)]

use simt_sim::SimStats;

/// Per-event energy constants in picojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// One integer/float ALU lane-operation.
    pub alu_pj: f64,
    /// One SFU (transcendental) lane-operation.
    pub sfu_pj: f64,
    /// One register-file lane access (read or write).
    pub regfile_pj: f64,
    /// Front-end overhead per warp instruction (fetch/decode/schedule).
    pub issue_pj: f64,
    /// One L1 access (demand hit or miss probe).
    pub l1_pj: f64,
    /// One shared-memory warp access.
    pub shared_pj: f64,
    /// One L2 access.
    pub l2_pj: f64,
    /// One DRAM line transfer.
    pub dram_pj: f64,
    /// DAC Affine Tuple Queue access (Table 1: 5.3 pJ).
    pub atq_pj: f64,
    /// DAC Per-Warp Address Queue access (Table 1: 3.4 pJ).
    pub pwaq_pj: f64,
    /// DAC Per-Warp Predicate Queue access (Table 1: 1.5 pJ).
    pub pwpq_pj: f64,
    /// DAC Per-Warp Stack access (Table 1: 2.7 pJ).
    pub pws_pj: f64,
    /// Whole-GPU static energy per cycle.
    pub static_pj_per_cycle: f64,
}

impl EnergyModel {
    /// The model used throughout the reproduction.
    pub fn gtx480() -> Self {
        EnergyModel {
            alu_pj: 7.0,
            sfu_pj: 30.0,
            regfile_pj: 2.8,
            issue_pj: 250.0,
            l1_pj: 160.0,
            shared_pj: 110.0,
            l2_pj: 320.0,
            dram_pj: 4600.0,
            atq_pj: 5.3,
            pwaq_pj: 3.4,
            pwpq_pj: 1.5,
            pws_pj: 2.7,
            static_pj_per_cycle: 35_000.0,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::gtx480()
    }
}

/// Energy totals by component, in picojoules (Figure 21's stack).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// ALU + SFU dynamic energy.
    pub alu: f64,
    /// Register-file dynamic energy.
    pub regfile: f64,
    /// Other dynamic energy (front end, caches, DRAM).
    pub other_dynamic: f64,
    /// DAC's added-hardware overhead (queues, expansion, stacks).
    pub dac_overhead: f64,
    /// Leakage over the run.
    pub static_: f64,
}

impl EnergyBreakdown {
    /// Total energy.
    pub fn total(&self) -> f64 {
        self.alu + self.regfile + self.other_dynamic + self.dac_overhead + self.static_
    }

    /// Dynamic energy only.
    pub fn dynamic(&self) -> f64 {
        self.total() - self.static_
    }
}

/// Convert a run's statistics into an energy breakdown.
pub fn energy_of(report: &simt_sim::SimReport, model: &EnergyModel) -> EnergyBreakdown {
    let s: &SimStats = &report.stats;
    let m = &report.mem;
    let alu = s.alu_lane_ops as f64 * model.alu_pj + s.sfu_lane_ops as f64 * model.sfu_pj;
    let regfile = s.regfile_accesses as f64 * model.regfile_pj;
    let issue = s.total_instructions() as f64 * model.issue_pj;
    let l1 = (m.l1_hits + m.l1_misses + m.pbuf_hits + m.pbuf_fills) as f64 * model.l1_pj;
    let shared = s.shared_accesses as f64 * model.shared_pj;
    let l2 = (m.l2_hits + m.l2_misses) as f64 * model.l2_pj;
    let dram = m.dram_serviced as f64 * model.dram_pj;
    let other_dynamic = issue + l1 + shared + l2 + dram;
    // DAC overhead: every enqueue touches the ATQ; every expansion writes a
    // per-warp queue and the consumer reads it (×2); stack traffic per
    // expansion-unit record. Affine-warp instructions carry half the
    // front-end cost of a full warp instruction (no 32-lane operand reads).
    let dac_overhead = s.aeu_records as f64 * (model.atq_pj + 2.0 * model.pwaq_pj + model.pws_pj)
        + s.peu_records as f64 * (model.atq_pj + 2.0 * model.pwpq_pj)
        + s.affine_instructions as f64 * model.issue_pj * 0.5;
    let static_ = report.cycles as f64 * model.static_pj_per_cycle;
    EnergyBreakdown {
        alu,
        regfile,
        other_dynamic,
        dac_overhead,
        static_,
    }
}

/// CACTI/GPUWattch-style area estimate for DAC's additions (paper §4.8).
pub mod area {
    /// Per-SM SRAM added by DAC, in bytes (Table 1 + §4.8: ATQ 392 B,
    /// PWAQ 1560 B, PWPQ 768 B, Affine SIMT Stack 224 + 1536 B, DCRF
    /// mirror 1760 B ≈ 6 KB).
    pub const SRAM_BYTES_PER_SM: u64 = 392 + 1560 + 768 + 224 + 1536 + 1760;

    /// Estimated SRAM area per SM in mm² (the paper's CACTI result).
    pub const SRAM_MM2_PER_SM: f64 = 0.21;

    /// Estimated area of the two expansion-unit ALUs per SM in mm²
    /// (GPUWattch model, §4.8).
    pub const ALU_MM2_PER_SM: f64 = 0.16;

    /// GTX 480 die size in mm² \[10\].
    pub const GTX480_DIE_MM2: f64 = 520.0;

    /// Total DAC area for `num_sms` SMs, in mm².
    pub fn dac_area_mm2(num_sms: usize) -> f64 {
        num_sms as f64 * (SRAM_MM2_PER_SM + ALU_MM2_PER_SM)
    }

    /// DAC area as a fraction of the GTX 480 die (paper: 1.06 %).
    pub fn dac_area_overhead(num_sms: usize) -> f64 {
        dac_area_mm2(num_sms) / GTX480_DIE_MM2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_mem::MemStats;
    use simt_sim::{SimReport, SimStats};

    fn report(cycles: u64, stats: SimStats, mem: MemStats) -> SimReport {
        SimReport {
            kernel: "t".into(),
            coproc: "baseline".into(),
            cycles,
            stats,
            mem,
        }
    }

    #[test]
    fn fewer_instructions_means_less_energy() {
        let a = SimStats {
            warp_instructions: 1000,
            alu_lane_ops: 32_000,
            regfile_accesses: 96_000,
            ..Default::default()
        };
        let b = SimStats {
            warp_instructions: 700,
            alu_lane_ops: 20_000,
            regfile_accesses: 60_000,
            ..Default::default()
        };
        let m = EnergyModel::gtx480();
        let ea = energy_of(&report(10_000, a, MemStats::default()), &m);
        let eb = energy_of(&report(8_000, b, MemStats::default()), &m);
        assert!(eb.total() < ea.total());
        assert!(eb.static_ < ea.static_, "shorter runs save leakage");
    }

    #[test]
    fn dac_overhead_is_small() {
        // A DAC run with realistic proportions: overhead ≈ 1% of dynamic.
        let s = SimStats {
            warp_instructions: 100_000,
            affine_instructions: 5_000,
            alu_lane_ops: 2_000_000,
            regfile_accesses: 6_000_000,
            aeu_records: 10_000,
            peu_records: 5_000,
            ..Default::default()
        };
        let mem = MemStats {
            l1_hits: 50_000,
            l1_misses: 10_000,
            l2_hits: 5_000,
            l2_misses: 5_000,
            dram_serviced: 5_000,
            ..Default::default()
        };
        let e = energy_of(&report(200_000, s, mem), &EnergyModel::gtx480());
        let frac = e.dac_overhead / e.dynamic();
        assert!(frac < 0.05, "overhead fraction {frac}");
        assert!(frac > 0.0);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // documents the SRAM budget
    fn area_overhead_matches_paper() {
        let f = area::dac_area_overhead(15);
        assert!((f - 0.0106).abs() < 0.0005, "area fraction {f}");
        assert!(area::SRAM_BYTES_PER_SM < 8 * 1024, "≈6 KB per SM");
    }

    #[test]
    fn breakdown_totals_are_consistent() {
        let e = EnergyBreakdown {
            alu: 1.0,
            regfile: 2.0,
            other_dynamic: 3.0,
            dac_overhead: 0.5,
            static_: 4.0,
        };
        assert_eq!(e.total(), 10.5);
        assert_eq!(e.dynamic(), 6.5);
    }
}

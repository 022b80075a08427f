//! GPU core configuration (Table 1 of the paper).

use simt_mem::MemConfig;

/// Core-side configuration. Memory-system parameters live in
/// [`MemConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: usize,
    /// Maximum resident CTAs per SM.
    pub max_ctas_per_sm: usize,
    /// SIMT lanes per SM.
    pub lanes: usize,
    /// Warp schedulers per SM (each owns `lanes / schedulers` lanes).
    pub schedulers: usize,
    /// Active-pool size per scheduler (two-level scheduling).
    pub active_pool: usize,
    /// Cycles a normal 32-thread warp instruction occupies its scheduler
    /// (32 threads over 16 lanes ⇒ 2 on Fermi).
    pub issue_interval: u64,
    /// Integer/float ALU writeback latency.
    pub alu_latency: u64,
    /// Special-function-unit (transcendental) latency.
    pub sfu_latency: u64,
    /// Shared-memory access latency (no bank-conflict model; see DESIGN.md).
    pub shared_latency: u64,
    /// Shared memory capacity per SM (bounds concurrent CTAs).
    pub shared_mem_per_sm: u32,
    /// 32-bit registers in the SM register file (bounds concurrent CTAs
    /// by `threads_per_cta * regs_per_thread`; 32 K = 128 KB on Fermi).
    pub regfile_per_sm: u32,
    /// Outstanding memory transactions the per-SM LSU queue can hold.
    pub lsu_queue: usize,
    /// Hard cap on simulated cycles (deadlock guard).
    pub max_cycles: u64,
    /// The memory hierarchy.
    pub mem: MemConfig,
}

impl GpuConfig {
    /// The paper's baseline: Fermi GTX 480 (Table 1) — 15 SMs, 48 warps/SM,
    /// 32 lanes, 2 schedulers, two-level active scheduling.
    pub fn gtx480() -> Self {
        GpuConfig {
            num_sms: 15,
            max_warps_per_sm: 48,
            max_ctas_per_sm: 8,
            lanes: 32,
            schedulers: 2,
            active_pool: 8,
            issue_interval: 2,
            alu_latency: 8,
            sfu_latency: 20,
            shared_latency: 24,
            shared_mem_per_sm: 48 * 1024,
            regfile_per_sm: 32 * 1024,
            lsu_queue: 16,
            max_cycles: 200_000_000,
            mem: MemConfig::gtx480(),
        }
    }

    /// A small configuration for fast unit tests: 2 SMs, 16 warps.
    pub fn test_small() -> Self {
        GpuConfig {
            num_sms: 2,
            max_warps_per_sm: 16,
            max_ctas_per_sm: 4,
            max_cycles: 5_000_000,
            ..Self::gtx480()
        }
    }

    /// Baseline with a perfect memory system (compute/memory
    /// classification, §5.1.2).
    pub fn gtx480_perfect_mem() -> Self {
        GpuConfig {
            mem: MemConfig::perfect(),
            ..Self::gtx480()
        }
    }

    /// Threads per warp (fixed at 32 — the IR's masks are `u32`).
    pub const WARP_SIZE: usize = 32;
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::gtx480()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gtx480_matches_table1() {
        let c = GpuConfig::gtx480();
        assert_eq!(c.num_sms, 15);
        assert_eq!(c.max_warps_per_sm, 48);
        assert_eq!(c.lanes, 32);
        assert_eq!(c.schedulers, 2);
        assert_eq!(c.mem.l1_size, 48 * 1024);
        assert_eq!(c.mem.num_partitions, 6);
        assert_eq!(c.regfile_per_sm, 32 * 1024);
    }

    #[test]
    fn issue_interval_models_16_wide_pipes() {
        assert_eq!(GpuConfig::gtx480().issue_interval, 2);
    }
}

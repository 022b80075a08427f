//! Memory-system configuration.

/// Geometry and timing of the whole memory hierarchy (core-clock cycles).
///
/// Defaults model the paper's baseline GTX 480 (Table 1): 48 KB 4-way L1
/// per SM with 32 MSHRs, a 768 KB 8-way L2 in 6 partitions, and GDDR5-class
/// DRAM behind each partition. `gtx480(num_sms)` is the canonical
/// constructor.
#[derive(Debug, Clone, PartialEq)]
pub struct MemConfig {
    /// Cache line size in bytes (128 on Fermi).
    pub line_bytes: u64,
    /// L1 data cache size per SM.
    pub l1_size: u64,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L1 hit latency (cycles from issue to data).
    pub l1_hit_latency: u64,
    /// MSHR entries per L1.
    pub mshr_entries: usize,
    /// Merged requests per MSHR entry.
    pub mshr_merge: usize,
    /// Number of L2 partitions (address-interleaved by line).
    pub num_partitions: usize,
    /// L2 size per partition.
    pub l2_size_per_partition: u64,
    /// L2 associativity.
    pub l2_ways: usize,
    /// One-way interconnect latency SM → partition.
    pub icnt_latency: u64,
    /// L2 lookup latency.
    pub l2_latency: u64,
    /// Request-queue capacity at each partition.
    pub l2_queue: usize,
    /// DRAM banks per partition.
    pub dram_banks: usize,
    /// Row-buffer reach in bytes (per bank).
    pub dram_row_bytes: u64,
    /// Latency of a row-buffer hit.
    pub dram_row_hit_latency: u64,
    /// Latency of a row-buffer miss (precharge + activate + CAS).
    pub dram_row_miss_latency: u64,
    /// Bank occupancy of a row hit (tCCD-class).
    pub dram_row_hit_busy: u64,
    /// Bank occupancy of a row miss (tRC-class).
    pub dram_row_miss_busy: u64,
    /// Data-bus occupancy per request (bandwidth cap: one 128 B line per
    /// `dram_burst_cycles` per partition).
    pub dram_burst_cycles: u64,
    /// DRAM command-queue capacity per partition.
    pub dram_queue: usize,
    /// Per-SM MTA prefetch buffer size (0 = none). The paper grants MTA a
    /// dedicated 16 KB buffer per SM in addition to the L1.
    pub prefetch_buffer_size: u64,
    /// Prefetch-buffer hit latency.
    pub prefetch_buffer_latency: u64,
    /// Perfect-memory mode: every access completes in
    /// `perfect_latency` cycles with no bandwidth limits (used for the
    /// Table 2 compute/memory classification).
    pub perfect: bool,
    /// Latency used in perfect mode.
    pub perfect_latency: u64,
}

impl MemConfig {
    /// The baseline GTX 480 memory system from Table 1.
    pub fn gtx480() -> Self {
        MemConfig {
            line_bytes: 128,
            l1_size: 48 * 1024,
            l1_ways: 4,
            l1_hit_latency: 28,
            mshr_entries: 32,
            mshr_merge: 8,
            num_partitions: 6,
            l2_size_per_partition: 128 * 1024,
            l2_ways: 8,
            icnt_latency: 60,
            l2_latency: 50,
            l2_queue: 16,
            dram_banks: 8,
            dram_row_bytes: 2048,
            dram_row_hit_latency: 60,
            dram_row_miss_latency: 130,
            dram_row_hit_busy: 12,
            dram_row_miss_busy: 56,
            dram_burst_cycles: 4,
            dram_queue: 32,
            prefetch_buffer_size: 0,
            prefetch_buffer_latency: 28,
            perfect: false,
            perfect_latency: 1,
        }
    }

    /// Baseline plus the MTA prefetch buffer (16 KB/SM, Table 1).
    pub fn gtx480_with_prefetch_buffer() -> Self {
        MemConfig {
            prefetch_buffer_size: 16 * 1024,
            ..Self::gtx480()
        }
    }

    /// Perfect memory (no latency, unlimited bandwidth) — used to classify
    /// benchmarks as compute- vs memory-intensive (paper §5.1.2).
    pub fn perfect() -> Self {
        MemConfig {
            perfect: true,
            ..Self::gtx480()
        }
    }

    /// The L2 partition servicing `line` (interleaved by line address).
    #[inline]
    pub fn partition_of(&self, line: u64) -> usize {
        ((line / self.line_bytes) % self.num_partitions as u64) as usize
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        Self::gtx480()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gtx480_geometry() {
        let c = MemConfig::gtx480();
        assert_eq!(c.l1_size / c.line_bytes / c.l1_ways as u64, 96); // 96 sets
        assert_eq!(
            c.num_partitions as u64 * c.l2_size_per_partition,
            768 * 1024
        );
    }

    #[test]
    fn partition_mapping() {
        let c = MemConfig::gtx480();
        assert_eq!(c.partition_of(0), 0);
        assert_eq!(c.partition_of(128), 1);
        assert_eq!(c.partition_of(128 * 6), 0);
    }

    #[test]
    fn perfect_flag() {
        assert!(MemConfig::perfect().perfect);
        assert!(!MemConfig::gtx480().perfect);
    }
}

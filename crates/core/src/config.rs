//! DAC hardware configuration (paper Table 1 and §4.8).

/// Sizes and costs of DAC's added hardware.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DacConfig {
    /// Affine Tuple Queue entries per SM (Table 1: 24).
    pub atq_entries: usize,
    /// Per-Warp Address Queue entries per SM, partitioned among *resident*
    /// warps (Table 1: 192 entries — 4 per warp at the 48-warp maximum).
    pub pwaq_total: usize,
    /// Per-Warp Predicate Queue entries per SM, partitioned like the PWAQ
    /// (Table 1: 192).
    pub pwpq_total: usize,
    /// Lock early-requested lines in L1 (§4.2) — disabling turns early
    /// requests into plain (evictable) requests, an ablation knob.
    pub lock_lines: bool,
}

impl DacConfig {
    /// The paper's configuration.
    pub fn paper() -> Self {
        DacConfig {
            atq_entries: 24,
            pwaq_total: 192,
            pwpq_total: 192,
            lock_lines: true,
        }
    }

    /// Per-warp queue capacity when `resident` warps occupy the SM.
    pub fn per_warp_cap(total: usize, resident: usize) -> usize {
        (total / resident.max(1)).max(1)
    }
}

impl Default for DacConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizes_match_table1() {
        let c = DacConfig::paper();
        assert_eq!(c.atq_entries, 24);
        assert_eq!(c.pwaq_total, 192);
        assert_eq!(c.pwpq_total, 192);
        // At the 48-warp maximum the partition is Table 1's 4 per warp.
        assert_eq!(DacConfig::per_warp_cap(c.pwaq_total, 48), 4);
        assert!(c.lock_lines);
    }

    #[test]
    fn partition_adapts_to_occupancy() {
        assert_eq!(DacConfig::per_warp_cap(192, 16), 12);
        assert_eq!(DacConfig::per_warp_cap(192, 0), 192);
        assert_eq!(DacConfig::per_warp_cap(2, 48), 1);
    }
}

//! Top-down CPI stack: the issue-slot bucket view of a run's `SimStats`.

use simt_sim::SimStats;

/// The top-down issue-slot accounting for one run (or one SM): every
/// scheduler issue slot of every cycle is attributed to exactly one
/// bucket. The invariant `total() == cycles × schedulers × SMs` is
/// asserted by the simulator itself at the end of every run; this type is
/// the reporting view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpiStack {
    buckets: Vec<(&'static str, u64)>,
}

impl CpiStack {
    /// Build the stack from a run's statistics.
    pub fn from_stats(stats: &SimStats) -> Self {
        CpiStack {
            buckets: stats.issue_slot_buckets(),
        }
    }

    /// The buckets as `(name, slots)` pairs in reporting order.
    pub fn buckets(&self) -> &[(&'static str, u64)] {
        &self.buckets
    }

    /// Total issue slots across all buckets.
    pub fn total(&self) -> u64 {
        self.buckets.iter().map(|&(_, v)| v).sum()
    }

    /// One bucket's slot count by name (0 for an unknown name).
    pub fn get(&self, name: &str) -> u64 {
        self.buckets
            .iter()
            .find(|&&(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// One bucket's share of all issue slots, in [0, 1].
    pub fn fraction(&self, name: &str) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(name) as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_reflects_stats() {
        let stats = SimStats {
            cycles: 10,
            slot_issued: 12,
            affine_issue_slots: 3,
            slot_busy: 2,
            slot_scoreboard: 2,
            slot_idle: 1,
            ..Default::default()
        };
        let cpi = CpiStack::from_stats(&stats);
        assert_eq!(cpi.total(), 20);
        assert_eq!(cpi.get("issued"), 12);
        assert_eq!(cpi.get("affine"), 3);
        assert!((cpi.fraction("issued") - 0.6).abs() < 1e-12);
        assert_eq!(cpi.get("nonsense"), 0);
    }
}

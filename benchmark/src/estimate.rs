//! Estimators over slot timings.
//!
//! A run records one time per slot per pass. On a shared host contention
//! only ever adds time, so a slot's cost is its **minimum** over passes and
//! a pass's cost is the **sum of the slot minima** — the pass time with
//! contention removed (README, "Why sum of minima").

/// Times of every slot on every pass, in nanoseconds: `ns[slot][pass]`.
#[derive(Debug, Clone)]
pub struct SlotTable {
    ns: Vec<Vec<u64>>,
}

impl SlotTable {
    pub fn new(slots: usize, passes: usize) -> Self {
        SlotTable {
            ns: vec![Vec::with_capacity(passes); slots],
        }
    }

    pub fn record(&mut self, slot: usize, ns: u64) {
        self.ns[slot].push(ns);
    }

    /// Each slot's minimum over the passes recorded so far.
    pub fn minima(&self) -> Vec<u64> {
        self.ns
            .iter()
            .map(|passes| passes.iter().copied().min().unwrap_or(0))
            .collect()
    }

    /// Σ over slots of the slot minimum, in seconds.
    pub fn sum_of_minima_s(&self) -> f64 {
        self.minima().iter().sum::<u64>() as f64 / 1e9
    }

    /// The wall time of each pass (Σ over slots of that pass's times), in
    /// seconds — what an unfiltered timer would have reported.
    pub fn pass_walls_s(&self) -> Vec<f64> {
        let passes = self.ns.iter().map(Vec::len).min().unwrap_or(0);
        (0..passes)
            .map(|p| self.ns.iter().map(|slot| slot[p]).sum::<u64>() as f64 / 1e9)
            .collect()
    }
}

/// The median of `values` (mean of the two middle values for an even
/// count). Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points of `values`, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so a spread computed here equals the one the driver computes.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Inter-quartile distance as a share of the median — the run-to-run
/// spread the benchmark contract bounds. 0 when it cannot be computed.
pub fn iqr_spread(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some([q1, _, q3]) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(rows: &[&[u64]]) -> SlotTable {
        let mut t = SlotTable::new(rows.len(), rows[0].len());
        for (slot, row) in rows.iter().enumerate() {
            for &ns in *row {
                t.record(slot, ns);
            }
        }
        t
    }

    #[test]
    fn sum_of_minima_removes_additive_noise_per_slot() {
        // Slot 0 is disturbed on pass 0, slot 1 on pass 1: no single pass
        // is clean, but every slot has a clean sample.
        let t = table(&[&[9_000, 1_000, 1_000], &[2_000, 7_000, 2_000]]);
        assert_eq!(t.minima(), vec![1_000, 2_000]);
        assert!((t.sum_of_minima_s() - 3_000e-9).abs() < 1e-15);
        let walls = t.pass_walls_s();
        assert_eq!(walls.len(), 3);
        assert!((walls[0] - 11_000e-9).abs() < 1e-15);
        assert!((walls[2] - 3_000e-9).abs() < 1e-15);
        // The best whole pass is no better than the sum of minima.
        let best = walls.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(best >= t.sum_of_minima_s());
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((iqr_spread(&v) - 1.0).abs() < 1e-12);
    }
}

//! What each workload runs: its slots, pass counts, and what `--seed`
//! decides.
//!
//! The seed never changes the *amount* of work: it shuffles the order
//! slots run in and, on `serve_warm`, which benchmarks the four partial
//! grids name (their sizes are fixed). Runs at different seeds are
//! therefore directly comparable, and the program under test only ever
//! sees the generated jobs and requests.

/// `--seconds` value at which a workload makes its nominal pass count;
/// equals `run_seconds` in `BENCHMARK.json`.
pub const NOMINAL_SECONDS: u32 = 15;

/// One of the four named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ChipCompute,
    ChipMemory,
    SweepSuite,
    ServeWarm,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ChipCompute,
        Workload::ChipMemory,
        Workload::SweepSuite,
        Workload::ServeWarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ChipCompute => "chip_compute",
            Workload::ChipMemory => "chip_memory",
            Workload::SweepSuite => "sweep_suite",
            Workload::ServeWarm => "serve_warm",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Passes of an untraced run at [`NOMINAL_SECONDS`]. Fixed per
    /// workload and never derived from measured speed, so both sides of a
    /// comparison take the same number of samples.
    pub fn nominal_passes(self) -> usize {
        match self {
            Workload::ChipCompute => 5,
            Workload::ChipMemory => 6,
            Workload::SweepSuite => 2,
            Workload::ServeWarm => 60,
        }
    }

    /// How many times the set-up section runs, from scratch each time; the
    /// fastest is reported. Set-up takes milliseconds except on
    /// `serve_warm`, where it simulates 48 points.
    pub fn setup_repeats(self) -> usize {
        match self {
            Workload::ServeWarm => 3,
            _ => 25,
        }
    }

    /// Passes of each kind (reference, decomposed) in a traced run.
    pub fn nominal_traced_passes(self) -> usize {
        match self {
            Workload::ChipCompute | Workload::ChipMemory | Workload::SweepSuite => 1,
            Workload::ServeWarm => 20,
        }
    }

    /// The full-chip benchmarks of the two `chip_*` workloads (Table 2
    /// abbreviations), chosen by measured issue-slot profile: see README.
    pub fn chip_benches(self) -> &'static [&'static str] {
        match self {
            Workload::ChipCompute => &["CP", "AES", "FFT"],
            Workload::ChipMemory => &["BFS", "SPV", "LIB"],
            _ => &[],
        }
    }
}

/// Scale of the `chip_*` workloads; `sweep_suite` and `serve_warm` run the
/// shipped evaluation size, scale 1.
pub const CHIP_SCALE: u32 = 2;

/// The 12 Table 2 benchmarks that are cheapest to simulate at scale 1 on
/// the default machine — what `serve_warm` populates its store with, so
/// that set-up stays short while the served artifacts are real ones.
pub const SERVE_BENCHES: [&str; 12] = [
    "MC", "KM", "LBM", "SP", "HI", "LUD", "CFD", "SC", "SR1", "BT", "HS", "SPV",
];

/// Benchmarks named by each of the five `serve_warm` grids. The first is
/// the whole store, so the union (and with it the number of store reads
/// per pass) is the same at every seed.
pub const SERVE_GRID_SIZES: [usize; 5] = [12, 8, 6, 6, 4];

/// Requests of each kind among the 60 read-only `serve_warm` requests.
pub const SERVE_READS_PER_ROUTE: usize = 20;

/// Scale a nominal pass count to `--seconds`, keeping at least `floor`.
pub fn scaled_passes(nominal: usize, seconds: u32, floor: usize) -> usize {
    let scaled =
        (nominal as u64 * seconds as u64 + NOMINAL_SECONDS as u64 / 2) / NOMINAL_SECONDS as u64;
    (scaled as usize).max(floor)
}

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` ≥ 1); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The order in which a pass runs `slots` independent slots at `seed`.
pub fn slot_order(slots: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..slots).collect();
    Rng::new(seed).shuffle(&mut order);
    order
}

/// The benchmark lists of the five `serve_warm` grids at `seed`: the full
/// store first, then four seeded subsets of [`SERVE_GRID_SIZES`].
pub fn serve_grids(seed: u64) -> Vec<Vec<&'static str>> {
    let mut rng = Rng::new(seed ^ 0x5e27_e5ee_d000_0001);
    SERVE_GRID_SIZES
        .iter()
        .map(|&size| {
            let mut pool = SERVE_BENCHES.to_vec();
            if size < pool.len() {
                rng.shuffle(&mut pool);
                pool.truncate(size);
            }
            pool
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_fixes_slot_order_and_grid_subsets() {
        assert_eq!(slot_order(128, 5), slot_order(128, 5));
        assert_ne!(slot_order(128, 5), slot_order(128, 6));
        let mut sorted = slot_order(128, 5);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..128).collect::<Vec<_>>());

        assert_eq!(serve_grids(3), serve_grids(3));
        assert_ne!(serve_grids(3), serve_grids(4));
    }

    #[test]
    fn grid_sizes_do_not_depend_on_the_seed() {
        for seed in 0..20 {
            let grids = serve_grids(seed);
            let sizes: Vec<usize> = grids.iter().map(Vec::len).collect();
            assert_eq!(sizes, SERVE_GRID_SIZES);
            assert_eq!(grids[0], SERVE_BENCHES);
            for grid in &grids {
                let mut names = grid.clone();
                names.sort_unstable();
                names.dedup();
                assert_eq!(names.len(), grid.len(), "no benchmark named twice");
                assert!(grid.iter().all(|b| SERVE_BENCHES.contains(b)));
            }
        }
    }

    #[test]
    fn passes_scale_with_seconds_not_with_speed() {
        assert_eq!(scaled_passes(5, NOMINAL_SECONDS, 2), 5);
        assert_eq!(scaled_passes(5, NOMINAL_SECONDS * 2, 2), 10);
        assert_eq!(scaled_passes(5, 1, 2), 2);
        assert_eq!(scaled_passes(1, 1, 1), 1);
        for name in ["chip_compute", "chip_memory", "sweep_suite", "serve_warm"] {
            assert_eq!(Workload::parse(name).map(Workload::name), Some(name));
        }
        assert_eq!(Workload::parse("chip"), None);
    }
}

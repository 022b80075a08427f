//! `dac-bench` — the evaluation front end: turns benchmarks into
//! [`simt_harness`] jobs, runs them (in parallel, cached), and derives each
//! table and figure of the paper from the results (see EXPERIMENTS.md for
//! the index).

#![forbid(unsafe_code)]

pub mod cli;

use affine::AffineAnalysis;
use gpu_energy::{energy_of, EnergyBreakdown, EnergyModel};
use gpu_workloads::{Design, Workload};
use simt_harness::{DesignPoint, Harness, Job, JobResult, Overrides};
use simt_sim::SimReport;
use std::sync::Arc;

/// Perfect-memory speedup at or above which a benchmark counts as
/// memory-intensive (§5.1.2).
pub const MEMORY_INTENSIVE_THRESHOLD: f64 = 1.5;

/// Everything measured for one benchmark: the four hardware designs plus
/// the perfect-memory classification run.
pub struct FullRow {
    /// Benchmark abbreviation.
    pub abbr: &'static str,
    /// Full name.
    pub name: &'static str,
    /// Suite tag (Table 2).
    pub suite: char,
    /// Measured: memory-intensive under the perfect-memory test (§5.1.2).
    pub memory_intensive: bool,
    /// Perfect-memory speedup used for the classification.
    pub perfect_speedup: f64,
    /// Static instruction mix (Figure 6).
    pub mix: affine::StaticMix,
    /// Results per hardware design, in [`Design::ALL`] order.
    pub results: Vec<JobResult>,
}

impl FullRow {
    /// The report for design `d`.
    pub fn report(&self, d: Design) -> &SimReport {
        let idx = Design::ALL.iter().position(|&x| x == d).unwrap();
        &self.results[idx].report
    }

    /// Speedup of `d` over the baseline.
    pub fn speedup(&self, d: Design) -> f64 {
        self.report(Design::Baseline).cycles as f64 / self.report(d).cycles as f64
    }

    /// DAC's warp-instruction count normalized to baseline, split into
    /// (non-affine, affine) components (Figure 17).
    pub fn instr_ratio(&self) -> (f64, f64) {
        let base = self.report(Design::Baseline).stats.warp_instructions as f64;
        let dac = &self.report(Design::Dac).stats;
        (
            dac.warp_instructions as f64 / base,
            dac.affine_instructions as f64 / base,
        )
    }

    /// DAC's dynamic affine coverage: the fraction of baseline warp
    /// instructions eliminated by decoupling (Figure 18).
    pub fn dac_coverage(&self) -> f64 {
        let base = self.report(Design::Baseline).stats.warp_instructions as f64;
        let dac = self.report(Design::Dac).stats.warp_instructions as f64;
        ((base - dac) / base).max(0.0)
    }

    /// CAE's dynamic affine coverage: instructions executed on the affine
    /// units as a fraction of all warp instructions (Figure 18).
    pub fn cae_coverage(&self) -> f64 {
        let s = &self.report(Design::Cae).stats;
        if s.warp_instructions == 0 {
            0.0
        } else {
            s.cae_affine_instructions as f64 / s.warp_instructions as f64
        }
    }

    /// Fraction of global/local loads issued by the affine warp (Fig. 19).
    pub fn decoupled_load_fraction(&self) -> f64 {
        self.report(Design::Dac).stats.decoupled_load_fraction()
    }

    /// MTA prefetcher coverage: demand accesses served by the prefetch
    /// buffer or merged with an in-flight prefetch, over all demand
    /// traffic that would otherwise have gone below L1 (Figure 20).
    pub fn mta_coverage(&self) -> f64 {
        let m = &self.report(Design::Mta).mem;
        let covered = (m.pbuf_hits + m.prefetch_merged) as f64;
        let denom = covered + m.l1_misses as f64;
        if denom == 0.0 {
            0.0
        } else {
            covered / denom
        }
    }

    /// Energy of `d` relative to baseline (Figure 21).
    pub fn energy(&self, d: Design, model: &EnergyModel) -> EnergyBreakdown {
        energy_of(self.report(d), model)
    }

    /// Normalized total energy of DAC vs baseline.
    pub fn dac_energy_ratio(&self, model: &EnergyModel) -> f64 {
        self.energy(Design::Dac, model)
            .normalized_to(&self.energy(Design::Baseline, model))
    }
}

/// The five design points behind a [`FullRow`]: the four hardware designs
/// plus the perfect-memory classification machine.
pub const ROW_POINTS: [DesignPoint; 5] = [
    DesignPoint::Hw(Design::Baseline),
    DesignPoint::Hw(Design::Cae),
    DesignPoint::Hw(Design::Mta),
    DesignPoint::Hw(Design::Dac),
    DesignPoint::PerfectMem,
];

/// Evaluate every workload under all four designs plus perfect memory on
/// `harness`, verifying that every hardware design produces bit-identical
/// outputs. The whole `workloads × designs` matrix is submitted as one
/// batch, so parallelism spans benchmarks as well as designs.
///
/// `Err` holds one line per job that can never run under `overrides`
/// (see [`Harness::try_run`]); nothing was simulated then.
///
/// # Panics
///
/// Panics if any design changes a program's output (a correctness bug).
pub fn evaluate_all(
    harness: &Harness,
    workloads: Vec<Workload>,
    scale: u32,
    overrides: &Overrides,
) -> Result<Vec<FullRow>, Vec<String>> {
    let jobs = simt_harness::suite_jobs(workloads, scale, &ROW_POINTS, overrides);
    let out = harness.try_run(&jobs)?;
    Ok(jobs
        .chunks(ROW_POINTS.len())
        .zip(out.results.chunks(ROW_POINTS.len()))
        .map(|(jobs, results)| {
            let w = jobs[0].workload().expect("suite_jobs builds bench jobs");
            assemble_row(w, jobs, results)
        })
        .collect())
}

fn assemble_row(w: &Arc<Workload>, jobs: &[Job], results: &[JobResult]) -> FullRow {
    let analysis = AffineAnalysis::run(&w.kernel);
    let mix = analysis.static_mix(&w.kernel);
    let golden = results[0].output_digest;
    for (job, r) in jobs.iter().zip(results) {
        if matches!(job.point, DesignPoint::Hw(_)) {
            assert_eq!(
                r.output_digest,
                golden,
                "{}: design {} changed program output",
                w.abbr,
                job.point.name()
            );
        }
    }
    let perfect = &results[ROW_POINTS.len() - 1];
    let perfect_speedup = results[0].report.cycles as f64 / perfect.report.cycles as f64;
    FullRow {
        abbr: w.abbr,
        name: w.name,
        suite: w.suite.tag(),
        memory_intensive: perfect_speedup >= MEMORY_INTENSIVE_THRESHOLD,
        perfect_speedup,
        mix,
        results: results[..Design::ALL.len()].to_vec(),
    }
}

/// Evaluate one benchmark serially at paper defaults — the single-workload
/// convenience wrapper over [`evaluate_all`].
pub fn evaluate(w: &Workload) -> FullRow {
    evaluate_all(
        &Harness::serial(),
        vec![w.clone()],
        1,
        &Overrides::default(),
    )
    .expect("every benchmark fits the paper-default machine")
    .pop()
    .expect("one workload in, one row out")
}

/// Geometric mean.
pub fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = xs.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    let s: f64 = v.iter().map(|x| x.ln()).sum();
    (s / v.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean([2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean([]), 0.0);
    }

    /// The headline experiment on one memory-bound benchmark: DAC must
    /// beat baseline and decouple most loads, with all designs correct.
    #[test]
    fn evaluate_lib_end_to_end() {
        let w = gpu_workloads::benchmark("LIB", 1).unwrap();
        let row = evaluate(&w);
        assert!(row.memory_intensive, "LIB must be memory-intensive");
        assert!(
            row.speedup(Design::Dac) > 1.05,
            "DAC speedup {}",
            row.speedup(Design::Dac)
        );
        assert!(row.decoupled_load_fraction() > 0.8);
        let (na, aff) = row.instr_ratio();
        assert!(na < 1.0, "non-affine ratio {na}");
        assert!(aff > 0.0 && aff < 0.5);
    }

    /// The parallel path gives bit-identical rows to the serial path.
    #[test]
    fn evaluate_all_matches_serial() {
        let small = Overrides {
            num_sms: Some(2),
            max_warps_per_sm: Some(16),
            ..Overrides::default()
        };
        let benches = || {
            vec![
                gpu_workloads::benchmark("LIB", 1).unwrap(),
                gpu_workloads::benchmark("MQ", 1).unwrap(),
            ]
        };
        let serial = evaluate_all(&Harness::serial(), benches(), 1, &small).unwrap();
        let parallel = evaluate_all(&Harness::new(4), benches(), 1, &small).unwrap();
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.abbr, b.abbr);
            assert_eq!(a.memory_intensive, b.memory_intensive);
            for d in Design::ALL {
                assert_eq!(a.report(d).cycles, b.report(d).cycles);
                assert_eq!(a.report(d).stats, b.report(d).stats);
                assert_eq!(a.report(d).mem, b.report(d).mem);
            }
        }
    }
}

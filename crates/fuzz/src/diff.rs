//! The differential driver: one generated kernel through the oracle and all
//! hardware designs, with every invariant the paper's transparency claim
//! rests on checked in one place.
//!
//! Checks per design:
//! 1. final memory bit-identical to the oracle — the whole output region
//!    (per-thread words + atomic slots) *and* the read-only input arrays;
//! 2. the issue-slot bucket-sum invariant from `simt-profile`
//!    (`Σ buckets == cycles × schedulers × SMs`);
//! 3. DAC-only stall buckets are exactly zero on non-DAC designs.
//!
//! A design panic (simulator assertion, decoupler bug, deadlock guard) is
//! caught and reported as a failure rather than tearing down the driver, so
//! the reducer can minimize crashing kernels too.

use crate::oracle::{run_oracle, OracleError};
use crate::spec::{A_WORDS, GEN_VERSION};
use dac_core::DacConfig;
use gpu_workloads::kernels::{ARR_A, ARR_B};
use gpu_workloads::{gpu_for, run_dac, run_design, BenchRun, Design, Workload};
use simt_harness::Overrides;
use simt_profile::CpiStack;
use simt_sim::{GpuSim, SimReport};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What the driver checks and on which machine shape.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Designs to run (default: all four).
    pub designs: Vec<Design>,
    /// Machine shape (default: 2 SMs × 16 warps — small enough for
    /// thousands of kernels, big enough for inter-SM and occupancy effects).
    pub overrides: Overrides,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            designs: Design::ALL.to_vec(),
            overrides: small_overrides(),
        }
    }
}

/// The standard fuzzing machine shape.
pub fn small_overrides() -> Overrides {
    Overrides {
        num_sms: Some(2),
        max_warps_per_sm: Some(16),
        ..Overrides::default()
    }
}

/// One design's surviving result.
#[derive(Debug, Clone)]
pub struct DesignRun {
    pub design: Design,
    pub report: SimReport,
    /// Output-region words (`C` + atomic slots), equal to the oracle's.
    pub output: Vec<u32>,
}

/// A check that failed. `std::mem::discriminant` of this value is the
/// "failure class" the reducer preserves while shrinking.
#[derive(Debug, Clone, PartialEq)]
pub enum DiffFailure {
    /// The kernel itself is malformed (generator bug).
    Invalid(String),
    /// The oracle refused or aborted.
    Oracle(OracleError),
    /// A design's memory differs from the oracle.
    MemoryMismatch {
        design: Design,
        region: &'static str,
        word: usize,
        got: u32,
        want: u32,
    },
    /// Issue-slot buckets do not sum to `cycles × schedulers × SMs`.
    BucketSum {
        design: Design,
        total: u64,
        want: u64,
    },
    /// A DAC-only bucket was non-zero on a non-DAC design.
    ForeignBucket {
        design: Design,
        bucket: &'static str,
        slots: u64,
    },
    /// A cached harness result's output digest disagrees with the oracle.
    DigestMismatch { design: Design, got: u64, want: u64 },
    /// The simulator (or decoupler) panicked.
    Panic { design: Design, msg: String },
}

impl std::fmt::Display for DiffFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffFailure::Invalid(e) => write!(f, "invalid kernel: {e}"),
            DiffFailure::Oracle(e) => write!(f, "{e}"),
            DiffFailure::MemoryMismatch {
                design,
                region,
                word,
                got,
                want,
            } => write!(
                f,
                "{}: {region}[{word}] = {got:#010x}, oracle says {want:#010x}",
                design.name()
            ),
            DiffFailure::BucketSum {
                design,
                total,
                want,
            } => write!(
                f,
                "{}: issue-slot buckets sum to {total}, want {want}",
                design.name()
            ),
            DiffFailure::ForeignBucket {
                design,
                bucket,
                slots,
            } => write!(
                f,
                "{}: DAC-only bucket {bucket} has {slots} slots",
                design.name()
            ),
            DiffFailure::DigestMismatch { design, got, want } => write!(
                f,
                "{}: cached output digest {got:#018x}, oracle says {want:#018x}",
                design.name()
            ),
            DiffFailure::Panic { design, msg } => {
                write!(f, "{}: panic: {msg}", design.name())
            }
        }
    }
}

/// Execute `w` on `design` exactly the way `Job::execute` would (same
/// config derivation), returning the full [`BenchRun`].
pub fn run_one(w: &Workload, design: Design, ov: &Overrides) -> BenchRun {
    let gpu = GpuSim::new(ov.apply_gpu(gpu_for(design)));
    match design {
        Design::Dac => run_dac(w, &gpu, ov.apply_dac(DacConfig::paper())),
        d => run_design(w, d, &gpu),
    }
}

fn run_caught(w: &Workload, design: Design, ov: &Overrides) -> Result<BenchRun, DiffFailure> {
    catch_unwind(AssertUnwindSafe(|| run_one(w, design, ov))).map_err(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        DiffFailure::Panic { design, msg }
    })
}

/// Run the full differential check. Returns the per-design runs on success
/// (their `output` vectors are all equal to the oracle's) or the first
/// failure encountered.
pub fn check_workload(w: &Workload, cfg: &DiffConfig) -> Result<Vec<DesignRun>, DiffFailure> {
    if let Err(e) = w.kernel.validate() {
        return Err(DiffFailure::Invalid(format!("{e:?}")));
    }
    let mut omem = w.fresh_memory();
    run_oracle(&w.kernel, &w.launch, &mut omem).map_err(DiffFailure::Oracle)?;
    let want_out = omem.read_u32_vec(w.output.0, w.output.1);
    let want_a = omem.read_u32_vec(ARR_A, A_WORDS as usize);
    let want_b = omem.read_u32_vec(ARR_B, A_WORDS as usize);

    let mut runs = Vec::with_capacity(cfg.designs.len());
    for &design in &cfg.designs {
        let run = run_caught(w, design, &cfg.overrides)?;

        let regions: [(&'static str, u64, &[u32]); 3] = [
            ("output", w.output.0, &want_out),
            ("A", ARR_A, &want_a),
            ("B", ARR_B, &want_b),
        ];
        for (region, base, want) in regions {
            let got = run.memory.read_u32_vec(base, want.len());
            if let Some(word) = (0..want.len()).find(|&i| got[i] != want[i]) {
                return Err(DiffFailure::MemoryMismatch {
                    design,
                    region,
                    word,
                    got: got[word],
                    want: want[word],
                });
            }
        }

        let gcfg = cfg.overrides.apply_gpu(gpu_for(design));
        let stats = &run.report.stats;
        let cpi = CpiStack::from_stats(stats);
        if !cpi.check(stats.cycles, gcfg.schedulers, gcfg.num_sms) {
            return Err(DiffFailure::BucketSum {
                design,
                total: cpi.total(),
                want: stats.cycles * (gcfg.schedulers * gcfg.num_sms) as u64,
            });
        }
        if design != Design::Dac {
            for bucket in ["deq_empty", "deq_data", "enq_full"] {
                let slots = cpi.get(bucket);
                if slots != 0 {
                    return Err(DiffFailure::ForeignBucket {
                        design,
                        bucket,
                        slots,
                    });
                }
            }
        }

        runs.push(DesignRun {
            design,
            report: run.report,
            output: run.memory.read_u32_vec(w.output.0, w.output.1),
        });
    }
    Ok(runs)
}

/// FNV-1a digest of a word vector, little-endian — byte-compatible with the
/// harness's `JobResult::output_digest`, so oracle output can be checked
/// against cached results without re-simulating.
pub fn digest_words(words: &[u32]) -> u64 {
    let mut bytes = Vec::with_capacity(words.len() * 4);
    for word in words {
        bytes.extend_from_slice(&word.to_le_bytes());
    }
    simt_harness::fnv1a64(&bytes)
}

/// Human-readable one-line id for a generated kernel, used in logs and
/// repro file names.
pub fn case_id(seed: u64, index: u64) -> String {
    format!("v{GEN_VERSION}-s{seed:x}-i{index}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::gen_spec;

    /// A handful of generated kernels through the full 4-design check.
    /// (The broad sweep lives in `tests/differential.rs` and the CI smoke
    /// step; this is the fast in-crate canary.)
    #[test]
    fn small_window_passes_all_designs() {
        for i in 0..6 {
            let w = gen_spec(0xD1FF, i).build_workload();
            let runs = check_workload(&w, &DiffConfig::default())
                .unwrap_or_else(|f| panic!("kernel {}: {f}", case_id(0xD1FF, i)));
            assert_eq!(runs.len(), 4);
            let first = &runs[0].output;
            assert!(runs.iter().all(|r| &r.output == first));
        }
    }

    /// A kernel that violates the oracle contract (two warps race on one
    /// word, with the *earlier* threads delayed by a loop) must be caught
    /// as a memory mismatch: the oracle's sequential order says the second
    /// warp wins, the SIMT schedule says the first does.
    #[test]
    fn catches_an_order_dependent_kernel() {
        use gpu_workloads::kernels::ARR_C;
        use gpu_workloads::{PaperClass, Suite};
        use simt_ir::{CmpOp, KernelBuilder, LaunchConfig, Op, Operand, Space, Width};
        use simt_mem::SparseMemory;

        let mut b = KernelBuilder::new("race", 4);
        let tid = b.tid_linear_x();
        let addr = b.mov(Operand::Param(2));
        let p = b.setp(CmpOp::Lt, Operand::Reg(tid), Operand::Imm(32));
        b.bra_ifnot(p, "else");
        let i = b.mov(Operand::Imm(0));
        b.label("top");
        b.alu_into(i, Op::Add, &[Operand::Reg(i), Operand::Imm(1)]);
        let q = b.setp(CmpOp::Lt, Operand::Reg(i), Operand::Imm(100));
        b.bra_if(q, "top");
        b.st(Space::Global, addr, 0, Operand::Imm(1111), Width::W32);
        b.bra("end");
        b.label("else");
        b.st(Space::Global, addr, 0, Operand::Imm(2222), Width::W32);
        b.label("end");
        b.exit();

        let w = Workload {
            name: "order-dependent race",
            abbr: "FZRACE",
            suite: Suite::GpgpuSim,
            paper_class: PaperClass::Compute,
            kernel: b.build(),
            launch: LaunchConfig::linear(1, 64, vec![0, 0, ARR_C, ARR_C]),
            memory: SparseMemory::new(),
            output: (ARR_C, 1),
        };
        let got = check_workload(&w, &DiffConfig::default());
        assert!(
            matches!(got, Err(DiffFailure::MemoryMismatch { .. })),
            "expected a memory mismatch, got {got:?}"
        );
    }
}

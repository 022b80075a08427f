//! The differential driver: one generated kernel through the oracle and all
//! hardware designs, with every invariant the paper's transparency claim
//! rests on checked in one place.
//!
//! Checks per design:
//! 1. final memory bit-identical to the oracle — the whole output region
//!    (per-thread words + atomic slots) *and* the read-only input arrays;
//! 2. the issue-slot bucket-sum invariant
//!    (`Σ buckets == cycles × schedulers × SMs`), which the simulator
//!    asserts at the end of every run, so a broken sum arrives here as a
//!    [`DiffFailure::Panic`];
//! 3. DAC-only stall buckets are exactly zero on non-DAC designs.
//!
//! A design panic (simulator assertion, decoupler bug, deadlock guard) is
//! caught and reported as a failure rather than tearing down the driver, so
//! the reducer can minimize crashing kernels too.

use crate::oracle::{run_oracle, OracleError};
use crate::spec::A_WORDS;
use dac_core::DacConfig;
use gpu_workloads::kernels::{ARR_A, ARR_B};
use gpu_workloads::{gpu_for, run_design, BenchRun, Design, Workload};
use simt_harness::{panic_message, Overrides};
use simt_mem::SparseMemory;
use simt_sim::{GpuSim, SimReport};
use simt_trace::NullTracer;
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
    /// A DAC-only bucket was non-zero on a non-DAC design.
    ForeignBucket {
        design: Design,
        bucket: &'static str,
        slots: u64,
    },
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
            DiffFailure::ForeignBucket {
                design,
                bucket,
                slots,
            } => write!(
                f,
                "{}: DAC-only bucket {bucket} has {slots} slots",
                design.name()
            ),
            DiffFailure::Panic { design, msg } => {
                write!(f, "{}: panic: {msg}", design.name())
            }
        }
    }
}

/// Execute `w` on `design` with the harness's config derivation (the
/// design's machine, then `ov`), returning the full [`BenchRun`].
pub fn run_one(w: &Workload, design: Design, ov: &Overrides) -> BenchRun {
    let gpu = GpuSim::new(ov.apply_gpu(gpu_for(design)));
    let dac = ov.apply_dac(DacConfig::paper());
    run_design(w, design, &gpu, dac, &mut NullTracer)
}

fn run_caught(w: &Workload, design: Design, ov: &Overrides) -> Result<BenchRun, DiffFailure> {
    catch_unwind(AssertUnwindSafe(|| run_one(w, design, ov))).map_err(|p| DiffFailure::Panic {
        design,
        msg: panic_message(&*p),
    })
}

/// Run the full differential check. Returns the per-design runs on success
/// (their `output` vectors are all equal to the oracle's) or the first
/// failure encountered.
pub fn check_workload(w: &Workload, cfg: &DiffConfig) -> Result<Vec<DesignRun>, DiffFailure> {
    check_designs(w, &oracle_memory(w)?, cfg)
}

/// Validate `w` and run the oracle on it: the final memory every design
/// must reproduce.
pub fn oracle_memory(w: &Workload) -> Result<SparseMemory, DiffFailure> {
    if let Err(e) = w.kernel.validate() {
        return Err(DiffFailure::Invalid(format!("{e:?}")));
    }
    let mut omem = w.fresh_memory();
    run_oracle(&w.kernel, &w.launch, &mut omem).map_err(DiffFailure::Oracle)?;
    Ok(omem)
}

/// Run every design of `cfg` on `w` and check each against `omem`, the
/// oracle's final memory ([`oracle_memory`]).
pub fn check_designs(
    w: &Workload,
    omem: &SparseMemory,
    cfg: &DiffConfig,
) -> Result<Vec<DesignRun>, DiffFailure> {
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

        if design != Design::Dac {
            let s = &run.report.stats;
            for (bucket, slots) in [
                ("deq_empty", s.slot_deq_empty),
                ("deq_data", s.slot_deq_data),
                ("enq_full", s.slot_enq_full),
            ] {
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
                .unwrap_or_else(|f| panic!("kernel {}: {f}", w.abbr));
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

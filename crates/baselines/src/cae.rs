//! Compact Affine Execution (CAE) — the paper's reimplementation of Kim et
//! al.'s affine data path \[13\], provisioned with two affine units per SM
//! (§5.1.1).
//!
//! CAE tracks, *at run time and per warp*, which registers hold affine
//! values (base + per-lane stride). Warp instructions whose operands are
//! affine-compatible execute on the affine units: they occupy the scheduler
//! for one cycle instead of two and leave the SIMT lanes free. Unlike DAC,
//! every warp still executes every instruction — CAE removes intra-warp
//! redundancy only.
//!
//! Faithfully modelled limitations (paper §5.4):
//!
//! * the affine unit has a single offset ALU, so all 32 threads of a warp
//!   must follow one stride — kernels whose innermost block dimension is
//!   smaller than 32 get scalar support only;
//! * no affine computation after divergence: a partially-active write
//!   poisons the destination, and instructions issued while the warp is
//!   diverged run on the SIMT lanes;
//! * no `mod`, `min`/`max`/`abs`, or `sel` support.

use simt_ir::{Instr, Op, Operand, Program, SpecialReg};
use simt_sim::{CoProcessor, IssueCost, SimStats};
use std::collections::HashMap;

/// CAE configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaeConfig {
    /// Affine functional units per SM (the paper grants 2 — one per
    /// scheduler).
    pub affine_units: usize,
}

impl Default for CaeConfig {
    fn default() -> Self {
        CaeConfig { affine_units: 2 }
    }
}

/// Runtime affinity tag of a register (CAE's hardware tag bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tag {
    /// Uniform across the warp.
    Scalar,
    /// base + lane · stride.
    Affine,
    /// Anything else.
    Vector,
}

impl Tag {
    fn join(self, o: Tag) -> Tag {
        use Tag::*;
        match (self, o) {
            (Vector, _) | (_, Vector) => Vector,
            (Affine, _) | (_, Affine) => Affine,
            _ => Scalar,
        }
    }
}

/// The CAE coprocessor.
#[derive(Debug, Default)]
pub struct Cae {
    #[allow(dead_code)]
    cfg: CaeConfig,
    /// Per-SM map of warp → register tags.
    sms: Vec<HashMap<usize, Vec<Tag>>>,
    num_regs: usize,
    /// Can `tid.x` be treated as one warp-wide stride? (innermost block
    /// dimension ≥ 32 and a multiple of 32.)
    tidx_affine: bool,
}

impl Cae {
    /// Build a CAE coprocessor.
    pub fn new(cfg: CaeConfig) -> Self {
        Cae {
            cfg,
            ..Default::default()
        }
    }

    /// Destination tag for an ALU op (CAE's supported subset).
    fn alu_tag(op: Op, a: Tag, b: Tag, c: Tag) -> Tag {
        use Tag::*;
        if a == Vector || b == Vector || (op.arity() == 3 && c == Vector) {
            return Vector;
        }
        let all_scalar =
            a == Scalar && (op.arity() < 2 || b == Scalar) && (op.arity() < 3 || c == Scalar);
        if all_scalar {
            // Uniform computation: any op.
            return Scalar;
        }
        match op {
            Op::Mov | Op::Neg => a,
            Op::Add | Op::Sub => a.join(b),
            Op::Mul => {
                if a == Scalar || b == Scalar {
                    a.join(b)
                } else {
                    Vector
                }
            }
            Op::Mad => {
                let p = Self::alu_tag(Op::Mul, a, b, Scalar);
                Self::alu_tag(Op::Add, p, c, Scalar)
            }
            Op::Shl => {
                if b == Scalar {
                    a
                } else {
                    Vector
                }
            }
            // No mod / min / max / abs on the CAE affine unit (§5.4).
            _ => Vector,
        }
    }
}

impl CoProcessor for Cae {
    fn name(&self) -> &'static str {
        "cae"
    }

    fn on_kernel_launch(&mut self, program: &Program, num_sms: usize) {
        self.sms.clear();
        self.sms.resize_with(num_sms, HashMap::new);
        self.num_regs = program.kernel.num_regs as usize;
        let bx = program.launch.block.x;
        self.tidx_affine = bx >= 32 && bx.is_multiple_of(32);
    }

    fn issue_cost(
        &mut self,
        sm: usize,
        warp: usize,
        instr: &Instr,
        active: u32,
        stats: &mut SimStats,
    ) -> IssueCost {
        let tidx_affine = self.tidx_affine;
        let num_regs = self.num_regs;
        if self.sms.len() <= sm {
            self.sms.resize_with(sm + 1, HashMap::new);
        }
        let tags = self.sms[sm]
            .entry(warp)
            .or_insert_with(|| vec![Tag::Vector; num_regs]);
        let diverged = active != u32::MAX;
        match instr {
            Instr::Alu {
                op,
                dst,
                srcs,
                guard,
            } => {
                let a = self_src(tags, srcs[0], tidx_affine);
                let b = self_src(tags, srcs[1], tidx_affine);
                let c = self_src(tags, srcs[2], tidx_affine);
                let mut t = Self::alu_tag(*op, a, b, c);
                // Divergence or a guard poisons affine tracking (§5.4);
                // a guarded scalar result stays scalar.
                if diverged || (guard.is_some() && t != Tag::Scalar) {
                    t = Tag::Vector;
                }
                let eligible = !diverged && guard.is_none() && t != Tag::Vector;
                if let Some(slot) = tags.get_mut(*dst as usize) {
                    *slot = t;
                }
                if eligible {
                    stats.cae_affine_instructions += 1;
                    return IssueCost::Fast;
                }
                IssueCost::Normal
            }
            Instr::SetP { a, b, guard, .. } => {
                let ta = self_src(tags, *a, tidx_affine);
                let tb = self_src(tags, *b, tidx_affine);
                let one_scalar = ta == Tag::Scalar || tb == Tag::Scalar;
                let both_ok = ta != Tag::Vector && tb != Tag::Vector;
                if !diverged && guard.is_none() && one_scalar && both_ok {
                    stats.cae_affine_instructions += 1;
                    IssueCost::Fast
                } else {
                    IssueCost::Normal
                }
            }
            Instr::Sel { dst, .. } => {
                if let Some(slot) = tags.get_mut(*dst as usize) {
                    *slot = Tag::Vector;
                }
                IssueCost::Normal
            }
            Instr::Ld { dst, .. } | Instr::Atom { dst, .. } => {
                if let Some(slot) = tags.get_mut(*dst as usize) {
                    *slot = Tag::Vector;
                }
                IssueCost::Normal
            }
            _ => IssueCost::Normal,
        }
    }
}

fn self_src(tags: &[Tag], op: Operand, tidx_affine: bool) -> Tag {
    match op {
        Operand::Imm(_) | Operand::Param(_) => Tag::Scalar,
        Operand::Reg(r) => tags.get(r as usize).copied().unwrap_or(Tag::Vector),
        Operand::Special(s) => match s {
            SpecialReg::TidX => {
                if tidx_affine {
                    Tag::Affine
                } else {
                    Tag::Vector
                }
            }
            SpecialReg::TidY | SpecialReg::TidZ => {
                if tidx_affine {
                    Tag::Scalar
                } else {
                    Tag::Vector
                }
            }
            _ => Tag::Scalar,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_ir::{Dim3, KernelBuilder, LaunchConfig, Op, Operand, Program, Space, Width};
    use simt_mem::SparseMemory;
    use simt_sim::{GpuConfig, GpuSim};

    fn streaming_compute_kernel() -> simt_ir::Kernel {
        // Address math is affine, plus a chunk of scalar compute.
        let mut b = KernelBuilder::new("comp", 2);
        let tid = b.tid_linear_x();
        let off = b.alu2(Op::Shl, Operand::Reg(tid), Operand::Imm(2));
        let pa = b.alu2(Op::Add, Operand::Param(0), Operand::Reg(off));
        let v = b.ld(Space::Global, pa, 0, Width::W32);
        let mut acc = b.mov(Operand::Reg(v));
        for _ in 0..8 {
            acc = b.alu2(Op::Add, Operand::Reg(acc), Operand::Reg(v));
        }
        let pb = b.alu2(Op::Add, Operand::Param(1), Operand::Reg(off));
        b.st(Space::Global, pb, 0, Operand::Reg(acc), Width::W32);
        b.exit();
        b.build()
    }

    #[test]
    fn cae_speeds_up_affine_address_math() {
        let k = streaming_compute_kernel();
        let launch = LaunchConfig {
            grid: Dim3::x(8),
            block: Dim3::x(128),
            params: vec![0x10_0000, 0x80_0000],
        };
        let prog = Program::new(k, launch).unwrap();
        let gpu = GpuSim::new(GpuConfig::test_small());

        let mut mem1 = SparseMemory::new();
        let base = gpu.run(&prog, &mut mem1);

        let mut mem2 = SparseMemory::new();
        let mut cae = Cae::new(CaeConfig::default());
        let rep = gpu.run_with(&prog, &mut mem2, &mut cae);

        assert!(rep.stats.cae_affine_instructions > 0);
        // Same result.
        assert_eq!(
            mem1.read_u32_vec(0x80_0000, 64),
            mem2.read_u32_vec(0x80_0000, 64)
        );
        // CAE never slows things down and keeps instruction count equal
        // (it removes no instructions).
        assert!(rep.cycles <= base.cycles);
        assert_eq!(rep.stats.warp_instructions, base.stats.warp_instructions);
    }

    #[test]
    fn small_block_x_restricts_to_scalar() {
        let mut cae = Cae::new(CaeConfig::default());
        let mut b = KernelBuilder::new("k", 0);
        let _ = b.tid_linear_x();
        b.exit();
        let prog = Program::new(
            b.build(),
            LaunchConfig {
                grid: Dim3::x(1),
                block: Dim3::xy(16, 2), // innermost dim < 32
                params: vec![],
            },
        )
        .unwrap();
        cae.on_kernel_launch(&prog, 1);
        assert!(!cae.tidx_affine);
        let mut stats = SimStats::default();
        // mad r0, ctaid.x, ntid.x, tid.x — tid.x is Vector here.
        let i = Instr::Alu {
            op: Op::Mad,
            dst: 0,
            srcs: [
                Operand::Special(SpecialReg::CtaIdX),
                Operand::Special(SpecialReg::NTidX),
                Operand::Special(SpecialReg::TidX),
            ],
            guard: None,
        };
        assert_eq!(
            cae.issue_cost(0, 0, &i, u32::MAX, &mut stats),
            IssueCost::Normal
        );
        assert_eq!(stats.cae_affine_instructions, 0);
    }

    #[test]
    fn divergence_poisons_tags() {
        let mut cae = Cae::new(CaeConfig::default());
        let mut b = KernelBuilder::new("k", 0);
        let _ = b.tid_linear_x();
        b.exit();
        let prog = Program::new(b.build(), LaunchConfig::linear(1, 64, vec![])).unwrap();
        cae.on_kernel_launch(&prog, 1);
        let mut stats = SimStats::default();
        let i = Instr::Alu {
            op: Op::Mul,
            dst: 0,
            srcs: [
                Operand::Special(SpecialReg::TidX),
                Operand::Imm(4),
                Operand::Imm(0),
            ],
            guard: None,
        };
        // Full mask: affine, fast.
        assert_eq!(
            cae.issue_cost(0, 0, &i, u32::MAX, &mut stats),
            IssueCost::Fast
        );
        // Diverged warp: SIMT lanes.
        assert_eq!(
            cae.issue_cost(0, 1, &i, 0xFFFF, &mut stats),
            IssueCost::Normal
        );
        // And the destination is poisoned for later uses on that warp.
        let j = Instr::Alu {
            op: Op::Add,
            dst: 1,
            srcs: [Operand::Reg(0), Operand::Imm(1), Operand::Imm(0)],
            guard: None,
        };
        assert_eq!(
            cae.issue_cost(0, 1, &j, u32::MAX, &mut stats),
            IssueCost::Normal
        );
    }

    #[test]
    fn loads_poison_destinations() {
        let mut cae = Cae::new(CaeConfig::default());
        let mut b = KernelBuilder::new("k", 1);
        let _ = b.tid_linear_x();
        b.exit();
        let prog = Program::new(b.build(), LaunchConfig::linear(1, 32, vec![0])).unwrap();
        cae.on_kernel_launch(&prog, 1);
        let mut stats = SimStats::default();
        let ld = Instr::Ld {
            dst: 2,
            space: Space::Global,
            addr: simt_ir::AddrMode::Reg(0, 0),
            width: Width::W32,
            guard: None,
        };
        cae.issue_cost(0, 0, &ld, u32::MAX, &mut stats);
        let use_it = Instr::Alu {
            op: Op::Add,
            dst: 3,
            srcs: [Operand::Reg(2), Operand::Imm(1), Operand::Imm(0)],
            guard: None,
        };
        assert_eq!(
            cae.issue_cost(0, 0, &use_it, u32::MAX, &mut stats),
            IssueCost::Normal
        );
    }

    use simt_ir::SpecialReg;
}

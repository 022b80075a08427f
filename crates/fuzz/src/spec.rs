//! The fuzzer's kernel grammar and its lowering onto the `simt-ir` builder.
//!
//! A [`KernelSpec`] is a tree of [`Stmt`]s over *value references*
//! ([`Vref`]), which resolve modulo the lowering-time value pool. That
//! indirection is what makes the greedy reducer safe: deleting or unwrapping
//! any statement still yields a spec whose remaining references resolve to
//! *some* live value, so every shrink candidate lowers to a valid kernel.
//!
//! The grammar is constrained so that final memory is independent of thread
//! scheduling order (the oracle contract, see `oracle.rs`):
//!
//! * loads only read the read-only input arrays `A`/`B`;
//! * plain stores only write the thread's private output word `C[tid]`;
//! * atomics are commutative (`add`/`min`/`max`, never `exch`) with operands
//!   masked non-negative and well below 2³¹ (the simulator's atomic unit is
//!   32-bit, so signed `min`/`max` on unmasked values would not commute
//!   after truncation), and the old-value destination register is never
//!   reused;
//! * no barriers, no shared or local memory, all memory ops are 32-bit.

use gpu_workloads::kernels::{SplitMix64, ARR_A, ARR_B, ARR_C};
use gpu_workloads::{PaperClass, Suite, Workload};
use simt_ir::instr::Guard;
use simt_ir::{
    AtomOp, CmpOp, Kernel, KernelBuilder, LaunchConfig, Op, Operand, PredId, RegId, Space,
    SpecialReg, Width,
};
use simt_mem::SparseMemory;

/// The generator version. Bump it when the grammar or lowering changes
/// what a seed and index generate: every case id (and so every repro and
/// summary line) carries it, so a repro names the generator that made it.
pub const GEN_VERSION: u32 = 1;

/// The one name of generated case `index` of `seed`: its workload
/// abbreviation, log and summary label.
pub fn case_id(seed: u64, index: u64) -> String {
    format!("v{GEN_VERSION}-s{seed:x}-i{index}")
}

/// Words in each read-only input array (`A` and `B`).
pub const A_WORDS: u64 = 4096;

/// Index mask applied to data-dependent (gather) loads.
pub const IDX_MASK: i64 = A_WORDS as i64 - 1;

/// Mask applied to atomic operands: non-negative, far below 2³¹, so
/// `add`/`min`/`max` commute under the simulator's 32-bit RMW.
pub const VAL_MASK: i64 = 0xFFFF;

/// A reference into the lowering-time value pool, resolved modulo the pool's
/// current length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vref(pub u32);

/// A divergence condition: `((value & mask) cmp imm)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cond {
    pub a: Vref,
    pub mask: i64,
    pub cmp: CmpOp,
    pub imm: i64,
}

/// Loop trip count: a small constant, or data-dependent (`value & mask`),
/// which gives per-lane loop divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trip {
    Const(u8),
    Data(Vref, u8),
}

/// One statement of the generated kernel body.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `v' = op(v, imm)` — affine chains when `op ∈ {add, sub, mul, shl}`.
    AluImm { op: Op, a: Vref, imm: i64 },
    /// `v' = op(a, b)`.
    Alu2 { op: Op, a: Vref, b: Vref },
    /// `v' = a * b + c`.
    Mad { a: Vref, b: Vref, c: Vref },
    /// `dst = op(dst, src)` on a previously produced value — loop-carried
    /// accumulation. Loop induction variables and the tid seeds are not
    /// accumulation targets, so loops always terminate.
    Accum { dst: Vref, op: Op, src: Vref },
    /// `v' = arr[tid·scale + offset]` — in-bounds by construction, no mask,
    /// so the affine analysis can decouple it.
    LoadAffine { arr: u8, scale: i64, offset: i64 },
    /// `v' = arr[(a·scale + offset) & IDX_MASK]` — gather / data-dependent.
    LoadIndirect {
        arr: u8,
        a: Vref,
        scale: i64,
        offset: i64,
        guard: Option<Cond>,
    },
    /// `v' = cond ? t : f` (setp + sel).
    Select { cond: Cond, t: Vref, f: Vref },
    /// `v' = f2i(i2f(a & 0xff) · factor + bias)` — a bounded float detour
    /// (finite, positive, so cross-design bit-identity is exact).
    Float { a: Vref, factor: f32, bias: f32 },
    /// `if cond { then } else { els }`.
    If {
        cond: Cond,
        then: Vec<Stmt>,
        els: Vec<Stmt>,
    },
    /// `for i in 0..trip { body }`; `i` joins the value pool.
    Loop { trip: Trip, body: Vec<Stmt> },
    /// `switch (a & (arms.len()-1))` — `arms.len()` is a power of two.
    Switch { a: Vref, arms: Vec<Vec<Stmt>> },
    /// `C[tid] = val` (32-bit), optionally guarded.
    Store { val: Vref, guard: Option<Cond> },
    /// `atom.op D[slot & (slots-1)], val & VAL_MASK` — commutative, bounded,
    /// old value discarded.
    Atomic { op: AtomOp, slot: Vref, val: Vref },
}

/// A complete generated test case: launch geometry, memory-init seed, and
/// the statement tree.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpec {
    /// Seed for the input-array image (and part of the workload identity).
    pub seed: u64,
    /// Generator index within the seed's stream.
    pub index: u64,
    /// CTAs (x only).
    pub grid: u32,
    /// Threads per CTA (may be a non-multiple of 32: partial warps).
    pub block: u32,
    /// Atomic slots in the `D` region (power of two).
    pub slots: u32,
    /// The kernel body.
    pub body: Vec<Stmt>,
}

impl KernelSpec {
    /// Total threads launched.
    pub fn threads(&self) -> u64 {
        self.grid as u64 * self.block as u64
    }

    /// Base address of the atomic-slot region (directly after the per-thread
    /// output words, so one contiguous output region covers both).
    pub fn d_base(&self) -> u64 {
        ARR_C + self.threads() * 4
    }

    /// Lower the spec to an IR kernel. Always valid: the body is followed by
    /// an unconditional `C[tid] = last-value` store and `exit`.
    pub fn build_kernel(&self) -> Kernel {
        let mut b = KernelBuilder::new(format!("fz{}", self.index), 4);
        let tid = b.tid_linear_x();
        let lane = b.alu2(
            Op::And,
            Operand::Special(SpecialReg::TidX),
            Operand::Imm(31),
        );
        let wid = b.alu2(Op::Shr, Operand::Reg(tid), Operand::Imm(5));
        let mut lw = Lowerer {
            b,
            pool: vec![tid, lane, wid],
            muts: Vec::new(),
            labels: 0,
            tid,
            slot_mask: self.slots as i64 - 1,
        };
        lw.block(&self.body);
        let last = *lw.pool.last().expect("pool starts non-empty");
        lw.store_c(last, None);
        lw.b.exit();
        lw.b.build()
    }

    /// Build the full workload: kernel, launch, deterministic memory image,
    /// with the case id as its abbreviation.
    pub fn build_workload(&self) -> Workload {
        let kernel = self.build_kernel();
        let threads = self.threads();
        let d_base = self.d_base();
        let launch = LaunchConfig::linear(self.grid, self.block, vec![ARR_A, ARR_B, ARR_C, d_base]);

        let mut memory = SparseMemory::new();
        let mut rng = SplitMix64::new(self.seed ^ 0x5EED_F00D_D00F_DEE5);
        for i in 0..A_WORDS {
            memory.write_u32(ARR_A + i * 4, rng.next_u64() as u32);
        }
        for i in 0..A_WORDS {
            memory.write_u32(ARR_B + i * 4, rng.next_u64() as u32);
        }
        // Atomic slots start high enough that min/max both have work to do.
        for s in 0..self.slots as u64 {
            memory.write_u32(d_base + s * 4, (rng.next_u64() & 0x3FFF_FFFF) as u32);
        }

        Workload {
            name: leak(format!(
                "fuzz kernel {} (seed {:#x})",
                self.index, self.seed
            )),
            abbr: leak(case_id(self.seed, self.index)),
            suite: Suite::GpgpuSim,
            paper_class: PaperClass::Compute,
            kernel,
            launch,
            memory,
            output: (ARR_C, (threads + self.slots as u64) as usize),
        }
    }
}

fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

struct Lowerer {
    b: KernelBuilder,
    /// Readable values, in definition order. Never shrinks.
    pool: Vec<RegId>,
    /// Writable values (produced by value statements; excludes the tid seeds
    /// and loop induction variables, so accumulation can't break loops).
    muts: Vec<RegId>,
    labels: u32,
    tid: RegId,
    slot_mask: i64,
}

impl Lowerer {
    fn r(&self, v: Vref) -> RegId {
        self.pool[v.0 as usize % self.pool.len()]
    }

    fn fresh(&mut self, prefix: &str) -> String {
        self.labels += 1;
        format!("{prefix}{}", self.labels)
    }

    fn push_val(&mut self, r: RegId) {
        self.pool.push(r);
        self.muts.push(r);
    }

    /// Lower `cond` to a predicate: `t = a & mask; setp.cmp p, t, imm`.
    fn cond(&mut self, c: &Cond) -> PredId {
        let t = self
            .b
            .alu2(Op::And, Operand::Reg(self.r(c.a)), Operand::Imm(c.mask));
        self.b.setp(c.cmp, Operand::Reg(t), Operand::Imm(c.imm))
    }

    /// `C[tid] = val` (32-bit), optionally guarded.
    fn store_c(&mut self, val: RegId, guard: Option<PredId>) {
        let addr = self.b.alu3(
            Op::Mad,
            Operand::Reg(self.tid),
            Operand::Imm(4),
            Operand::Param(2),
        );
        match guard {
            None => {
                self.b
                    .st(Space::Global, addr, 0, Operand::Reg(val), Width::W32);
            }
            Some(p) => {
                self.b.st_guard(
                    Space::Global,
                    addr,
                    0,
                    Operand::Reg(val),
                    Width::W32,
                    Guard::pos(p),
                );
            }
        }
    }

    fn block(&mut self, body: &[Stmt]) {
        for s in body {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::AluImm { op, a, imm } => {
                let r = self
                    .b
                    .alu2(*op, Operand::Reg(self.r(*a)), Operand::Imm(*imm));
                self.push_val(r);
            }
            Stmt::Alu2 { op, a, b } => {
                let r = self
                    .b
                    .alu2(*op, Operand::Reg(self.r(*a)), Operand::Reg(self.r(*b)));
                self.push_val(r);
            }
            Stmt::Mad { a, b, c } => {
                let r = self.b.alu3(
                    Op::Mad,
                    Operand::Reg(self.r(*a)),
                    Operand::Reg(self.r(*b)),
                    Operand::Reg(self.r(*c)),
                );
                self.push_val(r);
            }
            Stmt::Accum { dst, op, src } => {
                if self.muts.is_empty() {
                    // Nothing writable yet: degrade to a fresh value.
                    let r = self
                        .b
                        .alu2(*op, Operand::Reg(self.r(*src)), Operand::Imm(1));
                    self.push_val(r);
                } else {
                    let d = self.muts[dst.0 as usize % self.muts.len()];
                    let srcs = [Operand::Reg(d), Operand::Reg(self.r(*src))];
                    self.b.alu_into(d, *op, &srcs);
                }
            }
            Stmt::LoadAffine { arr, scale, offset } => {
                let idx = if *scale == 1 && *offset == 0 {
                    self.tid
                } else {
                    self.b.alu3(
                        Op::Mad,
                        Operand::Reg(self.tid),
                        Operand::Imm(*scale),
                        Operand::Imm(*offset),
                    )
                };
                let addr = self.b.alu3(
                    Op::Mad,
                    Operand::Reg(idx),
                    Operand::Imm(4),
                    Operand::Param((*arr & 1) as u16),
                );
                let dst = self.b.ld(Space::Global, addr, 0, Width::W32);
                self.push_val(dst);
            }
            Stmt::LoadIndirect {
                arr,
                a,
                scale,
                offset,
                guard,
            } => {
                let i0 = self.b.alu3(
                    Op::Mad,
                    Operand::Reg(self.r(*a)),
                    Operand::Imm(*scale),
                    Operand::Imm(*offset),
                );
                let i1 = self
                    .b
                    .alu2(Op::And, Operand::Reg(i0), Operand::Imm(IDX_MASK));
                let addr = self.b.alu3(
                    Op::Mad,
                    Operand::Reg(i1),
                    Operand::Imm(4),
                    Operand::Param((*arr & 1) as u16),
                );
                let dst = match guard {
                    None => self.b.ld(Space::Global, addr, 0, Width::W32),
                    Some(c) => {
                        let p = self.cond(c);
                        self.b
                            .ld_guard(Space::Global, addr, 0, Width::W32, Guard::pos(p))
                    }
                };
                self.push_val(dst);
            }
            Stmt::Select { cond, t, f } => {
                let p = self.cond(cond);
                let (a, b) = (self.r(*t), self.r(*f));
                let r = self.b.sel(p, Operand::Reg(a), Operand::Reg(b));
                self.push_val(r);
            }
            Stmt::Float { a, factor, bias } => {
                let m = self
                    .b
                    .alu2(Op::And, Operand::Reg(self.r(*a)), Operand::Imm(0xFF));
                let f = self.b.alu1(Op::I2F, Operand::Reg(m));
                let g = self.b.alu3(
                    Op::FMad,
                    Operand::Reg(f),
                    Operand::Imm(factor.to_bits() as i64),
                    Operand::Imm(bias.to_bits() as i64),
                );
                let r = self.b.alu1(Op::F2I, Operand::Reg(g));
                self.push_val(r);
            }
            Stmt::If { cond, then, els } => {
                let p = self.cond(cond);
                let l_else = self.fresh("E");
                let l_end = self.fresh("X");
                self.b.bra_ifnot(p, &l_else);
                self.block(then);
                self.b.bra(&l_end);
                self.b.label(&l_else);
                self.block(els);
                self.b.label(&l_end);
            }
            Stmt::Loop { trip, body } => {
                let n = match trip {
                    Trip::Const(k) => self.b.mov(Operand::Imm(*k as i64)),
                    Trip::Data(v, m) => {
                        self.b
                            .alu2(Op::And, Operand::Reg(self.r(*v)), Operand::Imm(*m as i64))
                    }
                };
                let i = self.b.mov(Operand::Imm(0));
                // Readable (divergent data source) but not writable.
                self.pool.push(i);
                let l_top = self.fresh("L");
                let l_done = self.fresh("D");
                self.b.label(&l_top);
                let p = self.b.setp(CmpOp::Ge, Operand::Reg(i), Operand::Reg(n));
                self.b.bra_if(p, &l_done);
                self.block(body);
                let srcs = [Operand::Reg(i), Operand::Imm(1)];
                self.b.alu_into(i, Op::Add, &srcs);
                self.b.bra(&l_top);
                self.b.label(&l_done);
            }
            Stmt::Switch { a, arms } => {
                if arms.is_empty() {
                    return;
                }
                let ways = arms.len();
                let s = self.b.alu2(
                    Op::And,
                    Operand::Reg(self.r(*a)),
                    Operand::Imm(ways as i64 - 1),
                );
                let l_end = self.fresh("SX");
                let arm_labels: Vec<String> = (1..ways).map(|_| self.fresh("SA")).collect();
                for (k, l) in arm_labels.iter().enumerate() {
                    let p = self
                        .b
                        .setp(CmpOp::Eq, Operand::Reg(s), Operand::Imm(k as i64 + 1));
                    self.b.bra_if(p, l);
                }
                self.block(&arms[0]);
                self.b.bra(&l_end);
                for (k, l) in arm_labels.iter().enumerate() {
                    self.b.label(l);
                    self.block(&arms[k + 1]);
                    self.b.bra(&l_end);
                }
                self.b.label(&l_end);
            }
            Stmt::Store { val, guard } => {
                let v = self.r(*val);
                let p = guard.as_ref().map(|c| self.cond(c));
                self.store_c(v, p);
            }
            Stmt::Atomic { op, slot, val } => {
                let sl = self.b.alu2(
                    Op::And,
                    Operand::Reg(self.r(*slot)),
                    Operand::Imm(self.slot_mask),
                );
                let addr = self.b.alu3(
                    Op::Mad,
                    Operand::Reg(sl),
                    Operand::Imm(4),
                    Operand::Param(3),
                );
                let v = self
                    .b
                    .alu2(Op::And, Operand::Reg(self.r(*val)), Operand::Imm(VAL_MASK));
                // Old value intentionally dropped: reusing it would make the
                // output depend on atomic serialization order.
                let _old = self.b.atom(*op, addr, 0, Operand::Reg(v));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> KernelSpec {
        KernelSpec {
            seed: 7,
            index: 0,
            grid: 2,
            block: 48,
            slots: 8,
            body: vec![
                Stmt::LoadAffine {
                    arr: 0,
                    scale: 1,
                    offset: 0,
                },
                Stmt::If {
                    cond: Cond {
                        a: Vref(1),
                        mask: 7,
                        cmp: CmpOp::Lt,
                        imm: 3,
                    },
                    then: vec![Stmt::AluImm {
                        op: Op::Add,
                        a: Vref(3),
                        imm: 5,
                    }],
                    els: vec![],
                },
                Stmt::Atomic {
                    op: AtomOp::Add,
                    slot: Vref(1),
                    val: Vref(3),
                },
            ],
        }
    }

    #[test]
    fn lowering_always_validates() {
        let w = tiny_spec().build_workload();
        w.kernel.validate().unwrap();
        assert_eq!(w.launch.params.len(), 4);
        assert_eq!(w.output.0, ARR_C);
        assert_eq!(w.output.1, 96 + 8);
    }

    #[test]
    fn abbr_is_the_case_id() {
        let a = tiny_spec().build_workload();
        assert_eq!(a.abbr, "v1-s7-i0");
        assert_eq!(a.abbr, case_id(7, 0));
        let mut changed = tiny_spec();
        changed.seed = 8;
        assert_ne!(a.abbr, changed.build_workload().abbr);
    }
}

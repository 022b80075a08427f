//! Programmatic kernel construction with labels and forward references.

use crate::instr::{AddrMode, AtomOp, CmpOp, Guard, Instr, Op, PredSrc};
use crate::kernel::Kernel;
use crate::types::{Operand, PredId, RegId, Space, SpecialReg, Width};
use std::collections::HashMap;

/// Builds a [`Kernel`] instruction by instruction.
///
/// Registers and predicates are allocated on demand; branch targets are
/// symbolic labels resolved at [`KernelBuilder::build`] time, so loops with
/// forward exits are easy to express.
///
/// # Example
///
/// ```
/// use simt_ir::{KernelBuilder, CmpOp, Op, Operand};
///
/// let mut b = KernelBuilder::new("count", 1);
/// let i = b.mov(Operand::Imm(0));
/// b.label("loop");
/// b.alu_into(i, Op::Add, &[Operand::Reg(i), Operand::Imm(1)]);
/// let p = b.setp(CmpOp::Lt, Operand::Reg(i), Operand::Param(0));
/// b.bra_if(p, "loop");
/// b.exit();
/// let k = b.build();
/// assert!(k.validate().is_ok());
/// ```
#[derive(Debug)]
pub struct KernelBuilder {
    name: String,
    instrs: Vec<Instr>,
    next_reg: RegId,
    next_pred: PredId,
    num_params: u16,
    shared_bytes: u32,
    regs_per_thread: u16,
    labels: HashMap<String, usize>,
    fixups: Vec<(usize, String)>,
}

impl KernelBuilder {
    /// Start a new kernel with `num_params` parameter slots.
    pub fn new(name: impl Into<String>, num_params: u16) -> Self {
        KernelBuilder {
            name: name.into(),
            instrs: Vec::new(),
            next_reg: 0,
            next_pred: 0,
            num_params,
            shared_bytes: 0,
            regs_per_thread: 0,
            labels: HashMap::new(),
            fixups: Vec::new(),
        }
    }

    /// Reserve `bytes` of per-CTA shared memory.
    pub fn shared(&mut self, bytes: u32) -> &mut Self {
        self.shared_bytes = self.shared_bytes.max(bytes);
        self
    }

    /// Declare the per-thread register-file footprint for occupancy
    /// accounting. [`KernelBuilder::build`] raises it to the number of
    /// virtual registers actually allocated, so this only matters when
    /// modelling *extra* register pressure (spills, compiler padding).
    pub fn regs_per_thread(&mut self, regs: u16) -> &mut Self {
        self.regs_per_thread = self.regs_per_thread.max(regs);
        self
    }

    /// Allocate a fresh general-purpose register.
    pub fn reg(&mut self) -> RegId {
        let r = self.next_reg;
        self.next_reg += 1;
        r
    }

    /// Allocate a fresh predicate register.
    pub fn pred(&mut self) -> PredId {
        let p = self.next_pred;
        self.next_pred += 1;
        p
    }

    /// Current instruction index (the PC of the next emitted instruction).
    pub fn here(&self) -> usize {
        self.instrs.len()
    }

    /// Append a raw instruction.
    pub fn push(&mut self, i: Instr) -> &mut Self {
        self.instrs.push(i);
        self
    }

    /// Emit `op` into a fresh destination register.
    pub fn alu(&mut self, op: Op, srcs: &[Operand]) -> RegId {
        let dst = self.reg();
        self.alu_into(dst, op, srcs);
        dst
    }

    /// Emit `op` writing an existing register (for loop-carried updates).
    pub fn alu_into(&mut self, dst: RegId, op: Op, srcs: &[Operand]) -> &mut Self {
        assert_eq!(srcs.len(), op.arity(), "{op}: wrong operand count");
        let mut s = [Operand::Imm(0); 3];
        s[..srcs.len()].copy_from_slice(srcs);
        self.push(Instr::Alu {
            op,
            dst,
            srcs: s,
            guard: None,
        })
    }

    /// Unary ALU convenience.
    pub fn alu1(&mut self, op: Op, a: Operand) -> RegId {
        self.alu(op, &[a])
    }

    /// Binary ALU convenience.
    pub fn alu2(&mut self, op: Op, a: Operand, b: Operand) -> RegId {
        self.alu(op, &[a, b])
    }

    /// Ternary ALU convenience (`mad`).
    pub fn alu3(&mut self, op: Op, a: Operand, b: Operand, c: Operand) -> RegId {
        self.alu(op, &[a, b, c])
    }

    /// Move an operand into a fresh register.
    pub fn mov(&mut self, a: Operand) -> RegId {
        self.alu1(Op::Mov, a)
    }

    /// Integer compare into a fresh predicate.
    pub fn setp(&mut self, cmp: CmpOp, a: Operand, b: Operand) -> PredId {
        let dst = self.pred();
        self.setp_into(dst, cmp, a, b, false);
        dst
    }

    /// Float compare into a fresh predicate.
    pub fn setp_f(&mut self, cmp: CmpOp, a: Operand, b: Operand) -> PredId {
        let dst = self.pred();
        self.setp_into(dst, cmp, a, b, true);
        dst
    }

    /// Compare into an existing predicate register.
    pub fn setp_into(
        &mut self,
        dst: PredId,
        cmp: CmpOp,
        a: Operand,
        b: Operand,
        float: bool,
    ) -> &mut Self {
        self.push(Instr::SetP {
            dst,
            cmp,
            a,
            b,
            float,
            guard: None,
        })
    }

    /// `dst = p ? a : b` into a fresh register.
    pub fn sel(&mut self, p: PredId, a: Operand, b: Operand) -> RegId {
        let dst = self.reg();
        self.push(Instr::Sel {
            dst,
            pred: Guard::pos(p),
            a,
            b,
        });
        dst
    }

    /// Load into a fresh register from `[addr + disp]`.
    pub fn ld(&mut self, space: Space, addr: RegId, disp: i64, width: Width) -> RegId {
        let dst = self.reg();
        self.push(Instr::Ld {
            dst,
            space,
            addr: AddrMode::Reg(addr, disp),
            width,
            guard: None,
        });
        dst
    }

    /// Guarded load into a fresh register.
    pub fn ld_guard(
        &mut self,
        space: Space,
        addr: RegId,
        disp: i64,
        width: Width,
        guard: Guard,
    ) -> RegId {
        let dst = self.reg();
        self.push(Instr::Ld {
            dst,
            space,
            addr: AddrMode::Reg(addr, disp),
            width,
            guard: Some(guard),
        });
        dst
    }

    /// Store `src` to `[addr + disp]`.
    pub fn st(
        &mut self,
        space: Space,
        addr: RegId,
        disp: i64,
        src: Operand,
        width: Width,
    ) -> &mut Self {
        self.push(Instr::St {
            space,
            addr: AddrMode::Reg(addr, disp),
            src,
            width,
            guard: None,
        })
    }

    /// Guarded store.
    pub fn st_guard(
        &mut self,
        space: Space,
        addr: RegId,
        disp: i64,
        src: Operand,
        width: Width,
        guard: Guard,
    ) -> &mut Self {
        self.push(Instr::St {
            space,
            addr: AddrMode::Reg(addr, disp),
            src,
            width,
            guard: Some(guard),
        })
    }

    /// Atomic RMW on global memory; returns the register holding the old value.
    pub fn atom(&mut self, op: AtomOp, addr: RegId, disp: i64, src: Operand) -> RegId {
        let dst = self.reg();
        self.push(Instr::Atom {
            op,
            dst,
            addr: AddrMode::Reg(addr, disp),
            src,
            guard: None,
        });
        dst
    }

    /// CTA barrier.
    pub fn bar(&mut self) -> &mut Self {
        self.push(Instr::Bar)
    }

    /// Thread exit.
    pub fn exit(&mut self) -> &mut Self {
        self.push(Instr::Exit)
    }

    /// Bind `name` to the current PC.
    ///
    /// # Panics
    ///
    /// Panics if the label was already defined.
    pub fn label(&mut self, name: impl Into<String>) -> &mut Self {
        let name = name.into();
        let prev = self.labels.insert(name.clone(), self.instrs.len());
        assert!(prev.is_none(), "label {name} defined twice");
        self
    }

    fn bra_raw(&mut self, label: &str, pred: Option<PredSrc>) {
        let pc = self.instrs.len();
        self.fixups.push((pc, label.to_string()));
        self.instrs.push(Instr::Bra {
            target: usize::MAX,
            pred,
        });
    }

    /// Unconditional branch to `label`.
    pub fn bra(&mut self, label: &str) -> &mut Self {
        self.bra_raw(label, None);
        self
    }

    /// Branch to `label` when `p` is true.
    pub fn bra_if(&mut self, p: PredId, label: &str) -> &mut Self {
        self.bra_raw(label, Some(PredSrc::Reg(Guard::pos(p))));
        self
    }

    /// Branch to `label` when `p` is false.
    pub fn bra_ifnot(&mut self, p: PredId, label: &str) -> &mut Self {
        self.bra_raw(label, Some(PredSrc::Reg(Guard::neg(p))));
        self
    }

    /// Emit the canonical linear thread id: `ctaid.x * ntid.x + tid.x`.
    pub fn tid_linear_x(&mut self) -> RegId {
        self.alu3(
            Op::Mad,
            Operand::Special(SpecialReg::CtaIdX),
            Operand::Special(SpecialReg::NTidX),
            Operand::Special(SpecialReg::TidX),
        )
    }

    /// Finalize into a [`Kernel`], resolving all label fixups.
    ///
    /// # Panics
    ///
    /// Panics if any referenced label was never defined.
    pub fn build(mut self) -> Kernel {
        for (pc, label) in &self.fixups {
            let target = *self
                .labels
                .get(label)
                .unwrap_or_else(|| panic!("undefined label {label}"));
            if let Instr::Bra { target: t, .. } = &mut self.instrs[*pc] {
                *t = target;
            }
        }
        Kernel {
            name: self.name,
            instrs: self.instrs,
            num_regs: self.next_reg,
            num_preds: self.next_pred,
            num_params: self.num_params,
            shared_bytes: self.shared_bytes,
            regs_per_thread: self.regs_per_thread.max(self.next_reg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_loop_with_forward_label() {
        let mut b = KernelBuilder::new("k", 1);
        let i = b.mov(Operand::Imm(0));
        let p = b.pred();
        b.label("top");
        b.alu_into(i, Op::Add, &[Operand::Reg(i), Operand::Imm(1)]);
        b.setp_into(p, CmpOp::Ge, Operand::Reg(i), Operand::Param(0), false);
        b.bra_if(p, "done");
        b.bra("top");
        b.label("done");
        b.exit();
        let k = b.build();
        k.validate().unwrap();
        // bra_if at pc 3 targets "done" == 5; bra at 4 targets "top" == 1.
        match k.instrs[3] {
            Instr::Bra { target, .. } => assert_eq!(target, 5),
            _ => panic!(),
        }
        match k.instrs[4] {
            Instr::Bra { target, .. } => assert_eq!(target, 1),
            _ => panic!(),
        }
    }

    #[test]
    #[should_panic(expected = "undefined label")]
    fn undefined_label_panics() {
        let mut b = KernelBuilder::new("k", 0);
        b.bra("nowhere");
        b.exit();
        b.build();
    }

    #[test]
    #[should_panic(expected = "defined twice")]
    fn duplicate_label_panics() {
        let mut b = KernelBuilder::new("k", 0);
        b.label("a");
        b.label("a");
    }

    #[test]
    fn register_counts_tracked() {
        let mut b = KernelBuilder::new("k", 0);
        let t = b.tid_linear_x();
        let _ = b.alu2(Op::Add, Operand::Reg(t), Operand::Imm(1));
        b.exit();
        let k = b.build();
        assert_eq!(k.num_regs, 2);
        assert_eq!(k.num_preds, 0);
    }
}

//! The instruction set.
//!
//! A kernel is a flat vector of [`Instr`]; branch targets are instruction
//! indices (PCs). The set mirrors the subset of PTX/SASS that the paper's
//! examples and mechanisms exercise, plus the decoupling instructions
//! `enq.data` / `enq.addr` / `enq.pred` and the dequeue operand forms used by
//! the non-affine stream (paper Figure 7).

use crate::types::{Operand, PredId, RegId, Space, Width};
use std::fmt;

/// Arithmetic/logic operations on general-purpose registers.
///
/// Integer ops act on the full 64-bit register (wrapping); `F*` ops act on
/// the low 32 bits as `f32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    // Integer.
    Add,
    Sub,
    Mul,
    /// Multiply-add: `dst = a * b + c`.
    Mad,
    Div,
    /// Remainder (the paper's `mod` support, §4.4).
    Rem,
    Min,
    Max,
    Abs,
    Neg,
    And,
    Or,
    Xor,
    Not,
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Sar,
    Mov,
    // Float (f32 on low 32 bits).
    FAdd,
    FSub,
    FMul,
    /// Float multiply-add: `dst = a * b + c`.
    FMad,
    FDiv,
    FMin,
    FMax,
    FAbs,
    FNeg,
    FSqrt,
    /// Reciprocal (SFU).
    FRcp,
    /// Base-2 exponential (SFU).
    FExp2,
    /// Base-2 logarithm (SFU).
    FLog2,
    /// Sine (SFU).
    FSin,
    /// Cosine (SFU).
    FCos,
    /// Convert signed integer to f32.
    I2F,
    /// Convert f32 to signed integer (truncating).
    F2I,
}

impl Op {
    /// Number of source operands the op consumes.
    pub fn arity(self) -> usize {
        match self {
            Op::Mad | Op::FMad => 3,
            Op::Abs
            | Op::Neg
            | Op::Not
            | Op::Mov
            | Op::FAbs
            | Op::FNeg
            | Op::FSqrt
            | Op::FRcp
            | Op::FExp2
            | Op::FLog2
            | Op::FSin
            | Op::FCos
            | Op::I2F
            | Op::F2I => 1,
            _ => 2,
        }
    }

    /// True for transcendental ops executed on the special function units.
    pub fn is_sfu(self) -> bool {
        matches!(
            self,
            Op::FSqrt | Op::FRcp | Op::FExp2 | Op::FLog2 | Op::FSin | Op::FCos | Op::FDiv
        )
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Op::Add => "add",
            Op::Sub => "sub",
            Op::Mul => "mul",
            Op::Mad => "mad",
            Op::Div => "div",
            Op::Rem => "rem",
            Op::Min => "min",
            Op::Max => "max",
            Op::Abs => "abs",
            Op::Neg => "neg",
            Op::And => "and",
            Op::Or => "or",
            Op::Xor => "xor",
            Op::Not => "not",
            Op::Shl => "shl",
            Op::Shr => "shr",
            Op::Sar => "sar",
            Op::Mov => "mov",
            Op::FAdd => "add.f32",
            Op::FSub => "sub.f32",
            Op::FMul => "mul.f32",
            Op::FMad => "mad.f32",
            Op::FDiv => "div.f32",
            Op::FMin => "min.f32",
            Op::FMax => "max.f32",
            Op::FAbs => "abs.f32",
            Op::FNeg => "neg.f32",
            Op::FSqrt => "sqrt.f32",
            Op::FRcp => "rcp.f32",
            Op::FExp2 => "ex2.f32",
            Op::FLog2 => "lg2.f32",
            Op::FSin => "sin.f32",
            Op::FCos => "cos.f32",
            Op::I2F => "cvt.f32.s64",
            Op::F2I => "cvt.s64.f32",
        };
        write!(f, "{s}")
    }
}

/// Comparison operators for `setp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Evaluate the comparison on signed 64-bit values.
    #[inline]
    pub fn eval_i64(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// Evaluate the comparison on `f32` values.
    #[inline]
    pub fn eval_f32(self, a: f32, b: f32) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// The comparison with operands swapped (`a op b` ⇔ `b op.swap() a`).
    pub fn swapped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        };
        write!(f, "{s}")
    }
}

/// Atomic read-modify-write operations (global space only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomOp {
    Add,
    Min,
    Max,
    Exch,
}

impl fmt::Display for AtomOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AtomOp::Add => "add",
            AtomOp::Min => "min",
            AtomOp::Max => "max",
            AtomOp::Exch => "exch",
        };
        write!(f, "{s}")
    }
}

/// Guard predicate on an instruction: `@p` or `@!p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Guard {
    /// The predicate register tested.
    pub pred: PredId,
    /// If true, the guard is `@!p`.
    pub negate: bool,
}

impl Guard {
    /// A positive guard `@p`.
    pub fn pos(pred: PredId) -> Self {
        Guard {
            pred,
            negate: false,
        }
    }

    /// A negated guard `@!p`.
    pub fn neg(pred: PredId) -> Self {
        Guard { pred, negate: true }
    }
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negate {
            write!(f, "@!p{}", self.pred)
        } else {
            write!(f, "@p{}", self.pred)
        }
    }
}

/// How a memory instruction obtains its effective address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddrMode {
    /// `[reg + disp]` — ordinary register-indirect addressing.
    Reg(RegId, i64),
    /// `[deq.data]` — pop a warp address record from this warp's PWAQ; the
    /// data was already requested (and L1-locked) by the Address Expansion
    /// Unit. Loads only.
    DeqData,
    /// `[deq.addr]` — pop a warp address record from the PWAQ without an
    /// early data request. Stores (and loads the compiler chose not to
    /// prefetch).
    DeqAddr,
}

impl AddrMode {
    /// The register read by the address computation, if any.
    pub fn reg(self) -> Option<RegId> {
        match self {
            AddrMode::Reg(r, _) => Some(r),
            _ => None,
        }
    }

    /// True for the dequeue forms used by the non-affine stream.
    pub fn is_deq(self) -> bool {
        !matches!(self, AddrMode::Reg(..))
    }
}

/// Where a branch obtains its predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredSrc {
    /// An ordinary predicate register (optionally negated).
    Reg(Guard),
    /// `@deq.pred` — pop a predicate bit from this warp's PWPQ (the bit
    /// vector was produced by the Predicate Expansion Unit).
    Deq { negate: bool },
}

/// Which decoupling queue an `enq` instruction feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueKind {
    /// Address destined for a load; the AEU issues the memory request early.
    Data,
    /// Address destined for a store (no early request).
    Addr,
    /// Predicate bit vector.
    Pred,
}

impl fmt::Display for QueueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueKind::Data => write!(f, "data"),
            QueueKind::Addr => write!(f, "addr"),
            QueueKind::Pred => write!(f, "pred"),
        }
    }
}

/// A single machine instruction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Instr {
    /// ALU operation: `dst = op(srcs...)`, with up to three sources.
    Alu {
        op: Op,
        dst: RegId,
        srcs: [Operand; 3],
        guard: Option<Guard>,
    },
    /// Set predicate: `dst = a cmp b`, integer or float compare.
    SetP {
        dst: PredId,
        cmp: CmpOp,
        a: Operand,
        b: Operand,
        float: bool,
        guard: Option<Guard>,
    },
    /// Predicate-select: `dst = guard_pred ? a : b`.
    Sel {
        dst: RegId,
        pred: Guard,
        a: Operand,
        b: Operand,
    },
    /// Load `dst = space[addr]`.
    Ld {
        dst: RegId,
        space: Space,
        addr: AddrMode,
        width: Width,
        guard: Option<Guard>,
    },
    /// Store `space[addr] = src`.
    St {
        space: Space,
        addr: AddrMode,
        src: Operand,
        width: Width,
        guard: Option<Guard>,
    },
    /// Atomic read-modify-write on global memory; `dst` gets the old value.
    Atom {
        op: AtomOp,
        dst: RegId,
        addr: AddrMode,
        src: Operand,
        guard: Option<Guard>,
    },
    /// Conditional or unconditional branch to instruction index `target`.
    Bra {
        target: usize,
        pred: Option<PredSrc>,
    },
    /// CTA-wide barrier (`bar.sync`).
    Bar,
    /// Thread exit.
    Exit,
    /// DAC: enqueue an affine value to the Affine Tuple Queue for expansion
    /// (affine stream only). For `kind != Pred`, `src` is the register
    /// holding the affine address and `width` its access granularity; for
    /// `Pred`, `pred` names the affine predicate being decoupled.
    Enq {
        kind: QueueKind,
        src: Option<RegId>,
        pred: Option<PredId>,
        width: Width,
        /// Memory space of the decoupled access (local addresses need the
        /// per-thread window applied during expansion).
        space: Space,
        guard: Option<Guard>,
    },
}

/// Coarse classification used by the Figure 6 "potentially affine" analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrClass {
    /// ALU / setp / sel.
    Arithmetic,
    /// Loads, stores, atomics.
    Memory,
    /// Branches.
    Branch,
    /// Barriers, exits, enqueues.
    Other,
}

impl Instr {
    /// Classify the instruction for static-mix statistics.
    pub fn class(&self) -> InstrClass {
        match self {
            Instr::Alu { .. } | Instr::SetP { .. } | Instr::Sel { .. } => InstrClass::Arithmetic,
            Instr::Ld { .. } | Instr::St { .. } | Instr::Atom { .. } => InstrClass::Memory,
            Instr::Bra { .. } => InstrClass::Branch,
            Instr::Bar | Instr::Exit | Instr::Enq { .. } => InstrClass::Other,
        }
    }

    /// The general-purpose register written by this instruction, if any.
    pub fn def_reg(&self) -> Option<RegId> {
        match self {
            Instr::Alu { dst, .. }
            | Instr::Sel { dst, .. }
            | Instr::Ld { dst, .. }
            | Instr::Atom { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// The predicate register written by this instruction, if any.
    pub fn def_pred(&self) -> Option<PredId> {
        match self {
            Instr::SetP { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// All source operands (registers, immediates, specials, params).
    pub fn src_operands(&self) -> Vec<Operand> {
        match self {
            Instr::Alu { op, srcs, .. } => srcs[..op.arity()].to_vec(),
            Instr::SetP { a, b, .. } => vec![*a, *b],
            Instr::Sel { a, b, .. } => vec![*a, *b],
            Instr::Ld { addr, .. } => addr.reg().map(Operand::Reg).into_iter().collect(),
            Instr::St { addr, src, .. } => {
                let mut v: Vec<Operand> = addr.reg().map(Operand::Reg).into_iter().collect();
                v.push(*src);
                v
            }
            Instr::Atom { addr, src, .. } => {
                let mut v: Vec<Operand> = addr.reg().map(Operand::Reg).into_iter().collect();
                v.push(*src);
                v
            }
            Instr::Enq { src, .. } => src.map(Operand::Reg).into_iter().collect(),
            Instr::Bra { .. } | Instr::Bar | Instr::Exit => Vec::new(),
        }
    }

    /// All general-purpose registers read by this instruction (the guard's
    /// predicate register is a *predicate*, so excluded here). At most
    /// three: ALU arity caps at 3.
    pub fn src_regs(&self) -> Vec<RegId> {
        let mut out = Vec::with_capacity(3);
        match self {
            Instr::Alu { op, srcs, .. } => {
                out.extend(srcs[..op.arity()].iter().filter_map(|s| s.reg()));
            }
            Instr::SetP { a, b, .. } | Instr::Sel { a, b, .. } => {
                out.extend(a.reg());
                out.extend(b.reg());
            }
            Instr::Ld { addr, .. } => out.extend(addr.reg()),
            Instr::St { addr, src, .. } | Instr::Atom { addr, src, .. } => {
                out.extend(addr.reg());
                out.extend(src.reg());
            }
            Instr::Enq { src, .. } => out.extend(*src),
            Instr::Bra { .. } | Instr::Bar | Instr::Exit => {}
        }
        out
    }

    /// Predicate registers read: the guard plus at most one
    /// instruction-specific predicate source (`sel`, register-predicated
    /// branches, `enq.pred`).
    pub fn src_preds(&self) -> Vec<PredId> {
        let mut out = Vec::with_capacity(2);
        out.extend(self.guard().map(|g| g.pred));
        match self {
            Instr::Sel { pred, .. } => out.push(pred.pred),
            Instr::Bra {
                pred: Some(PredSrc::Reg(g)),
                ..
            } => out.push(g.pred),
            Instr::Enq {
                kind: QueueKind::Pred,
                pred: Some(p),
                ..
            } => out.push(*p),
            _ => {}
        }
        out
    }

    /// The instruction's guard, if any (branches use [`PredSrc`] instead).
    pub fn guard(&self) -> Option<Guard> {
        match self {
            Instr::Alu { guard, .. }
            | Instr::SetP { guard, .. }
            | Instr::Ld { guard, .. }
            | Instr::St { guard, .. }
            | Instr::Atom { guard, .. }
            | Instr::Enq { guard, .. } => *guard,
            _ => None,
        }
    }

    /// True if this is a memory access through the LSU (ld/st/atom).
    pub fn is_mem(&self) -> bool {
        matches!(
            self,
            Instr::Ld { .. } | Instr::St { .. } | Instr::Atom { .. }
        )
    }

    /// True if the instruction has a `deq.*` operand — a `[deq.data]` /
    /// `[deq.addr]` address or an `@deq.pred` branch predicate — i.e. it
    /// consumes a DAC queue entry at issue, so a coprocessor may gate it.
    pub fn has_deq(&self) -> bool {
        match self {
            Instr::Ld { addr, .. } | Instr::St { addr, .. } | Instr::Atom { addr, .. } => {
                addr.is_deq()
            }
            Instr::Bra { pred, .. } => matches!(pred, Some(PredSrc::Deq { .. })),
            _ => false,
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn g(guard: &Option<Guard>) -> String {
            guard.map(|g| format!("{g} ")).unwrap_or_default()
        }
        match self {
            Instr::Alu {
                op,
                dst,
                srcs,
                guard,
            } => {
                let args: Vec<String> = srcs[..op.arity()].iter().map(|s| s.to_string()).collect();
                write!(f, "{}{} r{}, {};", g(guard), op, dst, args.join(", "))
            }
            Instr::SetP {
                dst,
                cmp,
                a,
                b,
                float,
                guard,
            } => {
                let suffix = if *float { ".f32" } else { "" };
                write!(
                    f,
                    "{}setp.{}{} p{}, {}, {};",
                    g(guard),
                    cmp,
                    suffix,
                    dst,
                    a,
                    b
                )
            }
            Instr::Sel { dst, pred, a, b } => {
                let bang = if pred.negate { "!" } else { "" };
                write!(f, "sel r{}, {}, {}, {}p{};", dst, a, b, bang, pred.pred)
            }
            Instr::Ld {
                dst,
                space,
                addr,
                width,
                guard,
            } => match addr {
                AddrMode::Reg(r, d) => {
                    write!(
                        f,
                        "{}ld.{}.{} r{}, [r{}+{}];",
                        g(guard),
                        space,
                        width,
                        dst,
                        r,
                        d
                    )
                }
                AddrMode::DeqData => {
                    write!(f, "{}ld.{}.{} r{}, deq.data;", g(guard), space, width, dst)
                }
                AddrMode::DeqAddr => {
                    write!(f, "{}ld.{}.{} r{}, deq.addr;", g(guard), space, width, dst)
                }
            },
            Instr::St {
                space,
                addr,
                src,
                width,
                guard,
            } => match addr {
                AddrMode::Reg(r, d) => {
                    write!(
                        f,
                        "{}st.{}.{} [r{}+{}], {};",
                        g(guard),
                        space,
                        width,
                        r,
                        d,
                        src
                    )
                }
                _ => write!(f, "{}st.{}.{} [deq.addr], {};", g(guard), space, width, src),
            },
            Instr::Atom {
                op,
                dst,
                addr,
                src,
                guard,
            } => match addr {
                AddrMode::Reg(r, d) => {
                    write!(
                        f,
                        "{}atom.{} r{}, [r{}+{}], {};",
                        g(guard),
                        op,
                        dst,
                        r,
                        d,
                        src
                    )
                }
                _ => write!(f, "{}atom.{} r{}, [deq.addr], {};", g(guard), op, dst, src),
            },
            Instr::Bra { target, pred } => match pred {
                Some(PredSrc::Reg(gd)) => write!(f, "{gd} bra {target};"),
                Some(PredSrc::Deq { negate }) => {
                    write!(
                        f,
                        "@{}deq.pred bra {target};",
                        if *negate { "!" } else { "" }
                    )
                }
                None => write!(f, "bra {target};"),
            },
            Instr::Bar => write!(f, "bar.sync;"),
            Instr::Exit => write!(f, "exit;"),
            Instr::Enq {
                kind,
                src,
                pred,
                width,
                space,
                guard,
            } => match kind {
                QueueKind::Pred => write!(f, "{}enq.pred p{};", g(guard), pred.unwrap_or(0)),
                _ => {
                    let sp = if *space == Space::Local { ".local" } else { "" };
                    let w = if *width == Width::W32 {
                        String::new()
                    } else {
                        format!(".{width}")
                    };
                    write!(
                        f,
                        "{}enq.{}{}{} r{};",
                        g(guard),
                        kind,
                        sp,
                        w,
                        src.unwrap_or(0)
                    )
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_and_classes() {
        assert_eq!(Op::Mad.arity(), 3);
        assert_eq!(Op::Mov.arity(), 1);
        assert_eq!(Op::Add.arity(), 2);
        assert!(Op::FSqrt.is_sfu());
        assert!(!Op::Add.is_sfu());
    }

    #[test]
    fn cmp_eval() {
        assert!(CmpOp::Lt.eval_i64(-1, 0));
        assert!(!CmpOp::Lt.eval_i64(0, 0));
        assert!(CmpOp::Ge.eval_f32(1.5, 1.5));
        assert_eq!(CmpOp::Lt.swapped(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.swapped(), CmpOp::Eq);
    }

    #[test]
    fn def_and_src_extraction() {
        let i = Instr::Alu {
            op: Op::Mad,
            dst: 5,
            srcs: [Operand::Reg(1), Operand::Reg(2), Operand::Imm(3)],
            guard: None,
        };
        assert_eq!(i.def_reg(), Some(5));
        assert_eq!(i.src_regs(), vec![1, 2]);
        assert_eq!(i.class(), InstrClass::Arithmetic);

        let st = Instr::St {
            space: Space::Global,
            addr: AddrMode::Reg(7, 0),
            src: Operand::Reg(8),
            width: Width::W32,
            guard: Some(Guard::pos(2)),
        };
        assert_eq!(st.src_regs(), vec![7, 8]);
        assert_eq!(st.src_preds(), vec![2]);
        assert_eq!(st.class(), InstrClass::Memory);
    }

    #[test]
    fn display_round() {
        let i = Instr::Ld {
            dst: 1,
            space: Space::Global,
            addr: AddrMode::Reg(2, 4),
            width: Width::W32,
            guard: None,
        };
        assert_eq!(i.to_string(), "ld.global.b32 r1, [r2+4];");
        let b = Instr::Bra {
            target: 9,
            pred: Some(PredSrc::Deq { negate: false }),
        };
        assert_eq!(b.to_string(), "@deq.pred bra 9;");
    }
}

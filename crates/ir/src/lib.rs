//! `simt-ir` — a PTX-like intermediate representation for SIMT GPU kernels.
//!
//! This crate is the foundation of the DAC reproduction: it defines the
//! instruction set that kernels are written in, containers for kernels and
//! launch configurations, a [`KernelBuilder`] for constructing kernels
//! programmatically, a textual assembler ([`asm::parse_kernel`]), and
//! control-flow analyses (CFG, dominators, post-dominators, reaching
//! definitions) used by both the simulator's SIMT reconvergence stack and the
//! affine decoupling compiler.
//!
//! The machine model is deliberately close to the abstraction level of the
//! paper's pseudo-assembly (Figure 4b): a register machine with 32-thread
//! warps, predicate registers, typed memory spaces, and explicit branch
//! instructions whose reconvergence points are the immediate post-dominators
//! of the branch blocks.
//!
//! # Example
//!
//! ```
//! use simt_ir::{KernelBuilder, Op, Operand, Space, Width};
//!
//! // B[tid] = A[tid] + 1
//! let mut b = KernelBuilder::new("add_one", 2);
//! let tid = b.tid_linear_x();
//! let off = b.alu2(Op::Shl, Operand::Reg(tid), Operand::Imm(2));
//! let a = b.alu2(Op::Add, Operand::Param(0), Operand::Reg(off));
//! let bb = b.alu2(Op::Add, Operand::Param(1), Operand::Reg(off));
//! let v = b.ld(Space::Global, a, 0, Width::W32);
//! let v1 = b.alu2(Op::Add, Operand::Reg(v), Operand::Imm(1));
//! b.st(Space::Global, bb, 0, Operand::Reg(v1), Width::W32);
//! b.exit();
//! let kernel = b.build();
//! assert_eq!(kernel.name, "add_one");
//! ```

#![forbid(unsafe_code)]

pub mod asm;
pub mod builder;
pub mod cfg;
pub mod disasm;
pub mod eval;
pub mod instr;
pub mod kernel;
pub mod types;

pub use builder::KernelBuilder;
pub use cfg::{Cfg, ReachingDefs};
pub use instr::{AddrMode, AtomOp, CmpOp, Instr, InstrClass, Op, PredSrc, QueueKind};
pub use kernel::{Dim3, Kernel, LaunchConfig, Program};
pub use types::{Operand, PredId, RegId, Space, SpecialReg, Value, Width};

//! `simt-fuzz` — differential kernel fuzzing for the DAC reproduction.
//!
//! The paper's transparency claim (DAC, CAE, and MTA never change program
//! semantics) is pinned by 29 hand-written workloads; this crate pins it by
//! *construction*: a seeded generator produces random kernels whose memory
//! effects are order-independent by grammar, a per-thread functional oracle
//! computes the unique correct result, and a differential driver demands
//! every design reproduce it bit-for-bit along with the issue-slot
//! accounting invariants. A greedy reducer shrinks any counterexample to a
//! minimal `.asm` repro.
//!
//! Pipeline: [`gen::gen_spec`] → [`spec::KernelSpec::build_workload`] →
//! [`diff::check_workload`] → (on failure) [`reduce::reduce`] →
//! [`reduce::repro_asm`].

#![forbid(unsafe_code)]

pub mod diff;
pub mod gen;
pub mod oracle;
pub mod reduce;
pub mod spec;

pub use diff::{check_workload, small_overrides, DiffConfig, DiffFailure};
pub use gen::gen_spec;
pub use oracle::{run_oracle, OracleError};
pub use reduce::{reduce, reduce_with, repro_asm};
pub use spec::{KernelSpec, Stmt, GEN_VERSION};

//! `affine` — affine-tuple algebra and the DAC decoupling compiler.
//!
//! This crate is the *compiler half* of the paper: it classifies every
//! operand of a kernel as scalar / affine / non-affine via reaching-definition
//! dataflow (paper §4.7), identifies the memory-address and predicate
//! computations eligible for decoupling — including after limited control
//! flow divergence (§4.6) — and splits the kernel into the affine and
//! non-affine instruction streams of Figure 7.
//!
//! It also defines the runtime representation of affine values
//! ([`AffineTuple`], [`AffineVal`]) used by the DAC hardware model in
//! `dac-core`: a base plus one offset per thread dimension, an optional
//! modulo extension (§4.4), and divergent tuple sets of up to four tuples
//! (§4.6). Tuple arithmetic is bit-exact with the SIMT data path —
//! decoupling is an optimization, never an approximation.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod class;
pub mod decouple;
pub mod tuple;
pub mod value;

pub use analysis::{AffineAnalysis, Candidate, CandidateKind, StaticMix};
pub use class::AffClass;
pub use decouple::{decouple, DecoupleStats, DecoupledKernel};
pub use tuple::{AffineTuple, ModExt};
pub use value::{AffineVal, PredVal};

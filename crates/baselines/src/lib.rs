//! `gpu-baselines` — the two comparison designs from the paper's
//! evaluation (§5.1.1), both generously provisioned exactly as the paper
//! provisions them:
//!
//! * [`Cae`] — **Compact Affine Execution** after Kim et al. \[13\]: runtime
//!   affine-operand tagging plus *two* affine functional units per SM (one
//!   per scheduler), so affine-eligible warp instructions issue with
//!   initiation interval 1 and leave the SIMT lanes free.
//! * [`Mta`] — **Many-Thread Aware prefetching** after Lee et al. \[15\]:
//!   per-PC inter-warp/intra-warp stride detection, speculative prefetches
//!   into a dedicated 16 KB per-SM prefetch buffer, and eviction-based
//!   throttling.

#![forbid(unsafe_code)]

pub mod cae;
pub mod mta;

pub use cae::{Cae, CaeConfig};
pub use mta::{Mta, MtaConfig};

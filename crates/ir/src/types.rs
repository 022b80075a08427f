//! Core value and operand types of the SIMT machine.
//!
//! Registers hold 64-bit values ([`Value`]). Integer arithmetic is performed
//! on the full 64 bits (wrapping); floating-point operations interpret the
//! low 32 bits as an IEEE-754 `f32`, matching the 32-bit GPU data path while
//! leaving headroom for 64-bit addresses.

use std::fmt;

/// A virtual general-purpose register index within a kernel.
pub type RegId = u16;

/// A predicate register index within a kernel.
pub type PredId = u16;

/// The raw 64-bit contents of a register.
pub type Value = u64;

/// Reinterpret the low 32 bits of a register value as `f32`.
#[inline]
pub fn value_as_f32(v: Value) -> f32 {
    f32::from_bits(v as u32)
}

/// Pack an `f32` into a register value (zero-extended), every NaN as the
/// quiet NaN `0x7FC0_0000`, so no payload choice is left to codegen.
#[inline]
pub fn f32_as_value(f: f32) -> Value {
    (if f.is_nan() { 0x7FC0_0000 } else { f.to_bits() }) as Value
}

/// Memory spaces of the machine, mirroring PTX state spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Space {
    /// Off-chip global memory, served by L1/L2/DRAM.
    Global,
    /// Per-CTA on-chip scratchpad.
    Shared,
    /// Per-thread spill space; accessed through the cache hierarchy
    /// like global memory (the paper counts "global and local" loads
    /// together).
    Local,
}

impl fmt::Display for Space {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Space::Global => write!(f, "global"),
            Space::Shared => write!(f, "shared"),
            Space::Local => write!(f, "local"),
        }
    }
}

/// Access granularity of a memory instruction.
///
/// The Address Expansion Unit's warp address records carry these
/// "granularity bits" so a single cache-line address plus a bit mask can
/// encode each thread's word, half-word, or byte access (paper §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// Byte access.
    W8,
    /// Half-word (16-bit) access.
    W16,
    /// Word (32-bit) access — the common case.
    W32,
    /// Double-word (64-bit) access.
    W64,
}

impl Width {
    /// Size of the access in bytes.
    #[inline]
    pub fn bytes(self) -> u64 {
        match self {
            Width::W8 => 1,
            Width::W16 => 2,
            Width::W32 => 4,
            Width::W64 => 8,
        }
    }
}

impl fmt::Display for Width {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.bytes() * 8)
    }
}

/// Read-only special registers, set by the hardware at thread launch.
///
/// These are the seeds of all affine computation: `Tid*`/`CtaId*` are affine
/// in the thread index, while `NTid*`/`NCtaId*` are scalars (uniform across
/// the grid).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecialReg {
    /// `threadIdx.{x,y,z}`
    TidX,
    TidY,
    TidZ,
    /// `blockIdx.{x,y,z}`
    CtaIdX,
    CtaIdY,
    CtaIdZ,
    /// `blockDim.{x,y,z}`
    NTidX,
    NTidY,
    NTidZ,
    /// `gridDim.{x,y,z}`
    NCtaIdX,
    NCtaIdY,
    NCtaIdZ,
}

impl SpecialReg {
    /// All special registers, in a stable order.
    pub const ALL: [SpecialReg; 12] = [
        SpecialReg::TidX,
        SpecialReg::TidY,
        SpecialReg::TidZ,
        SpecialReg::CtaIdX,
        SpecialReg::CtaIdY,
        SpecialReg::CtaIdZ,
        SpecialReg::NTidX,
        SpecialReg::NTidY,
        SpecialReg::NTidZ,
        SpecialReg::NCtaIdX,
        SpecialReg::NCtaIdY,
        SpecialReg::NCtaIdZ,
    ];

    /// True if the register is uniform across every thread of the grid
    /// (`blockDim`/`gridDim`).
    pub fn is_grid_uniform(self) -> bool {
        matches!(
            self,
            SpecialReg::NTidX
                | SpecialReg::NTidY
                | SpecialReg::NTidZ
                | SpecialReg::NCtaIdX
                | SpecialReg::NCtaIdY
                | SpecialReg::NCtaIdZ
        )
    }

    /// True if the register is uniform across threads of one CTA
    /// (`blockIdx` and the grid-uniform registers).
    pub fn is_cta_uniform(self) -> bool {
        self.is_grid_uniform()
            || matches!(
                self,
                SpecialReg::CtaIdX | SpecialReg::CtaIdY | SpecialReg::CtaIdZ
            )
    }
}

impl fmt::Display for SpecialReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SpecialReg::TidX => "tid.x",
            SpecialReg::TidY => "tid.y",
            SpecialReg::TidZ => "tid.z",
            SpecialReg::CtaIdX => "ctaid.x",
            SpecialReg::CtaIdY => "ctaid.y",
            SpecialReg::CtaIdZ => "ctaid.z",
            SpecialReg::NTidX => "ntid.x",
            SpecialReg::NTidY => "ntid.y",
            SpecialReg::NTidZ => "ntid.z",
            SpecialReg::NCtaIdX => "nctaid.x",
            SpecialReg::NCtaIdY => "nctaid.y",
            SpecialReg::NCtaIdZ => "nctaid.z",
        };
        write!(f, "%{s}")
    }
}

/// A source operand of an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A general-purpose register.
    Reg(RegId),
    /// A sign-extended immediate.
    Imm(i64),
    /// A hardware special register.
    Special(SpecialReg),
    /// A kernel parameter slot (uniform across the grid — e.g. array base
    /// pointers and problem sizes).
    Param(u16),
}

impl Operand {
    /// The register read by this operand, if any.
    pub fn reg(self) -> Option<RegId> {
        match self {
            Operand::Reg(r) => Some(r),
            _ => None,
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "r{r}"),
            Operand::Imm(i) => write!(f, "{i}"),
            Operand::Special(s) => write!(f, "{s}"),
            Operand::Param(p) => write!(f, "%p{p}"),
        }
    }
}

impl From<RegId> for Operand {
    fn from(r: RegId) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(i: i64) -> Self {
        Operand::Imm(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_roundtrip() {
        for f in [0.0f32, -1.5, 3.25e9, f32::MIN_POSITIVE] {
            assert_eq!(value_as_f32(f32_as_value(f)), f);
        }
    }

    #[test]
    fn width_bytes() {
        assert_eq!(Width::W8.bytes(), 1);
        assert_eq!(Width::W16.bytes(), 2);
        assert_eq!(Width::W32.bytes(), 4);
        assert_eq!(Width::W64.bytes(), 8);
    }

    #[test]
    fn special_uniformity() {
        assert!(SpecialReg::NTidX.is_grid_uniform());
        assert!(!SpecialReg::CtaIdX.is_grid_uniform());
        assert!(SpecialReg::CtaIdX.is_cta_uniform());
        assert!(!SpecialReg::TidX.is_cta_uniform());
    }

    #[test]
    fn operand_display() {
        assert_eq!(Operand::Reg(3).to_string(), "r3");
        assert_eq!(Operand::Imm(-4).to_string(), "-4");
        assert_eq!(Operand::Special(SpecialReg::TidX).to_string(), "%tid.x");
        assert_eq!(Operand::Param(1).to_string(), "%p1");
    }
}

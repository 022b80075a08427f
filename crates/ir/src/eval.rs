//! Functional semantics of ALU operations.
//!
//! These are shared by the simulator's warp-wide execution engine (through
//! [`eval_lanes`] / [`cmp_lanes`], which add dispatch but no arithmetic),
//! the CAE baseline's affine units, and DAC's affine-tuple computation
//! (which must produce values bit-identical to the vector path — the
//! decoupling is an optimization, not an approximation).

use crate::instr::{CmpOp, Op};
use crate::types::{f32_as_value, value_as_f32, Value};

/// One value per lane of a warp.
pub type Lanes = [Value; 32];

/// Evaluate an ALU op on up to three source values.
///
/// Integer ops act on the full 64-bit register with wrapping semantics;
/// division/remainder by zero produce 0 (GPU-style, no traps). Float ops act
/// on the low 32 bits as `f32`.
#[inline]
pub fn eval(op: Op, a: Value, b: Value, c: Value) -> Value {
    let (ai, bi) = (a as i64, b as i64);
    let (af, bf, cf) = (value_as_f32(a), value_as_f32(b), value_as_f32(c));
    match op {
        Op::Add => a.wrapping_add(b),
        Op::Sub => a.wrapping_sub(b),
        Op::Mul => a.wrapping_mul(b),
        Op::Mad => a.wrapping_mul(b).wrapping_add(c),
        Op::Div => {
            if bi == 0 {
                0
            } else {
                ai.wrapping_div(bi) as Value
            }
        }
        // Euclidean remainder (result in [0, |b|)): keeps `rem` consistent
        // with the affine mod-tuple algebra for negative operands. GPU
        // kernels use `rem` for address wrapping, where operands are
        // non-negative and Euclidean == truncated anyway.
        Op::Rem => {
            if bi == 0 || (ai == i64::MIN && bi == -1) {
                0
            } else {
                ai.rem_euclid(bi) as Value
            }
        }
        Op::Min => ai.min(bi) as Value,
        Op::Max => ai.max(bi) as Value,
        Op::Abs => ai.wrapping_abs() as Value,
        Op::Neg => (ai.wrapping_neg()) as Value,
        Op::And => a & b,
        Op::Or => a | b,
        Op::Xor => a ^ b,
        Op::Not => !a,
        Op::Shl => a.wrapping_shl((b & 63) as u32),
        Op::Shr => a.wrapping_shr((b & 63) as u32),
        Op::Sar => (ai.wrapping_shr((b & 63) as u32)) as Value,
        Op::Mov => a,
        Op::FAdd => f32_as_value(af + bf),
        Op::FSub => f32_as_value(af - bf),
        Op::FMul => f32_as_value(af * bf),
        Op::FMad => f32_as_value(af * bf + cf),
        Op::FDiv => f32_as_value(af / bf),
        Op::FMin => f32_as_value(af.min(bf)),
        Op::FMax => f32_as_value(af.max(bf)),
        Op::FAbs => f32_as_value(af.abs()),
        Op::FNeg => f32_as_value(-af),
        Op::FSqrt => f32_as_value(af.sqrt()),
        Op::FRcp => f32_as_value(1.0 / af),
        Op::FExp2 => f32_as_value(af.exp2()),
        Op::FLog2 => f32_as_value(af.log2()),
        Op::FSin => f32_as_value(af.sin()),
        Op::FCos => f32_as_value(af.cos()),
        Op::I2F => f32_as_value(ai as f32),
        Op::F2I => (af as i64) as Value,
    }
}

/// Invokes macro `$m` with every [`Op`] variant as a bare identifier. The
/// one list behind [`eval_lanes`]'s dispatch (whose `match` the compiler
/// checks for exhaustiveness) and the tests' enumeration of all ops.
macro_rules! all_ops {
    ($m:ident) => {
        $m!(Add Sub Mul Mad Div Rem Min Max Abs Neg And Or Xor Not Shl Shr Sar Mov
            FAdd FSub FMul FMad FDiv FMin FMax FAbs FNeg FSqrt FRcp FExp2 FLog2
            FSin FCos I2F F2I)
    };
}

/// [`all_ops`] for [`CmpOp`].
macro_rules! all_cmps {
    ($m:ident) => {
        $m!(Eq Ne Lt Le Gt Ge)
    };
}

/// [`eval`] over all 32 lanes of a warp: `out[i] = eval(op, a[i], b[i],
/// c[i])`. Dispatches on `op` once — each arm is a straight loop over
/// [`eval`] with the op a constant, so `eval`'s own `match` folds away and
/// the arithmetic stays defined in one place. Every lane is computed
/// (`eval` is total: no traps, `div`/`rem` guard zero) bit for bit as
/// `eval` would; the caller decides which lanes of `out` are observed.
pub fn eval_lanes(op: Op, a: &Lanes, b: &Lanes, c: &Lanes, out: &mut Lanes) {
    macro_rules! arms {
        ($($k:ident)*) => {
            match op {
                $(Op::$k => {
                    for i in 0..32 {
                        out[i] = eval(Op::$k, a[i], b[i], c[i]);
                    }
                })*
            }
        };
    }
    all_ops!(arms)
}

/// `setp` over all 32 lanes of a warp: bit `i` of the result is `cmp`
/// applied to `a[i]`, `b[i]` — as `f32` on the low 32 bits when `float`,
/// else as signed 64-bit integers. [`CmpOp::eval_f32`] and
/// [`CmpOp::eval_i64`] hold the semantics; this only dispatches once.
pub fn cmp_lanes(cmp: CmpOp, float: bool, a: &Lanes, b: &Lanes) -> u32 {
    let mut bits = 0u32;
    macro_rules! arms {
        ($($k:ident)*) => {
            match (cmp, float) {
                $((CmpOp::$k, false) => {
                    for i in 0..32 {
                        bits |= (CmpOp::$k.eval_i64(a[i] as i64, b[i] as i64) as u32) << i;
                    }
                }
                (CmpOp::$k, true) => {
                    for i in 0..32 {
                        let (x, y) = (value_as_f32(a[i]), value_as_f32(b[i]));
                        bits |= (CmpOp::$k.eval_f32(x, y) as u32) << i;
                    }
                })*
            }
        };
    }
    all_cmps!(arms);
    bits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_basics() {
        assert_eq!(eval(Op::Add, 3, 4, 0), 7);
        assert_eq!(eval(Op::Sub, 3, 4, 0), (-1i64) as u64);
        assert_eq!(eval(Op::Mad, 2, 3, 4,), 10);
        assert_eq!(eval(Op::Min, (-5i64) as u64, 2, 0), (-5i64) as u64);
        assert_eq!(eval(Op::Max, (-5i64) as u64, 2, 0), 2);
        assert_eq!(eval(Op::Abs, (-5i64) as u64, 0, 0), 5);
    }

    #[test]
    fn division_by_zero_is_zero() {
        assert_eq!(eval(Op::Div, 10, 0, 0), 0);
        assert_eq!(eval(Op::Rem, 10, 0, 0), 0);
    }

    #[test]
    fn rem_is_euclidean() {
        assert_eq!(eval(Op::Rem, 7, 3, 0), 1);
        // Euclidean: result stays in [0, b).
        assert_eq!(eval(Op::Rem, (-7i64) as u64, 3, 0), 2);
        assert_eq!(eval(Op::Rem, (i64::MIN) as u64, (-1i64) as u64, 0), 0);
    }

    #[test]
    fn shifts() {
        assert_eq!(eval(Op::Shl, 1, 4, 0), 16);
        assert_eq!(eval(Op::Shr, 0x8000_0000_0000_0000, 63, 0), 1);
        assert_eq!(eval(Op::Sar, (-8i64) as u64, 1, 0) as i64, -4);
    }

    #[test]
    fn float_ops_low32() {
        let a = f32_as_value(1.5);
        let b = f32_as_value(2.0);
        assert_eq!(value_as_f32(eval(Op::FMul, a, b, 0)), 3.0);
        assert_eq!(value_as_f32(eval(Op::FMad, a, b, f32_as_value(0.5))), 3.5);
        assert_eq!(eval(Op::F2I, f32_as_value(-2.7), 0, 0) as i64, -2);
        assert_eq!(value_as_f32(eval(Op::I2F, 5, 0, 0)), 5.0);
    }

    /// A float op that yields a NaN yields the one canonical NaN, whatever
    /// the payloads and signs it met.
    #[test]
    fn float_nans_are_canonical() {
        let (a, b) = (0x7FA0_0001, 0xFFC0_1234); // signalling, negative quiet
        for op in [
            Op::FAdd,
            Op::FMul,
            Op::FMad,
            Op::FMin,
            Op::FAbs,
            Op::FNeg,
            Op::FSqrt,
        ] {
            assert_eq!(eval(op, a, b, b), 0x7FC0_0000, "{op:?}");
            assert_eq!(eval(op, b, a, a), 0x7FC0_0000, "{op:?}");
        }
        let inf = f32_as_value(f32::INFINITY);
        assert_eq!(eval(Op::FMul, inf, f32_as_value(0.0), 0), 0x7FC0_0000);
    }

    /// Deterministic SplitMix64 stream (no external crates offline).
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// Values where integer, shift and float semantics have their corners:
    /// 0, ±1, `i64::MIN/MAX`, shift counts at and past 64, and f32 bit
    /// patterns for ±0, ±1, ±inf, quiet/signalling NaN, subnormals and
    /// values beyond the `i64` range.
    fn edge_values() -> Vec<Value> {
        let mut v: Vec<Value> = vec![
            0,
            1,
            2,
            3,
            (-1i64) as Value,
            (-2i64) as Value,
            i64::MIN as Value,
            i64::MAX as Value,
            i64::MIN as Value + 1,
            31,
            32,
            63,
            64,
            65,
            127,
            128,
            u32::MAX as Value,
            1 << 32,
        ];
        let floats = [
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            0.5,
            -2.75,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MIN_POSITIVE,
            f32::MIN_POSITIVE / 4.0,
            f32::MAX,
            f32::MIN,
            1e19,
            -1e19,
            std::f32::consts::PI,
        ];
        v.extend(floats.iter().map(|&f| f32_as_value(f)));
        v.push(0x7FA0_0001); // signalling NaN with payload
        v.push(0xFFC0_1234); // negative quiet NaN with payload
        v.push(0xDEAD_BEEF_0000_0000 | f32_as_value(1.5)); // junk above the f32
        v
    }

    /// 32 lanes drawn mostly from the edge values, the rest random bits.
    fn mixed_lanes(rng: &mut Rng, edges: &[Value]) -> Lanes {
        std::array::from_fn(|_| {
            let r = rng.next();
            if r & 3 == 0 {
                rng.next()
            } else {
                edges[(r >> 8) as usize % edges.len()]
            }
        })
    }

    /// `eval_lanes` is scalar `eval` lane by lane, bit for bit (infinities
    /// and NaNs included), for every op — over every pair of edge values
    /// and over mixed random lanes.
    #[test]
    fn eval_lanes_matches_scalar_eval() {
        macro_rules! list {
            ($($k:ident)*) => { [$(Op::$k),*] };
        }
        let ops = all_ops!(list);
        assert_eq!(ops.len(), 35);
        let edges = edge_values();
        let mut rng = Rng(0x1A9E5);
        let mut cases: Vec<(Lanes, Lanes, Lanes)> = Vec::new();
        // Every (a, b) pair of edge values appears in some lane.
        let pairs: Vec<(Value, Value)> = edges
            .iter()
            .flat_map(|&a| edges.iter().map(move |&b| (a, b)))
            .collect();
        for chunk in pairs.chunks(32) {
            let at = |i: usize| chunk[i % chunk.len()];
            let c = mixed_lanes(&mut rng, &edges);
            cases.push((
                std::array::from_fn(|i| at(i).0),
                std::array::from_fn(|i| at(i).1),
                c,
            ));
        }
        for _ in 0..64 {
            cases.push((
                mixed_lanes(&mut rng, &edges),
                mixed_lanes(&mut rng, &edges),
                mixed_lanes(&mut rng, &edges),
            ));
        }
        for op in ops {
            for (a, b, c) in &cases {
                let mut out = [0xAAAA_AAAA_AAAA_AAAA; 32];
                eval_lanes(op, a, b, c, &mut out);
                for i in 0..32 {
                    let want = eval(op, a[i], b[i], c[i]);
                    assert_eq!(
                        out[i], want,
                        "{op:?} lane {i}: a={:#x} b={:#x} c={:#x}",
                        a[i], b[i], c[i]
                    );
                }
            }
        }
    }

    /// `cmp_lanes` is `CmpOp::eval_i64` / `eval_f32` lane by lane for every
    /// comparison, integer and float (NaN compares false except `ne`).
    #[test]
    fn cmp_lanes_matches_scalar_compare() {
        macro_rules! list {
            ($($k:ident)*) => { [$(CmpOp::$k),*] };
        }
        let cmps = all_cmps!(list);
        let edges = edge_values();
        let mut rng = Rng(0xC0E5);
        for round in 0..256 {
            let a = mixed_lanes(&mut rng, &edges);
            // Equal lanes must occur too, or `eq`/`le`/`ge` go untested.
            let b = if round % 4 == 0 {
                let mut b = a;
                b[round % 32] ^= 1;
                b
            } else {
                mixed_lanes(&mut rng, &edges)
            };
            for cmp in cmps {
                for float in [false, true] {
                    let bits = cmp_lanes(cmp, float, &a, &b);
                    for i in 0..32 {
                        let want = if float {
                            cmp.eval_f32(value_as_f32(a[i]), value_as_f32(b[i]))
                        } else {
                            cmp.eval_i64(a[i] as i64, b[i] as i64)
                        };
                        assert_eq!(
                            bits & (1 << i) != 0,
                            want,
                            "{cmp:?} float={float} lane {i}: a={:#x} b={:#x}",
                            a[i],
                            b[i]
                        );
                    }
                }
            }
        }
    }
}

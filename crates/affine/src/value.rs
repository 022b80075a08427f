//! Runtime affine values: single tuples, divergent tuple sets, and
//! predicate vectors, as held by the affine engine's register file.

use crate::tuple::AffineTuple;

/// Maximum tuples in a divergent set (paper §4.6: at most 2 divergent
/// conditions ⇒ 4 tuples).
pub const MAX_DIVERGENT_TUPLES: usize = 4;

/// Maximum warps in a CTA: a launch has at most 1,024 threads per CTA
/// (`Program::new` refuses more), so per-warp state fits fixed arrays.
pub const MAX_CTA_WARPS: usize = 32;

/// A divergent affine value: up to four tuples plus a per-(warp, lane)
/// selector recorded when the diverging definitions executed (§4.6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivergentVal {
    /// The candidate tuples.
    pub tuples: Vec<AffineTuple>,
    /// `select[warp][lane]` = index into `tuples` for that thread.
    pub select: Vec<[u8; 32]>,
}

/// The value of one affine-engine register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AffineVal {
    /// A single tuple (covers scalars: zero offsets).
    Tuple(AffineTuple),
    /// Divergent tuple set (§4.6).
    Divergent(DivergentVal),
}

impl AffineVal {
    /// A scalar value.
    pub fn scalar(v: u64) -> Self {
        AffineVal::Tuple(AffineTuple::scalar(v))
    }

    /// Evaluate for the thread at `(warp, lane)` with coordinates `t`.
    pub fn eval(&self, warp: usize, lane: usize, t: (u32, u32, u32)) -> u64 {
        match self {
            AffineVal::Tuple(tp) => tp.eval(t),
            AffineVal::Divergent(d) => {
                let idx = d.select[warp][lane] as usize;
                d.tuples[idx].eval(t)
            }
        }
    }

    /// Number of tuples this value carries.
    pub fn tuple_count(&self) -> usize {
        match self {
            AffineVal::Tuple(_) => 1,
            AffineVal::Divergent(d) => d.tuples.len(),
        }
    }

    /// The single tuple, if not divergent.
    pub fn as_tuple(&self) -> Option<&AffineTuple> {
        match self {
            AffineVal::Tuple(t) => Some(t),
            AffineVal::Divergent(_) => None,
        }
    }

    /// Merge a newly computed tuple written under `mask` (per warp) into an
    /// existing value, producing a divergent value when lanes disagree —
    /// this is how control-flow-divergent definitions accumulate (§4.6).
    ///
    /// `num_warps` is the CTA's warp count; `masks[w]` are the lanes that
    /// received `new`; `exist[w]` are the lanes that hold live threads (the
    /// CTA's launch masks — the last warp of a ragged block is partial).
    /// Lanes outside `exist` carry no state: a write covering every
    /// existing lane replaces the value outright, and only existing lanes
    /// keep tuples alive. Tuples no longer referenced by any existing lane
    /// are compacted away, so stale definitions never count against the
    /// hardware tuple budget.
    ///
    /// Returns `None` if the merge would exceed [`MAX_DIVERGENT_TUPLES`]
    /// (the compiler's two-condition limit guarantees this cannot happen
    /// for decoupled code).
    pub fn merge_masked(
        old: Option<&AffineVal>,
        new: AffineTuple,
        masks: &[u32],
        exist: &[u32],
        num_warps: usize,
    ) -> Option<AffineVal> {
        let ex = |w: usize| exist.get(w).copied().unwrap_or(u32::MAX);
        let full = (0..num_warps).all(|w| masks.get(w).copied().unwrap_or(0) & ex(w) == ex(w));
        if full || old.is_none() {
            return Some(AffineVal::Tuple(new));
        }
        let old = old.unwrap();
        // Build the divergent set starting from the old value.
        let (mut tuples, mut select) = match old {
            AffineVal::Tuple(t) => (vec![*t], vec![[0u8; 32]; num_warps]),
            AffineVal::Divergent(d) => (d.tuples.clone(), d.select.clone()),
        };
        let new_idx = match tuples.iter().position(|t| *t == new) {
            Some(i) => i,
            None => {
                tuples.push(new);
                tuples.len() - 1
            }
        };
        for (w, sel) in select.iter_mut().enumerate().take(num_warps) {
            let m = masks.get(w).copied().unwrap_or(0);
            for (lane, s) in sel.iter_mut().enumerate() {
                if m & (1 << lane) != 0 {
                    *s = new_idx as u8;
                }
            }
        }
        // Compact: keep only tuples an existing lane still references, in
        // first-reference order, and remap the selectors. Ghost lanes are
        // repointed at tuple 0 so every selector stays in range for callers
        // that sweep all 32 lanes.
        let mut remap = vec![u8::MAX; tuples.len()];
        let mut kept: Vec<AffineTuple> = Vec::new();
        for (w, sel) in select.iter_mut().enumerate().take(num_warps) {
            let e = ex(w);
            for (lane, s) in sel.iter_mut().enumerate() {
                if e & (1 << lane) == 0 {
                    continue;
                }
                let t = *s as usize;
                if remap[t] == u8::MAX {
                    remap[t] = kept.len() as u8;
                    kept.push(tuples[t]);
                }
                *s = remap[t];
            }
        }
        for (w, sel) in select.iter_mut().enumerate().take(num_warps) {
            let e = ex(w);
            for (lane, s) in sel.iter_mut().enumerate() {
                if e & (1 << lane) == 0 {
                    *s = 0;
                }
            }
        }
        match kept.len() {
            0 => Some(AffineVal::Tuple(new)),
            1 => Some(AffineVal::Tuple(kept[0])),
            n if n > MAX_DIVERGENT_TUPLES => None,
            _ => Some(AffineVal::Divergent(DivergentVal {
                tuples: kept,
                select,
            })),
        }
    }
}

/// The value of one affine-engine predicate register: uniform across the
/// CTA, or one bit vector per warp (produced by the PEU, §4.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredVal {
    /// Same outcome for every thread of the CTA.
    Uniform(bool),
    /// Per-warp 32-bit lane masks; warps past the CTA's last hold 0.
    PerWarp([u32; MAX_CTA_WARPS]),
}

impl PredVal {
    /// The lane mask of `warp`.
    pub fn warp_bits(&self, warp: usize) -> u32 {
        match self {
            PredVal::Uniform(true) => u32::MAX,
            PredVal::Uniform(false) => 0,
            PredVal::PerWarp(v) => v.get(warp).copied().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tup(base: i64, off: i64) -> AffineTuple {
        AffineTuple {
            base,
            off: [off, 0, 0],
            mod_ext: None,
        }
    }

    #[test]
    fn full_mask_write_replaces() {
        let old = AffineVal::Tuple(tup(1, 1));
        let v = AffineVal::merge_masked(
            Some(&old),
            tup(2, 2),
            &[u32::MAX, u32::MAX],
            &[u32::MAX; 2],
            2,
        )
        .unwrap();
        assert_eq!(v, AffineVal::Tuple(tup(2, 2)));
    }

    #[test]
    fn partial_mask_diverges_and_selects() {
        let old = AffineVal::Tuple(tup(0, 4));
        // Lanes 0..16 of warp 0 get the new tuple (0, 0).
        let v =
            AffineVal::merge_masked(Some(&old), tup(0, 0), &[0x0000_FFFF], &[u32::MAX], 1).unwrap();
        assert_eq!(v.tuple_count(), 2);
        assert_eq!(v.eval(0, 3, (3, 0, 0)), 0); // new tuple
        assert_eq!(v.eval(0, 20, (20, 0, 0)), 80); // old tuple: 20*4
    }

    #[test]
    fn merge_same_tuple_stays_single() {
        let old = AffineVal::Tuple(tup(7, 0));
        let v = AffineVal::merge_masked(Some(&old), tup(7, 0), &[0xFF], &[u32::MAX], 1).unwrap();
        assert_eq!(v, AffineVal::Tuple(tup(7, 0)));
    }

    #[test]
    fn overwrite_all_selected_collapses() {
        let old = AffineVal::Tuple(tup(1, 1));
        let d =
            AffineVal::merge_masked(Some(&old), tup(2, 2), &[0x0000_FFFF], &[u32::MAX], 1).unwrap();
        assert_eq!(d.tuple_count(), 2);
        // Now overwrite the *other* half with the same new tuple — every
        // lane selects tuple 2, so the value collapses back to a single
        // tuple.
        let v =
            AffineVal::merge_masked(Some(&d), tup(2, 2), &[0xFFFF_0000], &[u32::MAX], 1).unwrap();
        assert_eq!(v, AffineVal::Tuple(tup(2, 2)));
    }

    #[test]
    fn exceeding_four_tuples_fails() {
        let mut v = AffineVal::Tuple(tup(0, 0));
        for i in 1..4 {
            v = AffineVal::merge_masked(Some(&v), tup(i, 0), &[1 << i], &[u32::MAX], 1).unwrap();
        }
        assert_eq!(v.tuple_count(), 4);
        assert!(AffineVal::merge_masked(Some(&v), tup(99, 0), &[1 << 5], &[u32::MAX], 1).is_none());
    }

    /// A CTA whose last warp is partial (e.g. 48 threads → exist 0xFFFF):
    /// a write covering every *existing* lane is a full replacement, and
    /// repeated uniform redefinitions (a counted loop's induction variable)
    /// never accumulate tuples from ghost lanes.
    #[test]
    fn partial_warp_uniform_writes_stay_single() {
        let exist = [u32::MAX, 0x0000_FFFF];
        let mut v = AffineVal::Tuple(tup(0, 0));
        for i in 1..10 {
            v = AffineVal::merge_masked(Some(&v), tup(i, 0), &[u32::MAX, 0x0000_FFFF], &exist, 2)
                .unwrap();
            assert_eq!(v, AffineVal::Tuple(tup(i, 0)), "iteration {i}");
        }
    }

    /// Tuples no longer referenced by any existing lane are compacted away
    /// instead of counting against the budget forever.
    #[test]
    fn overwritten_tuples_are_compacted() {
        let exist = [u32::MAX];
        let mut v = AffineVal::Tuple(tup(0, 0));
        // Cycle many distinct definitions over the two halves of the warp:
        // at any moment only two tuples are live.
        for i in 1..32 {
            let mask = if i % 2 == 0 { 0x0000_FFFF } else { 0xFFFF_0000 };
            v = AffineVal::merge_masked(Some(&v), tup(i, 0), &[mask], &exist, 1).unwrap();
            assert!(v.tuple_count() <= 2, "iteration {i}: {:?}", v.tuple_count());
        }
    }

    /// Ghost-lane selectors stay in range after compaction.
    #[test]
    fn ghost_lanes_select_in_range() {
        let exist = [0x0000_00FF];
        let old = AffineVal::Tuple(tup(1, 1));
        let v = AffineVal::merge_masked(Some(&old), tup(2, 0), &[0x0F], &exist, 1).unwrap();
        // Sweeping all 32 lanes (as the engine's PEU does) must not panic.
        for lane in 0..32 {
            v.eval(0, lane, (lane as u32, 0, 0));
        }
    }

    #[test]
    fn pred_val_uniform_and_perwarp() {
        assert_eq!(PredVal::Uniform(true).warp_bits(3), u32::MAX);
        assert_eq!(PredVal::Uniform(false).warp_bits(0), 0);
        let mut bits = [0; MAX_CTA_WARPS];
        bits[0] = 0xF;
        let p = PredVal::PerWarp(bits);
        assert_eq!(p.warp_bits(0), 0xF);
        assert_eq!(p.warp_bits(5), 0);
        assert_eq!(p.warp_bits(MAX_CTA_WARPS), 0);
    }
}

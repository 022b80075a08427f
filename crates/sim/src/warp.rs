//! Per-warp architectural state: registers, predicates, scoreboard, status.

use crate::stack::SimtStack;
use simt_ir::eval::Lanes;
use simt_ir::{LaunchConfig, Operand, PredId, RegId, SpecialReg, Value};

/// Full architectural + pipeline state of one resident warp.
#[derive(Debug, Clone)]
pub struct WarpState {
    /// Warp index within its SM.
    pub id: usize,
    /// CTA slot the warp belongs to.
    pub cta_slot: usize,
    /// Linearized CTA index within the grid.
    pub cta_linear: u64,
    /// The CTA's grid coordinates (`ctaid.x/y/z`).
    pub cta_coords: (u32, u32, u32),
    /// Warp index within the CTA.
    pub warp_in_cta: usize,
    /// SIMT reconvergence stack (holds the PC).
    pub stack: SimtStack,
    /// General registers: `num_regs × 32` lanes, one contiguous 32-value
    /// row per register.
    regs: Vec<Value>,
    /// `tid.x`, `tid.y`, `tid.z` of every lane, fixed at launch.
    tid: [Lanes; 3],
    /// Predicate registers, one 32-bit lane mask each.
    preds: Vec<u32>,
    /// Outstanding writes per register (scoreboard), one dense counter per
    /// register; a register with a nonzero count blocks dependent issue.
    pending_regs: Vec<u32>,
    /// Outstanding predicate writes, one counter per predicate.
    pending_preds: Vec<u32>,
    /// Sum of all scoreboard counters, so drain checks are O(1).
    pending_total: u32,
    /// Waiting at a `bar.sync`.
    pub at_barrier: bool,
    /// Lanes that were live at launch (partial last warp of a CTA).
    pub launch_mask: u32,
    /// Cycle of the last issued instruction (scheduler bookkeeping).
    pub last_issue: u64,
}

impl WarpState {
    /// Create warp `warp_in_cta` of CTA `cta_linear` (a `launch.block`
    /// shaped block at `launch.grid` coordinates) with
    /// `num_regs`/`num_preds` storage and `mask` live lanes.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: usize,
        cta_slot: usize,
        cta_linear: u64,
        warp_in_cta: usize,
        launch: &LaunchConfig,
        num_regs: u16,
        num_preds: u16,
        mask: u32,
    ) -> Self {
        let first = warp_in_cta as u64 * 32;
        let coords: [_; 32] =
            std::array::from_fn(|lane| launch.block.unflatten(first + lane as u64));
        let tid = [
            coords.map(|c| Value::from(c.0)),
            coords.map(|c| Value::from(c.1)),
            coords.map(|c| Value::from(c.2)),
        ];
        WarpState {
            id,
            cta_slot,
            cta_linear,
            cta_coords: launch.grid.unflatten(cta_linear),
            warp_in_cta,
            stack: SimtStack::new(mask),
            regs: vec![0; num_regs as usize * 32],
            tid,
            preds: vec![0; num_preds as usize],
            pending_regs: vec![0; num_regs as usize],
            pending_preds: vec![0; num_preds as usize],
            pending_total: 0,
            at_barrier: false,
            launch_mask: mask,
            last_issue: 0,
        }
    }

    /// Warp finished (all lanes exited)?
    pub fn done(&self) -> bool {
        self.stack.done()
    }

    /// All 32 lanes of register `r`.
    #[inline]
    pub fn reg_lanes(&self, r: RegId) -> &Lanes {
        let row = &self.regs[r as usize * 32..][..32];
        row.try_into().expect("a register row is 32 lanes")
    }

    /// Overwrite register `r` with `vals` on the lanes in `mask`; every
    /// other lane keeps its value.
    #[inline]
    pub fn set_reg_lanes(&mut self, r: RegId, vals: &Lanes, mask: u32) {
        let row = &mut self.regs[r as usize * 32..][..32];
        if mask == u32::MAX {
            row.copy_from_slice(vals);
        } else {
            for (lane, (old, &new)) in row.iter_mut().zip(vals).enumerate() {
                if mask & (1 << lane) != 0 {
                    *old = new;
                }
            }
        }
    }

    /// Read predicate `p` as a lane mask.
    #[inline]
    pub fn pred(&self, p: PredId) -> u32 {
        self.preds[p as usize]
    }

    /// Overwrite predicate `p` on `mask` lanes with per-lane `bits`.
    #[inline]
    pub fn set_pred_masked(&mut self, p: PredId, bits: u32, mask: u32) {
        let cur = self.preds[p as usize];
        self.preds[p as usize] = (cur & !mask) | (bits & mask);
    }

    /// All 32 lanes of an operand, resolved with one match: a register is
    /// its row and `tid.*` the lanes fixed at launch (both borrowed, no
    /// copy); everything else is warp-uniform and splatted into `splat`.
    pub fn operand_lanes<'a>(
        &'a self,
        op: Operand,
        launch: &LaunchConfig,
        splat: &'a mut Lanes,
    ) -> &'a Lanes {
        let uniform = match op {
            Operand::Reg(r) => return self.reg_lanes(r),
            Operand::Imm(i) => i as Value,
            Operand::Param(p) => launch.params[p as usize],
            Operand::Special(s) => Value::from(match s {
                SpecialReg::TidX => return &self.tid[0],
                SpecialReg::TidY => return &self.tid[1],
                SpecialReg::TidZ => return &self.tid[2],
                SpecialReg::CtaIdX => self.cta_coords.0,
                SpecialReg::CtaIdY => self.cta_coords.1,
                SpecialReg::CtaIdZ => self.cta_coords.2,
                SpecialReg::NTidX => launch.block.x,
                SpecialReg::NTidY => launch.block.y,
                SpecialReg::NTidZ => launch.block.z,
                SpecialReg::NCtaIdX => launch.grid.x,
                SpecialReg::NCtaIdY => launch.grid.y,
                SpecialReg::NCtaIdZ => launch.grid.z,
            }),
        };
        splat.fill(uniform);
        splat
    }

    /// Linear thread index within the CTA of lane 0.
    pub fn first_thread(&self) -> u64 {
        self.warp_in_cta as u64 * 32
    }

    // ----- scoreboard -----

    /// Is register `r` awaiting a writeback?
    #[inline]
    pub fn reg_pending(&self, r: RegId) -> bool {
        self.pending_regs[r as usize] > 0
    }

    /// Is predicate `p` awaiting a writeback?
    #[inline]
    pub fn pred_pending(&self, p: PredId) -> bool {
        self.pending_preds[p as usize] > 0
    }

    /// Mark one outstanding write to register `r`.
    pub fn mark_reg_pending(&mut self, r: RegId) {
        self.pending_regs[r as usize] += 1;
        self.pending_total += 1;
    }

    /// Mark one outstanding write to predicate `p`.
    pub fn mark_pred_pending(&mut self, p: PredId) {
        self.pending_preds[p as usize] += 1;
        self.pending_total += 1;
    }

    /// Retire one outstanding write to register `r` (a release with
    /// nothing outstanding is ignored).
    pub fn release_reg(&mut self, r: RegId) {
        let c = &mut self.pending_regs[r as usize];
        if *c > 0 {
            *c -= 1;
            self.pending_total -= 1;
        }
    }

    /// Retire one outstanding write to predicate `p`.
    pub fn release_pred(&mut self, p: PredId) {
        let c = &mut self.pending_preds[p as usize];
        if *c > 0 {
            *c -= 1;
            self.pending_total -= 1;
        }
    }

    /// Any writeback still outstanding? (used for drain checks)
    pub fn scoreboard_clear(&self) -> bool {
        self.pending_total == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_ir::Dim3;

    fn launch() -> LaunchConfig {
        LaunchConfig {
            grid: Dim3::xy(4, 2),
            block: Dim3::xy(16, 4), // 64 threads → 2 warps
            params: vec![0xAA, 0xBB],
        }
    }

    fn warp(l: &LaunchConfig, cta_linear: u64, warp_in_cta: usize, mask: u32) -> WarpState {
        WarpState::new(0, 0, cta_linear, warp_in_cta, l, 4, 2, mask)
    }

    #[test]
    fn reg_and_pred_storage() {
        let mut w = warp(&launch(), 0, 0, u32::MAX);
        let mut vals = [0; 32];
        vals[31] = 99;
        w.set_reg_lanes(3, &vals, u32::MAX);
        assert_eq!(w.reg_lanes(3)[31], 99);
        assert_eq!(w.reg_lanes(3)[0], 0);
        assert_eq!(w.reg_lanes(2), &[0; 32], "neighbouring row untouched");
        w.set_pred_masked(1, 0b1010, 0b1111);
        assert_eq!(w.pred(1), 0b1010);
        w.set_pred_masked(1, 0b0101, 0b0011);
        assert_eq!(w.pred(1), 0b1001);
    }

    /// A masked write blends: lanes outside the mask keep their old value,
    /// whatever `vals` holds there.
    #[test]
    fn masked_set_reg_lanes_keeps_inactive_lanes() {
        let mut w = warp(&launch(), 0, 0, u32::MAX);
        let old: Lanes = std::array::from_fn(|i| 1000 + i as Value);
        let new: Lanes = std::array::from_fn(|i| 7 * i as Value);
        for mask in [
            0,
            1,
            1 << 31,
            0xAAAA_AAAA,
            0x0000_FFFF,
            0x7FFF_FFFF,
            u32::MAX,
        ] {
            w.set_reg_lanes(1, &old, u32::MAX);
            w.set_reg_lanes(1, &new, mask);
            for lane in 0..32 {
                let want = if mask & (1 << lane) != 0 { new } else { old }[lane];
                assert_eq!(w.reg_lanes(1)[lane], want, "mask {mask:#x} lane {lane}");
            }
        }
    }

    /// Every operand kind against its per-thread definition: `tid.*` is the
    /// lane's linear thread index unflattened over the block, everything
    /// else is warp-uniform. Covers a 2-D block, a 3-D block, and the
    /// partial last warp of a block that does not fill it.
    #[test]
    fn operand_lanes_match_per_thread_definition() {
        use SpecialReg::*;
        let shapes = [
            (Dim3::xy(4, 2), Dim3::xy(16, 4)),
            (
                Dim3 { x: 3, y: 2, z: 2 },
                Dim3 { x: 5, y: 3, z: 4 }, // 60 threads: warp 1 has 28 live lanes
            ),
        ];
        for (grid, block) in shapes {
            let l = LaunchConfig {
                grid,
                block,
                params: vec![0xAA, 0xBB],
            };
            let cta_linear = grid.count() - 2;
            let cta = grid.unflatten(cta_linear);
            for warp_in_cta in 0..l.warps_per_cta() as usize {
                let live = (block.count() - warp_in_cta as u64 * 32).min(32);
                let mask = ((1u64 << live) - 1) as u32;
                let mut w = warp(&l, cta_linear, warp_in_cta, mask);
                let row: Lanes = std::array::from_fn(|i| 0xDEAD_0000 + i as Value);
                w.set_reg_lanes(2, &row, u32::MAX);
                let expect = |op: Operand, lane: usize| -> Value {
                    let tid = block.unflatten(warp_in_cta as u64 * 32 + lane as u64);
                    match op {
                        Operand::Reg(_) => row[lane],
                        Operand::Imm(i) => i as Value,
                        Operand::Param(p) => l.params[p as usize],
                        Operand::Special(s) => Value::from(match s {
                            TidX => tid.0,
                            TidY => tid.1,
                            TidZ => tid.2,
                            CtaIdX => cta.0,
                            CtaIdY => cta.1,
                            CtaIdZ => cta.2,
                            NTidX => block.x,
                            NTidY => block.y,
                            NTidZ => block.z,
                            NCtaIdX => grid.x,
                            NCtaIdY => grid.y,
                            NCtaIdZ => grid.z,
                        }),
                    }
                };
                let specials = [
                    TidX, TidY, TidZ, CtaIdX, CtaIdY, CtaIdZ, NTidX, NTidY, NTidZ, NCtaIdX,
                    NCtaIdY, NCtaIdZ,
                ];
                let ops = specials.into_iter().map(Operand::Special).chain([
                    Operand::Reg(2),
                    Operand::Imm(-1),
                    Operand::Imm(42),
                    Operand::Param(1),
                ]);
                for op in ops {
                    let mut splat = [0x5555; 32]; // stale workspace contents
                    let got = w.operand_lanes(op, &l, &mut splat);
                    for (lane, &got) in got.iter().enumerate().take(live as usize) {
                        assert_eq!(
                            got,
                            expect(op, lane),
                            "{op:?} block {block} warp {warp_in_cta} lane {lane}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scoreboard_counts() {
        let mut w = warp(&launch(), 0, 0, u32::MAX);
        assert!(!w.reg_pending(0));
        w.mark_reg_pending(0);
        w.mark_reg_pending(0);
        assert!(w.reg_pending(0));
        w.release_reg(0);
        assert!(w.reg_pending(0));
        assert!(!w.scoreboard_clear());
        w.release_reg(0);
        assert!(!w.reg_pending(0));
        assert!(w.scoreboard_clear());
        // A release with nothing outstanding is ignored.
        w.release_reg(1);
        w.release_pred(0);
        assert!(w.scoreboard_clear());
        w.mark_pred_pending(0);
        assert!(w.pred_pending(0) && !w.scoreboard_clear());
        w.release_pred(0);
        assert!(w.scoreboard_clear());
    }
}

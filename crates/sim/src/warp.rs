//! Per-warp architectural state: registers, predicates, scoreboard, status.

use crate::stack::SimtStack;
use simt_ir::{Dim3, LaunchConfig, Operand, PredId, RegId, SpecialReg, Value};

/// Full architectural + pipeline state of one resident warp.
#[derive(Debug, Clone)]
pub struct WarpState {
    /// Warp index within its SM.
    pub id: usize,
    /// CTA slot the warp belongs to.
    pub cta_slot: usize,
    /// Linearized CTA index within the grid.
    pub cta_linear: u64,
    /// Warp index within the CTA.
    pub warp_in_cta: usize,
    /// SIMT reconvergence stack (holds the PC).
    pub stack: SimtStack,
    /// General registers: `num_regs × 32` lanes.
    regs: Vec<Value>,
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
    /// Create a warp with `num_regs`/`num_preds` storage and `mask` live
    /// lanes.
    pub fn new(
        id: usize,
        cta_slot: usize,
        cta_linear: u64,
        warp_in_cta: usize,
        num_regs: u16,
        num_preds: u16,
        mask: u32,
    ) -> Self {
        WarpState {
            id,
            cta_slot,
            cta_linear,
            warp_in_cta,
            stack: SimtStack::new(mask),
            regs: vec![0; num_regs as usize * 32],
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

    /// Read register `r` of `lane`.
    #[inline]
    pub fn reg(&self, r: RegId, lane: usize) -> Value {
        self.regs[r as usize * 32 + lane]
    }

    /// Write register `r` of `lane`.
    #[inline]
    pub fn set_reg(&mut self, r: RegId, lane: usize, v: Value) {
        self.regs[r as usize * 32 + lane] = v;
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

    /// Evaluate an operand for `lane` given the launch geometry and this
    /// warp's CTA coordinates.
    pub fn operand(
        &self,
        op: Operand,
        lane: usize,
        launch: &LaunchConfig,
        cta_coords: (u32, u32, u32),
    ) -> Value {
        match op {
            Operand::Reg(r) => self.reg(r, lane),
            Operand::Imm(i) => i as Value,
            Operand::Param(p) => launch.params[p as usize],
            Operand::Special(s) => {
                let (tx, ty, tz) = self.thread_coords(lane, launch.block);
                let v = match s {
                    SpecialReg::TidX => tx,
                    SpecialReg::TidY => ty,
                    SpecialReg::TidZ => tz,
                    SpecialReg::CtaIdX => cta_coords.0,
                    SpecialReg::CtaIdY => cta_coords.1,
                    SpecialReg::CtaIdZ => cta_coords.2,
                    SpecialReg::NTidX => launch.block.x,
                    SpecialReg::NTidY => launch.block.y,
                    SpecialReg::NTidZ => launch.block.z,
                    SpecialReg::NCtaIdX => launch.grid.x,
                    SpecialReg::NCtaIdY => launch.grid.y,
                    SpecialReg::NCtaIdZ => launch.grid.z,
                };
                v as Value
            }
        }
    }

    /// `(tid.x, tid.y, tid.z)` of `lane` in this warp.
    pub fn thread_coords(&self, lane: usize, block: Dim3) -> (u32, u32, u32) {
        let linear = self.warp_in_cta as u64 * 32 + lane as u64;
        block.unflatten(linear)
    }

    /// Linear thread index within the CTA for `lane`.
    pub fn thread_linear(&self, lane: usize) -> u64 {
        self.warp_in_cta as u64 * 32 + lane as u64
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

    fn launch() -> LaunchConfig {
        LaunchConfig {
            grid: Dim3::xy(4, 2),
            block: Dim3::xy(16, 4), // 64 threads → 2 warps
            params: vec![0xAA, 0xBB],
        }
    }

    #[test]
    fn reg_and_pred_storage() {
        let mut w = WarpState::new(0, 0, 0, 0, 4, 2, u32::MAX);
        w.set_reg(3, 31, 99);
        assert_eq!(w.reg(3, 31), 99);
        assert_eq!(w.reg(3, 0), 0);
        w.set_pred_masked(1, 0b1010, 0b1111);
        assert_eq!(w.pred(1), 0b1010);
        w.set_pred_masked(1, 0b0101, 0b0011);
        assert_eq!(w.pred(1), 0b1001);
    }

    #[test]
    fn thread_coords_in_2d_block() {
        let l = launch();
        // Warp 1 of the CTA covers linear threads 32..64.
        let w = WarpState::new(1, 0, 5, 1, 1, 1, u32::MAX);
        // Linear 32 → (tid.x=0, tid.y=2) in a 16×4 block.
        assert_eq!(w.thread_coords(0, l.block), (0, 2, 0));
        assert_eq!(w.thread_coords(17, l.block), (1, 3, 0));
    }

    #[test]
    fn operand_specials_and_params() {
        let l = launch();
        let w = WarpState::new(0, 0, 6, 0, 1, 1, u32::MAX);
        let cta = l.grid.unflatten(6); // (2, 1, 0)
        assert_eq!(
            w.operand(Operand::Special(SpecialReg::CtaIdX), 0, &l, cta),
            2
        );
        assert_eq!(
            w.operand(Operand::Special(SpecialReg::CtaIdY), 0, &l, cta),
            1
        );
        assert_eq!(
            w.operand(Operand::Special(SpecialReg::NTidX), 0, &l, cta),
            16
        );
        assert_eq!(w.operand(Operand::Param(1), 0, &l, cta), 0xBB);
        assert_eq!(w.operand(Operand::Imm(-1), 0, &l, cta), u64::MAX);
    }

    #[test]
    fn scoreboard_counts() {
        let mut w = WarpState::new(0, 0, 0, 0, 2, 1, u32::MAX);
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

//! The two-level Affine SIMT Stack (paper §4.5).
//!
//! The affine warp "executes" all threads of a CTA in lock-step, so its
//! reconvergence stack carries one lane mask *per non-affine warp*. The
//! Warp Level Stack (WLS) encodes each warp's mask in two bits — `11` (all
//! active), `00` (none), `10` (mixed) — and only mixed warps touch their
//! Per Warp Stack (PWS). We track full masks and do not model the split:
//! the energy model charges one PWS access per AEU record instead.

use affine::value::MAX_CTA_WARPS;

/// One affine-stack entry: a path with per-warp lane masks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AffineStackEntry {
    /// Current PC of this path (indices into the affine stream).
    pub pc: usize,
    /// Reconvergence PC (`usize::MAX` = exit).
    pub rpc: usize,
    /// Active lanes per warp of the CTA; warps past the CTA's last hold 0.
    pub masks: [u32; MAX_CTA_WARPS],
}

/// The affine warp's SIMT stack for one CTA. Masks are fixed arrays, so a
/// branch or an exit allocates nothing once the stack has reached its
/// depth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AffineStack {
    entries: Vec<AffineStackEntry>,
    exited: [u32; MAX_CTA_WARPS],
    /// Warps in the CTA.
    warps: usize,
}

impl AffineStack {
    /// Start at PC 0 with the CTA's launch masks.
    pub fn new(launch_masks: &[u32]) -> Self {
        let mut s = AffineStack {
            entries: Vec::new(),
            exited: [0; MAX_CTA_WARPS],
            warps: 0,
        };
        s.reset(launch_masks);
        s
    }

    /// Start over at PC 0 with a new CTA's launch masks, keeping the
    /// entry storage.
    ///
    /// # Panics
    ///
    /// Panics if the CTA has more than [`MAX_CTA_WARPS`] warps.
    pub fn reset(&mut self, launch_masks: &[u32]) {
        let mut masks = [0; MAX_CTA_WARPS];
        masks[..launch_masks.len()].copy_from_slice(launch_masks);
        self.entries.clear();
        self.entries.push(AffineStackEntry {
            pc: 0,
            rpc: usize::MAX,
            masks,
        });
        self.exited = [0; MAX_CTA_WARPS];
        self.warps = launch_masks.len();
    }

    fn live(&self, e: &AffineStackEntry) -> bool {
        (0..self.warps).any(|w| e.masks[w] & !self.exited[w] != 0)
    }

    /// Current PC.
    ///
    /// # Panics
    ///
    /// Panics if the affine warp already finished.
    pub fn pc(&self) -> usize {
        self.entries.last().expect("affine stack empty").pc
    }

    /// Active lanes of `warp` on the current path.
    pub fn active(&self, warp: usize) -> u32 {
        let top = self.entries.last().expect("affine stack empty");
        top.masks[warp] & !self.exited[warp]
    }

    /// All warps' active masks on the current path (0 past the last warp).
    pub fn active_masks(&self) -> [u32; MAX_CTA_WARPS] {
        let top = self.entries.last().expect("affine stack empty");
        std::array::from_fn(|w| top.masks[w] & !self.exited[w])
    }

    /// Finished?
    pub fn done(&self) -> bool {
        self.entries.is_empty()
    }

    /// Current depth (hardware budget: 8 entries, §4.8).
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    fn settle(&mut self) {
        while let Some(top) = self.entries.last() {
            if !self.live(top) || (self.entries.len() > 1 && top.pc == top.rpc) {
                self.entries.pop();
            } else {
                return;
            }
        }
    }

    /// Advance past a non-control instruction.
    pub fn advance(&mut self) {
        self.entries.last_mut().expect("affine stack empty").pc += 1;
        self.settle();
    }

    /// Execute a branch with per-warp taken masks. Semantics mirror the
    /// per-warp [`simt_sim::SimtStack`] exactly (taken path runs first), so
    /// the affine and non-affine streams visit paths in the same order —
    /// that ordering is what keeps enq/deq FIFOs aligned.
    pub fn branch(&mut self, taken: &[u32], target: usize, rpc: usize) -> bool {
        let active = self.active_masks();
        let mut tk = [0; MAX_CTA_WARPS];
        let mut nt = [0; MAX_CTA_WARPS];
        for (w, &t) in taken.iter().enumerate().take(self.warps) {
            tk[w] = t & active[w];
            nt[w] = active[w] & !t;
        }
        let fallthrough = self.pc() + 1;
        let any_taken = tk.iter().any(|&m| m != 0);
        let any_nt = nt.iter().any(|&m| m != 0);
        if !any_nt {
            self.entries.last_mut().unwrap().pc = target;
            self.settle();
            false
        } else if !any_taken {
            self.entries.last_mut().unwrap().pc = fallthrough;
            self.settle();
            false
        } else {
            self.entries.last_mut().unwrap().pc = rpc;
            self.entries.push(AffineStackEntry {
                pc: fallthrough,
                rpc,
                masks: nt,
            });
            self.entries.push(AffineStackEntry {
                pc: target,
                rpc,
                masks: tk,
            });
            self.settle();
            true
        }
    }

    /// Currently active threads exit.
    pub fn exit(&mut self) {
        let active = self.active_masks();
        for (e, a) in self.exited.iter_mut().zip(&active) {
            *e |= a;
        }
        self.settle();
        if self.entries.iter().all(|en| !self.live(en)) {
            self.entries.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_flow_two_warps() {
        let mut s = AffineStack::new(&[u32::MAX, u32::MAX]);
        s.advance();
        assert_eq!(s.pc(), 1);
        assert!(!s.branch(&[u32::MAX, u32::MAX], 5, 9));
        assert_eq!(s.pc(), 5);
        s.exit();
        assert!(s.done());
    }

    #[test]
    fn warp_level_divergence() {
        // Warp 0 takes, warp 1 falls through — whole-warp granularity.
        let mut s = AffineStack::new(&[u32::MAX, u32::MAX]);
        assert!(s.branch(&[u32::MAX, 0], 10, 20));
        assert_eq!(s.pc(), 10);
        assert_eq!(s.active(0), u32::MAX);
        assert_eq!(s.active(1), 0);
        // Walk taken path to rpc.
        for _ in 10..20 {
            s.advance();
        }
        // Now the not-taken path (warp 1) at the fallthrough.
        assert_eq!(s.pc(), 1);
        assert_eq!(s.active(0), 0);
        assert_eq!(s.active(1), u32::MAX);
        for _ in 1..20 {
            s.advance();
        }
        assert_eq!(s.pc(), 20);
        assert_eq!(s.active(0), u32::MAX);
        assert_eq!(s.active(1), u32::MAX);
    }

    #[test]
    fn intra_warp_divergence_splits_lane_masks() {
        let mut s = AffineStack::new(&[u32::MAX]);
        s.branch(&[0x0000_FFFF], 4, 8);
        assert_eq!(s.active(0), 0x0000_FFFF);
    }

    #[test]
    fn partial_launch_mask() {
        // Last warp has 8 live threads.
        let mut s = AffineStack::new(&[u32::MAX, 0xFF]);
        assert_eq!(s.active(1), 0xFF);
        s.exit();
        assert!(s.done());
    }

    #[test]
    fn matches_simt_stack_path_order() {
        // The affine stack must visit taken-then-fallthrough like the
        // per-warp stack, or enq/deq order would skew.
        let mut a = AffineStack::new(&[u32::MAX]);
        let mut w = simt_sim::SimtStack::new(u32::MAX);
        a.branch(&[0xF0F0_F0F0], 7, 12);
        w.branch(0xF0F0_F0F0, 7, 12);
        assert_eq!(a.pc(), w.pc());
        for _ in 0..5 {
            a.advance();
            w.advance();
            assert_eq!(a.pc(), w.pc());
            assert_eq!(a.active(0), w.active_mask());
        }
    }
}

//! The per-warp SIMT reconvergence stack.
//!
//! Standard immediate-post-dominator reconvergence (what GPGPU-sim and the
//! paper's baseline use): on a divergent branch, the current entry is
//! retargeted to the reconvergence PC and one entry per outcome is pushed;
//! when a path's PC reaches its reconvergence PC, it pops. Thread exits
//! deactivate lanes across all entries.

/// One stack entry: an execution path with its own PC, reconvergence PC,
/// and active-lane mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackEntry {
    /// Current PC of this path.
    pub pc: usize,
    /// PC where the path reconverges with its parent (`usize::MAX` = thread
    /// exit).
    pub rpc: usize,
    /// Active lanes on this path.
    pub mask: u32,
}

/// The SIMT stack of one warp. The default stack is empty: done.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimtStack {
    entries: Vec<StackEntry>,
    exited: u32,
}

impl SimtStack {
    /// New stack: all lanes in `mask` start at PC 0.
    pub fn new(mask: u32) -> Self {
        let mut s = SimtStack::default();
        s.reset(mask);
        s
    }

    /// Start over as [`SimtStack::new`] does, keeping the entry storage.
    pub fn reset(&mut self, mask: u32) {
        self.entries.clear();
        self.entries.push(StackEntry {
            pc: 0,
            rpc: usize::MAX,
            mask,
        });
        self.exited = 0;
    }

    /// Current PC (top of stack).
    ///
    /// # Panics
    ///
    /// Panics if the warp already finished ([`SimtStack::done`]).
    pub fn pc(&self) -> usize {
        self.top().pc
    }

    /// Currently active lanes (top mask minus exited lanes).
    pub fn active_mask(&self) -> u32 {
        self.top().mask & !self.exited
    }

    /// Lanes that have executed `exit`.
    pub fn exited_mask(&self) -> u32 {
        self.exited
    }

    /// Has every lane exited (or every path emptied)?
    pub fn done(&self) -> bool {
        self.entries.is_empty()
    }

    /// Current stack depth (observability / hardware sizing).
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    fn top(&self) -> &StackEntry {
        self.entries.last().expect("SIMT stack empty (warp done)")
    }

    fn top_mut(&mut self) -> &mut StackEntry {
        self.entries
            .last_mut()
            .expect("SIMT stack empty (warp done)")
    }

    /// Drop empty paths and pop reconverged ones.
    fn settle(&mut self) {
        loop {
            let Some(top) = self.entries.last() else {
                return;
            };
            if top.mask & !self.exited == 0 {
                self.entries.pop();
                continue;
            }
            if self.entries.len() > 1 && top.pc == top.rpc {
                self.entries.pop();
                continue;
            }
            return;
        }
    }

    /// Advance past a non-control instruction: `pc += 1`, then reconverge
    /// if the path reached its RPC.
    pub fn advance(&mut self) {
        self.top_mut().pc += 1;
        self.settle();
    }

    /// Execute a branch at the current PC.
    ///
    /// * `taken` — per-lane taken mask (subset of the active mask);
    /// * `target` — branch target PC;
    /// * `rpc` — reconvergence PC from CFG analysis (`usize::MAX` = exit).
    ///
    /// Returns `true` if the warp diverged.
    pub fn branch(&mut self, taken: u32, target: usize, rpc: usize) -> bool {
        let active = self.active_mask();
        let taken = taken & active;
        let not_taken = active & !taken;
        let fallthrough = self.top().pc + 1;
        if not_taken == 0 {
            self.top_mut().pc = target;
            self.settle();
            false
        } else if taken == 0 {
            self.top_mut().pc = fallthrough;
            self.settle();
            false
        } else {
            // Diverge: current entry becomes the reconvergence point.
            self.top_mut().pc = rpc;
            self.entries.push(StackEntry {
                pc: fallthrough,
                rpc,
                mask: not_taken,
            });
            self.entries.push(StackEntry {
                pc: target,
                rpc,
                mask: taken,
            });
            self.settle();
            true
        }
    }

    /// Currently active lanes execute `exit`.
    pub fn exit(&mut self) {
        let m = self.active_mask();
        self.exited |= m;
        self.settle();
        // If only the root entry remains and everything exited, finish.
        if self.entries.iter().all(|e| e.mask & !self.exited == 0) {
            self.entries.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: u32 = u32::MAX;

    #[test]
    fn straight_line() {
        let mut s = SimtStack::new(FULL);
        assert_eq!(s.pc(), 0);
        s.advance();
        s.advance();
        assert_eq!(s.pc(), 2);
        assert_eq!(s.active_mask(), FULL);
        s.exit();
        assert!(s.done());
    }

    #[test]
    fn uniform_branch_no_divergence() {
        let mut s = SimtStack::new(FULL);
        assert!(!s.branch(FULL, 10, 20));
        assert_eq!(s.pc(), 10);
        assert_eq!(s.depth(), 1);
        // Not-taken uniform.
        assert!(!s.branch(0, 3, 20));
        assert_eq!(s.pc(), 11);
    }

    #[test]
    fn divergent_branch_and_reconvergence() {
        // Branch at pc 0, target 5, reconverge at 8.
        let mut s = SimtStack::new(FULL);
        let taken = 0x0000_FFFF;
        assert!(s.branch(taken, 5, 8));
        // Taken path runs first.
        assert_eq!(s.pc(), 5);
        assert_eq!(s.active_mask(), taken);
        s.advance(); // 6
        s.advance(); // 7
        s.advance(); // 8 == rpc → pop to not-taken path
        assert_eq!(s.pc(), 1);
        assert_eq!(s.active_mask(), !taken);
        for _ in 1..8 {
            s.advance();
        }
        // Reached 8 → pop to reconvergence entry, full mask.
        assert_eq!(s.pc(), 8);
        assert_eq!(s.active_mask(), FULL);
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn partial_exit_then_continue() {
        let mut s = SimtStack::new(FULL);
        // Diverge: half the lanes go to an exit path at pc 5, rpc MAX.
        s.branch(0xFFFF_0000, 5, usize::MAX);
        assert_eq!(s.pc(), 5);
        s.exit(); // upper half exits
                  // Lower half resumes at fallthrough.
        assert_eq!(s.pc(), 1);
        assert_eq!(s.active_mask(), 0x0000_FFFF);
        s.exit();
        assert!(s.done());
    }

    #[test]
    fn nested_divergence() {
        let mut s = SimtStack::new(0xFF);
        s.branch(0x0F, 10, 20); // outer
        assert_eq!(s.pc(), 10);
        s.branch(0x03, 15, 18); // inner among lanes 0-3
        assert_eq!(s.pc(), 15);
        assert_eq!(s.active_mask(), 0x03);
        // Entries: root-rpc(20), outer-nt, inner-rpc(18), inner-nt, inner-t.
        assert_eq!(s.depth(), 5);
        // Inner taken path reaches 18 → inner not-taken path.
        s.advance(); // 16
        s.advance(); // 17
        s.advance(); // 18 → pop
        assert_eq!(s.pc(), 11);
        assert_eq!(s.active_mask(), 0x0C);
    }

    #[test]
    fn loop_backedge_uniform() {
        let mut s = SimtStack::new(0xF);
        s.advance(); // 1
        for _ in 0..3 {
            assert!(!s.branch(0xF, 0, 2)); // all lanes loop back
            assert_eq!(s.pc(), 0);
            s.advance();
        }
        assert!(!s.branch(0, 0, 2)); // all exit loop
        assert_eq!(s.pc(), 2);
    }

    #[test]
    fn loop_with_early_finishers() {
        // Lanes leave a loop at different trip counts: branch back at pc 1
        // with shrinking mask, rpc 2.
        let mut s = SimtStack::new(0x3);
        s.advance(); // pc 1
        assert!(s.branch(0x1, 0, 2)); // lane 0 loops, lane 1 leaves
        assert_eq!(s.pc(), 0);
        assert_eq!(s.active_mask(), 0x1);
        s.advance(); // pc 1
        assert!(!s.branch(0, 0, 2)); // lane 0 leaves too → fallthrough 2 = rpc → pop
        assert_eq!(s.pc(), 2);
        assert_eq!(s.active_mask(), 0x3);
        assert_eq!(s.depth(), 1);
    }
}

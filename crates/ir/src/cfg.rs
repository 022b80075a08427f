//! Control-flow graph, post-dominators, and reaching definitions.
//!
//! Two consumers drive this module's design:
//!
//! * the simulator's SIMT reconvergence stack needs, for every branch, the
//!   PC where diverged threads reconverge — the immediate post-dominator of
//!   the branch's block (the policy GPGPU-sim uses);
//! * the affine decoupling compiler performs reaching-definition analysis to
//!   propagate affine types (paper §4.7) and uses nearest common
//!   post-dominators to place divergent-affine conditions (§4.6/4.7).

use crate::instr::Instr;
use crate::kernel::Kernel;
use crate::types::{PredId, RegId};
use std::collections::HashMap;

/// A basic block: a half-open instruction range plus graph edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// First instruction PC.
    pub start: usize,
    /// One past the last instruction PC.
    pub end: usize,
    /// Successor block ids.
    pub succs: Vec<usize>,
    /// Predecessor block ids.
    pub preds: Vec<usize>,
}

/// The control-flow graph of a kernel.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Basic blocks in program order.
    pub blocks: Vec<Block>,
    /// Map from instruction PC to owning block id.
    pub block_of: Vec<usize>,
    /// Immediate post-dominator of each block (`None` ⇒ post-dominated only
    /// by the virtual exit, i.e. reconverges at thread exit).
    pub ipostdom: Vec<Option<usize>>,
    /// Reconvergence PC of every instruction, indexed by PC (`usize::MAX`
    /// ⇒ exit, and at every PC that is not a branch).
    pub reconvergence: Vec<usize>,
}

impl Cfg {
    /// Build the CFG and reconvergence analysis for a kernel.
    pub fn build(kernel: &Kernel) -> Cfg {
        let n = kernel.instrs.len();
        assert!(n > 0, "empty kernel");

        // Leaders: entry, branch targets, and instructions following control.
        let mut leader = vec![false; n];
        leader[0] = true;
        for (pc, i) in kernel.instrs.iter().enumerate() {
            match i {
                Instr::Bra { target, .. } => {
                    leader[*target] = true;
                    if pc + 1 < n {
                        leader[pc + 1] = true;
                    }
                }
                Instr::Exit if pc + 1 < n => {
                    leader[pc + 1] = true;
                }
                _ => {}
            }
        }

        let mut blocks = Vec::new();
        let mut block_of = vec![0usize; n];
        let mut start = 0usize;
        #[allow(clippy::needless_range_loop)] // pc/b index several arrays in lockstep
        for pc in 1..=n {
            if pc == n || leader[pc] {
                let id = blocks.len();
                for b in start..pc {
                    block_of[b] = id;
                }
                blocks.push(Block {
                    start,
                    end: pc,
                    succs: Vec::new(),
                    preds: Vec::new(),
                });
                start = pc;
            }
        }

        // Edges.
        let nb = blocks.len();
        #[allow(clippy::needless_range_loop)] // b also names successor blocks
        for b in 0..nb {
            let last = blocks[b].end - 1;
            match &kernel.instrs[last] {
                Instr::Bra { target, pred } => {
                    let t = block_of[*target];
                    let mut succs = vec![t];
                    if pred.is_some() && b + 1 < nb && !succs.contains(&(b + 1)) {
                        succs.push(b + 1);
                    }
                    blocks[b].succs = succs;
                }
                Instr::Exit => {}
                _ => {
                    if b + 1 < nb {
                        blocks[b].succs = vec![b + 1];
                    }
                }
            }
        }
        for b in 0..nb {
            let succs = blocks[b].succs.clone();
            for s in succs {
                blocks[s].preds.push(b);
            }
        }

        let ipostdom = compute_ipostdom(&blocks);

        // Reconvergence PC for every branch instruction.
        let mut reconvergence = vec![usize::MAX; n];
        for (pc, i) in kernel.instrs.iter().enumerate() {
            if let (Instr::Bra { .. }, Some(p)) = (i, ipostdom[block_of[pc]]) {
                reconvergence[pc] = blocks[p].start;
            }
        }

        Cfg {
            blocks,
            block_of,
            ipostdom,
            reconvergence,
        }
    }

    /// Number of basic blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when the CFG has no blocks (never occurs for valid kernels).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

/// Immediate post-dominators via the classic full-bitset data-flow
/// formulation: `PDOM(b) = {b} ∪ ⋂_{s∈succ(b)} PDOM(s)`, with a virtual exit
/// node (index `n`) that every successor-less block flows into. Kernels are
/// tiny (tens of blocks), so the O(n²) sets are a non-issue and the
/// formulation is robust to self-loops and irreducible shapes.
fn compute_ipostdom(blocks: &[Block]) -> Vec<Option<usize>> {
    let n = blocks.len();
    let total = n + 1; // + virtual exit
    let words = total.div_ceil(64);
    let virt = n;

    let full = {
        let mut v = vec![!0u64; words];
        // Clear bits above `total`.
        let extra = words * 64 - total;
        if extra > 0 {
            v[words - 1] >>= extra;
        }
        v
    };
    let mut pdom: Vec<Vec<u64>> = vec![full.clone(); total];
    // Virtual exit post-dominates only itself.
    pdom[virt] = vec![0u64; words];
    pdom[virt][virt / 64] |= 1 << (virt % 64);

    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..n).rev() {
            let mut newset = full.clone();
            if blocks[b].succs.is_empty() {
                newset.copy_from_slice(&pdom[virt]);
            } else {
                for &s in &blocks[b].succs {
                    for w in 0..words {
                        newset[w] &= pdom[s][w];
                    }
                }
            }
            newset[b / 64] |= 1 << (b % 64);
            if newset != pdom[b] {
                pdom[b] = newset;
                changed = true;
            }
        }
    }

    let contains = |set: &[u64], i: usize| set[i / 64] & (1 << (i % 64)) != 0;

    // ipdom(b) = the strict post-dominator of b nearest to b. Strict
    // post-dominators of b form a chain under post-dominance; the nearest is
    // the one whose own PDOM set is largest (it is post-dominated by all the
    // others plus itself).
    let mut ipdom = vec![None; n];
    for b in 0..n {
        let mut best: Option<(usize, u32)> = None;
        for p in 0..n {
            if p != b && contains(&pdom[b], p) {
                let size: u32 = pdom[p].iter().map(|w| w.count_ones()).sum();
                if best.is_none_or(|(_, s)| size > s) {
                    best = Some((p, size));
                }
            }
        }
        ipdom[b] = best.map(|(p, _)| p);
    }
    ipdom
}

/// What an instruction defines, for reaching-definition analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DefTarget {
    /// A general-purpose register.
    Reg(RegId),
    /// A predicate register.
    Pred(PredId),
}

/// Reaching definitions: for every instruction, which definition sites (PCs)
/// of each register may reach it.
#[derive(Debug, Clone)]
pub struct ReachingDefs {
    /// All definition sites `(pc, target)` in program order.
    pub sites: Vec<(usize, DefTarget)>,
    /// Per-instruction IN sets, as indices into `sites` (sorted).
    ins: Vec<Vec<u32>>,
}

impl ReachingDefs {
    /// Run the analysis for `kernel` over `cfg`.
    pub fn compute(kernel: &Kernel, cfg: &Cfg) -> ReachingDefs {
        let mut sites: Vec<(usize, DefTarget)> = Vec::new();
        let mut site_of_pc: HashMap<usize, usize> = HashMap::new();
        for (pc, i) in kernel.instrs.iter().enumerate() {
            if let Some(r) = i.def_reg() {
                site_of_pc.insert(pc, sites.len());
                sites.push((pc, DefTarget::Reg(r)));
            } else if let Some(p) = i.def_pred() {
                site_of_pc.insert(pc, sites.len());
                sites.push((pc, DefTarget::Pred(p)));
            }
        }
        let ns = sites.len();
        let words = ns.div_ceil(64);
        let nb = cfg.blocks.len();

        // GEN/KILL per block.
        let mut gen = vec![vec![0u64; words]; nb];
        let mut kill = vec![vec![0u64; words]; nb];
        for (b, blk) in cfg.blocks.iter().enumerate() {
            for pc in blk.start..blk.end {
                if let Some(&s) = site_of_pc.get(&pc) {
                    let tgt = sites[s].1;
                    // Kill all other defs of the same target.
                    for (o, &(_, ot)) in sites.iter().enumerate() {
                        if o != s && ot == tgt {
                            kill[b][o / 64] |= 1 << (o % 64);
                            gen[b][o / 64] &= !(1 << (o % 64));
                        }
                    }
                    gen[b][s / 64] |= 1 << (s % 64);
                    kill[b][s / 64] &= !(1 << (s % 64));
                }
            }
        }

        // Block IN via forward iteration.
        let mut bin = vec![vec![0u64; words]; nb];
        let mut bout = vec![vec![0u64; words]; nb];
        let mut changed = true;
        while changed {
            changed = false;
            for b in 0..nb {
                let mut newin = vec![0u64; words];
                for &p in &cfg.blocks[b].preds {
                    for w in 0..words {
                        newin[w] |= bout[p][w];
                    }
                }
                let mut newout = vec![0u64; words];
                for w in 0..words {
                    newout[w] = gen[b][w] | (newin[w] & !kill[b][w]);
                }
                if newin != bin[b] || newout != bout[b] {
                    bin[b] = newin;
                    bout[b] = newout;
                    changed = true;
                }
            }
        }

        // Per-instruction IN by walking each block forward.
        let mut ins = vec![Vec::new(); kernel.instrs.len()];
        for (b, blk) in cfg.blocks.iter().enumerate() {
            let mut cur = bin[b].clone();
            #[allow(clippy::needless_range_loop)] // pc is a kernel address, not just an index
            for pc in blk.start..blk.end {
                let mut v = Vec::new();
                for (s, _) in sites.iter().enumerate() {
                    if cur[s / 64] & (1 << (s % 64)) != 0 {
                        v.push(s as u32);
                    }
                }
                ins[pc] = v;
                if let Some(&s) = site_of_pc.get(&pc) {
                    let tgt = sites[s].1;
                    for (o, &(_, ot)) in sites.iter().enumerate() {
                        if ot == tgt {
                            cur[o / 64] &= !(1 << (o % 64));
                        }
                    }
                    cur[s / 64] |= 1 << (s % 64);
                }
            }
        }

        ReachingDefs { sites, ins }
    }

    /// Definition PCs of general register `r` that reach instruction `pc`.
    pub fn reg_defs_at(&self, pc: usize, r: RegId) -> Vec<usize> {
        self.ins[pc]
            .iter()
            .filter_map(|&s| {
                let (dpc, t) = self.sites[s as usize];
                (t == DefTarget::Reg(r)).then_some(dpc)
            })
            .collect()
    }

    /// Definition PCs of predicate `p` that reach instruction `pc`.
    pub fn pred_defs_at(&self, pc: usize, p: PredId) -> Vec<usize> {
        self.ins[pc]
            .iter()
            .filter_map(|&s| {
                let (dpc, t) = self.sites[s as usize];
                (t == DefTarget::Pred(p)).then_some(dpc)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::instr::{CmpOp, Op};
    use crate::types::Operand;

    /// Diamond: entry → (then | else) → join → exit.
    fn diamond() -> Kernel {
        let mut b = KernelBuilder::new("d", 1);
        let t = b.tid_linear_x(); // pc0 (block0)
        let p = b.setp(CmpOp::Lt, Operand::Reg(t), Operand::Param(0)); // pc1
        let x = b.reg();
        b.bra_if(p, "then"); // pc2 end of block0
        b.alu_into(x, Op::Mov, &[Operand::Imm(1)]); // pc3 block1 (else)
        b.bra("join"); // pc4
        b.label("then");
        b.alu_into(x, Op::Mov, &[Operand::Imm(2)]); // pc5 block2
        b.label("join");
        let _ = b.alu2(Op::Add, Operand::Reg(x), Operand::Imm(0)); // pc6 block3
        b.exit(); // pc7
        b.build()
    }

    #[test]
    fn diamond_blocks_and_edges() {
        let k = diamond();
        let cfg = Cfg::build(&k);
        assert_eq!(cfg.len(), 4);
        assert_eq!(cfg.blocks[0].succs.len(), 2);
        assert_eq!(cfg.blocks[1].succs, vec![3]);
        assert_eq!(cfg.blocks[2].succs, vec![3]);
        assert!(cfg.blocks[3].succs.is_empty());
        assert_eq!(cfg.blocks[3].preds.len(), 2);
    }

    #[test]
    fn diamond_reconvergence_at_join() {
        let k = diamond();
        let cfg = Cfg::build(&k);
        // Branch at pc2 reconverges at the join block start (pc6).
        assert_eq!(cfg.reconvergence[2], 6);
        // ipostdom of blocks 1 and 2 is block 3.
        assert_eq!(cfg.ipostdom[1], Some(3));
        assert_eq!(cfg.ipostdom[2], Some(3));
    }

    #[test]
    fn loop_reconvergence() {
        let mut b = KernelBuilder::new("l", 1);
        let i = b.mov(Operand::Imm(0)); // pc0
        b.label("top");
        b.alu_into(i, Op::Add, &[Operand::Reg(i), Operand::Imm(1)]); // pc1
        let p = b.setp(CmpOp::Lt, Operand::Reg(i), Operand::Param(0)); // pc2
        b.bra_if(p, "top"); // pc3
        b.exit(); // pc4
        let k = b.build();
        let cfg = Cfg::build(&k);
        // Backward branch reconverges at the fall-through exit block.
        assert_eq!(cfg.reconvergence[3], 4);
    }

    #[test]
    fn exit_only_reconvergence_is_max() {
        // if (p) exit; else exit — both sides exit, reconverge at virtual exit.
        let mut b = KernelBuilder::new("e", 1);
        let t = b.tid_linear_x();
        let p = b.setp(CmpOp::Lt, Operand::Reg(t), Operand::Param(0));
        b.bra_if(p, "a");
        b.exit();
        b.label("a");
        b.exit();
        let k = b.build();
        let cfg = Cfg::build(&k);
        assert_eq!(cfg.reconvergence[2], usize::MAX);
    }

    #[test]
    fn reaching_defs_diamond_merge() {
        let k = diamond();
        let cfg = Cfg::build(&k);
        let rd = ReachingDefs::compute(&k, &cfg);
        // At the join use (pc6), x (reg id 1) has two reaching defs: pc3, pc5.
        let mut defs = rd.reg_defs_at(6, 1);
        defs.sort_unstable();
        assert_eq!(defs, vec![3, 5]);
        // At pc6 the tid register has exactly one def (pc0).
        assert_eq!(rd.reg_defs_at(6, 0), vec![0]);
    }

    #[test]
    fn reaching_defs_loop_carried() {
        let mut b = KernelBuilder::new("l", 1);
        let i = b.mov(Operand::Imm(0)); // pc0 def i
        b.label("top");
        b.alu_into(i, Op::Add, &[Operand::Reg(i), Operand::Imm(1)]); // pc1 def+use i
        let p = b.setp(CmpOp::Lt, Operand::Reg(i), Operand::Param(0)); // pc2
        b.bra_if(p, "top"); // pc3
        b.exit();
        let k = b.build();
        let cfg = Cfg::build(&k);
        let rd = ReachingDefs::compute(&k, &cfg);
        // The use at pc1 sees both the init (pc0) and the loop-carried (pc1).
        let mut defs = rd.reg_defs_at(1, i);
        defs.sort_unstable();
        assert_eq!(defs, vec![0, 1]);
    }
}

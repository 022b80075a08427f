//! Static affine analysis (paper §4.7): operand classification by
//! reaching-definition dataflow, divergent-affine analysis, and candidate
//! selection for decoupling.

use crate::class::{operand_class, predicate_decoupleable, transfer, AffClass};
use simt_ir::cfg::{Cfg, ReachingDefs};
use simt_ir::{AddrMode, Instr, InstrClass, Kernel, Operand, PredSrc, Space};
use std::collections::HashSet;

/// What a decoupling candidate becomes in the affine stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateKind {
    /// A global/local load → `enq.data` / `ld deq.data` (early request).
    LoadData,
    /// A global/local store → `enq.addr` / `st [deq.addr]`.
    StoreAddr,
    /// A predicate computation feeding only branches → `enq.pred` /
    /// `@deq.pred bra`.
    Pred,
}

/// One instruction eligible for decoupling, with its backward slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// PC of the memory / predicate instruction.
    pub pc: usize,
    /// What it becomes.
    pub kind: CandidateKind,
    /// PCs of the (affine) instructions computing its address/operands,
    /// sorted ascending.
    pub slice: Vec<usize>,
    /// Divergent affine conditions consumed (≤ 2, paper §4.6).
    pub div_conditions: usize,
}

/// Static instruction-mix statistics for Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StaticMix {
    /// Total static instructions.
    pub total: usize,
    /// Potentially-affine arithmetic instructions.
    pub affine_arithmetic: usize,
    /// Memory instructions with affine addresses.
    pub affine_memory: usize,
    /// Branches with decoupleable predicates.
    pub affine_branch: usize,
}

impl StaticMix {
    /// Fraction of static instructions that are potentially affine, in
    /// [0, 1] (the height of a Figure 6 bar).
    pub fn potential_affine_fraction(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        (self.affine_arithmetic + self.affine_memory + self.affine_branch) as f64
            / self.total as f64
    }
}

/// The result of running the analysis on one kernel.
#[derive(Debug)]
pub struct AffineAnalysis {
    /// Class of each instruction's defined value (`NonAffine` for
    /// instructions defining nothing).
    pub def_class: Vec<AffClass>,
    /// Per-`SetP` flag: decoupleable by the PEU.
    pub pred_decoupleable: Vec<bool>,
    /// Per-pc flag: divergence-extended op (min/max/abs/sel on affine).
    pub divergent_op: Vec<bool>,
    /// Per-pc flag: under non-decoupleable (data-dependent) control flow.
    pub tainted: Vec<bool>,
    /// Eligible decoupling candidates.
    pub candidates: Vec<Candidate>,
    /// The CFG (shared with the decoupler).
    pub cfg: Cfg,
    /// Reaching definitions (shared with the decoupler).
    pub rd: ReachingDefs,
    /// Block dominator sets (bitsets over blocks), for divergent-merge
    /// detection.
    dom: Vec<Vec<u64>>,
}

impl AffineAnalysis {
    /// Run the full analysis.
    pub fn run(kernel: &Kernel) -> AffineAnalysis {
        let cfg = Cfg::build(kernel);
        let rd = ReachingDefs::compute(kernel, &cfg);
        let n = kernel.instrs.len();
        let dom = compute_dominators(&cfg);

        let mut a = AffineAnalysis {
            def_class: vec![AffClass::Scalar; n],
            pred_decoupleable: vec![false; n],
            divergent_op: vec![false; n],
            tainted: vec![false; n],
            candidates: Vec::new(),
            cfg,
            rd,
            dom,
        };
        a.classify(kernel);
        a.taint(kernel);
        a.find_candidates(kernel);
        a
    }

    /// Class of register `r` as used at `pc` (join over reaching defs).
    pub fn use_class(&self, pc: usize, r: u16) -> AffClass {
        let defs = self.rd.reg_defs_at(pc, r);
        if defs.is_empty() {
            return AffClass::NonAffine; // uninitialized
        }
        defs.iter()
            .map(|&d| self.def_class[d])
            .fold(AffClass::Scalar, AffClass::join)
    }

    fn src_class(&self, pc: usize, op: Operand) -> AffClass {
        match op {
            Operand::Reg(r) => self.use_class(pc, r),
            other => operand_class(other),
        }
    }

    /// Are all reaching definitions of predicate `p` at `pc` decoupleable
    /// `setp`s?
    pub fn pred_use_decoupleable(&self, pc: usize, p: u16) -> bool {
        let defs = self.rd.pred_defs_at(pc, p);
        !defs.is_empty() && defs.iter().all(|&d| self.pred_decoupleable[d])
    }

    fn classify(&mut self, kernel: &Kernel) {
        // Monotone ascending fixpoint from ⊥ = Scalar.
        let mut changed = true;
        while changed {
            changed = false;
            for (pc, i) in kernel.instrs.iter().enumerate() {
                let (new_class, new_div, new_dec) = match i {
                    Instr::Alu {
                        op, srcs, guard, ..
                    } => {
                        let cls: Vec<AffClass> = srcs[..op.arity()]
                            .iter()
                            .map(|&s| self.src_class(pc, s))
                            .collect();
                        let t = transfer(*op, &cls);
                        // A guarded write needs the guard predicate to be
                        // affine-computable, and counts as divergence.
                        let (class, div) = match guard {
                            Some(g) if t.class.is_affine() => {
                                if self.pred_use_decoupleable(pc, g.pred) {
                                    (t.class, true)
                                } else {
                                    (AffClass::NonAffine, false)
                                }
                            }
                            _ => (t.class, t.divergent),
                        };
                        (class, div, false)
                    }
                    Instr::Sel { pred, a, b, .. } => {
                        let ca = self.src_class(pc, *a);
                        let cb = self.src_class(pc, *b);
                        let cls = ca.join(cb);
                        if cls <= AffClass::Affine && self.pred_use_decoupleable(pc, pred.pred) {
                            (AffClass::Affine, true, false)
                        } else {
                            (AffClass::NonAffine, false, false)
                        }
                    }
                    Instr::SetP {
                        cmp: _,
                        a,
                        b,
                        float,
                        ..
                    } => {
                        let ca = self.src_class(pc, *a);
                        let cb = self.src_class(pc, *b);
                        (
                            AffClass::NonAffine,
                            false,
                            predicate_decoupleable(ca, cb, *float),
                        )
                    }
                    // Loads/atomics produce memory data.
                    Instr::Ld { .. } | Instr::Atom { .. } => (AffClass::NonAffine, false, false),
                    _ => (AffClass::NonAffine, false, false),
                };
                if self.def_class[pc] != new_class {
                    // Ascending only (monotone).
                    debug_assert!(new_class >= self.def_class[pc]);
                    self.def_class[pc] = new_class;
                    changed = true;
                }
                if self.divergent_op[pc] != new_div {
                    self.divergent_op[pc] = new_div;
                    changed = true;
                }
                if self.pred_decoupleable[pc] != new_dec {
                    self.pred_decoupleable[pc] = new_dec;
                    changed = true;
                }
            }
        }
    }

    /// Mark the regions controlled by non-decoupleable (data-dependent)
    /// branches: instructions there cannot be decoupled, and the affine
    /// stream omits them wholesale (see DESIGN.md).
    fn taint(&mut self, kernel: &Kernel) {
        for (pc, i) in kernel.instrs.iter().enumerate() {
            let Instr::Bra { target, pred } = i else {
                continue;
            };
            let decoupleable = match pred {
                None => true,
                Some(PredSrc::Reg(g)) => self.pred_use_decoupleable(pc, g.pred),
                Some(PredSrc::Deq { .. }) => true,
            };
            if decoupleable {
                continue;
            }
            let (lo, hi) = if *target > pc {
                // Forward: region up to the reconvergence point.
                (pc + 1, self.cfg.reconvergence[pc].min(kernel.instrs.len()))
            } else {
                // Backward (data-dependent loop): the whole loop body.
                (*target, pc + 1)
            };
            // The branch itself is tainted too (it cannot be replicated).
            self.tainted[pc] = true;
            for t in lo..hi {
                self.tainted[t] = true;
            }
        }
    }

    /// Do two definition blocks form a *divergent* merge (neither dominates
    /// the other — an if/else diamond rather than a loop-carried update)?
    fn divergent_merge(&self, defs: &[usize]) -> bool {
        let blocks: Vec<usize> = defs.iter().map(|&d| self.cfg.block_of[d]).collect();
        for i in 0..blocks.len() {
            for j in (i + 1)..blocks.len() {
                let (a, b) = (blocks[i], blocks[j]);
                if a == b {
                    continue;
                }
                let a_dom_b = self.dom[b][a / 64] & (1 << (a % 64)) != 0;
                let b_dom_a = self.dom[a][b / 64] & (1 << (b % 64)) != 0;
                if !a_dom_b && !b_dom_a {
                    return true;
                }
            }
        }
        false
    }

    /// Walk the backward slice of `roots` (register operands at `pc`).
    /// Returns `(slice_pcs, divergent_conditions)` or `None` if ineligible.
    fn walk_slice(&self, kernel: &Kernel, pc: usize, roots: &[u16]) -> Option<(Vec<usize>, usize)> {
        let mut slice: HashSet<usize> = HashSet::new();
        let mut div_sites: HashSet<Vec<usize>> = HashSet::new();
        let mut stack: Vec<(usize, u16)> = roots.iter().map(|&r| (pc, r)).collect();
        let mut visited: HashSet<(usize, u16)> = HashSet::new();

        while let Some((use_pc, reg)) = stack.pop() {
            if !visited.insert((use_pc, reg)) {
                continue;
            }
            let mut defs = self.rd.reg_defs_at(use_pc, reg);
            defs.sort_unstable();
            if defs.is_empty() {
                return None; // uninitialized input
            }
            if defs.len() > 1 && self.divergent_merge(&defs) {
                div_sites.insert(defs.clone());
            }
            for d in defs {
                if self.tainted[d] || !self.def_class[d].is_affine() {
                    return None;
                }
                if slice.insert(d) {
                    let instr = &kernel.instrs[d];
                    if self.divergent_op[d] {
                        div_sites.insert(vec![d]);
                    }
                    for r in instr.src_regs() {
                        stack.push((d, r));
                    }
                    // Guards and sel conditions: the predicate's setp and
                    // its own slice must come along too.
                    for p in instr.src_preds() {
                        for pd in self.rd.pred_defs_at(d, p) {
                            if !self.pred_decoupleable[pd] || self.tainted[pd] {
                                return None;
                            }
                            if slice.insert(pd) {
                                for r in kernel.instrs[pd].src_regs() {
                                    stack.push((pd, r));
                                }
                            }
                        }
                    }
                }
            }
        }
        let mut v: Vec<usize> = slice.into_iter().collect();
        v.sort_unstable();
        Some((v, div_sites.len()))
    }

    fn find_candidates(&mut self, kernel: &Kernel) {
        let mut cands = Vec::new();
        for (pc, i) in kernel.instrs.iter().enumerate() {
            if self.tainted[pc] {
                continue;
            }
            match i {
                Instr::Ld {
                    space: Space::Global | Space::Local,
                    addr: AddrMode::Reg(r, _),
                    guard,
                    ..
                }
                | Instr::St {
                    space: Space::Global | Space::Local,
                    addr: AddrMode::Reg(r, _),
                    guard,
                    ..
                } => {
                    if !self.use_class(pc, *r).is_affine() {
                        continue;
                    }
                    // A guard must itself be decoupleable (the enq carries
                    // it in the affine stream).
                    let mut roots = vec![*r];
                    if let Some(g) = guard {
                        if !self.pred_use_decoupleable(pc, g.pred) {
                            continue;
                        }
                        let _ = g;
                    }
                    // Guard slice comes along via src_preds below.
                    let Some((mut slice, mut div)) = self.walk_slice(kernel, pc, &roots) else {
                        continue;
                    };
                    if let Some(g) = guard {
                        let mut ok = true;
                        for pd in self.rd.pred_defs_at(pc, g.pred) {
                            if !self.pred_decoupleable[pd] || self.tainted[pd] {
                                ok = false;
                                break;
                            }
                            if !slice.contains(&pd) {
                                if let Some((s2, d2)) =
                                    self.walk_slice(kernel, pd, &kernel.instrs[pd].src_regs())
                                {
                                    slice.push(pd);
                                    slice.extend(s2);
                                    div += d2;
                                } else {
                                    ok = false;
                                    break;
                                }
                            }
                        }
                        if !ok {
                            continue;
                        }
                        div += 1; // the guard itself is a condition
                        slice.sort_unstable();
                        slice.dedup();
                    }
                    roots.clear();
                    if div > 2 {
                        continue;
                    }
                    let kind = if matches!(i, Instr::Ld { .. }) {
                        CandidateKind::LoadData
                    } else {
                        CandidateKind::StoreAddr
                    };
                    cands.push(Candidate {
                        pc,
                        kind,
                        slice,
                        div_conditions: div,
                    });
                }
                Instr::SetP { a, b, .. } => {
                    if !self.pred_decoupleable[pc] {
                        continue;
                    }
                    // Only decouple predicates consumed exclusively by
                    // branches (guards must read the register directly).
                    let dst = i.def_pred().unwrap();
                    let mut used_by_branch = false;
                    let mut used_elsewhere = false;
                    for (upc, u) in kernel.instrs.iter().enumerate() {
                        let reads = u.src_preds().contains(&dst)
                            && self.rd.pred_defs_at(upc, dst).contains(&pc);
                        if !reads {
                            continue;
                        }
                        if matches!(u, Instr::Bra { .. }) {
                            used_by_branch = true;
                        } else {
                            used_elsewhere = true;
                        }
                    }
                    if !used_by_branch || used_elsewhere {
                        continue;
                    }
                    let mut roots = Vec::new();
                    if let Operand::Reg(r) = a {
                        roots.push(*r);
                    }
                    if let Operand::Reg(r) = b {
                        roots.push(*r);
                    }
                    let Some((slice, div)) = self.walk_slice(kernel, pc, &roots) else {
                        continue;
                    };
                    if div > 2 {
                        continue;
                    }
                    cands.push(Candidate {
                        pc,
                        kind: CandidateKind::Pred,
                        slice,
                        div_conditions: div,
                    });
                }
                _ => {}
            }
        }
        self.candidates = cands;
    }

    /// Static instruction mix for Figure 6.
    pub fn static_mix(&self, kernel: &Kernel) -> StaticMix {
        let mut m = StaticMix {
            total: kernel.instrs.len(),
            ..Default::default()
        };
        for (pc, i) in kernel.instrs.iter().enumerate() {
            match i.class() {
                InstrClass::Arithmetic => {
                    let affine = match i {
                        Instr::SetP { .. } => self.pred_decoupleable[pc],
                        _ => self.def_class[pc].is_affine(),
                    };
                    if affine {
                        m.affine_arithmetic += 1;
                    }
                }
                InstrClass::Memory => {
                    let affine = match i {
                        Instr::Ld {
                            addr: AddrMode::Reg(r, _),
                            ..
                        }
                        | Instr::St {
                            addr: AddrMode::Reg(r, _),
                            ..
                        } => self.use_class(pc, *r).is_affine(),
                        _ => false,
                    };
                    if affine {
                        m.affine_memory += 1;
                    }
                }
                InstrClass::Branch => {
                    if let Instr::Bra { pred, .. } = i {
                        let affine = match pred {
                            None => true,
                            Some(PredSrc::Reg(g)) => self.pred_use_decoupleable(pc, g.pred),
                            Some(PredSrc::Deq { .. }) => true,
                        };
                        if affine {
                            m.affine_branch += 1;
                        }
                    }
                }
                InstrClass::Other => {}
            }
        }
        m
    }
}

/// Forward dominators over blocks, as bitsets (`dom[b]` contains `d` iff
/// `d` dominates `b`).
fn compute_dominators(cfg: &Cfg) -> Vec<Vec<u64>> {
    let n = cfg.blocks.len();
    let words = n.div_ceil(64).max(1);
    let mut full = vec![!0u64; words];
    let extra = words * 64 - n;
    if extra > 0 {
        full[words - 1] >>= extra;
    }
    let mut dom = vec![full.clone(); n];
    // Entry dominates only itself.
    dom[0] = vec![0u64; words];
    dom[0][0] |= 1;
    let mut changed = true;
    while changed {
        changed = false;
        for b in 1..n {
            let mut newset = full.clone();
            if cfg.blocks[b].preds.is_empty() {
                newset = vec![0u64; words]; // unreachable
            }
            for &p in &cfg.blocks[b].preds {
                for w in 0..words {
                    newset[w] &= dom[p][w];
                }
            }
            newset[b / 64] |= 1 << (b % 64);
            if newset != dom[b] {
                dom[b] = newset;
                changed = true;
            }
        }
    }
    dom
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_ir::{CmpOp, KernelBuilder, Op, Width};

    /// The paper's Figure 4 kernel.
    fn figure4_kernel() -> Kernel {
        simt_ir::asm::parse_kernel(
            r#"
.kernel example
.params 4
    mul r0, %ctaid.x, %ntid.x;
    add r1, r0, %tid.x;
    shl r2, r1, 2;
    add r3, %p0, r2;
    add r4, %p1, r2;
    mov r5, 0;
LOOP:
    ld.global r6, [r3];
    add r7, r6, 1;
    st.global [r4], r7;
    add r5, r5, 1;
    mul r8, %p3, 4;
    add r3, r8, r3;
    add r4, r8, r4;
    setp.ne p0, %p2, r5;
    @p0 bra LOOP;
    exit;
"#,
        )
        .unwrap()
    }

    #[test]
    fn figure4_classification() {
        let k = figure4_kernel();
        let a = AffineAnalysis::run(&k);
        // tid (r1) is Affine; addrA (r3) is Affine at the load.
        assert_eq!(a.def_class[1], AffClass::Affine);
        assert_eq!(a.use_class(6, 3), AffClass::Affine);
        // i (r5) and stride (r8) are Scalar.
        assert_eq!(a.use_class(13, 5), AffClass::Scalar);
        assert_eq!(a.def_class[10], AffClass::Scalar);
        // Loop predicate is decoupleable (scalar vs scalar).
        assert!(a.pred_decoupleable[13]);
        // Data value (r6, r7) is NonAffine.
        assert_eq!(a.use_class(7, 6), AffClass::NonAffine);
    }

    #[test]
    fn figure4_candidates() {
        let k = figure4_kernel();
        let a = AffineAnalysis::run(&k);
        let kinds: Vec<CandidateKind> = a.candidates.iter().map(|c| c.kind).collect();
        assert!(
            kinds.contains(&CandidateKind::LoadData),
            "{:?}",
            a.candidates
        );
        assert!(kinds.contains(&CandidateKind::StoreAddr));
        assert!(kinds.contains(&CandidateKind::Pred));
        // The loop-carried addrA update is NOT a divergent condition.
        let load = a
            .candidates
            .iter()
            .find(|c| c.kind == CandidateKind::LoadData)
            .unwrap();
        assert_eq!(load.div_conditions, 0, "loop-carried must not count");
        // The load's slice includes the address init and update chain.
        assert!(load.slice.contains(&3)); // add r3, %p0, r2
        assert!(load.slice.contains(&11)); // add r3, r8, r3
    }

    #[test]
    fn figure4_static_mix() {
        let k = figure4_kernel();
        let a = AffineAnalysis::run(&k);
        let m = a.static_mix(&k);
        assert_eq!(m.total, 16);
        // Loads/stores both affine.
        assert_eq!(m.affine_memory, 2);
        assert_eq!(m.affine_branch, 1);
        assert!(m.potential_affine_fraction() > 0.5);
    }

    #[test]
    fn divergent_diamond_counts_one_condition() {
        // Figure 14 right: offset = cond ? 0 : tid*4 via diamond.
        let mut b = KernelBuilder::new("div", 2);
        let tid = b.tid_linear_x();
        let p = b.setp(CmpOp::Lt, Operand::Reg(tid), Operand::Param(1));
        let off = b.reg();
        b.bra_if(p, "then");
        b.alu_into(off, Op::Shl, &[Operand::Reg(tid), Operand::Imm(2)]);
        b.bra("join");
        b.label("then");
        b.alu_into(off, Op::Mov, &[Operand::Imm(0)]);
        b.label("join");
        let addr = b.alu2(Op::Add, Operand::Param(0), Operand::Reg(off));
        let _ = b.ld(simt_ir::Space::Global, addr, 0, Width::W32);
        b.exit();
        let k = b.build();
        let a = AffineAnalysis::run(&k);
        let load = a
            .candidates
            .iter()
            .find(|c| c.kind == CandidateKind::LoadData)
            .expect("divergent load should still be a candidate");
        assert_eq!(load.div_conditions, 1);
    }

    #[test]
    fn data_dependent_branch_taints_region() {
        // if (A[tid] > 0) { store } — the store's control is data-dependent.
        let mut b = KernelBuilder::new("taint", 2);
        let tid = b.tid_linear_x();
        let off = b.alu2(Op::Shl, Operand::Reg(tid), Operand::Imm(2));
        let pa = b.alu2(Op::Add, Operand::Param(0), Operand::Reg(off));
        let v = b.ld(simt_ir::Space::Global, pa, 0, Width::W32);
        let p = b.setp(CmpOp::Le, Operand::Reg(v), Operand::Imm(0));
        b.bra_if(p, "skip");
        let pb = b.alu2(Op::Add, Operand::Param(1), Operand::Reg(off));
        b.st(simt_ir::Space::Global, pb, 0, Operand::Reg(v), Width::W32);
        b.label("skip");
        b.exit();
        let k = b.build();
        let a = AffineAnalysis::run(&k);
        // The store (pc 7) is tainted and must not be a candidate.
        assert!(a.tainted[7]);
        assert!(a
            .candidates
            .iter()
            .all(|c| c.kind != CandidateKind::StoreAddr));
        // The load (pc 3) is before the branch and remains a candidate.
        assert!(a
            .candidates
            .iter()
            .any(|c| c.kind == CandidateKind::LoadData && c.pc == 3));
    }

    #[test]
    fn indirect_load_is_not_a_candidate() {
        // B[A[tid]] — classic indirect access (BFS-like), not affine.
        let mut b = KernelBuilder::new("indirect", 2);
        let tid = b.tid_linear_x();
        let off = b.alu2(Op::Shl, Operand::Reg(tid), Operand::Imm(2));
        let pa = b.alu2(Op::Add, Operand::Param(0), Operand::Reg(off));
        let idx = b.ld(simt_ir::Space::Global, pa, 0, Width::W32);
        let ioff = b.alu2(Op::Shl, Operand::Reg(idx), Operand::Imm(2));
        let pb = b.alu2(Op::Add, Operand::Param(1), Operand::Reg(ioff));
        let _ = b.ld(simt_ir::Space::Global, pb, 0, Width::W32);
        b.exit();
        let k = b.build();
        let a = AffineAnalysis::run(&k);
        let load_pcs: Vec<usize> = a
            .candidates
            .iter()
            .filter(|c| c.kind == CandidateKind::LoadData)
            .map(|c| c.pc)
            .collect();
        // Only the first (affine) load qualifies.
        assert_eq!(load_pcs, vec![3]);
    }

    #[test]
    fn mod_address_is_candidate() {
        let mut b = KernelBuilder::new("modk", 1);
        let tid = b.tid_linear_x();
        let m = b.alu2(Op::Rem, Operand::Reg(tid), Operand::Imm(64));
        let off = b.alu2(Op::Shl, Operand::Reg(m), Operand::Imm(2));
        let pa = b.alu2(Op::Add, Operand::Param(0), Operand::Reg(off));
        let _ = b.ld(simt_ir::Space::Global, pa, 0, Width::W32);
        b.exit();
        let k = b.build();
        let a = AffineAnalysis::run(&k);
        assert_eq!(a.use_class(4, pa), AffClass::AffineMod);
        assert!(a
            .candidates
            .iter()
            .any(|c| c.kind == CandidateKind::LoadData));
    }

    use simt_ir::Operand;
}

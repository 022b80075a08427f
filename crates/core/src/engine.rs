//! The affine warp: per-CTA execution of the affine instruction stream on
//! affine tuples (paper §4.4–§4.6).
//!
//! One [`AffineCtx`] exists per resident CTA; the [`crate::Dac`]
//! coprocessor round-robins one instruction per cycle across contexts,
//! consuming an SM issue slot (the affine warp runs on the SIMT lanes,
//! §4.4). Values are [`AffineVal`]s: single tuples, or divergent tuple
//! sets selected per thread (§4.6). All evaluation is bit-exact with the
//! vector path.

use crate::astack::AffineStack;
use crate::queues::{AtqEntry, DacQueues, WarpExpansion};
use affine::value::DivergentVal;
use affine::{tuple::tuple_op, AffineTuple, AffineVal, PredVal};
use simt_ir::{Instr, Kernel, LaunchConfig, Op, Operand, PredSrc, QueueKind, Space, SpecialReg};
use simt_mem::LaneAddrs;
use simt_sim::sm::{LOCAL_BASE, LOCAL_STRIDE};

/// How the PEU would have produced a predicate (drives Figure-level stats:
/// 64% scalar, 93% ≤ two comparisons in the paper §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeuClass {
    /// Both operands scalar: one comparison for the whole CTA.
    Scalar,
    /// Warp-uniform outcome: two comparisons per warp.
    TwoCompare,
    /// Mixed within a warp: full 32-lane comparison on the SIMT lanes.
    Full,
}

/// Result of executing one affine-stream instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecOutcome {
    /// Instruction issued and executed.
    Executed,
    /// Blocked: the ATQ is full (scoreboard gate, Figure 9 ⑨).
    AtqFull,
    /// The context already finished.
    Done,
}

/// The affine warp's architectural state for one CTA.
#[derive(Debug)]
pub struct AffineCtx {
    /// CTA slot on the SM.
    pub slot: usize,
    /// Linear CTA id.
    pub cta_linear: u64,
    /// Grid coordinates of the CTA.
    pub cta_coords: (u32, u32, u32),
    /// SM warp slots owned by the CTA (index = warp-in-CTA).
    pub warps: Vec<usize>,
    /// Control-flow stack over the CTA's warps.
    pub stack: AffineStack,
    /// Affine barrier epoch (§4.2): incremented when the affine warp
    /// passes a `bar.sync`.
    pub epoch: u32,
    /// Per-warp launch masks: which lanes hold live threads (the last warp
    /// of a ragged block is partial). Lanes outside these masks carry no
    /// architectural state.
    exist: Vec<u32>,
    regs: Vec<Option<AffineVal>>,
    preds: Vec<Option<PredVal>>,
}

impl AffineCtx {
    /// Create the context for a CTA with per-warp launch masks.
    pub fn new(
        slot: usize,
        cta_linear: u64,
        cta_coords: (u32, u32, u32),
        warps: Vec<usize>,
        launch_masks: Vec<u32>,
        kernel: &Kernel,
    ) -> Self {
        AffineCtx {
            slot,
            cta_linear,
            cta_coords,
            warps,
            exist: launch_masks.clone(),
            stack: AffineStack::new(launch_masks),
            epoch: 0,
            regs: vec![None; kernel.num_regs as usize],
            preds: vec![None; kernel.num_preds as usize],
        }
    }

    /// Has the affine stream finished for this CTA?
    pub fn done(&self) -> bool {
        self.stack.done()
    }

    fn num_warps(&self) -> usize {
        self.warps.len()
    }

    fn thread_coords(&self, warp: usize, lane: usize, launch: &LaunchConfig) -> (u32, u32, u32) {
        launch.block.unflatten(warp as u64 * 32 + lane as u64)
    }

    fn operand_val(&self, op: Operand, launch: &LaunchConfig) -> AffineVal {
        match op {
            Operand::Reg(r) => self
                .regs
                .get(r as usize)
                .and_then(|v| v.clone())
                .unwrap_or_else(|| AffineVal::scalar(0)),
            Operand::Imm(i) => AffineVal::scalar(i as u64),
            Operand::Param(p) => AffineVal::scalar(launch.params[p as usize]),
            Operand::Special(s) => match s {
                SpecialReg::TidX => AffineVal::Tuple(AffineTuple::tid(0)),
                SpecialReg::TidY => AffineVal::Tuple(AffineTuple::tid(1)),
                SpecialReg::TidZ => AffineVal::Tuple(AffineTuple::tid(2)),
                SpecialReg::CtaIdX => AffineVal::scalar(self.cta_coords.0 as u64),
                SpecialReg::CtaIdY => AffineVal::scalar(self.cta_coords.1 as u64),
                SpecialReg::CtaIdZ => AffineVal::scalar(self.cta_coords.2 as u64),
                SpecialReg::NTidX => AffineVal::scalar(launch.block.x as u64),
                SpecialReg::NTidY => AffineVal::scalar(launch.block.y as u64),
                SpecialReg::NTidZ => AffineVal::scalar(launch.block.z as u64),
                SpecialReg::NCtaIdX => AffineVal::scalar(launch.grid.x as u64),
                SpecialReg::NCtaIdY => AffineVal::scalar(launch.grid.y as u64),
                SpecialReg::NCtaIdZ => AffineVal::scalar(launch.grid.z as u64),
            },
        }
    }

    fn guard_bits(&self, g: Option<simt_ir::instr::Guard>, warp: usize) -> u32 {
        match g {
            None => u32::MAX,
            Some(g) => {
                let bits = self
                    .preds
                    .get(g.pred as usize)
                    .and_then(|p| p.as_ref())
                    .map(|p| p.warp_bits(warp))
                    .unwrap_or(0);
                if g.negate {
                    !bits
                } else {
                    bits
                }
            }
        }
    }

    /// Per-lane tuple index combination for divergent sources.
    fn lane_tuple<'a>(&self, v: &'a AffineVal, warp: usize, lane: usize) -> &'a AffineTuple {
        match v {
            AffineVal::Tuple(t) => t,
            AffineVal::Divergent(d) => &d.tuples[d.select[warp][lane] as usize],
        }
    }

    /// Evaluate an ALU op over affine values, producing a (possibly
    /// divergent) affine value.
    ///
    /// # Panics
    ///
    /// Panics if the combination is not representable — the decoupling
    /// compiler's eligibility rules are supposed to prevent that, so a
    /// panic here is a compiler bug, not a workload property.
    fn eval_alu(&self, op: Op, vals: &[AffineVal], launch: &LaunchConfig) -> AffineVal {
        let all_single = vals.iter().all(|v| matches!(v, AffineVal::Tuple(_)));
        if all_single {
            let tuples: Vec<AffineTuple> = vals.iter().map(|v| *v.as_tuple().unwrap()).collect();
            if let Some(t) = tuple_op(op, &tuples) {
                return AffineVal::Tuple(t);
            }
            if matches!(op, Op::Min | Op::Max | Op::Abs) {
                return self.eval_select_op(op, vals, launch);
            }
            panic!("affine engine: op {op} not representable on tuples {tuples:?}");
        }
        if matches!(op, Op::Min | Op::Max | Op::Abs) {
            return self.eval_select_op(op, vals, launch);
        }
        // Linear op over divergent sources: combine per-lane tuple picks.
        let nw = self.num_warps();
        let mut tuples: Vec<AffineTuple> = Vec::new();
        let mut select = vec![[0u8; 32]; nw];
        for (w, sel) in select.iter_mut().enumerate() {
            for (lane, s) in sel.iter_mut().enumerate() {
                let srcs: Vec<AffineTuple> =
                    vals.iter().map(|v| *self.lane_tuple(v, w, lane)).collect();
                let t = tuple_op(op, &srcs)
                    .unwrap_or_else(|| panic!("affine engine: divergent {op} unrepresentable"));
                let idx = match tuples.iter().position(|x| *x == t) {
                    Some(i) => i,
                    None => {
                        assert!(
                            tuples.len() < 8,
                            "affine engine: divergent tuple explosion on {op}"
                        );
                        tuples.push(t);
                        tuples.len() - 1
                    }
                };
                *s = idx as u8;
            }
        }
        if tuples.len() == 1 {
            AffineVal::Tuple(tuples[0])
        } else {
            AffineVal::Divergent(DivergentVal { tuples, select })
        }
    }

    /// Divergence-extended ops (§4.6): `min`/`max`/`abs` pick one of the
    /// source tuples per thread.
    fn eval_select_op(&self, op: Op, vals: &[AffineVal], launch: &LaunchConfig) -> AffineVal {
        let nw = self.num_warps();
        let mut tuples: Vec<AffineTuple> = Vec::new();
        let mut select = vec![[0u8; 32]; nw];
        let neg_tuple = |t: &AffineTuple| t.neg().expect("abs of mod tuple");
        for (w, sel) in select.iter_mut().enumerate() {
            for (lane, s) in sel.iter_mut().enumerate() {
                let coords = self.thread_coords(w, lane, launch);
                let pick: AffineTuple = match op {
                    Op::Min | Op::Max => {
                        let ta = *self.lane_tuple(&vals[0], w, lane);
                        let tb = *self.lane_tuple(&vals[1], w, lane);
                        let (va, vb) = (ta.eval(coords) as i64, tb.eval(coords) as i64);
                        let a_wins = if op == Op::Min { va <= vb } else { va >= vb };
                        if a_wins {
                            ta
                        } else {
                            tb
                        }
                    }
                    Op::Abs => {
                        let t = *self.lane_tuple(&vals[0], w, lane);
                        if (t.eval(coords) as i64) < 0 {
                            neg_tuple(&t)
                        } else {
                            t
                        }
                    }
                    _ => unreachable!(),
                };
                let idx = match tuples.iter().position(|x| *x == pick) {
                    Some(i) => i,
                    None => {
                        assert!(tuples.len() < 8, "divergent tuple explosion on {op}");
                        tuples.push(pick);
                        tuples.len() - 1
                    }
                };
                *s = idx as u8;
            }
        }
        if tuples.len() == 1 {
            AffineVal::Tuple(tuples[0])
        } else {
            AffineVal::Divergent(DivergentVal { tuples, select })
        }
    }

    fn write_reg(&mut self, r: u16, v: AffineVal, write_masks: &[u32]) {
        let nw = self.num_warps();
        let merged = match &v {
            AffineVal::Tuple(t) => AffineVal::merge_masked(
                self.regs[r as usize].as_ref(),
                *t,
                write_masks,
                &self.exist,
                nw,
            )
            .expect("divergent tuple limit exceeded (compiler bug)"),
            // Divergent results under partial masks: merge tuple by tuple.
            AffineVal::Divergent(d) => {
                let mut cur = self.regs[r as usize].clone();
                for (i, t) in d.tuples.iter().enumerate() {
                    let masks: Vec<u32> = (0..nw)
                        .map(|w| {
                            let mut m = 0u32;
                            for lane in 0..32 {
                                if d.select[w][lane] as usize == i
                                    && write_masks[w] & (1 << lane) != 0
                                {
                                    m |= 1 << lane;
                                }
                            }
                            m
                        })
                        .collect();
                    if masks.iter().all(|&m| m == 0) {
                        continue;
                    }
                    cur = Some(
                        AffineVal::merge_masked(cur.as_ref(), *t, &masks, &self.exist, nw)
                            .expect("divergent tuple limit exceeded (compiler bug)"),
                    );
                }
                cur.unwrap_or(v)
            }
        };
        self.regs[r as usize] = Some(merged);
    }

    /// Evaluate a `setp` into a predicate value, with its PEU cost class.
    fn eval_setp(
        &self,
        cmp: simt_ir::CmpOp,
        a: &AffineVal,
        b: &AffineVal,
        float: bool,
        launch: &LaunchConfig,
    ) -> (PredVal, PeuClass) {
        let scalar_ab = match (a, b) {
            (AffineVal::Tuple(ta), AffineVal::Tuple(tb)) => ta.as_scalar().zip(tb.as_scalar()),
            _ => None,
        };
        if let Some((va, vb)) = scalar_ab {
            let r = if float {
                cmp.eval_f32(f32::from_bits(va as u32), f32::from_bits(vb as u32))
            } else {
                cmp.eval_i64(va as i64, vb as i64)
            };
            return (PredVal::Uniform(r), PeuClass::Scalar);
        }
        let nw = self.num_warps();
        let mut per_warp = Vec::with_capacity(nw);
        let mut all_uniform = true;
        for w in 0..nw {
            let mut bits = 0u32;
            for lane in 0..32 {
                let coords = self.thread_coords(w, lane, launch);
                let va = self.lane_tuple(a, w, lane).eval(coords);
                let vb = self.lane_tuple(b, w, lane).eval(coords);
                let r = if float {
                    cmp.eval_f32(f32::from_bits(va as u32), f32::from_bits(vb as u32))
                } else {
                    cmp.eval_i64(va as i64, vb as i64)
                };
                if r {
                    bits |= 1 << lane;
                }
            }
            if bits != 0 && bits != u32::MAX {
                all_uniform = false;
            }
            per_warp.push(bits);
        }
        let class = if all_uniform {
            PeuClass::TwoCompare
        } else {
            PeuClass::Full
        };
        (PredVal::PerWarp(per_warp), class)
    }

    /// Execute one instruction of the affine stream. `reconv` maps branch
    /// PCs to reconvergence PCs in the *affine* kernel.
    pub fn exec_one(
        &mut self,
        kernel: &Kernel,
        reconv: &std::collections::HashMap<usize, usize>,
        launch: &LaunchConfig,
        queues: &mut DacQueues,
    ) -> (ExecOutcome, Option<PeuClass>) {
        if self.done() {
            return (ExecOutcome::Done, None);
        }
        let pc = self.stack.pc();
        let instr = &kernel.instrs[pc];
        let mut peu_class = None;

        match instr {
            Instr::Enq { .. } if !queues.atq_has_space() => {
                return (ExecOutcome::AtqFull, None);
            }
            _ => {}
        }

        match instr {
            Instr::Alu {
                op,
                dst,
                srcs,
                guard,
            } => {
                let vals: Vec<AffineVal> = srcs[..op.arity()]
                    .iter()
                    .map(|&s| self.operand_val(s, launch))
                    .collect();
                let v = self.eval_alu(*op, &vals, launch);
                let masks: Vec<u32> = (0..self.num_warps())
                    .map(|w| self.stack.active(w) & self.guard_bits(*guard, w))
                    .collect();
                self.write_reg(*dst, v, &masks);
                self.stack.advance();
            }
            Instr::Sel { dst, pred, a, b } => {
                let va = self.operand_val(*a, launch);
                let vb = self.operand_val(*b, launch);
                let nw = self.num_warps();
                let mut tuples: Vec<AffineTuple> = Vec::new();
                let mut select = vec![[0u8; 32]; nw];
                for (w, sel) in select.iter_mut().enumerate() {
                    let bits = self.guard_bits(Some(*pred), w);
                    for (lane, s) in sel.iter_mut().enumerate() {
                        let pick = if bits & (1 << lane) != 0 {
                            *self.lane_tuple(&va, w, lane)
                        } else {
                            *self.lane_tuple(&vb, w, lane)
                        };
                        let idx = match tuples.iter().position(|x| *x == pick) {
                            Some(i) => i,
                            None => {
                                assert!(tuples.len() < 8, "sel tuple explosion");
                                tuples.push(pick);
                                tuples.len() - 1
                            }
                        };
                        *s = idx as u8;
                    }
                }
                let v = if tuples.len() == 1 {
                    AffineVal::Tuple(tuples[0])
                } else {
                    AffineVal::Divergent(DivergentVal { tuples, select })
                };
                let masks = self.stack.active_masks();
                self.write_reg(*dst, v, &masks);
                self.stack.advance();
            }
            Instr::SetP {
                dst,
                cmp,
                a,
                b,
                float,
                ..
            } => {
                let va = self.operand_val(*a, launch);
                let vb = self.operand_val(*b, launch);
                let (p, class) = self.eval_setp(*cmp, &va, &vb, *float, launch);
                peu_class = Some(class);
                self.preds[*dst as usize] = Some(p);
                self.stack.advance();
            }
            Instr::Enq {
                kind,
                src,
                pred,
                width,
                space,
                guard,
            } => {
                let entry =
                    self.build_enq(*kind, *src, *pred, *width, *space, *guard, launch, kernel);
                queues.push_atq(entry);
                self.stack.advance();
            }
            Instr::Bra { target, pred } => {
                let rpc = reconv.get(&pc).copied().unwrap_or(usize::MAX);
                let taken: Vec<u32> = match pred {
                    None => vec![u32::MAX; self.num_warps()],
                    Some(PredSrc::Reg(g)) => (0..self.num_warps())
                        .map(|w| self.guard_bits(Some(*g), w))
                        .collect(),
                    Some(PredSrc::Deq { .. }) => {
                        unreachable!("affine stream cannot dequeue")
                    }
                };
                self.stack.branch(&taken, *target, rpc);
            }
            Instr::Bar => {
                // §4.2: the affine warp does not block at barriers; the AEU
                // gates expansion by epoch instead.
                self.epoch += 1;
                self.stack.advance();
            }
            Instr::Exit => {
                self.stack.exit();
            }
            Instr::Ld { .. } | Instr::St { .. } | Instr::Atom { .. } => {
                unreachable!("memory instructions cannot be in the affine stream");
            }
        }
        (ExecOutcome::Executed, peu_class)
    }

    /// Build the ATQ entry for an enqueue: per-warp concrete expansions.
    #[allow(clippy::too_many_arguments)]
    fn build_enq(
        &self,
        kind: QueueKind,
        src: Option<u16>,
        pred: Option<u16>,
        width: simt_ir::Width,
        space: Space,
        guard: Option<simt_ir::instr::Guard>,
        launch: &LaunchConfig,
        _kernel: &Kernel,
    ) -> AtqEntry {
        let nw = self.num_warps();
        let mut per_warp = Vec::new();
        let tpc = launch.threads_per_cta() as u64;
        for w in 0..nw {
            let active = self.stack.active(w);
            if active == 0 {
                continue; // the non-affine warp never reaches this enq
            }
            match kind {
                QueueKind::Data | QueueKind::Addr => {
                    let val = self
                        .regs
                        .get(src.unwrap() as usize)
                        .and_then(|v| v.clone())
                        .unwrap_or_else(|| AffineVal::scalar(0));
                    let gbits = self.guard_bits(guard, w);
                    let mut addrs = LaneAddrs {
                        mask: active & gbits,
                        ..LaneAddrs::default()
                    };
                    for lane in 0..32 {
                        if addrs.mask & (1 << lane) == 0 {
                            continue;
                        }
                        let coords = self.thread_coords(w, lane, launch);
                        let a = val.eval(w, lane, coords);
                        addrs.addrs[lane] = if space == Space::Local {
                            let gtid = self.cta_linear * tpc + (w as u64 * 32 + lane as u64);
                            LOCAL_BASE + gtid * LOCAL_STRIDE + (a % LOCAL_STRIDE)
                        } else {
                            a
                        };
                    }
                    per_warp.push(WarpExpansion {
                        warp_global: self.warps[w],
                        addrs,
                        bits: 0,
                        active,
                    });
                }
                QueueKind::Pred => {
                    let bits = self
                        .preds
                        .get(pred.unwrap() as usize)
                        .and_then(|p| p.as_ref())
                        .map(|p| p.warp_bits(w))
                        .unwrap_or(0);
                    per_warp.push(WarpExpansion {
                        warp_global: self.warps[w],
                        addrs: LaneAddrs::default(),
                        bits,
                        active,
                    });
                }
            }
        }
        AtqEntry {
            slot: self.slot,
            kind,
            width,
            space,
            per_warp,
            next: 0,
            epoch: self.epoch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use affine::{decouple, AffineAnalysis};
    use simt_ir::Dim3;

    fn figure4_affine() -> (Kernel, LaunchConfig) {
        let k = simt_ir::asm::parse_kernel(
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
        .unwrap();
        let a = AffineAnalysis::run(&k);
        let d = decouple(&k, &a);
        assert!(d.any_decoupled);
        // params: A=0x10000, B=0x20000, dim=3, num=64
        let launch = LaunchConfig {
            grid: Dim3::x(4),
            block: Dim3::x(64),
            params: vec![0x10000, 0x20000, 3, 64],
        };
        (d.affine, launch)
    }

    fn run_ctx(kernel: &Kernel, launch: &LaunchConfig, cta: u64) -> (AffineCtx, DacQueues) {
        let cfg = simt_ir::Cfg::build(kernel);
        let mut queues = DacQueues::new(16, 64, 64, 64);
        let nw = launch.warps_per_cta() as usize;
        let mut ctx = AffineCtx::new(
            0,
            cta,
            launch.grid.unflatten(cta),
            (0..nw).collect(),
            vec![u32::MAX; nw],
            kernel,
        );
        let mut fuel = 10_000;
        while !ctx.done() {
            let (o, _) = ctx.exec_one(kernel, &cfg.reconvergence, launch, &mut queues);
            assert_eq!(o, ExecOutcome::Executed);
            fuel -= 1;
            assert!(fuel > 0, "affine stream did not terminate");
        }
        (ctx, queues)
    }

    #[test]
    fn figure4_affine_stream_enqueues_expected_records() {
        let (kernel, launch) = figure4_affine();
        let (_ctx, queues) = run_ctx(&kernel, &launch, 1);
        // dim=3 iterations × (1 data + 1 addr + 1 pred) enqueues.
        let data: Vec<&AtqEntry> = queues
            .atq
            .iter()
            .filter(|e| e.kind == QueueKind::Data)
            .collect();
        let addr = queues
            .atq
            .iter()
            .filter(|e| e.kind == QueueKind::Addr)
            .count();
        let pred = queues
            .atq
            .iter()
            .filter(|e| e.kind == QueueKind::Pred)
            .count();
        assert_eq!(data.len(), 3);
        assert_eq!(addr, 3);
        assert_eq!(pred, 3);
        // First data enq: addresses A + (cta*64 + tid)*4 — for CTA 1,
        // warp 0 lane 0 → 0x10000 + 64*4.
        let e0 = data[0];
        assert_eq!(e0.per_warp.len(), 2); // 64 threads = 2 warps
        assert_eq!(e0.per_warp[0].addrs.get(0), Some(0x10000 + 256));
        assert_eq!(e0.per_warp[0].addrs.get(5), Some(0x10000 + 256 + 20));
        assert_eq!(e0.per_warp[1].addrs.get(0), Some(0x10000 + 256 + 128));
        // Second iteration advances by num*4 = 256 bytes.
        let e1 = data[1];
        assert_eq!(e1.per_warp[0].addrs.get(0), Some(0x10000 + 512));
    }

    #[test]
    fn figure4_pred_bits_are_loop_conditions() {
        let (kernel, launch) = figure4_affine();
        let (_ctx, queues) = run_ctx(&kernel, &launch, 0);
        let preds: Vec<&AtqEntry> = queues
            .atq
            .iter()
            .filter(|e| e.kind == QueueKind::Pred)
            .collect();
        // dim=3: p = (dim != i+1) → true, true, false.
        assert_eq!(preds[0].per_warp[0].bits, u32::MAX);
        assert_eq!(preds[1].per_warp[0].bits, u32::MAX);
        assert_eq!(preds[2].per_warp[0].bits, 0);
    }

    #[test]
    fn divergent_value_merges_per_thread() {
        // offset = (tid < 40) ? 0 : tid*4, then addr = base + offset.
        let k = simt_ir::asm::parse_kernel(
            r#"
.kernel div
.params 2
    mul r0, %tid.x, 4;
    setp.lt p0, %tid.x, %p1;
    @p0 bra SMALL;
    mov r1, r0;
    bra JOIN;
SMALL:
    mov r1, 0;
JOIN:
    add r2, %p0, r1;
    enq.data r2;
    exit;
"#,
        )
        .unwrap();
        let launch = LaunchConfig {
            grid: Dim3::x(1),
            block: Dim3::x(64),
            params: vec![0x1000, 40],
        };
        let (_ctx, queues) = run_ctx(&k, &launch, 0);
        let e = &queues.atq[0];
        // Lanes 0..32 (warp 0): tid < 40 ⇒ addr = base.
        assert_eq!(e.per_warp[0].addrs.get(3), Some(0x1000));
        // Warp 1 lane 7 → tid 39 < 40 ⇒ base; lane 8 → tid 40 ⇒ base+160.
        assert_eq!(e.per_warp[1].addrs.get(7), Some(0x1000));
        assert_eq!(e.per_warp[1].addrs.get(8), Some(0x1000 + 160));
    }

    #[test]
    fn setp_classes() {
        let (kernel, launch) = figure4_affine();
        let cfg = simt_ir::Cfg::build(&kernel);
        let mut queues = DacQueues::new(16, 64, 64, 64);
        let mut ctx = AffineCtx::new(0, 0, (0, 0, 0), vec![0, 1], vec![u32::MAX; 2], &kernel);
        let mut classes = Vec::new();
        while !ctx.done() {
            let (o, c) = ctx.exec_one(&kernel, &cfg.reconvergence, &launch, &mut queues);
            assert_eq!(o, ExecOutcome::Executed);
            if let Some(c) = c {
                classes.push(c);
            }
        }
        // The loop condition is scalar vs scalar.
        assert!(classes.iter().all(|&c| c == PeuClass::Scalar));
        assert_eq!(classes.len(), 3);
    }

    #[test]
    fn atq_full_blocks_enq() {
        let (kernel, launch) = figure4_affine();
        let cfg = simt_ir::Cfg::build(&kernel);
        let mut queues = DacQueues::new(16, 2, 64, 64); // tiny ATQ
        let mut ctx = AffineCtx::new(0, 0, (0, 0, 0), vec![0, 1], vec![u32::MAX; 2], &kernel);
        let mut outcomes = Vec::new();
        for _ in 0..64 {
            let (o, _) = ctx.exec_one(&kernel, &cfg.reconvergence, &launch, &mut queues);
            outcomes.push(o);
            if o == ExecOutcome::AtqFull {
                break;
            }
        }
        assert!(outcomes.contains(&ExecOutcome::AtqFull));
        assert_eq!(queues.atq.len(), 2);
    }

    #[test]
    fn barrier_increments_epoch_without_blocking() {
        let k = simt_ir::asm::parse_kernel(
            ".kernel b\n.params 1\n mul r0, %tid.x, 4;\n add r1, %p0, r0;\n bar.sync;\n enq.data r1;\n exit;",
        )
        .unwrap();
        let launch = LaunchConfig {
            grid: Dim3::x(1),
            block: Dim3::x(32),
            params: vec![0x2000],
        };
        let (ctx, queues) = run_ctx(&k, &launch, 0);
        assert_eq!(ctx.epoch, 1);
        assert_eq!(queues.atq[0].epoch, 1);
    }
}

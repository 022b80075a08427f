//! The DAC coprocessor: glues the affine engine, the Address/Predicate
//! Expansion Units, and the per-warp queues into the SM pipeline via the
//! [`simt_sim::CoProcessor`] hooks (paper Figure 9).

use crate::config::DacConfig;
use crate::engine::{AffineCtx, ExecOutcome, PeuClass};
use crate::queues::DacQueues;
use affine::DecoupledKernel;
use simt_ir::{AddrMode, Cfg, Instr, PredSrc, Program, QueueKind};
use simt_mem::{AccessOutcome, Client, FxHashSet, MemRequest, MemResponse, ReqKind};
use simt_sim::{AddrRecord, CoCtx, CoProcessor, RecordKind, SimStats};
use simt_trace::TraceEvent;
use std::collections::{HashMap, VecDeque};

/// Per-SM DAC state.
struct SmDac {
    queues: DacQueues,
    slots: Vec<Option<AffineCtx>>,
    /// Warp slots per CTA slot (for retire-time cleanup).
    slot_warps: Vec<Vec<usize>>,
    /// Barriers passed by each CTA slot's non-affine warps (gates the
    /// expansion units, §4.2).
    nonaffine_epoch: Vec<u32>,
    /// Pending early line requests `(record id, line)` awaiting fabric
    /// acceptance.
    pending_lines: VecDeque<(u64, u64)>,
    /// Front of `pending_lines` captured by [`Dac`]'s `step`, submitted to
    /// the fabric by `pump`. Captured before the expansion units push new
    /// lines, so the request submitted each cycle is the one that headed
    /// the queue when the cycle began.
    pump_capture: Option<(u64, u64)>,
    /// PEU cost classification counters.
    peu_scalar: u64,
    peu_two_compare: u64,
    peu_full: u64,
    /// Round-robin pointer over CTA slots for the affine warp.
    rr: usize,
}

/// The Decoupled Affine Computation hardware, attached to every SM.
pub struct Dac {
    cfg: DacConfig,
    dk: DecoupledKernel,
    /// Reconvergence PCs of the affine stream.
    affine_reconv: HashMap<usize, usize>,
    launch: Option<simt_ir::LaunchConfig>,
    sms: Vec<SmDac>,
    /// Queue items discarded at CTA retire (should stay 0 for matched
    /// streams; nonzero indicates a decoupling bug).
    pub dropped_at_retire: u64,
}

impl Dac {
    /// Build the coprocessor for a decoupled kernel.
    pub fn new(cfg: DacConfig, dk: DecoupledKernel) -> Self {
        let affine_reconv = Cfg::build(&dk.affine).reconvergence;
        Dac {
            cfg,
            dk,
            affine_reconv,
            launch: None,
            sms: Vec::new(),
            dropped_at_retire: 0,
        }
    }

    /// The decoupled kernel this coprocessor runs.
    pub fn decoupled(&self) -> &DecoupledKernel {
        &self.dk
    }

    /// Scalar PEU cost classifications across all SMs (§4.3: 64% scalar,
    /// 93% ≤ 2 cmp).
    pub fn peu_scalar(&self) -> u64 {
        self.sms.iter().map(|s| s.peu_scalar).sum()
    }

    /// Two-comparison (warp-uniform) predicate expansions across all SMs.
    pub fn peu_two_compare(&self) -> u64 {
        self.sms.iter().map(|s| s.peu_two_compare).sum()
    }

    /// Full 32-lane predicate expansions across all SMs.
    pub fn peu_full(&self) -> u64 {
        self.sms.iter().map(|s| s.peu_full).sum()
    }

    fn active(&self) -> bool {
        self.dk.any_decoupled
    }

    /// Repartition the per-warp queues among currently-resident warps
    /// (the 192 PWAQ/PWPQ entries are a shared pool, Table 1).
    fn repartition(&mut self, sm: usize) {
        let s = &mut self.sms[sm];
        let resident: usize = s.slot_warps.iter().map(|w| w.len()).sum();
        s.queues.set_per_warp_caps(
            DacConfig::per_warp_cap(self.cfg.pwaq_total, resident),
            DacConfig::per_warp_cap(self.cfg.pwpq_total, resident),
        );
    }

    /// One Address Expansion Unit work unit: expand one warp record of the
    /// oldest expandable Data/Addr tuple (per-CTA accumulators let the AEU
    /// skip tuples of blocked CTAs, §4.2).
    fn aeu_step(&mut self, sm: usize, ctx: &mut CoCtx<'_>) {
        let line_bytes = ctx.line_bytes;
        let s = &mut self.sms[sm];
        // CTA slots are per-SM hardware resources (far fewer than 64), so a
        // bitmask replaces the per-cycle HashSet this loop used to allocate.
        let mut blocked_slots = 0u64;
        let mut chosen: Option<usize> = None;
        for (i, e) in s.queues.atq.iter().enumerate() {
            if e.kind == QueueKind::Pred {
                continue;
            }
            debug_assert!(e.slot < 64);
            if blocked_slots & (1 << e.slot) != 0 {
                continue;
            }
            if e.epoch > s.nonaffine_epoch[e.slot] {
                blocked_slots |= 1 << e.slot;
                continue;
            }
            let warp = e.per_warp[e.next].warp_global;
            if !s.queues.pwaq_has_space(warp) {
                blocked_slots |= 1 << e.slot;
                continue;
            }
            chosen = Some(i);
            break;
        }
        let Some(i) = chosen else { return };
        let entry = &mut s.queues.atq[i];
        let w = entry.per_warp[entry.next].clone();
        let kind = entry.kind;
        let width = entry.width;
        let space = entry.space;
        entry.next += 1;
        let finished = entry.next == entry.per_warp.len();
        if finished {
            s.queues.atq.remove(i);
        }
        // Coalesce the warp's lanes into unique lines.
        let mut lines: Vec<u64> = Vec::new();
        for (_, a) in w.addrs.active() {
            let line = a & !(line_bytes - 1);
            if !lines.contains(&line) {
                lines.push(line);
            }
        }
        let prefetch = kind == QueueKind::Data;
        let record = AddrRecord {
            kind: if prefetch {
                RecordKind::Data
            } else {
                RecordKind::Addr
            },
            thread_addrs: w.addrs,
            lines: lines.clone(),
            space,
            width,
        };
        let pending = if prefetch { lines.len() } else { 0 };
        let id = s.queues.push_record(w.warp_global, record, pending);
        if prefetch {
            for line in lines {
                s.pending_lines.push_back((id, line));
            }
        }
        ctx.stats.aeu_records += 1;
        if ctx.tracer.enabled() {
            ctx.tracer.emit(
                ctx.now,
                TraceEvent::Expand {
                    sm: sm as u32,
                    warp: w.warp_global as u32,
                    pred: false,
                },
            );
        }
    }

    /// One Predicate Expansion Unit work unit. Returns whether it did any.
    fn peu_step(&mut self, sm: usize, ctx: &mut CoCtx<'_>) -> bool {
        let s = &mut self.sms[sm];
        // Bitmask, not HashSet — see aeu_step.
        let mut blocked_slots = 0u64;
        let mut chosen: Option<usize> = None;
        for (i, e) in s.queues.atq.iter().enumerate() {
            if e.kind != QueueKind::Pred {
                continue;
            }
            debug_assert!(e.slot < 64);
            if blocked_slots & (1 << e.slot) != 0 {
                continue;
            }
            if e.epoch > s.nonaffine_epoch[e.slot] {
                blocked_slots |= 1 << e.slot;
                continue;
            }
            let warp = e.per_warp[e.next].warp_global;
            if !s.queues.pwpq_has_space(warp) {
                blocked_slots |= 1 << e.slot;
                continue;
            }
            chosen = Some(i);
            break;
        }
        let Some(i) = chosen else { return false };
        let entry = &mut s.queues.atq[i];
        let w = entry.per_warp[entry.next].clone();
        entry.next += 1;
        let finished = entry.next == entry.per_warp.len();
        if finished {
            s.queues.atq.remove(i);
        }
        s.queues.push_pred(w.warp_global, w.bits);
        ctx.stats.peu_records += 1;
        if ctx.tracer.enabled() {
            ctx.tracer.emit(
                ctx.now,
                TraceEvent::Expand {
                    sm: sm as u32,
                    warp: w.warp_global as u32,
                    pred: true,
                },
            );
        }
        true
    }

    /// One affine-warp issue: round-robin across CTA slots; consumes the
    /// SM's issue slot when an instruction executes (§4.4).
    fn affine_issue(&mut self, sm: usize, ctx: &mut CoCtx<'_>) {
        if !*ctx.issue_slot {
            return;
        }
        let launch = self.launch.as_ref().expect("kernel not launched");
        let s = &mut self.sms[sm];
        let nslots = s.slots.len();
        if nslots == 0 {
            return;
        }
        for k in 0..nslots {
            let slot = (s.rr + k) % nslots;
            let Some(actx) = s.slots[slot].as_mut() else {
                continue;
            };
            if actx.done() {
                continue;
            }
            let pc = actx.stack.pc();
            let (outcome, peu) =
                actx.exec_one(&self.dk.affine, &self.affine_reconv, launch, &mut s.queues);
            match outcome {
                ExecOutcome::Executed => {
                    ctx.stats.affine_instructions += 1;
                    if ctx.tracer.enabled() {
                        ctx.tracer.emit(
                            ctx.now,
                            TraceEvent::AffineIssue {
                                sm: sm as u32,
                                slot: slot as u32,
                                pc: pc as u32,
                            },
                        );
                    }
                    match peu {
                        Some(PeuClass::Scalar) => s.peu_scalar += 1,
                        Some(PeuClass::TwoCompare) => s.peu_two_compare += 1,
                        Some(PeuClass::Full) => s.peu_full += 1,
                        None => {}
                    }
                    *ctx.issue_slot = false;
                    s.rr = (slot + 1) % nslots;
                    return;
                }
                ExecOutcome::AtqFull => {
                    ctx.stats.enq_full_stalls += 1;
                    // Try another CTA slot's context.
                }
                ExecOutcome::Done => {}
            }
        }
    }
}

impl CoProcessor for Dac {
    fn name(&self) -> &'static str {
        "dac"
    }

    fn on_kernel_launch(&mut self, program: &Program, num_sms: usize) {
        self.launch = Some(program.launch.clone());
        self.sms = (0..num_sms)
            .map(|_| SmDac {
                queues: DacQueues::new(
                    0,
                    self.cfg.atq_entries,
                    self.cfg.pwaq_total,
                    self.cfg.pwpq_total,
                ),
                slots: Vec::new(),
                slot_warps: Vec::new(),
                nonaffine_epoch: Vec::new(),
                pending_lines: VecDeque::new(),
                pump_capture: None,
                peu_scalar: 0,
                peu_two_compare: 0,
                peu_full: 0,
                rr: 0,
            })
            .collect();
    }

    fn on_cta_launch(&mut self, sm: usize, slot: usize, cta_linear: u64, warps: &[usize]) {
        if !self.active() {
            return;
        }
        let launch = self.launch.as_ref().expect("kernel not launched").clone();
        let s = &mut self.sms[sm];
        if s.slots.len() <= slot {
            s.slots.resize_with(slot + 1, || None);
            s.slot_warps.resize_with(slot + 1, Vec::new);
            s.nonaffine_epoch.resize(slot + 1, 0);
        }
        if let Some(&maxw) = warps.iter().max() {
            s.queues.ensure_warps(maxw + 1);
        }
        let threads = launch.threads_per_cta() as u64;
        let masks: Vec<u32> = (0..warps.len())
            .map(|w| {
                let live = threads.saturating_sub(w as u64 * 32).min(32) as u32;
                if live == 32 {
                    u32::MAX
                } else {
                    (1u32 << live) - 1
                }
            })
            .collect();
        s.slots[slot] = Some(AffineCtx::new(
            slot,
            cta_linear,
            launch.grid.unflatten(cta_linear),
            warps.to_vec(),
            masks,
            &self.dk.affine,
        ));
        s.slot_warps[slot] = warps.to_vec();
        s.nonaffine_epoch[slot] = 0;
        self.repartition(sm);
    }

    fn on_cta_retire(&mut self, sm: usize, slot: usize) {
        if !self.active() {
            return;
        }
        let s = &mut self.sms[sm];
        if slot >= s.slots.len() {
            return;
        }
        s.slots[slot] = None;
        let warps = std::mem::take(&mut s.slot_warps[slot]);
        let dropped = s.queues.drop_warps(slot, &warps);
        self.dropped_at_retire += dropped as u64;
        // Drop pending line requests for discarded records.
        if dropped > 0 {
            let live: FxHashSet<u64> = s.queues.records.keys().copied().collect();
            s.pending_lines.retain(|(id, _)| live.contains(id));
        }
        self.repartition(sm);
    }

    fn on_barrier_release(&mut self, sm: usize, slot: usize) {
        if !self.active() {
            return;
        }
        let s = &mut self.sms[sm];
        if slot < s.nonaffine_epoch.len() {
            s.nonaffine_epoch[slot] += 1;
        }
    }

    fn can_issue(&mut self, sm: usize, warp: usize, instr: &Instr, stats: &mut SimStats) -> bool {
        if !self.active() {
            return true;
        }
        let q = &self.sms[sm].queues;
        match instr {
            Instr::Ld {
                addr: AddrMode::DeqData,
                ..
            } => match q.pwaq_front_kind(warp) {
                None => {
                    stats.deq_empty_stalls += 1;
                    false
                }
                Some((kind, ready)) => {
                    debug_assert_eq!(kind, RecordKind::Data, "stream misalignment");
                    if !ready {
                        stats.deq_data_stalls += 1;
                    }
                    ready
                }
            },
            Instr::Ld {
                addr: AddrMode::DeqAddr,
                ..
            }
            | Instr::St {
                addr: AddrMode::DeqAddr,
                ..
            } => match q.pwaq_front_kind(warp) {
                None => {
                    stats.deq_empty_stalls += 1;
                    false
                }
                Some((kind, _)) => {
                    debug_assert_eq!(kind, RecordKind::Addr, "stream misalignment");
                    true
                }
            },
            Instr::Bra {
                pred: Some(PredSrc::Deq { .. }),
                ..
            } => {
                let ok = q.pred_available(warp);
                if !ok {
                    stats.deq_empty_stalls += 1;
                }
                ok
            }
            _ => true,
        }
    }

    fn deq_record(&mut self, sm: usize, warp: usize) -> Option<AddrRecord> {
        self.sms[sm].queues.pop_record(warp)
    }

    fn deq_pred_bits(&mut self, sm: usize, warp: usize) -> Option<u32> {
        self.sms[sm].queues.pop_pred(warp)
    }

    fn on_response(&mut self, resp: &MemResponse) {
        if resp.client == Client::Dac {
            self.sms[resp.sm].queues.record_response(resp.token);
        }
    }

    fn step(&mut self, ctx: &mut CoCtx<'_>) {
        if !self.active() || self.sms.is_empty() {
            return;
        }
        let sm = ctx.sm;
        // Latch the line request the fabric will see this cycle (submitted
        // by `pump`), before the expansion units can push new lines.
        self.sms[sm].pump_capture = self.sms[sm].pending_lines.front().copied();
        // Two expansion ALUs per SM (§4.8). The PEU claims one when it has
        // predicate work; otherwise both serve address expansion.
        let did_pred = self.peu_step(sm, ctx);
        self.aeu_step(sm, ctx);
        if !did_pred {
            self.aeu_step(sm, ctx);
        }
        self.affine_issue(sm, ctx);
        // Sample queue occupancy and run-ahead distance every cycle the DAC
        // is live. The sums feed mean-occupancy stats; the trace event feeds
        // the Chrome counter track. Counted unconditionally so a traced run
        // reports identical statistics to an untraced one.
        let s = &self.sms[sm];
        let atq = s.queues.atq.len() as u64;
        let pwaq = s.queues.records.len() as u64;
        let pwpq: u64 = s.queues.pwpq.iter().map(|q| q.len() as u64).sum();
        ctx.stats.atq_occupancy_sum += atq;
        ctx.stats.pwaq_occupancy_sum += pwaq;
        ctx.stats.pwpq_occupancy_sum += pwpq;
        // Run-ahead distance: affine-stream products not yet consumed by the
        // non-affine stream (ATQ tuples + expanded records in flight).
        let runahead = atq + pwaq;
        ctx.stats.affine_runahead_sum += runahead;
        if ctx.tracer.enabled() {
            ctx.tracer.emit(
                ctx.now,
                TraceEvent::QueueSample {
                    sm: sm as u32,
                    atq: atq as u32,
                    pwaq: pwaq as u32,
                    pwpq: pwpq as u32,
                    runahead: runahead as u32,
                },
            );
        }
    }

    /// Issue the early line request latched by `step`: one per cycle
    /// reaches the L1 (the AEU shares the cache port, §4.2). Retries on
    /// structural stalls — lock-budget stalls included.
    fn pump(
        &mut self,
        sm: usize,
        now: u64,
        fabric: &mut simt_mem::MemoryFabric,
        _stats: &mut SimStats,
        tracer: &mut dyn simt_trace::Tracer,
    ) {
        if !self.active() || self.sms.is_empty() {
            return;
        }
        let s = &mut self.sms[sm];
        let Some((id, line)) = s.pump_capture.take() else {
            return;
        };
        let kind = if self.cfg.lock_lines {
            ReqKind::PrefetchLock
        } else {
            ReqKind::Load
        };
        let req = MemRequest {
            sm,
            line,
            kind,
            client: Client::Dac,
            token: id,
        };
        match fabric.access_traced(now, req, tracer) {
            AccessOutcome::Accepted => {
                debug_assert_eq!(s.pending_lines.front(), Some(&(id, line)));
                s.pending_lines.pop_front();
            }
            AccessOutcome::Stall(_) => {}
        }
    }

    fn quiescent(&self) -> bool {
        self.sms.iter().all(|s| {
            s.slots.iter().all(|c| c.is_none()) && s.queues.empty() && s.pending_lines.is_empty()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use affine::{decouple, AffineAnalysis};
    use simt_ir::{Dim3, Kernel, LaunchConfig};
    use simt_mem::SparseMemory;
    use simt_sim::{GpuConfig, GpuSim};

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

    /// Full end-to-end: DAC must produce the same memory contents as the
    /// baseline and run faster on this memory-bound kernel.
    #[test]
    fn figure4_dac_correct_and_faster() {
        let k = figure4_kernel();
        let dim = 8u64; // loop iterations
        let num = 256u64; // row stride (elements)
        let n = (dim * num) as usize;
        let a_base = 0x10_0000u64;
        let b_base = 0x80_0000u64;
        let launch = LaunchConfig {
            grid: Dim3::x(4),
            block: Dim3::x(64),
            params: vec![a_base, b_base, dim, num],
        };
        let input: Vec<u32> = (0..n as u32).map(|i| i * 3 + 7).collect();

        // Baseline.
        let base_prog = simt_ir::Program::new(k.clone(), launch.clone()).unwrap();
        let mut mem_b = SparseMemory::new();
        mem_b.write_u32_slice(a_base, &input);
        let gpu = GpuSim::new(GpuConfig::test_small());
        let base = gpu.run(&base_prog, &mut mem_b);

        // DAC.
        let analysis = AffineAnalysis::run(&k);
        let dk = decouple(&k, &analysis);
        assert!(dk.any_decoupled);
        let dac_prog = simt_ir::Program::new(dk.non_affine.clone(), launch.clone()).unwrap();
        let mut dac = Dac::new(DacConfig::paper(), dk);
        let mut mem_d = SparseMemory::new();
        mem_d.write_u32_slice(a_base, &input);
        let rep = gpu.run_with(&dac_prog, &mut mem_d, &mut dac);

        // Functional equivalence.
        assert_eq!(
            mem_b.read_u32_vec(b_base, n),
            mem_d.read_u32_vec(b_base, n),
            "DAC changed program semantics"
        );
        // Every thread wrote input + 1.
        // (The kernel writes B[i*num+tid] = A[i*num+tid] + 1 for tid in
        // the first 256 linear ids.)
        assert_eq!(mem_d.read_u32(b_base), input[0] + 1);

        // Decoupling happened and hid latency.
        assert!(rep.stats.decoupled_loads > 0);
        assert!(rep.stats.affine_instructions > 0);
        assert!(
            rep.stats.decoupled_load_fraction() > 0.9,
            "decoupled fraction {}",
            rep.stats.decoupled_load_fraction()
        );
        assert!(
            rep.cycles < base.cycles,
            "DAC {} !< baseline {}",
            rep.cycles,
            base.cycles
        );
        assert_eq!(dac.dropped_at_retire, 0, "streams misaligned at retire");
        // Instruction count shrinks (Fig. 17): non-affine stream is 5/16
        // of the original per iteration.
        assert!(
            rep.stats.warp_instructions < base.stats.warp_instructions,
            "dynamic warp instructions must drop"
        );
    }

    /// DAC on a kernel with nothing to decouple degenerates to baseline.
    #[test]
    fn inactive_dac_is_transparent() {
        let k = simt_ir::asm::parse_kernel(
            ".kernel n\n.params 1\n mov r0, 1;\n add r1, r0, r0;\n exit;",
        )
        .unwrap();
        let analysis = AffineAnalysis::run(&k);
        let dk = decouple(&k, &analysis);
        assert!(!dk.any_decoupled);
        let launch = LaunchConfig::linear(1, 32, vec![0]);
        let prog = simt_ir::Program::new(dk.non_affine.clone(), launch).unwrap();
        let mut dac = Dac::new(DacConfig::paper(), dk);
        let mut mem = SparseMemory::new();
        let rep = GpuSim::new(GpuConfig::test_small()).run_with(&prog, &mut mem, &mut dac);
        assert_eq!(rep.stats.affine_instructions, 0);
        assert_eq!(rep.stats.decoupled_loads, 0);
    }

    /// Divergent-boundary kernel: guarded loads after a tid-dependent
    /// branch must stay correct under DAC.
    #[test]
    fn boundary_divergence_correct() {
        let k = simt_ir::asm::parse_kernel(
            r#"
.kernel bound
.params 3
    mul r0, %ctaid.x, %ntid.x;
    add r1, r0, %tid.x;
    setp.ge p0, r1, %p2;
    @p0 bra DONE;
    shl r2, r1, 2;
    add r3, %p0, r2;
    ld.global r4, [r3];
    add r5, r4, 10;
    add r6, %p1, r2;
    st.global [r6], r5;
DONE:
    exit;
"#,
        )
        .unwrap();
        let n = 100u64; // not a multiple of 32: real divergence in last warp
        let launch = LaunchConfig {
            grid: Dim3::x(2),
            block: Dim3::x(64),
            params: vec![0x4000, 0x9000, n],
        };
        let input: Vec<u32> = (0..128).map(|i| i + 1).collect();

        let base_prog = simt_ir::Program::new(k.clone(), launch.clone()).unwrap();
        let mut mem_b = SparseMemory::new();
        mem_b.write_u32_slice(0x4000, &input);
        let gpu = GpuSim::new(GpuConfig::test_small());
        gpu.run(&base_prog, &mut mem_b);

        let analysis = AffineAnalysis::run(&k);
        let dk = decouple(&k, &analysis);
        assert!(dk.any_decoupled, "boundary kernel should decouple");
        let prog = simt_ir::Program::new(dk.non_affine.clone(), launch).unwrap();
        let mut dac = Dac::new(DacConfig::paper(), dk);
        let mut mem_d = SparseMemory::new();
        mem_d.write_u32_slice(0x4000, &input);
        let rep = gpu.run_with(&prog, &mut mem_d, &mut dac);

        assert_eq!(
            mem_b.read_u32_vec(0x9000, 128),
            mem_d.read_u32_vec(0x9000, 128)
        );
        // Elements ≥ n untouched.
        assert_eq!(mem_d.read_u32(0x9000 + 4 * n), 0);
        assert_eq!(mem_d.read_u32(0x9000), 11);
        assert_eq!(dac.dropped_at_retire, 0);
        assert!(rep.stats.decoupled_loads > 0);
    }

    /// Lock counters keep early lines resident: with tiny queues and many
    /// warps the kernel still completes and stays correct.
    #[test]
    fn small_queues_still_correct() {
        let k = figure4_kernel();
        let launch = LaunchConfig {
            grid: Dim3::x(8),
            block: Dim3::x(128),
            params: vec![0x10_0000, 0x80_0000, 4, 1024],
        };
        let n = 4 * 1024usize;
        let input: Vec<u32> = (0..n as u32).collect();
        let analysis = AffineAnalysis::run(&k);
        let dk = decouple(&k, &analysis);
        let prog = simt_ir::Program::new(dk.non_affine.clone(), launch).unwrap();
        let cfg = DacConfig {
            atq_entries: 2,
            pwaq_total: 16,
            pwpq_total: 16,
            ..DacConfig::paper()
        };
        let mut dac = Dac::new(cfg, dk);
        let mut mem = SparseMemory::new();
        mem.write_u32_slice(0x10_0000, &input);
        let rep = GpuSim::new(GpuConfig::test_small()).run_with(&prog, &mut mem, &mut dac);
        for i in 0..n {
            assert_eq!(mem.read_u32(0x80_0000 + 4 * i as u64), i as u32 + 1);
        }
        assert!(rep.stats.enq_full_stalls > 0, "tiny ATQ must back-pressure");
    }
}

//! The DAC coprocessor: glues the affine engine, the Address/Predicate
//! Expansion Units, and the per-warp queues into the SM pipeline via the
//! [`simt_sim::CoProcessor`] hooks (paper Figure 9).

use crate::config::DacConfig;
use crate::engine::{AffineCtx, ExecOutcome, LaunchCtx, PeuClass};
use crate::queues::{unique_lines, DacQueues};
use affine::value::MAX_CTA_WARPS;
use affine::DecoupledKernel;
use simt_ir::{AddrMode, Cfg, Instr, PredSrc, Program, QueueKind};
use simt_mem::{AccessOutcome, Client, MemRequest, MemResponse, ReqKind};
use simt_sim::{AddrRecord, CoCtx, CoProcessor, DeqGate, RecordKind, SimStats};
use simt_trace::TraceEvent;
use std::collections::VecDeque;

/// Per-SM DAC state.
struct SmDac {
    queues: DacQueues,
    slots: Vec<Option<AffineCtx>>,
    /// Contexts of retired CTAs, kept for the next launches' reuse.
    spare: Vec<AffineCtx>,
    /// Barriers passed by each CTA slot's non-affine warps (gates the
    /// expansion units, §4.2).
    nonaffine_epoch: Vec<u32>,
    /// May an expansion unit's pick find work? Cleared when neither unit's
    /// pick finds any; set by every event that can change a pick's answer
    /// (an ATQ push, a dequeue, a barrier release, a CTA launch or retire).
    /// A pick reads only the ATQ heads, the epochs and the per-warp queue
    /// lengths and caps, and only those events change them, so no pick
    /// runs while the flag is clear and none is missed.
    wake: bool,
    /// Pending early line requests `(record id, line)` awaiting fabric
    /// acceptance.
    pending_lines: VecDeque<(u64, u64)>,
    /// The fabric refused the line request submitted this cycle.
    refused: bool,
    /// PEU cost classification counters.
    peu_scalar: u64,
    peu_two_compare: u64,
    peu_full: u64,
    /// Round-robin pointer over CTA slots for the affine warp.
    rr: usize,
    /// Contexts whose affine stream has not finished.
    live: usize,
    /// Live contexts whose next instruction is an `enq`.
    parked: usize,
}

/// Is `ctx` live (its affine stream not finished), and if so, parked at an
/// `enq` (`is_enq` indexed by PC)?
fn live_parked(ctx: &AffineCtx, is_enq: &[bool]) -> (usize, usize) {
    if ctx.done() {
        (0, 0)
    } else {
        (1, is_enq[ctx.stack.pc()] as usize)
    }
}

impl SmDac {
    /// `enq_full_stalls` one affine issue slot charges without issuing:
    /// with the ATQ full and every live context parked at an `enq`, the
    /// round-robin visits each once and each stalls. (Any other state
    /// issues an instruction, or has no live context and charges 0.)
    fn parked_stalls(&self) -> u64 {
        if !self.queues.atq_has_space() && self.parked == self.live {
            self.live as u64
        } else {
            0
        }
    }

    /// Add `n` cycles' queue-occupancy samples. The sums feed
    /// mean-occupancy stats; counted every cycle the DAC is live, traced
    /// or not.
    fn sample(&self, n: u64, stats: &mut SimStats) {
        let atq = self.queues.atq_len() as u64;
        let pwaq = self.queues.records_len() as u64;
        stats.atq_occupancy_sum += atq * n;
        stats.pwaq_occupancy_sum += pwaq * n;
        stats.pwpq_occupancy_sum += self.queues.preds_len() as u64 * n;
        // Run-ahead distance: affine-stream products not yet consumed by
        // the non-affine stream (ATQ tuples + expanded records in flight).
        stats.affine_runahead_sum += (atq + pwaq) * n;
    }

    /// The CTA slot whose head tuple the PEU (`pred`) or the AEU would
    /// expand next ([`DacQueues::pick`]).
    fn pick(&self, pred: bool) -> Option<usize> {
        self.queues.pick(pred, &self.nonaffine_epoch)
    }
}

/// The Decoupled Affine Computation hardware, attached to every SM.
pub struct Dac {
    cfg: DacConfig,
    dk: DecoupledKernel,
    /// Reconvergence PC of every affine-stream branch, indexed by PC.
    affine_reconv: Vec<usize>,
    /// Is the affine-stream instruction at each PC an `enq`?
    is_enq: Vec<bool>,
    launch: Option<LaunchCtx>,
    sms: Vec<SmDac>,
    /// Queue items discarded at CTA retire (should stay 0 for matched
    /// streams; nonzero indicates a decoupling bug).
    pub dropped_at_retire: u64,
}

impl Dac {
    /// Build the coprocessor for a decoupled kernel.
    pub fn new(cfg: DacConfig, dk: DecoupledKernel) -> Self {
        let affine_reconv = Cfg::build(&dk.affine).reconvergence;
        let is_enq = dk
            .affine
            .instrs
            .iter()
            .map(|i| matches!(i, Instr::Enq { .. }))
            .collect();
        Dac {
            cfg,
            dk,
            affine_reconv,
            is_enq,
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
        let resident = s.queues.resident_warps();
        s.queues.set_per_warp_caps(
            DacConfig::per_warp_cap(self.cfg.pwaq_total, resident),
            DacConfig::per_warp_cap(self.cfg.pwpq_total, resident),
        );
    }

    /// One Address Expansion Unit work unit: expand one warp record of the
    /// oldest expandable Data/Addr tuple. Returns whether it did any.
    fn aeu_step(&mut self, sm: usize, ctx: &mut CoCtx<'_>) -> bool {
        let launch = self.launch.as_ref().expect("kernel not launched");
        let s = &mut self.sms[sm];
        let Some(slot) = s.pick(false) else {
            return false;
        };
        let (entry, warp) = s.queues.atq_head(slot, false);
        let thread_addrs = entry.lane_addrs(entry.next_warp(), launch);
        let prefetch = entry.kind == QueueKind::Data;
        let record = AddrRecord {
            kind: if prefetch {
                RecordKind::Data
            } else {
                RecordKind::Addr
            },
            thread_addrs,
            space: entry.space,
            width: entry.width,
        };
        s.queues.expand_head(slot, false);
        // A Data record's lines are requested early; an Addr record has none.
        let (lines, n) = if prefetch {
            unique_lines(&thread_addrs, ctx.fabric.config().line_bytes)
        } else {
            ([0; 32], 0)
        };
        if s.queues.pwaq_front_kind(warp).is_none() {
            ctx.dirty.push(warp);
        }
        let id = s.queues.push_record(warp, record, n);
        s.pending_lines
            .extend(lines[..n].iter().map(|&line| (id, line)));
        ctx.stats.aeu_records += 1;
        if ctx.tracer.enabled() {
            ctx.tracer.emit(
                ctx.now,
                TraceEvent::Expand {
                    sm: sm as u32,
                    warp: warp as u32,
                    pred: false,
                },
            );
        }
        true
    }

    /// One Predicate Expansion Unit work unit. Returns whether it did any.
    fn peu_step(&mut self, sm: usize, ctx: &mut CoCtx<'_>) -> bool {
        let s = &mut self.sms[sm];
        let Some(slot) = s.pick(true) else {
            return false;
        };
        let (entry, warp) = s.queues.atq_head(slot, true);
        let bits = entry.bits[entry.next_warp()];
        s.queues.expand_head(slot, true);
        if !s.queues.pred_available(warp) {
            ctx.dirty.push(warp);
        }
        s.queues.push_pred(warp, bits);
        ctx.stats.peu_records += 1;
        if ctx.tracer.enabled() {
            ctx.tracer.emit(
                ctx.now,
                TraceEvent::Expand {
                    sm: sm as u32,
                    warp: warp as u32,
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
        // `exec_one` answers `AtqFull` exactly when the instruction is an
        // `enq` and the ATQ is full, and nothing fills the ATQ before this
        // loop issues an instruction and returns: a context waiting at an
        // `enq` behind a full ATQ is credited its stall without a call, and
        // when every live context waits so, all of them without the walk.
        let atq_full = !s.queues.atq_has_space();
        if atq_full && s.parked == s.live {
            ctx.stats.enq_full_stalls += s.parked_stalls();
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
            if atq_full && self.is_enq[pc] {
                ctx.stats.enq_full_stalls += 1;
                continue;
            }
            let (outcome, peu) =
                actx.exec_one(&self.dk.affine, &self.affine_reconv, launch, &mut s.queues);
            debug_assert_eq!(outcome, ExecOutcome::Executed);
            let (live, parked) = live_parked(actx, &self.is_enq);
            s.live = s.live + live - 1;
            s.parked = s.parked + parked - self.is_enq[pc] as usize;
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
            if self.is_enq[pc] {
                s.wake = true;
            }
            *ctx.issue_slot = false;
            s.rr = (slot + 1) % nslots;
            return;
        }
    }
}

impl CoProcessor for Dac {
    fn name(&self) -> &'static str {
        "dac"
    }

    fn on_kernel_launch(&mut self, program: &Program, num_sms: usize) {
        self.launch = Some(LaunchCtx::new(&program.launch));
        self.sms = (0..num_sms)
            .map(|_| SmDac {
                queues: DacQueues::new(
                    0,
                    self.cfg.atq_entries,
                    self.cfg.pwaq_total,
                    self.cfg.pwpq_total,
                ),
                slots: Vec::new(),
                spare: Vec::new(),
                nonaffine_epoch: Vec::new(),
                wake: false,
                pending_lines: VecDeque::new(),
                refused: false,
                peu_scalar: 0,
                peu_two_compare: 0,
                peu_full: 0,
                rr: 0,
                live: 0,
                parked: 0,
            })
            .collect();
    }

    fn on_cta_launch(&mut self, sm: usize, slot: usize, cta_linear: u64, warps: &[usize]) {
        if !self.active() {
            return;
        }
        let launch = &self.launch.as_ref().expect("kernel not launched").config;
        let s = &mut self.sms[sm];
        if s.slots.len() <= slot {
            s.slots.resize_with(slot + 1, || None);
            s.nonaffine_epoch.resize(slot + 1, 0);
        }
        s.queues.launch_slot(slot, warps);
        let threads = launch.threads_per_cta() as u64;
        let mut masks = [0u32; MAX_CTA_WARPS];
        for (w, m) in masks[..warps.len()].iter_mut().enumerate() {
            let live = threads.saturating_sub(w as u64 * 32).min(32) as u32;
            *m = if live == 32 {
                u32::MAX
            } else {
                (1u32 << live) - 1
            };
        }
        let masks = &masks[..warps.len()];
        let coords = launch.grid.unflatten(cta_linear);
        let actx = match s.spare.pop() {
            Some(mut c) => {
                c.relaunch(slot, cta_linear, coords, masks, &self.dk.affine);
                c
            }
            None => AffineCtx::new(slot, cta_linear, coords, masks, &self.dk.affine),
        };
        let (live, parked) = live_parked(&actx, &self.is_enq);
        s.live += live;
        s.parked += parked;
        debug_assert!(s.slots[slot].is_none(), "CTA slot {slot} launched twice");
        s.slots[slot] = Some(actx);
        s.nonaffine_epoch[slot] = 0;
        s.wake = true;
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
        if let Some(actx) = s.slots[slot].take() {
            let (live, parked) = live_parked(&actx, &self.is_enq);
            s.live -= live;
            s.parked -= parked;
            s.spare.push(actx);
        }
        let dropped = s.queues.retire_slot(slot);
        self.dropped_at_retire += dropped as u64;
        // Drop pending line requests for discarded records. A line still
        // waiting for the fabric has had no response, so its record, if
        // still queued, is awaiting one.
        if dropped > 0 {
            let queues = &s.queues;
            s.pending_lines
                .retain(|&(id, _)| queues.awaits_response(id));
        }
        s.wake = true;
        self.repartition(sm);
    }

    fn on_barrier_release(&mut self, sm: usize, slot: usize) {
        if !self.active() {
            return;
        }
        let s = &mut self.sms[sm];
        if slot < s.nonaffine_epoch.len() {
            s.nonaffine_epoch[slot] += 1;
            s.wake = true;
        }
    }

    fn deq_gate(&self, sm: usize, warp: usize, instr: &Instr) -> DeqGate {
        if !self.active() {
            return DeqGate::Open;
        }
        let q = &self.sms[sm].queues;
        match instr {
            Instr::Ld {
                addr: AddrMode::DeqData,
                ..
            } => match q.pwaq_front_kind(warp) {
                None => DeqGate::Empty,
                Some((kind, ready)) => {
                    debug_assert_eq!(kind, RecordKind::Data, "stream misalignment");
                    if ready {
                        DeqGate::Open
                    } else {
                        DeqGate::DataPending
                    }
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
                None => DeqGate::Empty,
                Some((kind, _)) => {
                    debug_assert_eq!(kind, RecordKind::Addr, "stream misalignment");
                    DeqGate::Open
                }
            },
            Instr::Bra {
                pred: Some(PredSrc::Deq { .. }),
                ..
            } if !q.pred_available(warp) => DeqGate::Empty,
            _ => DeqGate::Open,
        }
    }

    fn deq_record(&mut self, sm: usize, warp: usize) -> Option<AddrRecord> {
        let s = &mut self.sms[sm];
        s.wake = true;
        s.queues.pop_record(warp)
    }

    fn deq_pred_bits(&mut self, sm: usize, warp: usize) -> Option<u32> {
        let s = &mut self.sms[sm];
        s.wake = true;
        s.queues.pop_pred(warp)
    }

    fn on_response(&mut self, resp: &MemResponse) -> Option<usize> {
        if resp.client != Client::Dac {
            return None;
        }
        self.sms[resp.sm].queues.record_response(resp.token)
    }

    fn step(&mut self, ctx: &mut CoCtx<'_>) {
        if !self.active() || self.sms.is_empty() {
            return;
        }
        let sm = ctx.sm;
        let s = &mut self.sms[sm];
        // One early line request per cycle reaches the L1 (the AEU shares
        // the cache port, §4.2): the one heading the queue as the cycle
        // begins, before the expansion units push new lines. Retried on
        // structural stalls, lock-budget stalls included.
        s.refused = false;
        if let Some(&(id, line)) = s.pending_lines.front() {
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
            match ctx.fabric.access(ctx.now, req, ctx.tracer) {
                AccessOutcome::Accepted => {
                    s.pending_lines.pop_front();
                }
                AccessOutcome::Stall(_) => s.refused = true,
            }
        }
        debug_assert!(
            s.wake || (s.pick(true).is_none() && s.pick(false).is_none()),
            "an expansion unit slept through work it could do"
        );
        debug_assert_eq!(
            (s.live, s.parked),
            s.slots.iter().flatten().fold((0, 0), |(l, p), c| {
                let (live, parked) = live_parked(c, &self.is_enq);
                (l + live, p + parked)
            }),
            "live/parked context counts out of step"
        );
        // Two expansion ALUs per SM (§4.8). The PEU claims one when it has
        // predicate work; otherwise both serve address expansion.
        if s.wake {
            let did_pred = self.peu_step(sm, ctx);
            let did_addr = self.aeu_step(sm, ctx);
            if !did_pred && did_addr {
                self.aeu_step(sm, ctx);
            }
            self.sms[sm].wake = did_pred || did_addr;
        }
        self.affine_issue(sm, ctx);
        let s = &self.sms[sm];
        s.sample(1, ctx.stats);
        if ctx.tracer.enabled() {
            let atq = s.queues.atq_len() as u32;
            let pwaq = s.queues.records_len() as u32;
            ctx.tracer.emit(
                ctx.now,
                TraceEvent::QueueSample {
                    sm: sm as u32,
                    atq,
                    pwaq,
                    pwpq: s.queues.preds_len() as u32,
                    runahead: atq + pwaq,
                },
            );
        }
    }

    /// Quiet when no expansion unit can find work (the `wake` flag is
    /// clear), the affine warp cannot issue (no live context, or the ATQ
    /// full and every live context parked at an `enq`), and no early line
    /// request waits but one the fabric just refused. No deadline: every
    /// event that changes this — an ATQ push, a dequeue, a response, a
    /// barrier release, a CTA launch or retire — is a hook the SM calls
    /// awake.
    fn quiet_until(&self, sm: usize) -> Option<u64> {
        if !self.active() || self.sms.is_empty() {
            return Some(u64::MAX);
        }
        let s = &self.sms[sm];
        let affine_stuck = s.live == 0 || (!s.queues.atq_has_space() && s.parked == s.live);
        let lines_stuck = s.pending_lines.is_empty() || s.refused;
        (!s.wake && affine_stuck && lines_stuck).then_some(u64::MAX)
    }

    /// A quiet step charges the parked contexts' `enq_full_stalls` (the
    /// affine slot is free in every quiet cycle) and the occupancy samples.
    fn credit_quiet(&mut self, sm: usize, cycles: u64, stats: &mut SimStats) -> bool {
        if !self.active() || self.sms.is_empty() {
            return false;
        }
        let s = &self.sms[sm];
        let parked = s.parked_stalls();
        stats.enq_full_stalls += parked * cycles;
        s.sample(cycles, stats);
        parked > 0
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
    use simt_trace::NullTracer;

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
        let rep = gpu.run_traced(&dac_prog, &mut mem_d, &mut dac, &mut NullTracer);

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
        let rep = GpuSim::new(GpuConfig::test_small()).run_traced(
            &prog,
            &mut mem,
            &mut dac,
            &mut NullTracer,
        );
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
        let rep = gpu.run_traced(&prog, &mut mem_d, &mut dac, &mut NullTracer);

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
        let rep = GpuSim::new(GpuConfig::test_small()).run_traced(
            &prog,
            &mut mem,
            &mut dac,
            &mut NullTracer,
        );
        for i in 0..n {
            assert_eq!(mem.read_u32(0x80_0000 + 4 * i as u64), i as u32 + 1);
        }
        assert!(rep.stats.enq_full_stalls > 0, "tiny ATQ must back-pressure");
    }
}

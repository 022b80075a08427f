//! The coprocessor hook: how DAC, CAE, and MTA attach to the SM pipeline.
//!
//! The core simulator stays agnostic of any accelerator; instead it calls
//! into a [`CoProcessor`] at well-defined points:
//!
//! * **issue gating** — [`CoProcessor::can_issue`] lets DAC hold back a warp
//!   whose `deq.*` operand is not ready (empty per-warp queue or data still
//!   in flight); the scheduler consults it for those instructions only;
//! * **issue cost** — [`CoProcessor::issue_cost`] lets CAE issue
//!   affine-eligible instructions at initiation interval 1 on its affine
//!   units instead of 2 on the SIMT lanes;
//! * **dequeue supply** — [`CoProcessor::deq_record`] /
//!   [`CoProcessor::deq_pred_bits`] hand the non-affine stream its expanded
//!   addresses and predicate bit vectors;
//! * **observation** — [`CoProcessor::observe_mem`] feeds MTA's stride
//!   tables; [`CoProcessor::on_response`] routes fabric responses addressed
//!   to [`simt_mem::Client::Dac`] / [`simt_mem::Client::Mta`];
//! * **execution** — [`CoProcessor::step`] runs once per SM per cycle with
//!   mutable access to the SM's issue slot, which is where DAC's affine
//!   warp and expansion units live; [`CoProcessor::pump`] then submits
//!   the cycle's fabric request.

use crate::stats::SimStats;
use simt_ir::{Instr, Program, Space, Width};
use simt_mem::{LaneAddrs, MemResponse, MemoryFabric};
use simt_trace::Tracer;

/// Whether a decoupled address record carries prefetched data or a bare
/// address (paper: `enq.data` vs `enq.addr`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// Load addresses; the AEU already requested and L1-locked the lines.
    Data,
    /// Store (or non-prefetched load) addresses.
    Addr,
}

/// A warp address record: the compact per-warp product of the Address
/// Expansion Unit, dequeued by `ld/st [deq.*]` in the non-affine stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddrRecord {
    /// Data (pre-requested, L1-locked) or bare address.
    pub kind: RecordKind,
    /// Per-lane effective byte addresses.
    pub thread_addrs: LaneAddrs,
    /// Unique cache lines covered (for unlocking and statistics).
    pub lines: Vec<u64>,
    /// Memory space of the original access.
    pub space: Space,
    /// Access granularity.
    pub width: Width,
}

/// Relative cost of issuing one warp instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueCost {
    /// Normal SIMT-lane issue: scheduler busy for `issue_interval` cycles.
    Normal,
    /// Issued to a dedicated affine unit (CAE): scheduler busy 1 cycle and
    /// the SIMT lanes stay free.
    Fast,
}

/// Mutable per-SM, per-cycle context handed to [`CoProcessor::step`].
///
/// Fabric-free: `step` runs before the SM's issue stage and only latches
/// requests; [`CoProcessor::pump`] submits them at the end of the SM's
/// tick.
pub struct CoCtx<'a> {
    /// Current cycle.
    pub now: u64,
    /// SM index.
    pub sm: usize,
    /// Cache-line size (the only fabric geometry coprocessors need).
    pub line_bytes: u64,
    /// `(pbuf_unused_evictions, pbuf_fills)` snapshot taken after the
    /// fabric cycle, present only on cycles where
    /// [`CoProcessor::wants_pbuf_stats`] asked for it (MTA's periodic
    /// throttle re-evaluation).
    pub pbuf_stats: Option<(u64, u64)>,
    /// True while this SM still has an unconsumed issue slot this cycle;
    /// set it to `false` to model the affine warp occupying the slot.
    pub issue_slot: &'a mut bool,
    /// Shared statistics sink.
    pub stats: &'a mut SimStats,
    /// Event tracer (a `NullTracer` outside traced runs). Coprocessors
    /// guard emission with `tracer.enabled()`.
    pub tracer: &'a mut dyn Tracer,
}

/// Hooks implemented by DAC, CAE, and MTA. All methods default to no-ops so
/// implementations override only what they need.
pub trait CoProcessor {
    /// Identifying name for reports.
    fn name(&self) -> &'static str;

    /// A kernel is about to run on `num_sms` SMs.
    fn on_kernel_launch(&mut self, program: &Program, num_sms: usize) {
        let _ = (program, num_sms);
    }

    /// The command processor bound `sm` to kernel `kernel` (`None` =
    /// unbound). Single-kernel coprocessors ignore this; the multi-kernel
    /// router (`MultiCoProcessor`) re-targets the SM's hooks at the owning
    /// kernel's coprocessor.
    fn on_sm_bound(&mut self, sm: usize, kernel: Option<usize>) {
        let _ = (sm, kernel);
    }

    /// Is the coprocessor drained *as far as `sm` is concerned* — no
    /// per-SM queue entries and no in-flight fabric requests that will
    /// come back to this SM? The command processor only re-binds an SM to
    /// a different kernel when this holds, so responses never route to a
    /// stale owner. The default conservatively reuses the global
    /// [`CoProcessor::quiescent`].
    fn sm_quiescent(&self, sm: usize) -> bool {
        let _ = sm;
        self.quiescent()
    }

    /// CTA `cta_linear` occupied `slot` on `sm`, owning warp ids `warps`.
    fn on_cta_launch(&mut self, sm: usize, slot: usize, cta_linear: u64, warps: &[usize]) {
        let _ = (sm, slot, cta_linear, warps);
    }

    /// The CTA in `slot` on `sm` finished and its resources were freed.
    fn on_cta_retire(&mut self, sm: usize, slot: usize) {
        let _ = (sm, slot);
    }

    /// All warps of the CTA in `slot` passed a `bar.sync`.
    fn on_barrier_release(&mut self, sm: usize, slot: usize) {
        let _ = (sm, slot);
    }

    /// May `warp` issue `instr` this cycle? DAC returns false when a
    /// dequeue operand is not ready. Asked only about instructions with a
    /// `deq.*` operand ([`Instr::has_deq`]) — the only ones a coprocessor
    /// may hold back — once per scheduler visit, so implementations may
    /// count stalls here.
    fn can_issue(&mut self, sm: usize, warp: usize, instr: &Instr, stats: &mut SimStats) -> bool {
        let _ = (sm, warp, instr, stats);
        true
    }

    /// Issue cost of `instr` on `warp` (CAE redirects affine-eligible
    /// instructions to its affine units). Called exactly once per issued
    /// instruction, in issue order — implementations may update internal
    /// state (e.g. CAE's register affinity tags). `active` is the warp's
    /// current active-lane mask (CAE loses affine tracking under
    /// divergence).
    fn issue_cost(
        &mut self,
        sm: usize,
        warp: usize,
        instr: &Instr,
        active: u32,
        stats: &mut SimStats,
    ) -> IssueCost {
        let _ = (sm, warp, instr, active, stats);
        IssueCost::Normal
    }

    /// Pop the next address record for `warp` (issue of `ld/st [deq.*]`).
    fn deq_record(&mut self, sm: usize, warp: usize) -> Option<AddrRecord> {
        let _ = (sm, warp);
        None
    }

    /// Pop the next predicate bit vector for `warp` (`@deq.pred bra`).
    fn deq_pred_bits(&mut self, sm: usize, warp: usize) -> Option<u32> {
        let _ = (sm, warp);
        None
    }

    /// A warp memory instruction issued `lines` (after coalescing).
    fn observe_mem(
        &mut self,
        sm: usize,
        warp: usize,
        pc: usize,
        space: Space,
        is_store: bool,
        lines: &[u64],
    ) {
        let _ = (sm, warp, pc, space, is_store, lines);
    }

    /// A fabric response addressed to this coprocessor's client id.
    fn on_response(&mut self, resp: &MemResponse) {
        let _ = resp;
    }

    /// Per-SM, per-cycle execution (affine warp, expansion units,
    /// prefetch bookkeeping). No fabric access: requests captured here are
    /// submitted by [`CoProcessor::pump`] after the SM's issue stage.
    fn step(&mut self, ctx: &mut CoCtx<'_>) {
        let _ = ctx;
    }

    /// Submit this SM's fabric traffic for the cycle (AEU early requests,
    /// MTA prefetches). Runs after the SM's [`CoProcessor::step`] and
    /// issue stage, just before its LSU access — the single point where
    /// coprocessors touch the fabric.
    fn pump(
        &mut self,
        sm: usize,
        now: u64,
        fabric: &mut MemoryFabric,
        stats: &mut SimStats,
        tracer: &mut dyn Tracer,
    ) {
        let _ = (sm, now, fabric, stats, tracer);
    }

    /// Does [`CoProcessor::step`] need the prefetch-buffer counter
    /// snapshot (`CoCtx::pbuf_stats`) this cycle? Computing it walks every
    /// port, so the run loop only takes the snapshot when some coprocessor
    /// asks (MTA, on throttle-evaluation deadlines).
    fn wants_pbuf_stats(&self, now: u64) -> bool {
        let _ = now;
        false
    }

    /// Is the coprocessor fully drained (no queued work that should keep
    /// the simulation alive)?
    fn quiescent(&self) -> bool {
        true
    }
}

/// The baseline GPU: no coprocessor at all.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullCoProcessor;

impl CoProcessor for NullCoProcessor {
    fn name(&self) -> &'static str {
        "baseline"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_coproc_defaults() {
        let mut c = NullCoProcessor;
        let mut stats = SimStats::default();
        assert_eq!(c.name(), "baseline");
        assert!(c.can_issue(0, 0, &Instr::Exit, &mut stats));
        assert_eq!(
            c.issue_cost(0, 0, &Instr::Exit, u32::MAX, &mut stats),
            IssueCost::Normal
        );
        assert!(c.deq_record(0, 0).is_none());
        assert!(c.deq_pred_bits(0, 0).is_none());
        assert!(c.quiescent());
    }
}

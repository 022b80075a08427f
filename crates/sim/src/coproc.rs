//! The coprocessor hook: how DAC, CAE, and MTA attach to the SM pipeline.
//!
//! The core simulator stays agnostic of any accelerator; instead it calls
//! into a [`CoProcessor`] at well-defined points:
//!
//! * **issue gating** — [`CoProcessor::deq_gate`] says whether a warp's
//!   `deq.*` operand is ready (DAC: empty per-warp queue or data still in
//!   flight). The SM folds the answer into the warp's issue class and asks
//!   again only when the coprocessor reports that the warp's queue head
//!   changed ([`CoCtx::dirty`], [`CoProcessor::on_response`]);
//! * **issue cost** — [`CoProcessor::issue_cost`] lets CAE issue
//!   affine-eligible instructions at initiation interval 1 on its affine
//!   units instead of 2 on the SIMT lanes;
//! * **dequeue supply** — [`CoProcessor::deq_record`] /
//!   [`CoProcessor::deq_pred_bits`] hand the non-affine stream its expanded
//!   addresses and predicate bit vectors;
//! * **observation** — [`CoProcessor::observe_mem`] feeds MTA's stride
//!   tables; [`CoProcessor::on_response`] routes fabric responses addressed
//!   to [`simt_mem::Client::Dac`] / [`simt_mem::Client::Mta`];
//! * **execution** — [`CoProcessor::step`] runs once per SM per cycle,
//!   before the SM's issue stage, with mutable access to the SM's issue
//!   slot, which is where DAC's affine warp and expansion units live, and
//!   to the fabric: it submits the coprocessor's one request of the cycle
//!   (the AEU shares the L1 port with the LSU, §4.2), and MTA's throttle
//!   reads the prefetch-buffer counters there;
//! * **sleep** — [`CoProcessor::quiet_until`] lets an SM whose next cycle
//!   could only repeat this one's counters sleep, and
//!   [`CoProcessor::credit_quiet`] credits the coprocessor's share of the
//!   cycles it slept.

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
    /// Per-lane effective byte addresses (the SM coalesces them again to
    /// unlock the lines a Data record's early requests locked).
    pub thread_addrs: LaneAddrs,
    /// Memory space of the original access.
    pub space: Space,
    /// Access granularity.
    pub width: Width,
}

/// What a warp's `deq.*` operand says about issuing its instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeqGate {
    /// The queue head is there (and, for `deq.data`, its lines arrived).
    Open,
    /// The warp's queue is empty (`deq_empty_stalls`).
    Empty,
    /// The head Data record's early lines are still in flight
    /// (`deq_data_stalls`; loads only).
    DataPending,
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

/// The per-SM, per-cycle context handed to [`CoProcessor::step`]: the
/// coprocessor's non-generic view of the SM's tick.
pub struct CoCtx<'a> {
    /// Current cycle.
    pub now: u64,
    /// SM index.
    pub sm: usize,
    /// The memory fabric, which takes at most one request of the
    /// coprocessor per SM cycle (DAC's early line, MTA's prefetch), ahead
    /// of the LSU's; also its geometry, and [`MemoryFabric::stats`] for
    /// MTA's throttle.
    pub fabric: &'a mut MemoryFabric,
    /// True while this SM still has an unconsumed issue slot this cycle;
    /// set it to `false` to model the affine warp occupying the slot.
    pub issue_slot: &'a mut bool,
    /// Push every warp slot whose `deq.*` queue head this step changed (a
    /// record or predicate pushed into an empty queue): the SM re-reads
    /// its [`CoProcessor::deq_gate`] before the issue stage.
    pub dirty: &'a mut Vec<usize>,
    /// Shared statistics sink.
    pub stats: &'a mut SimStats,
    /// Event tracer (a `NullTracer` outside traced runs). Coprocessors
    /// guard emission with `tracer.enabled()`.
    pub tracer: &'a mut dyn Tracer,
}

/// Hooks implemented by DAC, CAE, and MTA. All methods default to no-ops so
/// implementations override only what they need.
///
/// A run holds one instance per kernel launch. An SM runs the instance of
/// the launch the command processor bound it to, and a
/// [`NullCoProcessor`] while it is unbound, so an instance's per-SM hooks
/// only ever see SMs running its kernel. An SM is re-bound only once its
/// launch's instance is [`CoProcessor::quiescent`], so every fabric
/// response reaches the instance that sent its request.
pub trait CoProcessor {
    /// Identifying name for reports.
    fn name(&self) -> &'static str;

    /// A kernel is about to run on `num_sms` SMs.
    fn on_kernel_launch(&mut self, program: &Program, num_sms: usize) {
        let _ = (program, num_sms);
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

    /// Is the `deq.*` operand of `instr`, the next instruction of `warp`,
    /// ready? Asked only about instructions with one ([`Instr::has_deq`]),
    /// whenever the SM classifies the warp: after the warp's own issue and
    /// after the coprocessor reported its queue head changed. A pure
    /// query — the SM counts the stalls it implies.
    fn deq_gate(&self, sm: usize, warp: usize, instr: &Instr) -> DeqGate {
        let _ = (sm, warp, instr);
        DeqGate::Open
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
    /// Returns the warp slot whose `deq.*` gate the response opened, if
    /// any (the last early line of its head record arrived).
    fn on_response(&mut self, resp: &MemResponse) -> Option<usize> {
        let _ = resp;
        None
    }

    /// Per-SM, per-cycle execution (fabric request, affine warp,
    /// expansion units, prefetch bookkeeping), before the SM's issue
    /// stage. The one place a coprocessor touches the fabric: it submits
    /// at most one request per call.
    fn step(&mut self, ctx: &mut CoCtx<'_>) {
        let _ = ctx;
    }

    /// May `sm` sleep after this cycle as far as the coprocessor is
    /// concerned? `None` when its next [`CoProcessor::step`] on `sm`
    /// could do more than repeat the counters of
    /// [`CoProcessor::credit_quiet`] — nothing may change
    /// state, and a fabric request may be retried only if it was just
    /// refused. Otherwise the first cycle at which it must step again
    /// whatever happens (`u64::MAX`: none). Every other change to a
    /// coprocessor's per-SM state comes through a hook the sleeping SM
    /// would have to be awake to call.
    fn quiet_until(&self, sm: usize) -> Option<u64> {
        let _ = sm;
        Some(u64::MAX)
    }

    /// Credit `cycles` quiet steps of `sm`: the counters each would have
    /// added (once per step in a ticking cycle, in bulk for cycles slept).
    /// Returns whether each of them charged `enq_full_stalls` (the
    /// `slot_enq_full` bucket's condition).
    fn credit_quiet(&mut self, sm: usize, cycles: u64, stats: &mut SimStats) -> bool {
        let _ = (sm, cycles, stats);
        false
    }

    /// Is the coprocessor fully drained (no queued work that should keep
    /// the simulation alive, no request in flight)?
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
        assert_eq!(c.deq_gate(0, 0, &Instr::Exit), DeqGate::Open);
        assert_eq!(c.quiet_until(0), Some(u64::MAX));
        assert!(!c.credit_quiet(0, 9, &mut stats));
        assert_eq!(stats, SimStats::default());
        assert_eq!(
            c.issue_cost(0, 0, &Instr::Exit, u32::MAX, &mut stats),
            IssueCost::Normal
        );
        assert!(c.deq_record(0, 0).is_none());
        assert!(c.deq_pred_bits(0, 0).is_none());
        assert!(c.quiescent());
    }
}

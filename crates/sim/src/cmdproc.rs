//! The command processor: occupancy-limited CTA dispatch over one or more
//! kernel streams, plus the per-SM coprocessor router that lets concurrent
//! kernels each keep their own DAC/CAE/MTA instance.
//!
//! SM-granular kernel binding, as on Fermi: an SM hosts CTAs of at most
//! one kernel at a time, so concurrent kernels partition the chip rather
//! than interleave within an SM. The binding doubles as the routing key
//! for every per-SM coprocessor hook (issue gating, dequeue supply,
//! fabric responses), which is what makes per-kernel coprocessor state
//! sound without tagging every token with a kernel id.
//!
//! Determinism: dispatch visits SMs and streams in fixed, state-derived
//! orders (index order for [`PlacementPolicy::Greedy`], rotating cursors
//! for [`PlacementPolicy::RoundRobin`]), so a run is a pure function of
//! its inputs — the same tie-break discipline as the warp scheduler.

use crate::config::GpuConfig;
use crate::coproc::{AddrRecord, CoCtx, CoProcessor, IssueCost};
use crate::sm::{KernelCtx, Sm};
use crate::stats::SimStats;
use simt_ir::Instr;
use simt_mem::MemResponse;
use simt_trace::{TraceEvent, Tracer};

/// How the command processor picks SMs (and streams) when placing CTAs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// Fill SMs in index order; the lowest-numbered eligible stream packs
    /// first. With one kernel this reproduces the classic breadth-first
    /// one-CTA-per-SM-per-pass dispatch exactly.
    #[default]
    Greedy,
    /// Rotate both the SM starting point and the stream choice between
    /// placements, spreading concurrent kernels evenly across the chip.
    RoundRobin,
}

impl PlacementPolicy {
    /// Short name used by `--set cta_policy=...` and artifacts.
    pub fn name(self) -> &'static str {
        match self {
            PlacementPolicy::Greedy => "greedy",
            PlacementPolicy::RoundRobin => "rr",
        }
    }

    /// Parse the `--set cta_policy=...` spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "greedy" => Some(PlacementPolicy::Greedy),
            "rr" | "round-robin" | "round_robin" => Some(PlacementPolicy::RoundRobin),
            _ => None,
        }
    }
}

/// Dispatch bookkeeping for one kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchState {
    /// Stream this launch belongs to.
    pub stream: usize,
    /// Position within its stream.
    pub seq: usize,
    /// Total CTAs in the grid.
    pub total_ctas: u64,
    /// Next CTA index to dispatch.
    pub next_cta: u64,
    /// CTAs fully retired.
    pub retired_ctas: u64,
    /// Cycle the first CTA was placed on an SM.
    pub first_cycle: Option<u64>,
    /// Cycle the last CTA retired.
    pub done_cycle: Option<u64>,
}

/// Owns kernel dispatch: which CTA of which kernel goes to which SM, and
/// when. Replaces the old inline `next_cta` loop in `gpu.rs`.
#[derive(Debug)]
pub struct CommandProcessor {
    policy: PlacementPolicy,
    /// Launch ids per stream, in issue order (ids are flattened
    /// stream-major: stream 0's launches first).
    streams: Vec<Vec<usize>>,
    /// Per stream: index of the launch currently at the head (in-order
    /// streams — it advances only when the head fully retires).
    head: Vec<usize>,
    states: Vec<LaunchState>,
    /// Per-SM kernel binding (launch id). An SM runs CTAs of one kernel
    /// at a time.
    bindings: Vec<Option<usize>>,
    rr_sm: usize,
    rr_stream: usize,
}

impl CommandProcessor {
    /// A command processor for `ctas_by_stream[s][i]` CTAs in launch `i`
    /// of stream `s`, dispatching onto `num_sms` SMs. Launch ids are
    /// assigned stream-major.
    pub fn new(policy: PlacementPolicy, ctas_by_stream: &[Vec<u64>], num_sms: usize) -> Self {
        let mut streams = Vec::with_capacity(ctas_by_stream.len());
        let mut states = Vec::new();
        for (s, launches) in ctas_by_stream.iter().enumerate() {
            let mut ids = Vec::with_capacity(launches.len());
            for (i, &total) in launches.iter().enumerate() {
                ids.push(states.len());
                states.push(LaunchState {
                    stream: s,
                    seq: i,
                    total_ctas: total,
                    next_cta: 0,
                    retired_ctas: 0,
                    first_cycle: None,
                    done_cycle: None,
                });
            }
            streams.push(ids);
        }
        let head = vec![0; streams.len()];
        CommandProcessor {
            policy,
            streams,
            head,
            states,
            bindings: vec![None; num_sms],
            rr_sm: 0,
            rr_stream: 0,
        }
    }

    /// Number of kernel launches across all streams.
    pub fn num_kernels(&self) -> usize {
        self.states.len()
    }

    /// The kernel currently bound to `sm`, if any.
    pub fn binding(&self, sm: usize) -> Option<usize> {
        self.bindings[sm]
    }

    /// Dispatch state of launch `k`.
    pub fn state(&self, k: usize) -> &LaunchState {
        &self.states[k]
    }

    /// Have all CTAs of all launches retired?
    pub fn all_complete(&self) -> bool {
        self.states.iter().all(|s| s.retired_ctas == s.total_ctas)
    }

    /// `count` CTAs retired on `sm` this cycle (they belong to its bound
    /// kernel). Advances the owning stream's head when the launch
    /// completes.
    pub fn note_retired(&mut self, sm: usize, count: u64, now: u64) {
        let k = self.bindings[sm].expect("CTA retired on an unbound SM");
        let st = &mut self.states[k];
        st.retired_ctas += count;
        debug_assert!(st.retired_ctas <= st.total_ctas);
        if st.retired_ctas == st.total_ctas {
            st.done_cycle = Some(now);
            self.head[st.stream] += 1;
        }
    }

    /// Pick a kernel for an unbound SM: each stream's head launch with
    /// CTAs left to dispatch is a candidate; the first whose CTA fits
    /// wins. Greedy scans streams from 0; round-robin rotates the start.
    fn pick_kernel(&mut self, cfg: &GpuConfig, sm: &Sm, kctxs: &[KernelCtx<'_>]) -> Option<usize> {
        let n = self.streams.len();
        let start = match self.policy {
            PlacementPolicy::Greedy => 0,
            PlacementPolicy::RoundRobin => self.rr_stream % n,
        };
        for i in 0..n {
            let s = (start + i) % n;
            let Some(&k) = self.streams[s].get(self.head[s]) else {
                continue;
            };
            let st = &self.states[k];
            if st.next_cta == st.total_ctas {
                continue; // head is draining; nothing left to place
            }
            if !sm.can_accept_cta(cfg, &kctxs[k]) {
                continue;
            }
            if self.policy == PlacementPolicy::RoundRobin {
                self.rr_stream = s + 1;
            }
            return Some(k);
        }
        None
    }

    /// One dispatch round, run at the top of every cycle: release SMs
    /// whose kernel has nothing left for them, then place pending CTAs
    /// breadth-first — one CTA per SM per pass, so work spreads across
    /// the chip before SMs fill up (as the hardware scheduler does).
    #[allow(clippy::too_many_arguments)]
    pub fn dispatch(
        &mut self,
        now: u64,
        cfg: &GpuConfig,
        sms: &mut [Sm],
        kctxs: &[KernelCtx<'_>],
        coproc: &mut dyn CoProcessor,
        rows: &mut [Vec<SimStats>],
        tracer: &mut dyn Tracer,
    ) {
        // Release pass (only meaningful with several kernels): an SM whose
        // bound kernel has dispatched its last CTA, holds nothing resident
        // here, and has no in-flight traffic for this SM can be handed to
        // another kernel. The `sm_quiescent` guard keeps coprocessor
        // response routing sound across the re-bind.
        if self.states.len() > 1 {
            for (sm, s) in sms.iter().enumerate() {
                let Some(k) = self.bindings[sm] else {
                    continue;
                };
                let st = &self.states[k];
                if st.next_cta == st.total_ctas
                    && s.resident_ctas() == 0
                    && s.idle()
                    && coproc.sm_quiescent(sm)
                {
                    self.bindings[sm] = None;
                    coproc.on_sm_bound(sm, None);
                }
            }
        }

        let n = sms.len();
        loop {
            let mut progressed = false;
            let start = match self.policy {
                PlacementPolicy::Greedy => 0,
                PlacementPolicy::RoundRobin => self.rr_sm % n,
            };
            for i in 0..n {
                let sm = (start + i) % n;
                let k = match self.bindings[sm] {
                    Some(k) => {
                        if self.states[k].next_cta == self.states[k].total_ctas {
                            continue;
                        }
                        k
                    }
                    None => match self.pick_kernel(cfg, &sms[sm], kctxs) {
                        Some(k) => k,
                        None => continue,
                    },
                };
                if !sms[sm].can_accept_cta(cfg, &kctxs[k]) {
                    continue;
                }
                if self.bindings[sm] != Some(k) {
                    self.bindings[sm] = Some(k);
                    coproc.on_sm_bound(sm, Some(k));
                }
                let st = &mut self.states[k];
                let cta = st.next_cta;
                st.next_cta += 1;
                if st.first_cycle.is_none() {
                    st.first_cycle = Some(now);
                }
                let slot = sms[sm].launch_cta(cfg, &kctxs[k], k, cta, coproc, &mut rows[sm][k]);
                if tracer.enabled() {
                    tracer.emit(
                        now,
                        TraceEvent::CtaLaunch {
                            sm: sm as u32,
                            slot: slot as u32,
                            kernel: k as u32,
                            cta,
                        },
                    );
                }
                if self.policy == PlacementPolicy::RoundRobin {
                    self.rr_sm = sm + 1;
                }
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
    }
}

/// Routes every per-SM coprocessor hook to the child owning that SM's
/// bound kernel. One child per kernel launch; the command processor
/// maintains the bindings through [`CoProcessor::on_sm_bound`]. With a
/// single kernel the GPU loop skips the router entirely and hands the
/// child straight to the SMs.
pub struct MultiCoProcessor<'a> {
    children: Vec<&'a mut dyn CoProcessor>,
    bindings: Vec<Option<usize>>,
}

impl<'a> MultiCoProcessor<'a> {
    /// A router over one coprocessor per kernel launch (flattened
    /// stream-major, matching the command processor's launch ids).
    pub fn new(children: Vec<&'a mut dyn CoProcessor>, num_sms: usize) -> Self {
        MultiCoProcessor {
            children,
            bindings: vec![None; num_sms],
        }
    }

    fn child_for(&mut self, sm: usize) -> Option<&mut &'a mut dyn CoProcessor> {
        match self.bindings.get(sm).copied().flatten() {
            Some(k) => Some(&mut self.children[k]),
            None => None,
        }
    }
}

impl CoProcessor for MultiCoProcessor<'_> {
    fn name(&self) -> &'static str {
        "multi"
    }

    fn on_sm_bound(&mut self, sm: usize, kernel: Option<usize>) {
        self.bindings[sm] = kernel;
    }

    fn sm_quiescent(&self, sm: usize) -> bool {
        match self.bindings[sm] {
            Some(k) => self.children[k].sm_quiescent(sm),
            None => true,
        }
    }

    fn on_cta_launch(&mut self, sm: usize, slot: usize, cta_linear: u64, warps: &[usize]) {
        if let Some(c) = self.child_for(sm) {
            c.on_cta_launch(sm, slot, cta_linear, warps);
        }
    }

    fn on_cta_retire(&mut self, sm: usize, slot: usize) {
        if let Some(c) = self.child_for(sm) {
            c.on_cta_retire(sm, slot);
        }
    }

    fn on_barrier_release(&mut self, sm: usize, slot: usize) {
        if let Some(c) = self.child_for(sm) {
            c.on_barrier_release(sm, slot);
        }
    }

    fn can_issue(&mut self, sm: usize, warp: usize, instr: &Instr, stats: &mut SimStats) -> bool {
        match self.child_for(sm) {
            Some(c) => c.can_issue(sm, warp, instr, stats),
            None => true,
        }
    }

    fn issue_cost(
        &mut self,
        sm: usize,
        warp: usize,
        instr: &Instr,
        active: u32,
        stats: &mut SimStats,
    ) -> IssueCost {
        match self.child_for(sm) {
            Some(c) => c.issue_cost(sm, warp, instr, active, stats),
            None => IssueCost::Normal,
        }
    }

    fn deq_record(&mut self, sm: usize, warp: usize) -> Option<AddrRecord> {
        self.child_for(sm).and_then(|c| c.deq_record(sm, warp))
    }

    fn deq_pred_bits(&mut self, sm: usize, warp: usize) -> Option<u32> {
        self.child_for(sm).and_then(|c| c.deq_pred_bits(sm, warp))
    }

    fn observe_mem(
        &mut self,
        sm: usize,
        warp: usize,
        pc: usize,
        space: simt_ir::Space,
        is_store: bool,
        lines: &[u64],
    ) {
        if let Some(c) = self.child_for(sm) {
            c.observe_mem(sm, warp, pc, space, is_store, lines);
        }
    }

    fn on_response(&mut self, resp: &MemResponse) {
        // The re-bind guard (`sm_quiescent`) guarantees a response's SM is
        // still bound to the kernel that issued the request.
        match self.child_for(resp.sm) {
            Some(c) => c.on_response(resp),
            None => debug_assert!(false, "coprocessor response for unbound SM {}", resp.sm),
        }
    }

    fn step(&mut self, ctx: &mut CoCtx<'_>) {
        if let Some(k) = self.bindings.get(ctx.sm).copied().flatten() {
            self.children[k].step(ctx);
        }
    }

    fn pump(
        &mut self,
        sm: usize,
        now: u64,
        fabric: &mut simt_mem::MemoryFabric,
        stats: &mut SimStats,
        tracer: &mut dyn Tracer,
    ) {
        if let Some(k) = self.bindings.get(sm).copied().flatten() {
            self.children[k].pump(sm, now, fabric, stats, tracer);
        }
    }

    fn wants_pbuf_stats(&self, now: u64) -> bool {
        self.children.iter().any(|c| c.wants_pbuf_stats(now))
    }

    fn quiescent(&self) -> bool {
        self.children.iter().all(|c| c.quiescent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_parse_and_name() {
        assert_eq!(
            PlacementPolicy::parse("greedy"),
            Some(PlacementPolicy::Greedy)
        );
        assert_eq!(
            PlacementPolicy::parse("rr"),
            Some(PlacementPolicy::RoundRobin)
        );
        assert_eq!(
            PlacementPolicy::parse("round-robin"),
            Some(PlacementPolicy::RoundRobin)
        );
        assert_eq!(PlacementPolicy::parse("nope"), None);
        assert_eq!(PlacementPolicy::Greedy.name(), "greedy");
        assert_eq!(PlacementPolicy::RoundRobin.name(), "rr");
    }

    #[test]
    fn launch_ids_flatten_stream_major() {
        let cp = CommandProcessor::new(PlacementPolicy::Greedy, &[vec![4, 2], vec![8]], 2);
        assert_eq!(cp.num_kernels(), 3);
        assert_eq!(
            (cp.state(0).stream, cp.state(0).seq, cp.state(0).total_ctas),
            (0, 0, 4)
        );
        assert_eq!(
            (cp.state(1).stream, cp.state(1).seq, cp.state(1).total_ctas),
            (0, 1, 2)
        );
        assert_eq!(
            (cp.state(2).stream, cp.state(2).seq, cp.state(2).total_ctas),
            (1, 0, 8)
        );
        assert!(!cp.all_complete());
    }
}

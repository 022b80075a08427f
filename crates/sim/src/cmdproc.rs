//! The command processor: occupancy-limited CTA dispatch over one or more
//! kernel streams.
//!
//! SM-granular kernel binding, as on Fermi: an SM hosts CTAs of at most
//! one kernel at a time, so concurrent kernels partition the chip rather
//! than interleave within an SM. Each kernel launch brings its own
//! DAC/CAE/MTA instance, and the binding says whose an SM runs: the run
//! loop hands each SM the coprocessor of its bound launch (a
//! [`NullCoProcessor`](crate::coproc::NullCoProcessor) while it has
//! none), so per-kernel coprocessor state is sound without tagging every
//! token with a kernel id. An SM is re-bound only once its launch's
//! coprocessor is quiescent, so no fabric response outlives the binding
//! that issued its request.
//!
//! Determinism: dispatch visits SMs and streams in fixed, state-derived
//! orders (index order for [`PlacementPolicy::Greedy`], rotating cursors
//! for [`PlacementPolicy::RoundRobin`]), so a run is a pure function of
//! its inputs — the same tie-break discipline as the warp scheduler.

use crate::config::GpuConfig;
use crate::coproc::CoProcessor;
use crate::sm::{KernelCtx, Sm};
use crate::stats::SimStats;
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

    /// The policy [`PlacementPolicy::name`] calls `s`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "greedy" => Some(PlacementPolicy::Greedy),
            "rr" => Some(PlacementPolicy::RoundRobin),
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
/// when.
#[derive(Debug)]
pub struct CommandProcessor {
    /// The machine dispatched onto.
    cfg: GpuConfig,
    policy: PlacementPolicy,
    /// Launch ids per stream, in issue order (ids are flattened
    /// stream-major: stream 0's launches first).
    streams: Vec<Vec<usize>>,
    /// Per stream: index of the launch currently at the head (in-order
    /// streams — it advances only when the head fully retires).
    head: Vec<usize>,
    states: Vec<LaunchState>,
    /// Per-SM kernel binding (launch id). An SM runs CTAs of one kernel
    /// at a time, and its coprocessor.
    bindings: Vec<Option<usize>>,
    rr_sm: usize,
    rr_stream: usize,
    /// Can the next [`CommandProcessor::dispatch`] change anything? Set
    /// for cycle 0, by every retire (it frees an SM's resources and may
    /// complete a launch) and while an SM waits for release (on draining,
    /// which no event announces). Nothing else changes what a round reads.
    due: bool,
}

impl CommandProcessor {
    /// A command processor for `ctas_by_stream[s][i]` CTAs in launch `i`
    /// of stream `s`, dispatching onto the SMs of `cfg`. Launch ids are
    /// assigned stream-major.
    pub fn new(policy: PlacementPolicy, ctas_by_stream: &[Vec<u64>], cfg: &GpuConfig) -> Self {
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
            cfg: cfg.clone(),
            policy,
            streams,
            head,
            states,
            bindings: vec![None; cfg.num_sms],
            rr_sm: 0,
            rr_stream: 0,
            due: true,
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

    /// The index of `sm` into every per-launch table of the run — its
    /// attribution bin, its coprocessor: the bound launch's id, or
    /// [`CommandProcessor::num_kernels`] while it is unbound.
    pub fn bin(&self, sm: usize) -> usize {
        self.bindings[sm].unwrap_or(self.states.len())
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
        self.due = true;
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
    fn pick_kernel(&mut self, sm: &Sm, kctxs: &[KernelCtx<'_>]) -> Option<usize> {
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
            if !sm.can_accept_cta(&self.cfg, &kctxs[k]) {
                continue;
            }
            if self.policy == PlacementPolicy::RoundRobin {
                self.rr_stream = s + 1;
            }
            return Some(k);
        }
        None
    }

    /// One dispatch round, at the top of a cycle it is due (every cycle of
    /// a traced run, the reference): release SMs whose kernel has nothing
    /// left for them, then place pending CTAs breadth-first — one CTA per
    /// SM per pass, so work spreads across the chip before SMs fill up (as
    /// the hardware scheduler does). A sleeping SM is woken before it is
    /// bound, released or given a CTA, so the cycles it slept are credited
    /// to the kernel it slept under.
    /// `coprocs` and every row of `rows` are indexed by
    /// [`CommandProcessor::bin`]: one entry per launch, then the unbound
    /// SMs' `NullCoProcessor` and bin.
    pub fn dispatch(
        &mut self,
        now: u64,
        sms: &mut [Sm],
        kctxs: &[KernelCtx<'_>],
        coprocs: &mut [&mut dyn CoProcessor],
        rows: &mut [Vec<SimStats>],
        tracer: &mut dyn Tracer,
    ) {
        if !(self.due || tracer.enabled()) {
            return;
        }
        // Release pass (only meaningful with several kernels): an SM whose
        // bound kernel has dispatched its last CTA and that holds nothing
        // resident here waits for release; once it is idle and its launch's
        // coprocessor has drained, it can be handed to another kernel.
        self.due = false;
        if self.states.len() > 1 {
            for (sm, s) in sms.iter_mut().enumerate() {
                let Some(k) = self.bindings[sm] else {
                    continue;
                };
                let st = &self.states[k];
                if st.next_cta < st.total_ctas || s.resident_ctas() > 0 {
                    continue;
                }
                if s.idle() && coprocs[k].quiescent() {
                    s.wake(now, &self.cfg, coprocs[k], &mut rows[sm][k]);
                    self.bindings[sm] = None;
                } else {
                    self.due = true;
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
                    None => match self.pick_kernel(&sms[sm], kctxs) {
                        Some(k) => k,
                        None => continue,
                    },
                };
                let cfg = &self.cfg;
                if !sms[sm].can_accept_cta(cfg, &kctxs[k]) {
                    continue;
                }
                let bin = self.bin(sm);
                sms[sm].wake(now, cfg, coprocs[bin], &mut rows[sm][bin]);
                self.bindings[sm] = Some(k);
                let st = &mut self.states[k];
                let cta = st.next_cta;
                st.next_cta += 1;
                if st.first_cycle.is_none() {
                    st.first_cycle = Some(now);
                }
                let slot = sms[sm].launch_cta(cfg, &kctxs[k], k, cta, coprocs[k], &mut rows[sm][k]);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_parse_is_the_inverse_of_name() {
        for policy in [PlacementPolicy::Greedy, PlacementPolicy::RoundRobin] {
            assert_eq!(PlacementPolicy::parse(policy.name()), Some(policy));
        }
        for other in ["nope", "round-robin", "round_robin", "RR", ""] {
            assert_eq!(PlacementPolicy::parse(other), None, "{other:?}");
        }
    }

    #[test]
    fn launch_ids_flatten_stream_major() {
        let cfg = GpuConfig {
            num_sms: 2,
            ..GpuConfig::test_small()
        };
        let cp = CommandProcessor::new(PlacementPolicy::Greedy, &[vec![4, 2], vec![8]], &cfg);
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

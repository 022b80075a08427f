//! Many-Thread Aware prefetching (MTA) — the paper's GPU-prefetcher
//! baseline after Lee et al. \[15\], provisioned with a dedicated 16 KB
//! per-SM prefetch buffer (Table 1).
//!
//! MTA trains per-load-PC stride tables from the accesses of a few warps,
//! then speculatively generalizes: it predicts both *intra-warp* strides
//! (the same warp's successive accesses, e.g. a load in a loop) and
//! *inter-warp* deltas (the offset between adjacent warps' accesses to the
//! same PC). Prefetches fill the dedicated buffer; a throttling controller
//! watches the buffer's evicted-but-unused rate and scales the prefetch
//! degree down when pollution rises (§5.5).

use simt_ir::{Program, Space};
use simt_mem::{AccessOutcome, Client, MemRequest, ReqKind};
use simt_sim::{CoCtx, CoProcessor};
use std::collections::{HashMap, VecDeque};

/// MTA configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MtaConfig {
    /// Maximum prefetch degree (lines ahead per trained access).
    pub max_degree: u32,
    /// Throttle evaluation period in cycles.
    pub throttle_period: u64,
    /// Unused-eviction ratio above which the degree is lowered.
    pub pollution_threshold: f64,
    /// Per-SM queue of not-yet-issued prefetches.
    pub queue_capacity: usize,
}

impl Default for MtaConfig {
    fn default() -> Self {
        MtaConfig {
            max_degree: 1,
            throttle_period: 2048,
            pollution_threshold: 0.3,
            queue_capacity: 64,
        }
    }
}

#[derive(Debug, Default, Clone)]
struct PcEntry {
    /// Last line accessed per warp.
    last: HashMap<usize, u64>,
    /// Detected intra-warp stride per warp (line units may be negative).
    stride: HashMap<usize, i64>,
    /// Stride confirmation count per warp.
    confidence: HashMap<usize, u8>,
    /// First-touch lines in warp order, for the inter-warp delta.
    first_touches: Vec<(usize, u64)>,
    /// Trained inter-warp delta (bytes between adjacent warps).
    inter_delta: Option<i64>,
}

#[derive(Debug, Default)]
struct SmMta {
    table: HashMap<usize, PcEntry>,
    queue: VecDeque<u64>,
    /// A prefetch the fabric refused this cycle, waiting in the L1 port
    /// until the next `step` submits it ahead of the queue. It is port
    /// state, not a queue entry: it frees its queue slot and is invisible
    /// to `enqueue`'s duplicate check.
    port: Option<u64>,
    last_eval: u64,
    last_unused: u64,
    last_fills: u64,
    degree: u32,
    predicted: u64,
    throttled: u64,
}

/// The MTA prefetcher coprocessor.
#[derive(Debug)]
pub struct Mta {
    cfg: MtaConfig,
    sms: Vec<SmMta>,
}

impl Mta {
    /// Build an MTA prefetcher.
    pub fn new(cfg: MtaConfig) -> Self {
        Mta {
            cfg,
            sms: Vec::new(),
        }
    }

    /// Total prefetch lines enqueued across all SMs (before fabric issue).
    pub fn predicted(&self) -> u64 {
        self.sms.iter().map(|s| s.predicted).sum()
    }

    /// Throttle-downs applied across all SMs.
    pub fn throttled(&self) -> u64 {
        self.sms.iter().map(|s| s.throttled).sum()
    }

    fn enqueue(&mut self, sm: usize, line: i128) {
        if line < 0 {
            return;
        }
        let cap = self.cfg.queue_capacity;
        let s = &mut self.sms[sm];
        if s.queue.len() < cap && !s.queue.contains(&(line as u64)) {
            s.queue.push_back(line as u64);
            s.predicted += 1;
        }
    }
}

impl Default for Mta {
    fn default() -> Self {
        Self::new(MtaConfig::default())
    }
}

impl CoProcessor for Mta {
    fn name(&self) -> &'static str {
        "mta"
    }

    fn on_kernel_launch(&mut self, _program: &Program, num_sms: usize) {
        self.sms = (0..num_sms)
            .map(|_| SmMta {
                degree: self.cfg.max_degree,
                ..Default::default()
            })
            .collect();
    }

    fn observe_mem(
        &mut self,
        sm: usize,
        warp: usize,
        pc: usize,
        space: Space,
        is_store: bool,
        lines: &[u64],
    ) {
        if is_store || space == Space::Shared || lines.is_empty() {
            return;
        }
        let line = lines[0];
        let degree;
        let mut predictions: Vec<i128> = Vec::new();
        {
            let s = &mut self.sms[sm];
            degree = s.degree;
            let e = s.table.entry(pc).or_default();
            // Intra-warp stride training.
            if let Some(&prev) = e.last.get(&warp) {
                let stride = line as i64 - prev as i64;
                if stride != 0 {
                    match e.stride.get(&warp) {
                        Some(&st) if st == stride => {
                            let c = e.confidence.entry(warp).or_insert(0);
                            *c = c.saturating_add(1);
                        }
                        _ => {
                            e.stride.insert(warp, stride);
                            e.confidence.insert(warp, 0);
                        }
                    }
                    if e.confidence.get(&warp).copied().unwrap_or(0) >= 1 {
                        // Skip the immediately-next access (a prefetch for
                        // it would arrive too late) and run further ahead.
                        for d in 2..=(degree as i64 + 1) {
                            predictions.push(line as i128 + (stride * d) as i128);
                        }
                    }
                }
            } else {
                // First touch: train / use the inter-warp delta.
                e.first_touches.push((warp, line));
                if e.inter_delta.is_none() && e.first_touches.len() >= 2 {
                    let (w0, l0) = e.first_touches[0];
                    let (w1, l1) = e.first_touches[1];
                    if w1 != w0 {
                        let d = (l1 as i64 - l0 as i64) / (w1 as i64 - w0 as i64);
                        if d != 0 {
                            e.inter_delta = Some(d);
                        }
                    }
                }
                if let Some(d) = e.inter_delta {
                    for k in 1..=degree as i64 {
                        predictions.push(line as i128 + (d * k) as i128);
                    }
                }
            }
            e.last.insert(warp, line);
        }
        for p in predictions {
            self.enqueue(sm, p);
        }
    }

    fn step(&mut self, ctx: &mut CoCtx<'_>) {
        let sm = ctx.sm;
        if self.sms.is_empty() {
            return;
        }
        // Throttle: compare the prefetch buffer's unused-eviction rate,
        // read from the fabric on this SM's evaluation deadline only (the
        // read walks every port and partition). Both counters move only on
        // the port fill path, so they hold still through every SM's tick.
        let (period, threshold) = (self.cfg.throttle_period, self.cfg.pollution_threshold);
        let s = &mut self.sms[sm];
        if ctx.now.saturating_sub(s.last_eval) >= period {
            let mem = ctx.fabric.stats();
            let (pbuf_unused, pbuf_fills) = (mem.pbuf_unused_evictions, mem.pbuf_fills);
            s.last_eval = ctx.now;
            let unused = pbuf_unused.saturating_sub(s.last_unused);
            let fills = pbuf_fills.saturating_sub(s.last_fills);
            s.last_unused = pbuf_unused;
            s.last_fills = pbuf_fills;
            if fills > 8 {
                let ratio = unused as f64 / fills as f64;
                if ratio > threshold && s.degree > 1 {
                    s.degree -= 1;
                    s.throttled += 1;
                } else if ratio < threshold / 2.0 && s.degree < self.cfg.max_degree {
                    s.degree += 1;
                }
            }
        }
        // Submit one prefetch per cycle: last cycle's refused one, else the
        // queue head. Inter-warp deltas are trained by dividing line
        // addresses by warp distance, so a predicted address can fall
        // mid-line; prefetch the containing line.
        let Some(predicted) = s.port.take().or_else(|| s.queue.pop_front()) else {
            return;
        };
        let req = MemRequest {
            sm,
            line: predicted & !(ctx.fabric.config().line_bytes - 1),
            kind: ReqKind::Prefetch,
            client: Client::Mta,
            token: 0,
        };
        match ctx.fabric.access(ctx.now, req, ctx.tracer) {
            AccessOutcome::Accepted => ctx.stats.prefetches_issued += 1,
            AccessOutcome::Stall(_) => s.port = Some(predicted),
        }
    }

    /// Quiet when no prediction waits but one the fabric just refused (it
    /// sits in the port slot); the deadline is the SM's next throttle
    /// evaluation, which reads the chip-wide prefetch-buffer counters of
    /// its own cycle. A quiet step counts nothing, so the default
    /// `credit_quiet` is exact.
    fn quiet_until(&self, sm: usize) -> Option<u64> {
        let Some(s) = self.sms.get(sm) else {
            return Some(u64::MAX);
        };
        (s.queue.is_empty() || s.port.is_some())
            .then_some(s.last_eval.saturating_add(self.cfg.throttle_period))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_ir::{CmpOp, Dim3, KernelBuilder, LaunchConfig, Op, Operand, Program, Width};
    use simt_mem::{MemConfig, MemoryFabric, SparseMemory};
    use simt_sim::{GpuConfig, GpuSim, SimStats};
    use simt_trace::NullTracer;

    /// Strided streaming loop: ideal prefetcher food.
    fn streaming_loop_kernel() -> simt_ir::Kernel {
        let mut b = KernelBuilder::new("stream", 4);
        let tid = b.tid_linear_x();
        let off = b.alu2(Op::Shl, Operand::Reg(tid), Operand::Imm(2));
        let pa = b.alu2(Op::Add, Operand::Param(0), Operand::Reg(off));
        let pb = b.alu2(Op::Add, Operand::Param(1), Operand::Reg(off));
        let stride = b.alu2(Op::Shl, Operand::Param(3), Operand::Imm(2));
        let i = b.mov(Operand::Imm(0));
        b.label("loop");
        let v = b.ld(simt_ir::Space::Global, pa, 0, Width::W32);
        let v2 = b.alu2(Op::Add, Operand::Reg(v), Operand::Imm(1));
        b.st(simt_ir::Space::Global, pb, 0, Operand::Reg(v2), Width::W32);
        b.alu_into(pa, Op::Add, &[Operand::Reg(pa), Operand::Reg(stride)]);
        b.alu_into(pb, Op::Add, &[Operand::Reg(pb), Operand::Reg(stride)]);
        b.alu_into(i, Op::Add, &[Operand::Reg(i), Operand::Imm(1)]);
        let p = b.setp(CmpOp::Lt, Operand::Reg(i), Operand::Param(2));
        b.bra_if(p, "loop");
        b.exit();
        b.build()
    }

    fn pf_gpu() -> GpuSim {
        GpuSim::new(GpuConfig {
            mem: MemConfig::gtx480_with_prefetch_buffer(),
            ..GpuConfig::test_small()
        })
    }

    #[test]
    fn mta_trains_and_covers_streaming_loop() {
        let k = streaming_loop_kernel();
        let iters = 16u64;
        let num = 512u64;
        let launch = LaunchConfig {
            grid: Dim3::x(4),
            block: Dim3::x(128),
            params: vec![0x100_0000, 0x200_0000, iters, num],
        };
        let n = (iters * num) as usize;
        let prog = Program::new(k, launch).unwrap();
        let input: Vec<u32> = (0..n as u32).collect();

        let gpu = GpuSim::new(GpuConfig::test_small());
        let mut mem_b = SparseMemory::new();
        mem_b.write_u32_slice(0x100_0000, &input);
        let base = gpu.run(&prog, &mut mem_b);

        let mut mem_m = SparseMemory::new();
        mem_m.write_u32_slice(0x100_0000, &input);
        let mut mta = Mta::default();
        let rep = pf_gpu().run_traced(&prog, &mut mem_m, &mut mta, &mut NullTracer);

        // Correctness unchanged (prefetching is invisible).
        assert_eq!(
            mem_b.read_u32_vec(0x200_0000, n),
            mem_m.read_u32_vec(0x200_0000, n)
        );
        assert!(rep.stats.prefetches_issued > 0, "no prefetches issued");
        assert!(rep.mem.pbuf_hits > 0, "no prefetch-buffer hits");
        assert!(
            rep.cycles < base.cycles,
            "MTA {} !< baseline {}",
            rep.cycles,
            base.cycles
        );
    }

    /// One `step` on SM 0 at cycle `now` against `fabric`.
    fn step_on(mta: &mut Mta, fabric: &mut MemoryFabric, now: u64, stats: &mut SimStats) {
        mta.step(&mut CoCtx {
            now,
            sm: 0,
            fabric,
            issue_slot: &mut true,
            dirty: &mut Vec::new(),
            stats,
            tracer: &mut NullTracer,
        });
    }

    /// A refused prefetch waits in the port slot, not in the queue: for
    /// the rest of its cycle the duplicate and capacity checks do not see
    /// it, and the next `step` submits it before it pops the queue.
    #[test]
    fn refused_prefetch_waits_in_the_port_slot() {
        let prog = Program::new(
            {
                let mut b = KernelBuilder::new("x", 0);
                b.exit();
                b.build()
            },
            LaunchConfig::linear(1, 32, vec![]),
        )
        .unwrap();
        let mut mta = Mta::new(MtaConfig {
            queue_capacity: 1,
            ..MtaConfig::default()
        });
        mta.on_kernel_launch(&prog, 1);
        let mem = MemConfig::gtx480_with_prefetch_buffer();
        // A prefetch enters only a half-empty partition queue: with a
        // one-entry queue, none does.
        let mut refusing = MemoryFabric::new(
            MemConfig {
                l2_queue: 1,
                ..mem.clone()
            },
            1,
        );
        let mut stats = SimStats::default();
        mta.enqueue(0, 0x1000);
        step_on(&mut mta, &mut refusing, 1, &mut stats);
        assert_eq!(mta.sms[0].port, Some(0x1000));
        assert!(mta.sms[0].queue.is_empty());
        assert_eq!(mta.quiet_until(0), Some(2048), "a refused retry is quiet");
        // The same cycle's issue stage: the line is neither a duplicate nor
        // holding the one queue slot.
        mta.enqueue(0, 0x1000);
        mta.enqueue(0, 0x2000);
        assert_eq!(mta.sms[0].queue, [0x1000]);
        let mut accepting = MemoryFabric::new(mem, 1);
        step_on(&mut mta, &mut accepting, 2, &mut stats);
        assert_eq!(stats.prefetches_issued, 1);
        assert_eq!(mta.sms[0].port, None);
        assert_eq!(mta.sms[0].queue, [0x1000], "the port slot went first");
        assert_eq!(mta.quiet_until(0), None);
    }

    #[test]
    fn stride_training_needs_confirmation() {
        let mut mta = Mta::default();
        let prog = Program::new(
            {
                let mut b = KernelBuilder::new("x", 0);
                b.exit();
                b.build()
            },
            LaunchConfig::linear(1, 32, vec![]),
        )
        .unwrap();
        mta.on_kernel_launch(&prog, 1);
        // First access: first-touch only, no stride prediction.
        mta.observe_mem(0, 0, 5, Space::Global, false, &[0x1000]);
        assert_eq!(mta.predicted(), 0);
        // Second access establishes a stride but without confirmation.
        mta.observe_mem(0, 0, 5, Space::Global, false, &[0x1080]);
        assert_eq!(mta.predicted(), 0);
        // Third confirms: predictions fire.
        mta.observe_mem(0, 0, 5, Space::Global, false, &[0x1100]);
        assert!(mta.predicted() > 0);
    }

    #[test]
    fn inter_warp_delta_seeds_other_warps() {
        let mut mta = Mta::default();
        let prog = Program::new(
            {
                let mut b = KernelBuilder::new("x", 0);
                b.exit();
                b.build()
            },
            LaunchConfig::linear(1, 32, vec![]),
        )
        .unwrap();
        mta.on_kernel_launch(&prog, 1);
        // Warps 0 and 1 touch consecutive lines at the same PC.
        mta.observe_mem(0, 0, 9, Space::Global, false, &[0x0]);
        mta.observe_mem(0, 1, 9, Space::Global, false, &[0x80]);
        // Delta = 0x80/warp: warp 1's first touch predicts for warps 2+.
        assert!(mta.predicted() > 0);
        let lines: Vec<u64> = mta.sms[0].queue.iter().copied().collect();
        assert!(lines.contains(&0x100));
    }

    #[test]
    fn stores_and_shared_ignored() {
        let mut mta = Mta::default();
        let prog = Program::new(
            {
                let mut b = KernelBuilder::new("x", 0);
                b.exit();
                b.build()
            },
            LaunchConfig::linear(1, 32, vec![]),
        )
        .unwrap();
        mta.on_kernel_launch(&prog, 1);
        for i in 0..4u64 {
            mta.observe_mem(0, 0, 1, Space::Global, true, &[0x80 * i]);
            mta.observe_mem(0, 0, 2, Space::Shared, false, &[0x80 * i]);
        }
        assert_eq!(mta.predicted(), 0);
    }
}

//! The top-level GPU: the main cycle loop and reports. CTA dispatch is
//! owned by the command processor (`cmdproc.rs`); single-kernel runs are
//! one-stream, one-launch multi-stream runs, so they reduce to the
//! classic behaviour by construction.

use crate::cmdproc::{CommandProcessor, MultiCoProcessor, PlacementPolicy};
use crate::config::GpuConfig;
use crate::coproc::{CoProcessor, NullCoProcessor};
use crate::sm::{KernelCtx, Sm};
use crate::stats::SimStats;
use crate::stream::{Stream, StreamLaunch};
use simt_ir::{Kernel, LaunchConfig, Program};
use simt_mem::{MemStats, MemoryFabric, SparseMemory};
use simt_trace::{NullTracer, Tracer};

/// Everything a run produced: timing, core events, memory events.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Kernel name.
    pub kernel: String,
    /// Coprocessor used ("baseline", "dac", "cae", "mta").
    pub coproc: String,
    /// Total cycles to completion.
    pub cycles: u64,
    /// Core-side statistics.
    pub stats: SimStats,
    /// Memory-side statistics.
    pub mem: MemStats,
}

impl SimReport {
    /// Speedup of this run relative to `baseline` (cycles ratio).
    pub fn speedup_over(&self, baseline: &SimReport) -> f64 {
        baseline.cycles as f64 / self.cycles as f64
    }
}

/// Per-kernel slice of a multi-stream run.
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// Attribution label (from the stream launch).
    pub label: String,
    /// Kernel name.
    pub kernel: String,
    /// Coprocessor driving this kernel.
    pub coproc: String,
    /// Stream index.
    pub stream: usize,
    /// Position within the stream.
    pub seq: usize,
    /// CTAs in the kernel's grid.
    pub ctas: u64,
    /// Cycle the first CTA was placed on an SM.
    pub first_cycle: u64,
    /// Cycle the last CTA retired.
    pub done_cycle: u64,
    /// Core-side counters attributed to this kernel. Its `cycles` field
    /// holds the residency span `done_cycle - first_cycle + 1`.
    pub stats: SimStats,
}

/// Report of a multi-stream run: chip-wide totals plus a per-kernel
/// attribution slice for every launch.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Total cycles to completion of all streams.
    pub cycles: u64,
    /// Chip-wide core statistics (exact field-wise sum of all per-kernel
    /// bins plus the unbound-SM bin).
    pub stats: SimStats,
    /// Memory-side statistics (shared hierarchy, not attributed).
    pub mem: MemStats,
    /// One entry per kernel launch, flattened stream-major.
    pub per_kernel: Vec<KernelReport>,
}

/// Build the deadlock-guard panic message from state the tick already
/// maintains: the stalled cycle, dispatch state, what every SM holds and
/// what its warps wait for, and every fabric queue's depth — so a hang is
/// diagnosable from the panic alone.
fn deadlock_report(
    now: u64,
    cfg: &GpuConfig,
    sms: &[Sm],
    fabric: &MemoryFabric,
    coproc: &dyn CoProcessor,
    cmdproc: &CommandProcessor,
    flat: &[(usize, usize, &StreamLaunch)],
) -> String {
    use std::fmt::Write as _;
    let mut r = format!(
        "simulation exceeded {} cycles — deadlock? stalled at cycle {} \
         (first kernel={} coproc={})\n",
        cfg.max_cycles,
        now,
        flat[0].2.program.kernel.name,
        coproc.name(),
    );
    let _ = writeln!(
        r,
        "  dispatch: {}",
        (0..cmdproc.num_kernels())
            .map(|k| {
                let st = cmdproc.state(k);
                format!(
                    "k{}[{}/{} dispatched, {} retired]",
                    k, st.next_cta, st.total_ctas, st.retired_ctas
                )
            })
            .collect::<Vec<_>>()
            .join(" ")
    );
    for s in sms {
        let _ = writeln!(r, "  sm{}: {}", s.id, s.stall_state());
    }
    let _ = writeln!(r, "  fabric: quiescent={}", fabric.quiescent());
    for line in fabric.stall_state() {
        let _ = writeln!(r, "  fabric {line}");
    }
    let _ = write!(r, "  coproc: quiescent={}", coproc.quiescent());
    r
}

/// The per-SM coprocessor view of a run: a single child is handed
/// straight to the SMs (no routing overhead on the classic path); two or
/// more go through the [`MultiCoProcessor`] router.
enum Router<'a> {
    Single(&'a mut dyn CoProcessor),
    Multi(MultiCoProcessor<'a>),
}

/// The whole GPU.
#[derive(Debug, Clone)]
pub struct GpuSim {
    cfg: GpuConfig,
}

impl GpuSim {
    /// A GPU with the given configuration.
    pub fn new(cfg: GpuConfig) -> Self {
        GpuSim { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Can a CTA of `kernel` launched as `launch` ever be placed on this
    /// machine? `Err` names the violated resource when the CTA's static
    /// footprint (warp slots, registers, shared memory) exceeds an *empty*
    /// SM, or the machine has no SMs. Every `run*` entry point panics with
    /// this message at launch; callers holding untrusted configuration
    /// (`--set` overrides) check first and report it as an ordinary error.
    pub fn check_launch(&self, kernel: &Kernel, launch: &LaunchConfig) -> Result<(), String> {
        let cfg = &self.cfg;
        let warps = launch.warps_per_cta();
        let cta_regs = warps * 32 * kernel.regs_per_thread as u32;
        let name = &kernel.name;
        if cfg.num_sms == 0 {
            Err(format!(
                "kernel {name} can never be placed: the machine has 0 SMs"
            ))
        } else if warps as usize > cfg.max_warps_per_sm {
            Err(format!(
                "kernel {name} can never be placed: CTA needs {warps} warps, SM has {} slots",
                cfg.max_warps_per_sm
            ))
        } else if cta_regs > cfg.regfile_per_sm {
            Err(format!(
                "kernel {name} can never be placed: CTA needs {cta_regs} registers \
                 ({warps} warps x 32 lanes x {} regs/thread), SM regfile holds {}",
                kernel.regs_per_thread, cfg.regfile_per_sm
            ))
        } else if kernel.shared_bytes > cfg.shared_mem_per_sm {
            Err(format!(
                "kernel {name} can never be placed: CTA needs {} shared bytes, SM has {}",
                kernel.shared_bytes, cfg.shared_mem_per_sm
            ))
        } else {
            Ok(())
        }
    }

    /// Run `program` on the baseline GPU (no coprocessor).
    ///
    /// # Panics
    ///
    /// Panics if the program is malformed or the run exceeds
    /// `cfg.max_cycles` (deadlock guard).
    pub fn run(&self, program: &Program, mem: &mut SparseMemory) -> SimReport {
        let mut null = NullCoProcessor;
        self.run_with(program, mem, &mut null)
    }

    /// Run `program` with a coprocessor attached (DAC / CAE / MTA).
    ///
    /// # Panics
    ///
    /// Panics if the program is malformed or the run exceeds
    /// `cfg.max_cycles` (deadlock guard).
    pub fn run_with(
        &self,
        program: &Program,
        mem: &mut SparseMemory,
        coproc: &mut dyn CoProcessor,
    ) -> SimReport {
        self.run_traced(program, mem, coproc, &mut NullTracer)
    }

    /// [`GpuSim::run_with`] with a tracer attached. Tracing is pure
    /// observation: the returned [`SimReport`] is identical to an untraced
    /// run (the harness determinism test asserts this).
    ///
    /// # Panics
    ///
    /// Panics if the program is malformed or the run exceeds
    /// `cfg.max_cycles` (deadlock guard).
    pub fn run_traced(
        &self,
        program: &Program,
        mem: &mut SparseMemory,
        coproc: &mut dyn CoProcessor,
        tracer: &mut dyn Tracer,
    ) -> SimReport {
        let kernel = program.kernel.name.clone();
        let coproc_name = coproc.name().to_string();
        let streams = [Stream::single(StreamLaunch::new(program.clone()))];
        let rep =
            self.run_streams_traced(&streams, mem, vec![coproc], PlacementPolicy::Greedy, tracer);
        SimReport {
            kernel,
            coproc: coproc_name,
            cycles: rep.cycles,
            stats: rep.stats,
            mem: rep.mem,
        }
    }

    /// Run multiple kernel streams concurrently (untraced). See
    /// [`GpuSim::run_streams_traced`].
    ///
    /// # Panics
    ///
    /// Panics if any program is malformed, `coprocs` does not hold one
    /// coprocessor per launch, or the run exceeds `cfg.max_cycles`.
    pub fn run_streams(
        &self,
        streams: &[Stream],
        mem: &mut SparseMemory,
        coprocs: Vec<&mut dyn CoProcessor>,
        policy: PlacementPolicy,
    ) -> StreamReport {
        self.run_streams_traced(streams, mem, coprocs, policy, &mut NullTracer)
    }

    /// Run multiple kernel streams concurrently. The command processor
    /// dispatches CTAs of each stream's head launch onto SMs under the
    /// full occupancy model (CTA slots, warp slots, shared memory,
    /// register file); streams are in-order internally and compete for
    /// SMs against each other. `coprocs` holds one coprocessor per kernel
    /// launch, flattened stream-major; per-SM hooks route to the owning
    /// kernel's instance. Deterministic by construction — no host-order
    /// or timing dependence anywhere.
    ///
    /// # Panics
    ///
    /// Panics if any program is malformed, `coprocs` does not hold one
    /// coprocessor per launch, or the run exceeds `cfg.max_cycles`
    /// (deadlock guard).
    pub fn run_streams_traced(
        &self,
        streams: &[Stream],
        mem: &mut SparseMemory,
        mut coprocs: Vec<&mut dyn CoProcessor>,
        policy: PlacementPolicy,
        tracer: &mut dyn Tracer,
    ) -> StreamReport {
        let cfg = &self.cfg;
        // Flatten launches stream-major; position = kernel/launch id.
        let flat: Vec<(usize, usize, &StreamLaunch)> = streams
            .iter()
            .enumerate()
            .flat_map(|(s, st)| st.launches.iter().enumerate().map(move |(i, l)| (s, i, l)))
            .collect();
        assert!(!flat.is_empty(), "no kernel launches");
        assert_eq!(
            coprocs.len(),
            flat.len(),
            "need one coprocessor per kernel launch"
        );
        for (_, _, l) in &flat {
            l.program.kernel.validate().expect("invalid kernel");
            // Without this check the command processor would retry an
            // unplaceable CTA every cycle until the deadlock guard fires
            // at `max_cycles`.
            if let Err(e) = self.check_launch(&l.program.kernel, &l.program.launch) {
                panic!("{e}");
            }
        }
        let kctxs: Vec<KernelCtx<'_>> = flat
            .iter()
            .map(|(_, _, l)| KernelCtx::new(&l.program))
            .collect();

        let mut fabric = MemoryFabric::new(cfg.mem.clone(), cfg.num_sms);
        let mut sms: Vec<Sm> = (0..cfg.num_sms).map(|i| Sm::new(i, cfg)).collect();
        let nk = flat.len();
        // Per-SM attribution rows: one bin per kernel plus one for
        // unbound-SM cycles, so the issue-slot invariant holds on the fold.
        let mut rows: Vec<Vec<SimStats>> = vec![vec![SimStats::default(); nk + 1]; cfg.num_sms];
        let coproc_names: Vec<String> = coprocs.iter().map(|c| c.name().to_string()).collect();
        for (k, c) in coprocs.iter_mut().enumerate() {
            c.on_kernel_launch(&flat[k].2.program, cfg.num_sms);
        }

        let ctas_by_stream: Vec<Vec<u64>> = streams
            .iter()
            .map(|st| {
                st.launches
                    .iter()
                    .map(|l| l.program.launch.num_ctas())
                    .collect()
            })
            .collect();
        let mut cmdproc = CommandProcessor::new(policy, &ctas_by_stream, cfg.num_sms);

        let mut router = if nk == 1 {
            Router::Single(coprocs.pop().unwrap())
        } else {
            Router::Multi(MultiCoProcessor::new(coprocs, cfg.num_sms))
        };
        let coproc: &mut dyn CoProcessor = match &mut router {
            Router::Single(c) => &mut **c,
            Router::Multi(m) => m,
        };

        let mut now = 0u64;

        loop {
            cmdproc.dispatch(now, cfg, &mut sms, &kctxs, coproc, &mut rows, tracer);

            fabric.cycle_traced(now, tracer);
            for (i, sm) in sms.iter_mut().enumerate() {
                // An unbound SM ticks against kernel 0's context (it has no
                // warps to read it) and the unbound attribution bin.
                let binding = cmdproc.binding(i);
                sm.cycle(
                    now,
                    cfg,
                    &kctxs[binding.unwrap_or(0)],
                    mem,
                    &mut fabric,
                    coproc,
                    &mut rows[i][binding.unwrap_or(nk)],
                    tracer,
                );
            }
            for (i, s) in sms.iter_mut().enumerate() {
                let retired = s.retire_ctas(coproc, tracer, now);
                if retired > 0 {
                    cmdproc.note_retired(i, retired as u64, now);
                }
            }

            let done = cmdproc.all_complete()
                && sms.iter().all(|s| s.idle())
                && fabric.quiescent()
                && coproc.quiescent();
            if done {
                break;
            }

            now += 1;
            if now >= cfg.max_cycles {
                panic!(
                    "{}",
                    deadlock_report(now, cfg, &sms, &fabric, coproc, &cmdproc, &flat)
                );
            }
        }

        // The loop above executed SM cycles for now = 0..=now inclusive.
        let mut stats = SimStats::default();
        for b in rows.iter().flatten() {
            stats.accumulate(b);
        }
        stats.cycles = now + 1;
        let expected_slots = stats.cycles * cfg.schedulers as u64 * cfg.num_sms as u64;
        assert_eq!(
            stats.issue_slots_total(),
            expected_slots,
            "issue-slot accounting broken: buckets {:?} must sum to \
             cycles({}) x schedulers({}) x SMs({}) for kernel={} coproc={}",
            stats.issue_slot_buckets(),
            stats.cycles,
            cfg.schedulers,
            cfg.num_sms,
            flat[0].2.program.kernel.name,
            coproc.name()
        );
        let per_kernel = flat
            .iter()
            .enumerate()
            .map(|(k, (s, i, l))| {
                let st = cmdproc.state(k);
                let first = st.first_cycle.unwrap_or(0);
                let done = st.done_cycle.unwrap_or(first);
                let mut kstats = SimStats::default();
                for row in &rows {
                    kstats.accumulate(&row[k]);
                }
                kstats.cycles = done - first + 1;
                KernelReport {
                    label: l.label.clone(),
                    kernel: l.program.kernel.name.clone(),
                    coproc: coproc_names[k].clone(),
                    stream: *s,
                    seq: *i,
                    ctas: st.total_ctas,
                    first_cycle: first,
                    done_cycle: done,
                    stats: kstats,
                }
            })
            .collect();
        StreamReport {
            cycles: stats.cycles,
            stats,
            mem: fabric.stats(),
            per_kernel,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_ir::{AtomOp, CmpOp, KernelBuilder, LaunchConfig, Op, Operand, Space, Width};

    fn small_gpu() -> GpuSim {
        GpuSim::new(GpuConfig::test_small())
    }

    /// B[i] = A[i] + 1 over n elements.
    fn add_one_program(n: u32, a: u64, b: u64) -> Program {
        let mut k = KernelBuilder::new("add_one", 3);
        let tid = k.tid_linear_x();
        let p = k.setp(CmpOp::Ge, Operand::Reg(tid), Operand::Param(2));
        k.bra_if(p, "done");
        let off = k.alu2(Op::Shl, Operand::Reg(tid), Operand::Imm(2));
        let pa = k.alu2(Op::Add, Operand::Param(0), Operand::Reg(off));
        let pb = k.alu2(Op::Add, Operand::Param(1), Operand::Reg(off));
        let v = k.ld(Space::Global, pa, 0, Width::W32);
        let v1 = k.alu2(Op::Add, Operand::Reg(v), Operand::Imm(1));
        k.st(Space::Global, pb, 0, Operand::Reg(v1), Width::W32);
        k.label("done");
        k.exit();
        let kernel = k.build();
        let blocks = n.div_ceil(128);
        Program::new(
            kernel,
            LaunchConfig::linear(blocks, 128, vec![a, b, n as u64]),
        )
        .unwrap()
    }

    #[test]
    fn add_one_end_to_end() {
        let n = 1000u32;
        let a = 0x10_000u64;
        let b = 0x80_000u64;
        let mut mem = SparseMemory::new();
        let input: Vec<u32> = (0..n).collect();
        mem.write_u32_slice(a, &input);
        let prog = add_one_program(n, a, b);
        let report = small_gpu().run(&prog, &mut mem);
        assert!(report.cycles > 100);
        let out = mem.read_u32_vec(b, n as usize);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i as u32 + 1, "element {i}");
        }
        assert_eq!(report.stats.ctas_launched, 8);
        assert!(report.stats.global_loads > 0);
        assert!(report.stats.warp_instructions > 0);
    }

    #[test]
    fn partial_warp_masks_out_of_range_threads() {
        // n = 40 with 128-thread blocks: only 40 threads do work.
        let n = 40u32;
        let a = 0x1000u64;
        let b = 0x9000u64;
        let mut mem = SparseMemory::new();
        mem.write_u32_slice(a, &vec![7u32; 64]);
        let prog = add_one_program(n, a, b);
        small_gpu().run(&prog, &mut mem);
        let out = mem.read_u32_vec(b, 64);
        for (i, &v) in out.iter().enumerate() {
            if i < 40 {
                assert_eq!(v, 8, "element {i}");
            } else {
                assert_eq!(v, 0, "element {i} must be untouched");
            }
        }
    }

    /// Divergent kernel: odd threads write 1, even threads write 2.
    #[test]
    fn divergent_branches_reconverge() {
        let mut k = KernelBuilder::new("diverge", 1);
        let tid = k.tid_linear_x();
        let bit = k.alu2(Op::And, Operand::Reg(tid), Operand::Imm(1));
        let p = k.setp(CmpOp::Ne, Operand::Reg(bit), Operand::Imm(0));
        let off = k.alu2(Op::Shl, Operand::Reg(tid), Operand::Imm(2));
        let pa = k.alu2(Op::Add, Operand::Param(0), Operand::Reg(off));
        let val = k.reg();
        k.bra_if(p, "odd");
        k.alu_into(val, Op::Mov, &[Operand::Imm(2)]);
        k.bra("store");
        k.label("odd");
        k.alu_into(val, Op::Mov, &[Operand::Imm(1)]);
        k.label("store");
        k.st(Space::Global, pa, 0, Operand::Reg(val), Width::W32);
        k.exit();
        let prog = Program::new(k.build(), LaunchConfig::linear(1, 64, vec![0x4000])).unwrap();
        let mut mem = SparseMemory::new();
        small_gpu().run(&prog, &mut mem);
        let out = mem.read_u32_vec(0x4000, 64);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, if i % 2 == 1 { 1 } else { 2 }, "thread {i}");
        }
    }

    /// Loop kernel: each thread sums i for i in 0..reps.
    #[test]
    fn loop_executes_correct_trip_count() {
        let reps = 10u64;
        let mut k = KernelBuilder::new("loop", 2);
        let tid = k.tid_linear_x();
        let acc = k.mov(Operand::Imm(0));
        let i = k.mov(Operand::Imm(0));
        k.label("top");
        k.alu_into(acc, Op::Add, &[Operand::Reg(acc), Operand::Reg(i)]);
        k.alu_into(i, Op::Add, &[Operand::Reg(i), Operand::Imm(1)]);
        let p = k.setp(CmpOp::Lt, Operand::Reg(i), Operand::Param(1));
        k.bra_if(p, "top");
        let off = k.alu2(Op::Shl, Operand::Reg(tid), Operand::Imm(2));
        let pa = k.alu2(Op::Add, Operand::Param(0), Operand::Reg(off));
        k.st(Space::Global, pa, 0, Operand::Reg(acc), Width::W32);
        k.exit();
        let prog =
            Program::new(k.build(), LaunchConfig::linear(1, 32, vec![0x4000, reps])).unwrap();
        let mut mem = SparseMemory::new();
        small_gpu().run(&prog, &mut mem);
        let expect: u32 = (0..reps as u32).sum();
        for (i, v) in mem.read_u32_vec(0x4000, 32).iter().enumerate() {
            assert_eq!(*v, expect, "thread {i}");
        }
    }

    /// Shared-memory reversal within a block, with a barrier.
    #[test]
    fn shared_memory_and_barrier() {
        let mut k = KernelBuilder::new("reverse", 2);
        k.shared(128 * 4);
        let tid = k.tid_linear_x();
        let off = k.alu2(Op::Shl, Operand::Reg(tid), Operand::Imm(2));
        let pa = k.alu2(Op::Add, Operand::Param(0), Operand::Reg(off));
        let v = k.ld(Space::Global, pa, 0, Width::W32);
        // shared[tid] = v
        let soff = k.alu2(
            Op::Shl,
            Operand::Special(simt_ir::SpecialReg::TidX),
            Operand::Imm(2),
        );
        k.st(Space::Shared, soff, 0, Operand::Reg(v), Width::W32);
        k.bar();
        // v2 = shared[127 - tid]
        let rev = k.alu2(
            Op::Sub,
            Operand::Imm(127),
            Operand::Special(simt_ir::SpecialReg::TidX),
        );
        let roff = k.alu2(Op::Shl, Operand::Reg(rev), Operand::Imm(2));
        let v2 = k.ld(Space::Shared, roff, 0, Width::W32);
        let pb = k.alu2(Op::Add, Operand::Param(1), Operand::Reg(off));
        k.st(Space::Global, pb, 0, Operand::Reg(v2), Width::W32);
        k.exit();
        let prog = Program::new(
            k.build(),
            LaunchConfig::linear(2, 128, vec![0x4000, 0x8000]),
        )
        .unwrap();
        let mut mem = SparseMemory::new();
        let input: Vec<u32> = (0..256).collect();
        mem.write_u32_slice(0x4000, &input);
        let report = small_gpu().run(&prog, &mut mem);
        assert!(report.stats.barriers > 0);
        let out = mem.read_u32_vec(0x8000, 256);
        for blk in 0..2usize {
            for t in 0..128usize {
                assert_eq!(
                    out[blk * 128 + t] as usize,
                    blk * 128 + (127 - t),
                    "block {blk} thread {t}"
                );
            }
        }
    }

    /// Histogram with atomics: counts must be exact.
    #[test]
    fn atomic_histogram() {
        let mut k = KernelBuilder::new("hist", 2);
        let tid = k.tid_linear_x();
        let off = k.alu2(Op::Shl, Operand::Reg(tid), Operand::Imm(2));
        let pa = k.alu2(Op::Add, Operand::Param(0), Operand::Reg(off));
        let v = k.ld(Space::Global, pa, 0, Width::W32);
        let bin = k.alu2(Op::And, Operand::Reg(v), Operand::Imm(7));
        let boff = k.alu2(Op::Shl, Operand::Reg(bin), Operand::Imm(2));
        let pb = k.alu2(Op::Add, Operand::Param(1), Operand::Reg(boff));
        let _old = k.atom(AtomOp::Add, pb, 0, Operand::Imm(1));
        k.exit();
        let prog = Program::new(
            k.build(),
            LaunchConfig::linear(2, 128, vec![0x4000, 0x8000]),
        )
        .unwrap();
        let mut mem = SparseMemory::new();
        let input: Vec<u32> = (0..256).map(|i| i * 37 + 11).collect();
        mem.write_u32_slice(0x4000, &input);
        let report = small_gpu().run(&prog, &mut mem);
        assert!(report.stats.atomic_instructions > 0);
        let hist = mem.read_u32_vec(0x8000, 8);
        let mut expect = [0u32; 8];
        for &x in &input {
            expect[(x & 7) as usize] += 1;
        }
        assert_eq!(hist, expect.to_vec());
        assert_eq!(hist.iter().sum::<u32>(), 256);
    }

    /// Two SMs `atom.exch` the same word in the same cycle: SM index
    /// orders them. SM 0 reads the initial value, SM 1 reads what SM 0
    /// wrote, and SM 1's value is the one left in memory.
    #[test]
    fn same_cycle_atomics_serialize_in_sm_index_order() {
        let (word, out) = (0x4000u64, 0x8000u64);
        // One single-thread CTA per SM (breadth-first placement), running
        // identical instruction streams so both reach the atomic together.
        let mut k = KernelBuilder::new("exch", 2);
        let cta = k.mov(Operand::Special(simt_ir::SpecialReg::CtaIdX));
        let val = k.alu2(Op::Add, Operand::Reg(cta), Operand::Imm(10));
        let addr = k.mov(Operand::Param(0));
        let atom_pc = k.here();
        let old = k.atom(AtomOp::Exch, addr, 0, Operand::Reg(val));
        let off = k.alu2(Op::Shl, Operand::Reg(cta), Operand::Imm(2));
        let po = k.alu2(Op::Add, Operand::Param(1), Operand::Reg(off));
        k.st(Space::Global, po, 0, Operand::Reg(old), Width::W32);
        k.exit();
        let prog = Program::new(k.build(), LaunchConfig::linear(2, 1, vec![word, out])).unwrap();

        let mut mem = SparseMemory::new();
        mem.write_u32_slice(word, &[7]);
        let mut trace = simt_trace::RingSink::new(1 << 12);
        small_gpu().run_traced(&prog, &mut mem, &mut NullCoProcessor, &mut trace);

        let issues: Vec<(u64, u32)> = trace
            .events()
            .filter_map(|e| match e.event {
                simt_trace::TraceEvent::WarpIssue { sm, pc, .. } if pc as usize == atom_pc => {
                    Some((e.cycle, sm))
                }
                _ => None,
            })
            .collect();
        assert_eq!(issues.len(), 2, "{issues:?}");
        assert_eq!(issues[0].0, issues[1].0, "atomics must share a cycle");
        assert_ne!(issues[0].1, issues[1].1, "one atomic per SM");

        assert_eq!(mem.read_u32_vec(out, 2), vec![7, 10]);
        assert_eq!(mem.read_u32_vec(word, 1), vec![11]);
    }

    #[test]
    fn perfect_memory_is_faster() {
        let n = 4096u32;
        let a = 0x10_000u64;
        let b = 0x200_000u64;
        let prog = add_one_program(n, a, b);
        let mut mem1 = SparseMemory::new();
        mem1.write_u32_slice(a, &vec![1u32; n as usize]);
        let base = small_gpu().run(&prog, &mut mem1);
        let mut mem2 = SparseMemory::new();
        mem2.write_u32_slice(a, &vec![1u32; n as usize]);
        let gpu_perfect = GpuSim::new(GpuConfig {
            mem: simt_mem::MemConfig::perfect(),
            ..GpuConfig::test_small()
        });
        let perf = gpu_perfect.run(&prog, &mut mem2);
        assert!(
            perf.cycles < base.cycles,
            "perfect {} !< base {}",
            perf.cycles,
            base.cycles
        );
        // A streaming kernel should be strongly memory-bound.
        assert!(base.cycles as f64 / perf.cycles as f64 > 1.5);
    }

    #[test]
    fn issue_slot_buckets_sum_to_total_slots() {
        let n = 1000u32;
        let a = 0x10_000u64;
        let b = 0x80_000u64;
        let mut mem = SparseMemory::new();
        mem.write_u32_slice(a, &(0..n).collect::<Vec<u32>>());
        let prog = add_one_program(n, a, b);
        let report = small_gpu().run(&prog, &mut mem);
        let cfg = GpuConfig::test_small();
        assert_eq!(
            report.stats.issue_slots_total(),
            report.cycles * cfg.schedulers as u64 * cfg.num_sms as u64
        );
        assert!(report.stats.slot_issued > 0);
        // A memory-bound streaming kernel must show scoreboard pressure.
        assert!(report.stats.slot_scoreboard > 0);
        // No coprocessor: the DAC-only buckets stay empty.
        assert_eq!(report.stats.slot_deq_empty, 0);
        assert_eq!(report.stats.slot_deq_data, 0);
        assert_eq!(report.stats.slot_enq_full, 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let prog = add_one_program(512, 0x1000, 0x40_000);
        let mut m1 = SparseMemory::new();
        let mut m2 = SparseMemory::new();
        let r1 = small_gpu().run(&prog, &mut m1);
        let r2 = small_gpu().run(&prog, &mut m2);
        assert_eq!(r1.cycles, r2.cycles);
        assert_eq!(r1.stats, r2.stats);
    }

    #[test]
    fn guarded_instructions_respect_predicates() {
        // if tid < 16: out[tid] = 5 else out[tid] = 9, via guards not branches.
        let mut k = KernelBuilder::new("guard", 1);
        let tid = k.tid_linear_x();
        let p = k.setp(CmpOp::Lt, Operand::Reg(tid), Operand::Imm(16));
        let off = k.alu2(Op::Shl, Operand::Reg(tid), Operand::Imm(2));
        let pa = k.alu2(Op::Add, Operand::Param(0), Operand::Reg(off));
        k.st_guard(
            Space::Global,
            pa,
            0,
            Operand::Imm(5),
            Width::W32,
            simt_ir::instr::Guard::pos(p),
        );
        k.st_guard(
            Space::Global,
            pa,
            0,
            Operand::Imm(9),
            Width::W32,
            simt_ir::instr::Guard::neg(p),
        );
        k.exit();
        let prog = Program::new(k.build(), LaunchConfig::linear(1, 32, vec![0x4000])).unwrap();
        let mut mem = SparseMemory::new();
        small_gpu().run(&prog, &mut mem);
        let out = mem.read_u32_vec(0x4000, 32);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, if i < 16 { 5 } else { 9 }, "thread {i}");
        }
    }
}

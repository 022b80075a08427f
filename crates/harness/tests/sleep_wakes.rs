//! The wake protocol is exact for every way a unit can be woken: a
//! sleeping SM, an L2 partition with its DRAM channel, an SM port, a
//! refused fabric client and the command processor. Each test shapes a
//! run so that some unit waits and depends on one wake source to act at
//! the right cycle, then runs it untraced (units tick only when due) and
//! traced (every unit ticks every cycle — the reference): cycles, every
//! core counter chip-wide and per kernel, every memory counter and the
//! final memory image must agree. Without its wake source, each of these
//! runs sleeps through an event and either diverges or never finishes.

use affine::{decouple, AffineAnalysis};
use dac_core::{Dac, DacConfig};
use gpu_baselines::{Mta, MtaConfig};
use simt_harness::{suite_jobs, Design, DesignPoint, Overrides};
use simt_ir::{CmpOp, KernelBuilder, LaunchConfig, Op, Operand, Program, Space, SpecialReg, Width};
use simt_mem::{MemConfig, SparseMemory};
use simt_sim::{
    CoProcessor, GpuConfig, GpuSim, NullCoProcessor, PlacementPolicy, Stream, StreamLaunch,
    StreamReport,
};
use simt_trace::{NullTracer, TraceEvent, Tracer};

/// An enabled tracer that keeps nothing.
struct Ticking;

impl Tracer for Ticking {
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&mut self, _cycle: u64, _event: TraceEvent) {}
}

/// The small machine with a budget that makes an SM that never wakes
/// fail in well under a second.
fn machine() -> GpuConfig {
    GpuConfig {
        max_cycles: 200_000,
        ..GpuConfig::test_small()
    }
}

/// Run `streams` with coprocessors from `make` (one per launch, built
/// fresh for each run) untraced and traced, assert the two agree, and
/// return the untraced report.
fn sleep_exact(
    cfg: &GpuConfig,
    streams: &[Stream],
    init: &SparseMemory,
    make: &dyn Fn() -> Vec<Box<dyn CoProcessor>>,
) -> StreamReport {
    let gpu = GpuSim::new(cfg.clone());
    let run = |tracer: &mut dyn Tracer| {
        let mut mem = init.clone();
        let mut owned = make();
        let coprocs = owned.iter_mut().map(as_dyn).collect();
        let report =
            gpu.run_streams_traced(streams, &mut mem, coprocs, PlacementPolicy::Greedy, tracer);
        (report, mem)
    };
    let (plain, plain_mem) = run(&mut NullTracer);
    let (traced, traced_mem) = run(&mut Ticking);
    assert_eq!(plain.cycles, traced.cycles, "cycles");
    assert_eq!(plain.stats, traced.stats, "chip-wide core counters");
    assert_eq!(plain.mem, traced.mem, "memory counters");
    for (a, b) in plain.per_kernel.iter().zip(&traced.per_kernel) {
        assert_eq!(
            (a.first_cycle, a.done_cycle),
            (b.first_cycle, b.done_cycle),
            "{}: residency",
            a.label
        );
        assert_eq!(a.stats, b.stats, "{}: per-kernel core counters", a.label);
    }
    assert!(plain_mem == traced_mem, "final memory images differ");
    plain
}

fn as_dyn(c: &mut Box<dyn CoProcessor>) -> &mut dyn CoProcessor {
    &mut **c
}

fn single(prog: Program) -> Vec<Stream> {
    vec![Stream::single(StreamLaunch::new(prog))]
}

fn baseline() -> Vec<Box<dyn CoProcessor>> {
    vec![Box::new(NullCoProcessor)]
}

/// `*(p0 + 4 * tid) = value`.
fn store_per_thread(k: &mut KernelBuilder, value: Operand) {
    let tid = k.tid_linear_x();
    let off = k.alu2(Op::Shl, Operand::Reg(tid), Operand::Imm(2));
    let a = k.alu2(Op::Add, Operand::Param(0), Operand::Reg(off));
    k.st(Space::Global, a, 0, value, Width::W32);
}

/// One warp multiplies through a chain of dependent ALU instructions:
/// between issues it only waits for its own writeback, so it sleeps with
/// the calendar's next due release as its timer.
#[test]
fn writeback_due_wakes_a_sleeping_sm() {
    let mut k = KernelBuilder::new("chain", 1);
    let r = k.mov(Operand::Imm(1));
    for _ in 0..16 {
        k.alu_into(r, Op::Mul, &[Operand::Reg(r), Operand::Imm(3)]);
    }
    store_per_thread(&mut k, Operand::Reg(r));
    k.exit();
    let prog = Program::new(k.build(), LaunchConfig::linear(1, 32, vec![0x4000])).unwrap();
    let init = SparseMemory::new();
    sleep_exact(&machine(), &single(prog.clone()), &init, &baseline);
    let mut mem = init.clone();
    GpuSim::new(machine()).run(&prog, &mut mem);
    assert_eq!(mem.read_u32(0x4000), 3u32.pow(16));
}

/// The second load of a line hits the L1: its response goes straight to
/// the port's ready queue, with no fill behind it, and the warp that
/// waits for it sleeps until the ready queue's head comes due.
#[test]
fn ready_response_wakes_a_sleeping_sm() {
    let mut k = KernelBuilder::new("rehit", 2);
    let a = k.mov(Operand::Param(1));
    let v = k.ld(Space::Global, a, 0, Width::W32);
    let x = k.alu2(Op::Add, Operand::Reg(v), Operand::Imm(1));
    // Address the same word again through a value that depends on the
    // first load, so the second load issues after the line arrived.
    let zero = k.alu2(Op::Sub, Operand::Reg(x), Operand::Reg(x));
    let a2 = k.alu2(Op::Add, Operand::Reg(a), Operand::Reg(zero));
    let w = k.ld(Space::Global, a2, 0, Width::W32);
    let y = k.alu2(Op::Add, Operand::Reg(w), Operand::Reg(x));
    store_per_thread(&mut k, Operand::Reg(y));
    k.exit();
    let prog = Program::new(k.build(), LaunchConfig::linear(1, 32, vec![0x4000, 0x9000])).unwrap();
    let mut init = SparseMemory::new();
    init.write_u32_slice(0x9000, &[20]);
    let rep = sleep_exact(&machine(), &single(prog), &init, &baseline);
    assert_eq!(rep.mem.l1_hits, 1, "the second load is an L1 hit");
}

/// Every thread stores to its own line of partition 0, far more lines
/// than the partition queue and its DRAM queue hold. After the warps
/// exit, the LSU's head is refused with `QueueFull` and no response will
/// ever come back for a store: only the partition's pops wake the SM.
#[test]
fn partition_pop_wakes_a_refused_lsu() {
    let cfg = machine();
    let mut k = KernelBuilder::new("spray", 2);
    let tid = k.tid_linear_x();
    let off = k.alu2(Op::Mul, Operand::Reg(tid), Operand::Param(1));
    let a = k.alu2(Op::Add, Operand::Param(0), Operand::Reg(off));
    k.st(Space::Global, a, 0, Operand::Reg(tid), Width::W32);
    k.exit();
    let stride = cfg.mem.line_bytes * cfg.mem.num_partitions as u64;
    let prog = Program::new(
        k.build(),
        LaunchConfig::linear(1, 256, vec![0x10_0000, stride]),
    )
    .unwrap();
    let rep = sleep_exact(&cfg, &single(prog), &SparseMemory::new(), &baseline);
    assert!(
        rep.mem.queue_full_stalls > 100,
        "{}",
        rep.mem.queue_full_stalls
    );
}

/// `*(p0 + 4 * ctaid) = n` after a loop of `n = ctaid * p1 + 1` trips, so
/// CTA 0 finishes long before CTA 1.
fn lopsided(name: &str, trips_per_cta: u64, out: u64) -> Program {
    let mut k = KernelBuilder::new(name, 2);
    let cta = k.mov(Operand::Special(SpecialReg::CtaIdX));
    let scaled = k.alu2(Op::Mul, Operand::Reg(cta), Operand::Param(1));
    let n = k.alu2(Op::Add, Operand::Reg(scaled), Operand::Imm(1));
    let i = k.mov(Operand::Imm(0));
    k.label("top");
    k.alu_into(i, Op::Add, &[Operand::Reg(i), Operand::Imm(1)]);
    let p = k.setp(CmpOp::Lt, Operand::Reg(i), Operand::Reg(n));
    k.bra_if(p, "top");
    let off = k.alu2(Op::Shl, Operand::Reg(cta), Operand::Imm(2));
    let a = k.alu2(Op::Add, Operand::Param(0), Operand::Reg(off));
    k.st(Space::Global, a, 0, Operand::Reg(n), Width::W32);
    k.exit();
    Program::new(
        k.build(),
        LaunchConfig::linear(2, 32, vec![out, trips_per_cta]),
    )
    .unwrap()
}

/// One stream, kernel A then kernel B, two CTAs each on two SMs. A's CTA
/// on SM 0 finishes early; SM 0 is released and sleeps with nothing to
/// do. When A's long CTA retires on SM 1, B's first CTA is launched onto
/// the sleeping SM 0 — only the command processor can wake it.
#[test]
fn dispatch_wakes_a_sleeping_sm() {
    let streams = vec![Stream::of(vec![
        StreamLaunch::labelled(lopsided("a", 400, 0x4000), "a"),
        StreamLaunch::labelled(lopsided("b", 0, 0x5000), "b"),
    ])];
    let make = || -> Vec<Box<dyn CoProcessor>> {
        vec![Box::new(NullCoProcessor), Box::new(NullCoProcessor)]
    };
    let rep = sleep_exact(&machine(), &streams, &SparseMemory::new(), &make);
    assert!(rep.per_kernel[1].first_cycle > rep.per_kernel[0].first_cycle + 1000);
}

/// An affine streaming loop whose trip count grows with the CTA index,
/// so DAC decouples its loads and CTA 0 finishes long before CTA 1.
fn lopsided_affine() -> (Program, affine::DecoupledKernel) {
    let k = simt_ir::asm::parse_kernel(
        r#"
.kernel ramp
.params 3
    mul r0, %ctaid.x, %ntid.x;
    add r1, r0, %tid.x;
    shl r2, r1, 2;
    add r3, %p0, r2;
    add r4, %p1, r2;
    mul r9, %ctaid.x, %p2;
    add r9, r9, 1;
    mov r5, 0;
LOOP:
    ld.global r6, [r3];
    add r7, r6, 1;
    st.global [r4], r7;
    add r5, r5, 1;
    setp.lt p0, r5, r9;
    @p0 bra LOOP;
    exit;
"#,
    )
    .unwrap();
    let dk = decouple(&k, &AffineAnalysis::run(&k));
    assert!(dk.any_decoupled);
    let launch = LaunchConfig::linear(2, 64, vec![0x10_0000, 0x20_0000, 40]);
    (Program::new(dk.non_affine.clone(), launch).unwrap(), dk)
}

/// Kernel A under DAC, then kernel B, on two SMs. When A's short CTA
/// retires, SM 0 stays bound to A (A's DAC is not quiescent while its
/// long CTA runs on SM 1) and sleeps. The release pass unbinds the
/// sleeping SM once A drains, and must credit the cycles it slept to A's
/// row, not to the unbound or the next kernel's.
#[test]
fn release_wakes_a_sleeping_sm() {
    let (prog, dk) = lopsided_affine();
    let streams = vec![Stream::of(vec![
        StreamLaunch::labelled(prog, "a"),
        StreamLaunch::labelled(lopsided("b", 0, 0x5000), "b"),
    ])];
    let make = || -> Vec<Box<dyn CoProcessor>> {
        vec![
            Box::new(Dac::new(DacConfig::paper(), dk.clone())),
            Box::new(NullCoProcessor),
        ]
    };
    let rep = sleep_exact(&machine(), &streams, &SparseMemory::new(), &make);
    assert!(rep.per_kernel[0].stats.decoupled_loads > 0);
}

/// A store-only affine loop: a non-affine warp does three instructions a
/// trip (two `st [deq.addr]`, `@deq.pred bra`) against the affine warp's
/// eight, and the one on scheduler 1 — which does not share its issue
/// slot with the affine warp — catches up and waits on empty queues for
/// both kinds of record.
fn store_loop() -> (Program, affine::DecoupledKernel) {
    let k = simt_ir::asm::parse_kernel(
        r#"
.kernel fill
.params 2
    mul r0, %ctaid.x, %ntid.x;
    add r1, r0, %tid.x;
    mul r7, r1, r1;
    shl r2, r1, 2;
    add r4, %p0, r2;
    mov r5, 0;
LOOP:
    st.global [r4], r7;
    add r6, r4, 128;
    st.global [r6], r1;
    add r4, r4, 4096;
    add r5, r5, 1;
    setp.lt p0, r5, %p1;
    @p0 bra LOOP;
    exit;
"#,
    )
    .unwrap();
    let dk = decouple(&k, &AffineAnalysis::run(&k));
    assert!(dk.any_decoupled);
    let launch = LaunchConfig::linear(2, 64, vec![0x10_0000, 200]);
    (Program::new(dk.non_affine.clone(), launch).unwrap(), dk)
}

/// DAC on its own: records and predicates pushed into empty per-warp
/// queues and Data records whose lines arrive open `deq.*` gates, which
/// the SM learns through the coprocessor's reports (debug builds check
/// every class against a fresh classification), and the sleeping SM
/// resumes on the responses behind them.
#[test]
fn dac_queue_events_reach_a_sleeping_sm() {
    for (prog, dk) in [lopsided_affine(), store_loop()] {
        let make = || -> Vec<Box<dyn CoProcessor>> {
            vec![Box::new(Dac::new(DacConfig::paper(), dk.clone()))]
        };
        let rep = sleep_exact(&machine(), &single(prog), &SparseMemory::new(), &make);
        assert!(rep.stats.deq_empty_stalls > 0);
    }
}

/// Warps stream through memory with a stride MTA learns, on a port with
/// few MSHRs: demand loads are refused while the MSHRs hold prefetches,
/// and a prefetch fill frees one without readying any response — the
/// matured fill alone must wake the SM.
#[test]
fn prefetch_fill_wakes_a_refused_lsu() {
    let cfg = GpuConfig {
        mem: MemConfig {
            mshr_entries: 4,
            ..MemConfig::gtx480_with_prefetch_buffer()
        },
        ..machine()
    };
    let rep = sleep_exact(
        &cfg,
        &single(streaming_loop(4, 16)),
        &SparseMemory::new(),
        &|| vec![Box::new(Mta::default())],
    );
    assert!(rep.mem.mshr_full_stalls > 0 && rep.mem.pbuf_fills > 0);
}

/// `p1[i] = p0[i] + 1` over `iters` rows 512 words apart, one row per
/// loop trip: a stride MTA trains on.
fn streaming_loop(warps: u32, iters: u64) -> Program {
    let mut b = KernelBuilder::new("stream", 4);
    let tid = b.tid_linear_x();
    let off = b.alu2(Op::Shl, Operand::Reg(tid), Operand::Imm(2));
    let pa = b.alu2(Op::Add, Operand::Param(0), Operand::Reg(off));
    let pb = b.alu2(Op::Add, Operand::Param(1), Operand::Reg(off));
    let stride = b.alu2(Op::Shl, Operand::Param(3), Operand::Imm(2));
    let i = b.mov(Operand::Imm(0));
    b.label("loop");
    let v = b.ld(Space::Global, pa, 0, Width::W32);
    let v2 = b.alu2(Op::Add, Operand::Reg(v), Operand::Imm(1));
    b.st(Space::Global, pb, 0, Operand::Reg(v2), Width::W32);
    b.alu_into(pa, Op::Add, &[Operand::Reg(pa), Operand::Reg(stride)]);
    b.alu_into(pb, Op::Add, &[Operand::Reg(pb), Operand::Reg(stride)]);
    b.alu_into(i, Op::Add, &[Operand::Reg(i), Operand::Imm(1)]);
    let p = b.setp(CmpOp::Lt, Operand::Reg(i), Operand::Param(2));
    b.bra_if(p, "loop");
    b.exit();
    let launch = LaunchConfig::linear(2, 32 * warps, vec![0x100_0000, 0x200_0000, iters, 512]);
    Program::new(b.build(), launch).unwrap()
}

/// MTA re-evaluates its prefetch degree every `throttle_period` cycles
/// from chip-wide prefetch-buffer counters. With a degree that can move,
/// a short period and a one-set prefetch buffer that evicts unused lines,
/// the degree does move, and a sleeping SM's evaluations must happen on
/// their own cycles: its deadline is a timer.
#[test]
fn throttle_deadline_wakes_a_sleeping_mta_sm() {
    let cfg = GpuConfig {
        mem: MemConfig {
            prefetch_buffer_size: 1024,
            ..MemConfig::gtx480_with_prefetch_buffer()
        },
        ..machine()
    };
    let mta_cfg = MtaConfig {
        max_degree: 4,
        throttle_period: 97,
        ..MtaConfig::default()
    };
    let prog = streaming_loop(8, 64);
    let gpu = GpuSim::new(cfg);
    let run = |tracer: &mut dyn Tracer| {
        let mut mta = Mta::new(mta_cfg);
        let mut mem = SparseMemory::new();
        let report = gpu.run_traced(&prog, &mut mem, &mut mta, tracer);
        (
            report.cycles,
            report.stats,
            report.mem,
            mta.predicted(),
            mta.throttled(),
        )
    };
    let plain = run(&mut NullTracer);
    assert_eq!(plain, run(&mut Ticking));
    assert!(plain.4 > 0, "the throttle never moved the degree");
}

/// `*(p2 + 4 * tid) = value`.
fn store_to_p2(k: &mut KernelBuilder, value: Operand) {
    let tid = k.tid_linear_x();
    let off = k.alu2(Op::Shl, Operand::Reg(tid), Operand::Imm(2));
    let a = k.alu2(Op::Add, Operand::Param(2), Operand::Reg(off));
    k.st(Space::Global, a, 0, value, Width::W32);
}

/// One warp computes for a while, then loads one word. Every partition
/// has been idle since cycle 0, due only after a push, so the load's
/// arrival in its partition's input queue is what makes it due.
#[test]
fn inq_arrival_wakes_an_idle_partition() {
    let mut k = KernelBuilder::new("late_load", 3);
    let r = k.mov(Operand::Imm(1));
    for _ in 0..16 {
        k.alu_into(r, Op::Mul, &[Operand::Reg(r), Operand::Imm(3)]);
    }
    let zero = k.alu2(Op::And, Operand::Reg(r), Operand::Imm(0));
    let a = k.alu2(Op::Add, Operand::Param(1), Operand::Reg(zero));
    let v = k.ld(Space::Global, a, 0, Width::W32);
    let sum = k.alu2(Op::Add, Operand::Reg(v), Operand::Reg(r));
    store_to_p2(&mut k, Operand::Reg(sum));
    k.exit();
    let launch = LaunchConfig::linear(1, 32, vec![0, 0x9000, 0x4000]);
    let prog = Program::new(k.build(), launch).unwrap();
    let mut init = SparseMemory::new();
    init.write_u32_slice(0x9000, &[5]);
    let rep = sleep_exact(&machine(), &single(prog), &init, &baseline);
    assert_eq!(rep.mem.l2_misses, 2, "the load and the store");
}

/// `v = *(p0 + p1 * tid)`, then `*(p2 + 4 * tid) = v`: with `p1` = 48 KiB
/// every lane's line maps to one partition and one DRAM bank, each in a
/// row of its own.
fn same_bank_loads(warps: u32) -> Program {
    let mut k = KernelBuilder::new("same_bank", 3);
    let tid = k.tid_linear_x();
    let off = k.alu2(Op::Mul, Operand::Reg(tid), Operand::Param(1));
    let a = k.alu2(Op::Add, Operand::Param(0), Operand::Reg(off));
    let v = k.ld(Space::Global, a, 0, Width::W32);
    store_to_p2(&mut k, Operand::Reg(v));
    k.exit();
    let launch = LaunchConfig::linear(1, 32 * warps, vec![0x100_0000, 48 * 1024, 0x4000]);
    Program::new(k.build(), launch).unwrap()
}

/// One warp's 32 loads queue in one DRAM bank, each a row miss that
/// keeps the bank busy: after a start, the channel is next due when the
/// bank frees, and the partition when the next read completes — after
/// the last push, nothing else makes it due.
#[test]
fn bank_free_and_completion_wake_a_partition() {
    let rep = sleep_exact(
        &machine(),
        &single(same_bank_loads(1)),
        &SparseMemory::new(),
        &baseline,
    );
    let dram = (rep.mem.dram_serviced, rep.mem.dram_row_misses);
    assert_eq!(dram, (33, 33), "32 loads and the store, each a row miss");
}

/// The same loads from four warps behind a two-entry DRAM queue: the
/// partition's input head finds the queue full, is refused, and is due
/// again only once a start makes room or a fill lands in the L2. Every
/// refused cycle still looks the head up in the L2 and counts a miss, so
/// the cycles it waited are credited as misses when it is next served.
#[test]
fn dram_queue_room_wakes_a_refused_head() {
    let cfg = GpuConfig {
        mem: MemConfig {
            dram_queue: 2,
            ..MemConfig::gtx480()
        },
        ..machine()
    };
    let rep = sleep_exact(
        &cfg,
        &single(same_bank_loads(4)),
        &SparseMemory::new(),
        &baseline,
    );
    assert!(
        rep.mem.l2_misses > 10 * rep.mem.dram_serviced,
        "{:?}",
        rep.mem
    );
}

/// One warp loads one line and waits for it. Once its partition sent the
/// fill, no partition is due: only the port's `incoming` queue is, and
/// the fabric must tick when the fill matures there.
#[test]
fn matured_fill_makes_the_fabric_due() {
    let mut k = KernelBuilder::new("one_load", 3);
    let a = k.mov(Operand::Param(1));
    let v = k.ld(Space::Global, a, 0, Width::W32);
    store_to_p2(&mut k, Operand::Reg(v));
    k.exit();
    let launch = LaunchConfig::linear(1, 32, vec![0, 0x9000, 0x4000]);
    let prog = Program::new(k.build(), launch).unwrap();
    let mut init = SparseMemory::new();
    init.write_u32_slice(0x9000, &[7]);
    let rep = sleep_exact(&machine(), &single(prog), &init, &baseline);
    assert_eq!(rep.mem.l1_misses, 2, "the load and the store");
}

/// Two CTAs, one per SM: warp 0 of each sprays stores over lines of
/// partition 0 while three warps spin in a loop, so each SM keeps ticking
/// with its LSU head refused by the full input queue. While the queue
/// stays full, the fabric answers the retries from its last refusal;
/// once a pop makes room, the next retry must be looked at again, on an
/// awake SM and on one the pop woke (the other SM may fill the queue
/// first).
#[test]
fn queue_pop_reaches_a_refused_client_on_an_awake_sm() {
    let cfg = machine();
    let mut k = KernelBuilder::new("spray_and_spin", 3);
    let lane = k.mov(Operand::Special(SpecialReg::TidX));
    let spin = k.setp(CmpOp::Ge, Operand::Reg(lane), Operand::Imm(32));
    k.bra_if(spin, "spin");
    let tid = k.tid_linear_x();
    let off = k.alu2(Op::Mul, Operand::Reg(tid), Operand::Param(1));
    let a = k.alu2(Op::Add, Operand::Param(0), Operand::Reg(off));
    k.st(Space::Global, a, 0, Operand::Reg(tid), Width::W32);
    k.exit();
    k.label("spin");
    let i = k.mov(Operand::Imm(0));
    k.label("top");
    k.alu_into(i, Op::Add, &[Operand::Reg(i), Operand::Imm(1)]);
    let more = k.setp(CmpOp::Lt, Operand::Reg(i), Operand::Param(2));
    k.bra_if(more, "top");
    k.exit();
    let stride = cfg.mem.line_bytes * cfg.mem.num_partitions as u64;
    let launch = LaunchConfig::linear(2, 128, vec![0x10_0000, stride, 60]);
    let prog = Program::new(k.build(), launch).unwrap();
    let rep = sleep_exact(&cfg, &single(prog), &SparseMemory::new(), &baseline);
    assert!(
        rep.mem.queue_full_stalls > 50,
        "{}",
        rep.mem.queue_full_stalls
    );
}

/// Sixteen four-warp CTAs on two SMs of four CTA slots each: the second
/// wave is placed only by the dispatch round a retire makes due.
#[test]
fn retire_makes_dispatch_due() {
    let mut k = KernelBuilder::new("waves", 1);
    let tid = k.tid_linear_x();
    store_per_thread(&mut k, Operand::Reg(tid));
    k.exit();
    let prog = Program::new(k.build(), LaunchConfig::linear(16, 128, vec![0x4000])).unwrap();
    let rep = sleep_exact(&machine(), &single(prog), &SparseMemory::new(), &baseline);
    assert_eq!(rep.stats.ctas_launched, 16);
}

/// Kernel A, then kernel B, in one stream on two SMs. Each thread of A
/// stores to a line of its own and exits, so A's CTAs retire while their
/// SMs' LSUs still hold most of the stores: after A's last retire, both
/// SMs wait for release until their LSUs drain, which no retire
/// announces — dispatch stays due while they wait.
#[test]
fn waiting_for_release_keeps_dispatch_due() {
    let cfg = machine();
    let mut k = KernelBuilder::new("scatter", 2);
    let tid = k.tid_linear_x();
    let off = k.alu2(Op::Mul, Operand::Reg(tid), Operand::Param(1));
    let a = k.alu2(Op::Add, Operand::Param(0), Operand::Reg(off));
    k.st(Space::Global, a, 0, Operand::Reg(tid), Width::W32);
    k.exit();
    let launch = LaunchConfig::linear(2, 32, vec![0x10_0000, cfg.mem.line_bytes]);
    let scatter = Program::new(k.build(), launch).unwrap();
    let streams = vec![Stream::of(vec![
        StreamLaunch::labelled(scatter, "a"),
        StreamLaunch::labelled(lopsided("b", 0, 0x5000), "b"),
    ])];
    let make = || -> Vec<Box<dyn CoProcessor>> {
        vec![Box::new(NullCoProcessor), Box::new(NullCoProcessor)]
    };
    let rep = sleep_exact(&cfg, &streams, &SparseMemory::new(), &make);
    let (a, b) = (&rep.per_kernel[0], &rep.per_kernel[1]);
    assert!(b.first_cycle > a.done_cycle + 1, "{a:?} {b:?}");
}

/// ST under DAC on two 48-warp SMs: the affine warps' early requests run
/// into the L1 lock budget. A refused one is answered from the fabric's
/// memo until something it was refused on changes — here a demand access
/// that unlocks a line of its SM, with no fill or other request of the SM
/// in between.
#[test]
fn unlock_reaches_a_lock_refused_early_request() {
    let st = gpu_workloads::benchmark("ST", 1).expect("ST is shipped");
    let two_sms = Overrides {
        num_sms: Some(2),
        ..Overrides::default()
    };
    let job = &suite_jobs(vec![st], 1, &[DesignPoint::Hw(Design::Dac)], &two_sms)[0];
    let (plain, traced) = (job.execute(), job.execute_traced(&mut Ticking));
    assert_eq!(plain.report.cycles, traced.report.cycles, "cycles");
    assert_eq!(plain.report.stats, traced.report.stats, "core counters");
    assert_eq!(plain.report.mem, traced.report.mem, "memory counters");
    assert_eq!(plain.output_digest, traced.output_digest, "output");
    assert!(plain.report.mem.lock_budget_stalls > 0);
}

//! The cycle-budget guard must fail with a *diagnosable* report, not a
//! bare "exceeded N cycles": the stalled cycle, each launch's dispatch
//! state and coprocessor, what every SM holds and what its warps wait
//! for, and the depth of every fabric queue and the cycle each fabric
//! unit is next due. Pinned by driving a run into the guard with an
//! artificially tiny budget and inspecting the panic message.

use std::panic::{catch_unwind, AssertUnwindSafe};

use simt_ir::{KernelBuilder, LaunchConfig, Op, Operand, Program, Space, Width};
use simt_mem::SparseMemory;
use simt_sim::{
    CoProcessor, GpuConfig, GpuSim, NullCoProcessor, PlacementPolicy, Stream, StreamLaunch,
};
use simt_trace::NullTracer;

/// Run `prog` under a `budget`-cycle limit it cannot meet and return the
/// guard's panic message.
fn guard_message(prog: &Program, budget: u64) -> String {
    guard_message_of(budget, |gpu| {
        gpu.run(prog, &mut SparseMemory::new());
    })
}

/// Run `run` on the small machine under a `budget`-cycle limit it cannot
/// meet and return the guard's panic message.
fn guard_message_of(budget: u64, run: impl FnOnce(&GpuSim)) -> String {
    let mut cfg = GpuConfig::test_small();
    cfg.max_cycles = budget;
    let gpu = GpuSim::new(cfg);
    let err = catch_unwind(AssertUnwindSafe(|| run(&gpu)))
        .expect_err("the budget must trip the deadlock guard");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("guard panics with a message")
}

/// A two-instruction kernel under a 1-cycle budget (no kernel can finish
/// dispatch + pipeline + retire that fast).
#[test]
fn deadlock_guard_reports_what_each_unit_waits_for() {
    let mut k = KernelBuilder::new("tiny", 0);
    k.mov(Operand::Imm(7));
    k.exit();
    // More warps than the machine has issue slots in one cycle, so the
    // run cannot complete inside the 1-cycle budget.
    let prog = Program::new(k.build(), LaunchConfig::linear(8, 256, vec![])).unwrap();
    let msg = guard_message(&prog, 1);
    for needle in [
        "deadlock",
        "stalled at cycle 1",
        "kernel=tiny",
        "dispatch: k0[4/8 dispatched, 0 retired, coproc=baseline quiescent=true]",
        // test_small: 2 SMs x 16 warp slots, so each SM holds two 8-warp
        // CTAs; in cycle 0 both schedulers issued one `mov` (ALU latency
        // 8), leaving every warp with an unblocked next instruction.
        "sm0: ctas=2 warps[absent=0 barrier=0 scoreboard=0 plain=16 mem=0 deq_empty=0 \
         mem_deq_empty=0 mem_deq_data=0] writeback=2 head=Some(8) lsu=0 idle=false sleep=awake",
        "sm1: ctas=2 warps[",
        "fabric: quiescent=true",
        "partitions (inq/dram-reads/dram-queue@due): 0/0/0@none",
        "sm-ports (incoming/ready/mshr@due): 0/0/0@none 0/0/0@none",
    ] {
        assert!(msg.contains(needle), "report missing {needle:?}:\n{msg}");
    }
    // The counters and wake deadlines that only fast-forward maintained.
    for gone in ["progress=", "wake="] {
        assert!(!msg.contains(gone), "report still has {gone:?}:\n{msg}");
    }
}

/// One warp waits on a DRAM load past a 100-cycle budget. SM 1 never
/// gets a CTA and sleeps from cycle 1 with no timer; SM 0 sleeps once the
/// load has left its LSU, waiting on the fabric — and the report says so,
/// down to the cycle the partition holding the load is next due.
#[test]
fn deadlock_report_shows_which_sms_sleep() {
    let mut k = KernelBuilder::new("wait", 1);
    let a = k.mov(Operand::Param(0));
    let v = k.ld(Space::Global, a, 0, Width::W32);
    k.alu2(Op::Add, Operand::Reg(v), Operand::Imm(1));
    k.exit();
    let prog = Program::new(k.build(), LaunchConfig::linear(1, 32, vec![0x4000])).unwrap();
    let msg = guard_message(&prog, 100);
    for needle in [
        "stalled at cycle 100",
        "sm0: ctas=1 warps[absent=15 barrier=0 scoreboard=1 plain=0",
        "writeback=0 head=None lsu=0 idle=false sleep=since:",
        "sm1: ctas=0 warps[absent=16",
        "lsu=0 idle=true sleep=since:1,timer:none",
        // The load waits in partition 2's DRAM, which is next due when
        // the read completes; no port has an event due.
        "partitions (inq/dram-reads/dram-queue@due): 0/0/0@none 0/0/0@none 0/1/1@202 ",
        "sm-ports (incoming/ready/mshr@due): 0/0/1@none 0/0/0@none",
    ] {
        assert!(msg.contains(needle), "report missing {needle:?}:\n{msg}");
    }
}

/// A coprocessor that never drains, as a stuck one would.
struct Stuck;

impl CoProcessor for Stuck {
    fn name(&self) -> &'static str {
        "stuck"
    }

    fn quiescent(&self) -> bool {
        false
    }
}

/// Two streams, one launch each: the second launch's coprocessor never
/// drains, so the run outlives its budget after both kernels retired. The
/// report names each launch's coprocessor and which one holds the run.
#[test]
fn deadlock_report_names_each_launchs_coprocessor() {
    let mut k = KernelBuilder::new("tiny", 0);
    k.mov(Operand::Imm(7));
    k.exit();
    let prog = Program::new(k.build(), LaunchConfig::linear(1, 32, vec![])).unwrap();
    let streams = [prog.clone(), prog].map(|p| Stream::single(StreamLaunch::new(p)));
    let msg = guard_message_of(1000, |gpu| {
        let (mut first, mut second) = (NullCoProcessor, Stuck);
        let coprocs: Vec<&mut dyn CoProcessor> = vec![&mut first, &mut second];
        let mut mem = SparseMemory::new();
        let policy = PlacementPolicy::Greedy;
        gpu.run_streams_traced(&streams, &mut mem, coprocs, policy, &mut NullTracer);
    });
    for needle in [
        "stalled at cycle 1000",
        "dispatch: k0[1/1 dispatched, 1 retired, coproc=baseline quiescent=true] \
         k1[1/1 dispatched, 1 retired, coproc=stuck quiescent=false]",
        "sm0: ctas=0 warps[",
        "sm1: ctas=0 warps[",
    ] {
        assert!(msg.contains(needle), "report missing {needle:?}:\n{msg}");
    }
}

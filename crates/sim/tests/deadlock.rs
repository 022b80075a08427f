//! The cycle-budget guard must fail with a *diagnosable* report, not a
//! bare "exceeded N cycles": the stalled cycle, per-kernel dispatch
//! state, what every SM holds and what its warps wait for, and the depth
//! of every fabric queue. Pinned by driving a run into the guard with an
//! artificially tiny budget and inspecting the panic message.

use std::panic::{catch_unwind, AssertUnwindSafe};

use simt_ir::{KernelBuilder, LaunchConfig, Operand, Program};
use simt_mem::SparseMemory;
use simt_sim::{GpuConfig, GpuSim};

/// Run a two-instruction kernel under a 1-cycle budget (no kernel can
/// finish dispatch + pipeline + retire that fast) and return the guard's
/// panic message.
fn guard_message() -> String {
    let mut k = KernelBuilder::new("tiny", 0);
    k.mov(Operand::Imm(7));
    k.exit();
    // More warps than the machine has issue slots in one cycle, so the
    // run cannot complete inside the 1-cycle budget.
    let prog = Program::new(k.build(), LaunchConfig::linear(8, 256, vec![])).unwrap();
    let mut cfg = GpuConfig::test_small();
    cfg.max_cycles = 1;
    let gpu = GpuSim::new(cfg);
    let err = catch_unwind(AssertUnwindSafe(|| {
        gpu.run(&prog, &mut SparseMemory::new());
    }))
    .expect_err("a 1-cycle budget must trip the deadlock guard");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("guard panics with a message")
}

#[test]
fn deadlock_guard_reports_what_each_unit_waits_for() {
    let msg = guard_message();
    for needle in [
        "deadlock",
        "stalled at cycle 1",
        "kernel=tiny",
        "dispatch: k0[",
        // test_small: 2 SMs x 16 warp slots, so each SM holds two 8-warp
        // CTAs; in cycle 0 both schedulers issued one `mov` (ALU latency
        // 8), leaving every warp with an unblocked next instruction.
        "sm0: ctas=2 warps[absent=0 barrier=0 scoreboard=0 plain=16 mem=0 gated=0 gated_mem=0] \
         writeback=2 head=Some(8) lsu=0 idle=false",
        "sm1: ctas=2 warps[",
        "fabric: quiescent=true",
        "partitions (inq/dram-reads/dram-queue): 0/0/0",
        "sm-ports (incoming/ready/mshr): 0/0/0 0/0/0",
        "coproc: quiescent=true",
    ] {
        assert!(msg.contains(needle), "report missing {needle:?}:\n{msg}");
    }
    // The counters and wake deadlines that only fast-forward maintained.
    for gone in ["progress=", "wake="] {
        assert!(!msg.contains(gone), "report still has {gone:?}:\n{msg}");
    }
}

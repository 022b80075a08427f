//! The cycle-budget guard must fail with a *diagnosable* report, not a
//! bare "exceeded N cycles": the stalled cycle, per-kernel dispatch
//! state, every SM's progress counter and pending wake deadline, and
//! the fabric's per-partition/per-port progress breakdown. Pinned by
//! driving a run into the guard with an artificially tiny budget and
//! inspecting the panic message.

use std::panic::{catch_unwind, AssertUnwindSafe};

use simt_ir::{KernelBuilder, LaunchConfig, Program};
use simt_mem::SparseMemory;
use simt_sim::{GpuConfig, GpuSim};

/// Run a trivially-exiting kernel under a 1-cycle budget (no kernel can
/// finish dispatch + pipeline + retire that fast) and return the guard's
/// panic message.
fn guard_message() -> String {
    let mut k = KernelBuilder::new("tiny", 0);
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
fn deadlock_guard_reports_unit_progress_and_wakes() {
    let msg = guard_message();
    for needle in [
        "deadlock",
        "stalled at cycle 1",
        "kernel=tiny",
        "dispatch:",
        "sm0: progress=",
        "sm1: progress=",
        "wake=",
        "fabric:",
        "partitions progress:",
        "sm-ports progress:",
    ] {
        assert!(msg.contains(needle), "report missing {needle:?}:\n{msg}");
    }
}

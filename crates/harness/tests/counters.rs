//! The model's counters, pinned in `results/pins/counters.txt`: cycles,
//! warp instructions, decoupled loads and a digest over *every* `SimStats`
//! counter, per design, on the 2-SM × 16-warp machine `simt-fuzz`
//! differentials run on. The workloads are four Table 2 benchmarks (PF for
//! its three `bar.sync`s) and the divergence-stress corpus the fuzzer
//! promoted (`gpu_workloads::divergence_stress`).
//!
//! The digest is what pins the order-sensitive scheduler counters
//! (`stall_scoreboard`, `stall_lsu_full`, `stall_barrier`,
//! `idle_scheduler_cycles`, `deq_*_stalls`, the `slot_*` buckets): they
//! count one event per warp *visited* by a scheduler hunt, so they move
//! if the pick order or the stall classification changes even when the
//! cycle count does not.

#[path = "../../../tests/support/pin.rs"]
mod pin;

use gpu_workloads::{benchmark, divergence_stress};
use simt_harness::{fnv1a64, suite_jobs, DesignPoint, Harness, Overrides};

#[test]
fn counters_match_the_pins() {
    let overrides = Overrides {
        num_sms: Some(2),
        max_warps_per_sm: Some(16),
        ..Overrides::default()
    };
    let mut workloads: Vec<_> = ["MQ", "LIB", "BFS", "PF"]
        .iter()
        .map(|a| benchmark(a, 1).expect("known benchmark"))
        .collect();
    workloads.extend(divergence_stress());
    let jobs = suite_jobs(workloads, 1, &DesignPoint::HW_ALL, &overrides);
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
    let out = Harness::new(workers).run(&jobs);
    let rows = jobs.iter().zip(&out.results).map(|(job, result)| {
        let s = &result.report.stats;
        let all: String = s
            .fields()
            .iter()
            .map(|(name, value)| format!("{name}={value};"))
            .collect();
        format!(
            "{}/{} cycles={} warp_instructions={} decoupled_loads={} stats={:#018x}",
            job.bench(),
            job.point.name(),
            result.report.cycles,
            s.warp_instructions,
            s.decoupled_loads,
            fnv1a64(all.as_bytes())
        )
    });
    pin::check("results/pins/counters.txt", &pin::lines(rows));
}

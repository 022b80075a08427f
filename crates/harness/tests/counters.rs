//! The model's counters, pinned in `results/pins/counters.txt`: cycles,
//! warp instructions, decoupled loads and a digest over *every* `SimStats`
//! counter, per design, on the 2-SM × 16-warp machine `simt-fuzz`
//! differentials run on. The workloads are four Table 2 benchmarks (PF for
//! its three `bar.sync`s), the divergence-stress corpus the fuzzer
//! promoted (`gpu_workloads::divergence_stress`), and the three stream
//! scenarios under both CTA placement policies (rows `SCENARIO.POLICY`).
//!
//! The digest is what pins the order-sensitive scheduler counters
//! (`stall_scoreboard`, `stall_lsu_full`, `stall_barrier`,
//! `idle_scheduler_cycles`, `deq_*_stalls`, the `slot_*` buckets): they
//! count one event per warp *visited* by a scheduler hunt, so they move
//! if the pick order or the stall classification changes even when the
//! cycle count does not. A scenario row adds a digest over its per-kernel
//! reports (placement, residency span and every counter of each launch),
//! which pins the command processor's binding and the per-launch
//! coprocessors of a multi-kernel run.

#[path = "../../../tests/support/pin.rs"]
mod pin;

use gpu_workloads::{all_scenarios, benchmark, divergence_stress};
use simt_harness::{
    fnv1a64, scenario_jobs, suite_jobs, DesignPoint, Harness, Job, JobResult, Overrides,
};
use simt_sim::{PlacementPolicy, SimStats};

/// Every counter of `s`, by name.
fn all_counters(s: &SimStats) -> String {
    s.fields()
        .iter()
        .map(|(name, value)| format!("{name}={value};"))
        .collect()
}

/// The pinned row of one job. A scenario row names its placement policy
/// and adds a digest over its per-kernel reports.
fn row(job: &Job, result: &JobResult) -> String {
    let s = &result.report.stats;
    let mut name = job.bench().to_string();
    let mut kernels = String::new();
    if job.scenario().is_some() {
        name = format!("{name}.{}", job.policy().name());
        let launches: String = result
            .per_kernel
            .iter()
            .map(|k| {
                format!(
                    "{}|{}|{}|{}|{}|{}|{}|{}|{}\n",
                    k.label,
                    k.kernel,
                    k.coproc,
                    k.stream,
                    k.seq,
                    k.ctas,
                    k.first_cycle,
                    k.done_cycle,
                    all_counters(&k.stats)
                )
            })
            .collect();
        kernels = format!(" kernels={:#018x}", fnv1a64(launches.as_bytes()));
    }
    format!(
        "{name}/{} cycles={} warp_instructions={} decoupled_loads={} stats={:#018x}{kernels}",
        job.point.name(),
        result.report.cycles,
        s.warp_instructions,
        s.decoupled_loads,
        fnv1a64(all_counters(s).as_bytes())
    )
}

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
    let mut jobs = suite_jobs(workloads, 1, &DesignPoint::HW_ALL, &overrides);
    for policy in [PlacementPolicy::Greedy, PlacementPolicy::RoundRobin] {
        let overrides = Overrides {
            cta_policy: Some(policy),
            ..overrides.clone()
        };
        jobs.extend(scenario_jobs(
            all_scenarios(1),
            1,
            &DesignPoint::HW_ALL,
            &overrides,
        ));
    }
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
    let out = Harness::new(workers).run(&jobs);
    let rows = jobs
        .iter()
        .zip(&out.results)
        .map(|(job, res)| row(job, res));
    pin::check("results/pins/counters.txt", &pin::lines(rows));
}

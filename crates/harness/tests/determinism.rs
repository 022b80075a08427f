//! The harness's central guarantees, compared as results rather than
//! trusted: `--jobs N` produces byte-identical aggregated results to a
//! serial run, for every N; and a traced run — which ticks every unit on
//! every cycle, so it is the reference for the wake protocol — reports
//! exactly what an untraced run does.

use gpu_workloads::{all_benchmarks, all_scenarios, benchmark, divergence_stress};
use simt_harness::{
    artifact, scenario_jobs, suite_jobs, Design, DesignPoint, Harness, Job, JobResult, Overrides,
};
use simt_sim::PlacementPolicy;
use simt_trace::{TraceEvent, Tracer};

/// A 2-SM machine with `max_warps` warp slots per SM.
fn small(max_warps: Option<usize>) -> Overrides {
    Overrides {
        num_sms: Some(2),
        max_warps_per_sm: max_warps,
        ..Overrides::default()
    }
}

/// The full GTX 480 (15 SMs x 48 warps) spelled out as overrides: the
/// machine every job runs on when neither knob is set.
fn full_chip() -> Overrides {
    Overrides {
        num_sms: Some(15),
        max_warps_per_sm: Some(48),
        ..Overrides::default()
    }
}

fn jobs() -> Vec<Job> {
    // A 2-SM, 16-warp machine keeps 16 simulations affordable in
    // debug-mode CI without changing any code path under test.
    let benches = ["LIB", "MQ", "ST", "BFS"]
        .iter()
        .map(|a| benchmark(a, 1).expect("known benchmark"))
        .collect();
    suite_jobs(benches, 1, &DesignPoint::HW_ALL, &small(Some(16)))
}

/// Serialize results without the per-invocation fields (wall time is the
/// one thing allowed to differ between runs).
fn fingerprint(jobs: &[Job], results: &[simt_harness::JobResult]) -> Vec<u8> {
    let mut out = Vec::new();
    for (job, result) in jobs.iter().zip(results) {
        out.extend_from_slice(
            artifact::to_json(job, result, None, None)
                .to_json()
                .as_bytes(),
        );
        out.push(b'\n');
    }
    out
}

/// An enabled tracer that only counts: a traced run without the cost of
/// keeping events.
#[derive(Default)]
struct CountingTracer(u64);

impl Tracer for CountingTracer {
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&mut self, _cycle: u64, _event: TraceEvent) {
        self.0 += 1;
    }
}

/// Every counter of `r` by name: the chip-wide `SimStats`, each kernel
/// row's `SimStats` and residency span, the `MemStats`, cycles and the
/// output digest.
fn counters(r: &JobResult) -> Vec<(String, u64)> {
    let named = |prefix: &str, fields: Vec<(&'static str, u64)>| {
        let prefix = prefix.to_string();
        fields
            .into_iter()
            .map(move |(f, v)| (format!("{prefix}{f}"), v))
    };
    let mut out = vec![
        ("cycles".to_string(), r.report.cycles),
        ("output_digest".to_string(), r.output_digest),
    ];
    out.extend(named("", r.report.stats.fields()));
    for k in &r.per_kernel {
        out.push((format!("{}.first_cycle", k.label), k.first_cycle));
        out.push((format!("{}.done_cycle", k.label), k.done_cycle));
        out.extend(named(&format!("{}.", k.label), k.stats.fields()));
    }
    out.extend(named("mem.", r.report.mem.fields()));
    out
}

/// Run `job` untraced (units tick only when due) and traced (every unit
/// ticks every cycle); every counter must agree, and the serialized
/// artifacts too.
fn assert_sleep_exact(job: &Job) {
    let plain = job.execute();
    let mut tracer = CountingTracer::default();
    let traced = job.execute_traced(&mut tracer);
    assert!(
        tracer.0 > 0,
        "{}: traced run emitted no events",
        job.label()
    );
    for ((name, a), (_, b)) in counters(&plain).iter().zip(&counters(&traced)) {
        assert_eq!(a, b, "{}: {name} untraced {a}, traced {b}", job.label());
    }
    assert_eq!(
        artifact::to_json(job, &plain, None, None).to_json(),
        artifact::to_json(job, &traced, None, None).to_json(),
        "{}: tracing changed the simulation",
        job.label()
    );
}

/// Tracing is pure observation, and a sleeping unit misses nothing: the
/// untraced run of every workload × design reports exactly what the
/// traced reference does. The tier-1 slice: four workloads from different
/// corners of the suite (streaming, compute, stencil, DAC's irregular
/// worst case) on the small machine, one scenario under each placement
/// policy, and one stress workload. The full set is
/// [`sleep_matches_the_ticking_reference_everywhere`].
#[test]
fn tracing_does_not_perturb_results() {
    let mut set = jobs();
    for policy in [PlacementPolicy::Greedy, PlacementPolicy::RoundRobin] {
        let overrides = Overrides {
            cta_policy: Some(policy),
            ..small(Some(16))
        };
        let scenario = all_scenarios(1).into_iter().take(1).collect();
        set.extend(scenario_jobs(scenario, 1, &DesignPoint::HW_ALL, &overrides));
    }
    let stress = divergence_stress().into_iter().take(1).collect();
    set.extend(suite_jobs(
        stress,
        1,
        &DesignPoint::HW_ALL,
        &small(Some(16)),
    ));
    for job in &set {
        assert_sleep_exact(job);
    }
}

/// The wake-protocol reference over everything shipped: SM sleep, fabric
/// sleep (partitions, DRAM channels and ports ticking only when due, and
/// refused retries answered from the fabric's memo) and dispatch rounds
/// only when due, against a traced run that ticks them all every cycle.
/// The set: the 29 benchmarks × 4 designs on a 2-SM machine and on the
/// full chip, the 29 benchmarks on perfect memory on 2 SMs, the three
/// scenarios × both placement policies and the stress corpus on 2 SMs,
/// the `chip_memory` benchmark set (BFS, SPV, LIB at scale 2) on the
/// full chip, and the 29 benchmarks under DAC on 2 SMs with a one-entry
/// ATQ (the affine warp waits on a full ATQ) and with one PWAQ/PWPQ entry
/// per warp at full occupancy (the expansion units wait on queue room).
/// Minutes in a debug build; CI runs it in release mode
/// (`cargo test --release -p simt-harness --test determinism --
/// --include-ignored`).
#[test]
#[ignore = "the full set: run in release mode"]
fn sleep_matches_the_ticking_reference_everywhere() {
    let mut set = suite_jobs(all_benchmarks(1), 1, &DesignPoint::HW_ALL, &small(None));
    set.extend(suite_jobs(
        all_benchmarks(1),
        1,
        &DesignPoint::HW_ALL,
        &full_chip(),
    ));
    set.extend(suite_jobs(
        all_benchmarks(1),
        1,
        &[DesignPoint::PerfectMem],
        &small(None),
    ));
    for policy in [PlacementPolicy::Greedy, PlacementPolicy::RoundRobin] {
        let overrides = Overrides {
            cta_policy: Some(policy),
            ..small(None)
        };
        set.extend(scenario_jobs(
            all_scenarios(1),
            1,
            &DesignPoint::HW_ALL,
            &overrides,
        ));
    }
    set.extend(suite_jobs(
        divergence_stress(),
        1,
        &DesignPoint::HW_ALL,
        &small(None),
    ));
    let chip_memory = ["BFS", "SPV", "LIB"]
        .iter()
        .map(|a| benchmark(a, 2).expect("known benchmark"))
        .collect();
    set.extend(suite_jobs(
        chip_memory,
        2,
        &DesignPoint::HW_ALL,
        &full_chip(),
    ));
    let blocked = [
        Overrides {
            atq_entries: Some(1),
            ..small(None)
        },
        Overrides {
            pwaq_total: Some(48),
            pwpq_total: Some(48),
            ..small(None)
        },
    ];
    for overrides in &blocked {
        set.extend(suite_jobs(
            all_benchmarks(1),
            1,
            &[DesignPoint::Hw(Design::Dac)],
            overrides,
        ));
    }
    assert_eq!(
        set.len(),
        29 * 4 * 2 + 29 + 3 * 2 * 4 + divergence_stress().len() * 4 + 12 + 29 * 2
    );
    for job in &set {
        assert_sleep_exact(job);
    }
}

#[test]
fn parallel_results_are_byte_identical_to_serial() {
    let jobs = jobs();
    assert_eq!(jobs.len(), 16, "4 workloads x 4 designs");
    let serial = Harness::serial().run(&jobs);
    let bytes = fingerprint(&jobs, &serial.results);
    for workers in [2, 4] {
        let parallel = Harness::new(workers).run(&jobs);
        assert_eq!(
            bytes,
            fingerprint(&jobs, &parallel.results),
            "aggregated results changed with --jobs {workers}"
        );
    }
}

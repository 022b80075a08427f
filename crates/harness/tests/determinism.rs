//! The harness's central guarantee: `--jobs N` produces byte-identical
//! aggregated results to a serial run, for every N. Four workloads from
//! different corners of the suite (streaming, compute, stencil, and DAC's
//! irregular worst case) under all four designs, serialized through the
//! artifact schema and compared as bytes.

use gpu_workloads::benchmark;
use simt_harness::{artifact, suite_jobs, DesignPoint, Harness, Job, Overrides};

fn jobs() -> Vec<Job> {
    let overrides = Overrides {
        // A 2-SM, 16-warp machine keeps 16 simulations affordable in
        // debug-mode CI without changing any code path under test.
        num_sms: Some(2),
        max_warps_per_sm: Some(16),
        ..Overrides::default()
    };
    let benches = ["LIB", "MQ", "ST", "BFS"]
        .iter()
        .map(|a| benchmark(a, 1).expect("known benchmark"))
        .collect();
    suite_jobs(benches, 1, &DesignPoint::HW_ALL, &overrides)
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

/// Tracing is pure observation: with a tracer attached, every workload ×
/// design must produce a byte-identical report (cycles, all counters,
/// memory stats, output digest) to the untraced run — through the same
/// artifact serialization the harness ships. The four workloads drive
/// every scratch-buffer path in the SM loop (reused issue/writeback/LSU
/// buffers).
#[test]
fn tracing_does_not_perturb_results() {
    for job in jobs() {
        let plain = job.execute();
        let mut sink = simt_trace::RingSink::new(1 << 20);
        let traced = job.execute_traced(&mut sink);
        let a = artifact::to_json(&job, &plain, None, None).to_json();
        let b = artifact::to_json(&job, &traced, None, None).to_json();
        assert_eq!(a, b, "{}: tracing changed the simulation", job.label());
        assert!(
            sink.emitted() > 0,
            "{}: traced run emitted no events",
            job.label()
        );
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

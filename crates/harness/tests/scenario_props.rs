//! Property tests for the command processor and multi-kernel streams.
//!
//! Rather than trusting the SM's internal accounting, these tests replay
//! the `CtaLaunch`/`CtaRetire` trace stream against an external model of
//! each SM's static resources (CTA slots, warp slots, shared memory,
//! register file) and assert the occupancy limits hold on every cycle of
//! every scenario × design × placement-policy combination. A second group
//! pins the harness guarantees for scenario jobs: every CTA of every
//! stream launches and retires, and `--jobs N` artifacts are byte-for-byte
//! identical to serial ones.

use dac_core::DacConfig;
use gpu_workloads::{all_scenarios, run_scenario_design, Design, Scenario};
use simt_harness::{artifact, scenario_jobs, DesignPoint, Harness, Job, Overrides};
use simt_sim::{GpuConfig, GpuSim, PlacementPolicy};
use simt_trace::{RingSink, TraceEvent};

/// A 2-SM machine small enough for debug-mode CI but with the stock
/// GTX 480 per-SM limits, so the shared-memory and register-file terms in
/// CTA admission actually bind for the pressure scenarios.
fn small_gpu() -> GpuConfig {
    GpuConfig {
        num_sms: 2,
        max_warps_per_sm: 16,
        ..GpuConfig::gtx480()
    }
}

/// Per-CTA static footprint of each flattened launch, in stream-major
/// order (the same order the simulator numbers kernels).
fn footprints(sc: &Scenario) -> Vec<(u32, u32, u32)> {
    sc.kernels()
        .iter()
        .map(|k| {
            let warps = k.launch.warps_per_cta();
            (
                warps,
                warps * 32 * k.kernel.regs_per_thread as u32,
                k.kernel.shared_bytes,
            )
        })
        .collect()
}

/// Replay the CTA placement events of one traced run against an external
/// occupancy model and return, per kernel, (launched, retired) counts.
fn replay(sc: &Scenario, gpu: &GpuConfig, sink: &RingSink) -> Vec<(u64, u64)> {
    assert_eq!(sink.dropped(), 0, "ring too small, replay would be partial");
    let fp = footprints(sc);
    let mut counts = vec![(0u64, 0u64); fp.len()];
    // Per-SM occupancy: resident CTAs, warps, regs, shared bytes.
    let mut occ = vec![(0usize, 0u32, 0u32, 0u32); gpu.num_sms];
    for ev in sink.events() {
        match ev.event {
            TraceEvent::CtaLaunch { sm, kernel, .. } => {
                let (warps, regs, shared) = fp[kernel as usize];
                let o = &mut occ[sm as usize];
                o.0 += 1;
                o.1 += warps;
                o.2 += regs;
                o.3 += shared;
                assert!(
                    o.0 <= gpu.max_ctas_per_sm,
                    "cycle {}: SM {sm} holds {} CTAs (limit {})",
                    ev.cycle,
                    o.0,
                    gpu.max_ctas_per_sm
                );
                assert!(
                    o.1 <= gpu.max_warps_per_sm as u32,
                    "cycle {}: SM {sm} holds {} warps (limit {})",
                    ev.cycle,
                    o.1,
                    gpu.max_warps_per_sm
                );
                assert!(
                    o.2 <= gpu.regfile_per_sm,
                    "cycle {}: SM {sm} holds {} regs (limit {})",
                    ev.cycle,
                    o.2,
                    gpu.regfile_per_sm
                );
                assert!(
                    o.3 <= gpu.shared_mem_per_sm,
                    "cycle {}: SM {sm} holds {} shared bytes (limit {})",
                    ev.cycle,
                    o.3,
                    gpu.shared_mem_per_sm
                );
                counts[kernel as usize].0 += 1;
            }
            TraceEvent::CtaRetire { sm, kernel, .. } => {
                let (warps, regs, shared) = fp[kernel as usize];
                let o = &mut occ[sm as usize];
                assert!(o.0 > 0, "cycle {}: retire on empty SM {sm}", ev.cycle);
                o.0 -= 1;
                o.1 -= warps;
                o.2 -= regs;
                o.3 -= shared;
                counts[kernel as usize].1 += 1;
            }
            _ => {}
        }
    }
    for (sm, o) in occ.iter().enumerate() {
        assert_eq!(
            *o,
            (0, 0, 0, 0),
            "SM {sm} still holds resources after the run"
        );
    }
    counts
}

/// Replayed against an external occupancy model, no scenario ever places
/// a CTA that would exceed an SM's CTA-slot, warp, register-file, or
/// shared-memory limit — under any design or placement policy — and
/// every resource returns to zero at the end.
#[test]
fn resident_ctas_never_exceed_sm_limits() {
    let gpu = small_gpu();
    for sc in all_scenarios(1) {
        for design in Design::ALL {
            for policy in [PlacementPolicy::Greedy, PlacementPolicy::RoundRobin] {
                let mut sink = RingSink::new(1 << 20);
                let run = run_scenario_design(
                    &sc,
                    design,
                    &GpuSim::new(gpu.clone()),
                    policy,
                    DacConfig::paper(),
                    &mut sink,
                );
                let counts = replay(&sc, &gpu, &sink);
                assert_eq!(counts.len(), run.report.per_kernel.len());
                // The smem/reg pressure scenarios only test something if
                // their fat kernel is actually limited below the 8 CTA
                // slots; the footprint math guarantees that here.
                let (_, regs, shared) = footprints(&sc)[0];
                assert!(
                    regs > 0 || shared > 0 || sc.name == "pipeline",
                    "{}: first kernel declares no static resources",
                    sc.name
                );
            }
        }
    }
}

/// Every CTA of every launch in every stream is placed exactly once and
/// retired exactly once, and the per-kernel artifact stats agree with the
/// trace-replay counts.
#[test]
fn all_ctas_of_all_streams_launch_and_retire() {
    let gpu = small_gpu();
    for sc in all_scenarios(1) {
        let mut sink = RingSink::new(1 << 20);
        let run = run_scenario_design(
            &sc,
            Design::Baseline,
            &GpuSim::new(gpu.clone()),
            PlacementPolicy::Greedy,
            DacConfig::paper(),
            &mut sink,
        );
        let counts = replay(&sc, &gpu, &sink);
        for ((k, sk), (launched, retired)) in
            run.report.per_kernel.iter().zip(sc.kernels()).zip(counts)
        {
            let expect = sk.launch.num_ctas();
            assert_eq!(launched, expect, "{}/{}: launches", sc.name, k.label);
            assert_eq!(retired, expect, "{}/{}: retires", sc.name, k.label);
            assert_eq!(k.ctas, expect, "{}/{}: report", sc.name, k.label);
            assert_eq!(k.stats.ctas_launched, expect);
        }
    }
}

fn scenario_suite() -> Vec<Job> {
    let overrides = Overrides {
        num_sms: Some(2),
        max_warps_per_sm: Some(16),
        ..Overrides::default()
    };
    scenario_jobs(all_scenarios(1), 1, &DesignPoint::HW_ALL, &overrides)
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

/// Multi-stream scenario artifacts — including the `kernels` array — are
/// byte-identical under `--jobs 1` and `--jobs N`.
#[test]
fn scenario_artifacts_byte_identical_across_jobs() {
    let jobs = scenario_suite();
    assert_eq!(jobs.len(), 12, "3 scenarios x 4 designs");
    let serial = Harness::serial().run(&jobs);
    let bytes = fingerprint(&jobs, &serial.results);
    for workers in [2, 4] {
        let parallel = Harness::new(workers).run(&jobs);
        assert_eq!(
            bytes,
            fingerprint(&jobs, &parallel.results),
            "scenario results changed with --jobs {workers}"
        );
    }
}

/// A scenario artifact survives a serialize → parse → deserialize round
/// trip with every per-kernel field intact.
#[test]
fn scenario_artifact_round_trips_through_json() {
    let job = &scenario_suite()[3]; // smem_pressure / dac
    let result = job.execute();
    assert!(!result.per_kernel.is_empty(), "scenario must tag kernels");
    let v = artifact::to_json(job, &result, Some(7), Some("cache-key"));
    let text = v.to_json();
    let parsed = simt_harness::json::parse(&text).expect("artifact must be valid JSON");
    assert_eq!(
        parsed.get("cta_policy").and_then(|p| p.as_str()),
        Some("greedy")
    );
    let (key, back) = artifact::from_json(&parsed).expect("round trip");
    assert_eq!(key, "cache-key");
    assert_eq!(back.report.cycles, result.report.cycles);
    assert_eq!(back.report.stats, result.report.stats);
    assert_eq!(back.output_digest, result.output_digest);
    assert_eq!(back.per_kernel.len(), result.per_kernel.len());
    for (a, b) in back.per_kernel.iter().zip(&result.per_kernel) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.kernel, b.kernel);
        assert_eq!(a.coproc, b.coproc);
        assert_eq!((a.stream, a.seq, a.ctas), (b.stream, b.seq, b.ctas));
        assert_eq!(a.first_cycle, b.first_cycle);
        assert_eq!(a.done_cycle, b.done_cycle);
        assert_eq!(a.stats, b.stats);
    }
}

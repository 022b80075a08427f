//! Every `--set` knob changes exactly the runs its [`KNOBS`] row scopes it
//! to: two legal values give different simulations at each design point in
//! the scope, and the same cache key at every point outside it. A row
//! added without a probe here fails the test. A knob set to its row's
//! default keys as unset.

use simt_harness::knobs::Scope;
use simt_harness::{DesignPoint, Job, Overrides, Payload, PayloadKind, KNOBS};
use std::sync::Arc;

const POINTS: [DesignPoint; 5] = [
    DesignPoint::Hw(gpu_workloads::Design::Baseline),
    DesignPoint::Hw(gpu_workloads::Design::Cae),
    DesignPoint::Hw(gpu_workloads::Design::Mta),
    DesignPoint::Hw(gpu_workloads::Design::Dac),
    DesignPoint::PerfectMem,
];

/// The probe for a knob: the payload it runs on (a benchmark, or a
/// scenario for `cta_policy`) and two legal values that must tell apart.
/// All but the `num_sms` probes run on 2 SMs.
fn probe(knob: &str) -> (PayloadKind, &'static str, [&'static str; 2]) {
    match knob {
        // ST moves under each DAC knob on 2 SMs (LIB does not move without
        // line locking).
        "atq_entries" => (PayloadKind::Bench, "ST", ["24", "4"]),
        "pwaq_total" => (PayloadKind::Bench, "ST", ["192", "48"]),
        "pwpq_total" => (PayloadKind::Bench, "ST", ["192", "48"]),
        "lock_lines" => (PayloadKind::Bench, "ST", ["on", "off"]),
        "num_sms" => (PayloadKind::Bench, "LIB", ["1", "2"]),
        "max_warps_per_sm" => (PayloadKind::Bench, "LIB", ["16", "48"]),
        // The payload selector replaces the probe payload with its value.
        "streams" => (
            PayloadKind::Scenario,
            "pipeline",
            ["pipeline", "reg_pressure"],
        ),
        "cta_policy" => (PayloadKind::Scenario, "pipeline", ["greedy", "rr"]),
        other => panic!("knob {other:?} has no probe: add one"),
    }
}

/// The job `sweep --set KNOB=VALUE` runs for `payload` at `point`: a
/// `streams` value becomes the scenario payload, as the CLIs route it.
fn job(knob: &str, value: &str, payload: &Payload, point: DesignPoint) -> Job {
    let mut overrides = Overrides::default();
    if knob != "num_sms" {
        overrides.num_sms = Some(2);
    }
    overrides.set(knob, value).unwrap();
    let payload = match overrides.streams.take() {
        Some(name) => Payload::Scenario(Arc::new(gpu_workloads::scenario(&name, 1).unwrap())),
        None => payload.clone(),
    };
    Job {
        payload,
        scale: 1,
        point,
        overrides,
    }
}

fn build(kind: PayloadKind, name: &str) -> Payload {
    match kind {
        PayloadKind::Bench => Payload::Bench(Arc::new(gpu_workloads::benchmark(name, 1).unwrap())),
        PayloadKind::Scenario => {
            Payload::Scenario(Arc::new(gpu_workloads::scenario(name, 1).unwrap()))
        }
    }
}

#[test]
fn every_knob_moves_exactly_its_scope() {
    for knob in KNOBS {
        let (kind, name, [a, b]) = probe(knob.name);
        // A bench and a scenario payload, so a knob scoped to one payload
        // kind is checked against the other too.
        let payloads = [
            build(kind, name),
            match kind {
                PayloadKind::Bench => build(PayloadKind::Scenario, "pipeline"),
                PayloadKind::Scenario => build(PayloadKind::Bench, "LIB"),
            },
        ];
        for (i, payload) in payloads.iter().enumerate() {
            for point in POINTS {
                let in_scope = match knob.scope {
                    Scope::Dac => point == DesignPoint::Hw(gpu_workloads::Design::Dac),
                    Scope::Machine | Scope::Payload => true,
                    Scope::Scenario => payload.kind() == PayloadKind::Scenario,
                };
                let (ja, jb) = (
                    job(knob.name, a, payload, point),
                    job(knob.name, b, payload, point),
                );
                let label = format!("{}={a}|{b} at {}", knob.name, ja.label());
                if !in_scope {
                    assert_eq!(
                        ja.cache_key(),
                        jb.cache_key(),
                        "{label}: out of scope, keyed"
                    );
                    continue;
                }
                assert_ne!(
                    ja.cache_key(),
                    jb.cache_key(),
                    "{label}: in scope, not keyed"
                );
                // Simulate the probe payload and any benchmark in scope: a
                // row that claims benchmarks it does not change fails here.
                if i == 0 || payload.kind() == PayloadKind::Bench {
                    let (ra, rb) = (ja.execute(), jb.execute());
                    assert_ne!(
                        (ra.report.cycles, ra.report.stats, ra.report.mem),
                        (rb.report.cycles, rb.report.stats, rb.report.mem),
                        "{label}: in scope, yet the runs are identical"
                    );
                }
            }
        }
    }
}

/// Spelling a default out changes no run, so it keys none: every point of
/// a benchmark and a scenario payload gets the key it gets with the knob
/// unset, and the default is the value every point's configuration holds.
#[test]
fn a_knob_at_its_default_keys_as_unset() {
    let payloads = [
        build(PayloadKind::Bench, "LIB"),
        build(PayloadKind::Scenario, "pipeline"),
    ];
    let mut machines = gpu_workloads::Design::ALL
        .map(gpu_workloads::gpu_for)
        .to_vec();
    machines.push(simt_sim::GpuConfig::gtx480_perfect_mem());
    for knob in KNOBS {
        let Some(default) = knob.default else {
            continue;
        };
        let value = default().to_json();
        let mut set = Overrides::default();
        set.set(knob.name, value.trim_matches('"')).unwrap();
        for payload in &payloads {
            for point in POINTS {
                let unset = Job {
                    payload: payload.clone(),
                    scale: 1,
                    point,
                    overrides: Overrides::default(),
                };
                let spelled = Job {
                    overrides: set.clone(),
                    ..unset.clone()
                };
                let label = format!("{}={value} at {}", knob.name, unset.label());
                assert_eq!(spelled.cache_key(), unset.cache_key(), "{label}");
            }
        }
        let dac = dac_core::DacConfig::paper();
        assert_eq!(set.apply_dac(dac.clone()), dac, "{}", knob.name);
        for gpu in &machines {
            assert_eq!(set.apply_gpu(gpu.clone()), *gpu, "{}", knob.name);
        }
    }
}

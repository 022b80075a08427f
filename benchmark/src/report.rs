//! Metric names and units, and how a run prints itself.
//!
//! The tables here are the benchmark's half of `BENCHMARK.json`; a unit
//! test holds the two together.

use std::collections::BTreeMap;
use std::process::Command;

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the simulator stack sees. Same names on every workload.
pub const END_TO_END: [MetricDef; 7] = [
    def("setup_s", "s", "lower"),
    def("wall_s", "s", "lower"),
    def("points_per_s", "1/s", "higher"),
    def("sim_kcycles_per_s", "kcycle/s", "higher"),
    def("warp_kinstr_per_s", "kinstr/s", "higher"),
    def("slot_ms_p50", "ms", "lower"),
    def("peak_rss_mib", "MiB", "lower"),
];

/// Single layers, from the traced run. A span named `x.y` sums into the
/// metric `x.y_s`; a layer a workload never calls reads 0 there.
pub const PER_LAYER: [MetricDef; 66] = [
    // Host time, by the crate whose public function the span wraps.
    def("workloads.build_s", "s", "lower"),
    def("mem.image_clone_s", "s", "lower"),
    def("mem.readback_s", "s", "lower"),
    def("ir.program_s", "s", "lower"),
    def("affine.analysis_s", "s", "lower"),
    def("affine.decouple_s", "s", "lower"),
    def("sim.new_s", "s", "lower"),
    def("coproc.new_s", "s", "lower"),
    def("sim.run_s", "s", "lower"),
    def("energy.model_s", "s", "lower"),
    def("harness.job_s", "s", "lower"),
    def("harness.cache_key_s", "s", "lower"),
    def("harness.cache_load_s", "s", "lower"),
    def("harness.cache_store_s", "s", "lower"),
    def("harness.artifact_json_s", "s", "lower"),
    def("harness.artifact_write_s", "s", "lower"),
    def("harness.artifact_parse_s", "s", "lower"),
    def("harness.run_overhead_s", "s", "lower"),
    def("serve.start_s", "s", "lower"),
    def("serve.grid_parse_s", "s", "lower"),
    def("serve.grid_jobs_s", "s", "lower"),
    def("serve.submit_s", "s", "lower"),
    def("serve.wait_s", "s", "lower"),
    def("serve.status_json_s", "s", "lower"),
    def("serve.metrics_json_s", "s", "lower"),
    def("serve.shutdown_s", "s", "lower"),
    def("serve.http_s", "s", "lower"),
    def("serve.http_get_run_s", "s", "lower"),
    def("serve.http_overhead_s", "s", "lower"),
    def("bench.driver_self_s", "s", "lower"),
    // Host cost per simulated cycle, by design, and knob ratios.
    def("sim.ns_per_cycle.baseline", "ns/cycle", "lower"),
    def("sim.ns_per_cycle.cae", "ns/cycle", "lower"),
    def("sim.ns_per_cycle.mta", "ns/cycle", "lower"),
    def("sim.ns_per_cycle.dac", "ns/cycle", "lower"),
    def("sim.ns_per_cycle.perfect", "ns/cycle", "lower"),
    def("sim.ff_off_ratio", "ratio", "lower"),
    def("trace.ring_run_ratio", "ratio", "lower"),
    def("profile.sink_run_ratio", "ratio", "lower"),
    // The slowest slot's minimum: the straggler that bounds a `--jobs N`
    // sweep. One slot's minimum over a handful of passes spreads 6-12 %
    // between runs even on a quiet host, too much to hold to a bound.
    def("slot_ms_max", "ms", "lower"),
    // Validity of the run itself.
    def("bench.trace_overhead_ratio", "ratio", "lower"),
    def("bench.layer_sum_ratio", "ratio", "higher"),
    def("host.noise_ratio", "ratio", "lower"),
    def("host.steal_share", "ratio", "lower"),
    // Exact counts from the results of one pass: equal on two commits
    // unless the model changed.
    def("sim.cycles", "count", "lower"),
    def("sim.warp_instructions", "count", "lower"),
    def("sim.slot_issued", "count", "higher"),
    def("sim.slot_idle", "count", "lower"),
    def("sim.slot_scoreboard", "count", "lower"),
    def("sim.slot_lsu_full", "count", "lower"),
    def("mem.l1_hits", "count", "higher"),
    def("mem.l1_misses", "count", "lower"),
    def("mem.l2_hits", "count", "higher"),
    def("mem.l2_misses", "count", "lower"),
    def("mem.dram_row_hits", "count", "higher"),
    def("mem.dram_serviced", "count", "lower"),
    def("core.decoupled_loads", "count", "higher"),
    def("core.affine_instructions", "count", "higher"),
    def("baselines.cae_affine_instructions", "count", "higher"),
    def("baselines.mta_prefetches_issued", "count", "higher"),
    def("harness.cache_hits", "count", "higher"),
    def("harness.cache_misses", "count", "lower"),
    def("serve.points_executed", "count", "lower"),
    def("serve.points_store_served", "count", "higher"),
    def("serve.http_requests", "count", "lower"),
    def("model.dac_speedup_geomean", "ratio", "higher"),
    def("model.mta_mem_speedup_geomean", "ratio", "higher"),
];

/// The per-layer metric a span name sums into.
pub fn span_metric(span_name: &str) -> String {
    if span_name == "slot" {
        "bench.driver_self_s".to_string()
    } else {
        format!("{span_name}_s")
    }
}

/// A finished run: the contract's four keys plus the context lines.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(MetricDef, f64)>,
    /// Context printed before the metrics (`key: value`).
    pub info: Vec<(&'static str, String)>,
    /// Reasons of the failed checks (at most a few are printed).
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result object: exactly `correct`, `attempted`, `failed`,
    /// `metrics`, values with all their digits.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(def, value)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    def.name, def.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Everything a reader needs to judge the run, then the result line.
    pub fn print(&self) {
        for (key, value) in &self.info {
            println!("{key}: {value}");
        }
        for (def, value) in &self.metrics {
            println!(
                "  {:<36} {value:>16.6} {:<9} ({} is better)",
                def.name, def.unit, def.better
            );
        }
        for reason in self.failures.iter().take(10) {
            println!("FAILED: {reason}");
        }
        println!("{}", self.result_json());
    }
}

/// Host and toolchain context, so that a run taken on a contaminated or
/// different host is recognisable from its own output.
pub fn host_info() -> Vec<(&'static str, String)> {
    let run = |program: &str, args: &[&str]| -> String {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("host_cpus", cpus.to_string()),
        ("commit", run("git", &["rev-parse", "HEAD"])),
        ("rustc", run("rustc", &["-V"])),
    ]
}

/// `(steal, total)` CPU time of the whole machine so far, in clock ticks
/// from the first line of `/proc/stat`. Steal is time the hypervisor ran
/// something else while a virtual CPU of this machine wanted to run.
pub fn machine_cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// `VmHWM` of this process in MiB (0 where `/proc` is not available).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Pick the table's metrics out of `values`, in table order; a metric a
/// workload does not measure reads 0.
pub fn in_table_order(defs: &[MetricDef], values: &BTreeMap<String, f64>) -> Vec<(MetricDef, f64)> {
    defs.iter()
        .map(|d| (*d, values.get(d.name).copied().unwrap_or(0.0)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Workload, NOMINAL_SECONDS};
    use simt_harness::json::{self, Value};

    fn manifest() -> Value {
        json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn check_table(section: &Value, defs: &[MetricDef], bounded: bool) {
        let listed = section.as_arr().unwrap();
        assert_eq!(listed.len(), defs.len());
        for (entry, d) in listed.iter().zip(defs) {
            assert_eq!(entry.get("name").and_then(Value::as_str), Some(d.name));
            assert_eq!(
                entry.get("unit").and_then(Value::as_str),
                Some(d.unit),
                "{}",
                d.name
            );
            assert_eq!(
                entry.get("better").and_then(Value::as_str),
                Some(d.better),
                "{}",
                d.name
            );
            assert_eq!(entry.get("bound").is_some(), bounded, "{}", d.name);
        }
    }

    #[test]
    fn benchmark_json_names_what_the_program_prints() {
        let m = manifest();
        check_table(m.get("end_to_end").unwrap(), &END_TO_END, true);
        check_table(m.get("per_layer").unwrap(), &PER_LAYER, false);
        let workloads: Vec<&str> = m
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, expected);
        assert_eq!(
            m.get("run_seconds").and_then(Value::as_u64),
            Some(NOMINAL_SECONDS as u64)
        );
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|d| d.name)
            .collect();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(matches!(d.better, "lower" | "higher"));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let outcome = Outcome {
            attempted: 24,
            failed: 0,
            metrics: vec![(END_TO_END[1], 1.25), (END_TO_END[0], f64::NAN)],
            info: Vec::new(),
            failures: Vec::new(),
        };
        let parsed = json::parse(&outcome.result_json()).unwrap();
        let keys: Vec<&str> = parsed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct").and_then(Value::as_bool), Some(true));
        let wall = parsed.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(Value::as_f64), Some(1.25));
        assert_eq!(wall.get("unit").and_then(Value::as_str), Some("s"));
    }
}

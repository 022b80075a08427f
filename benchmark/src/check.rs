//! `--check DIR_A DIR_B`: compare two sets of run outputs against the
//! bounds in `BENCHMARK.json`.
//!
//! A set is a directory of files written by `--out` (or saved standard
//! output): the workload is the file name up to its first `.`, the result
//! is the JSON object on the last line. Every workload × metric that both
//! sets hold gets one row with both medians, each set's own spread and
//! the relative difference; B worse than A by more than the bound is a
//! breach. Counts are reported as equal or changed.

use crate::estimate::{iqr_spread, median};
use simt_harness::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Direction, unit and (for end-to-end metrics) bound of every metric.
pub struct Rules {
    metrics: BTreeMap<String, Rule>,
}

struct Rule {
    higher_is_better: bool,
    is_count: bool,
    bound: Option<f64>,
}

impl Rules {
    pub fn from_manifest(manifest: &Value) -> Result<Rules, String> {
        let mut metrics = BTreeMap::new();
        for section in ["end_to_end", "per_layer"] {
            let entries = manifest
                .get(section)
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: missing {section}"))?;
            for entry in entries {
                let text = |key: &str| {
                    entry
                        .get(key)
                        .and_then(Value::as_str)
                        .ok_or_else(|| format!("BENCHMARK.json: {section} entry without {key}"))
                };
                metrics.insert(
                    text("name")?.to_string(),
                    Rule {
                        higher_is_better: text("better")? == "higher",
                        is_count: text("unit")? == "count",
                        bound: entry.get("bound").and_then(Value::as_f64),
                    },
                );
            }
        }
        Ok(Rules { metrics })
    }
}

/// workload → metric → one value per run.
pub type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Add one run's result line to a set. A run that reported itself
/// incorrect is an error: its numbers mean nothing.
pub fn add_run(set: &mut RunSet, workload: &str, result_line: &str) -> Result<(), String> {
    let result = json::parse(result_line)?;
    if result.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err("the run did not report correct: true".to_string());
    }
    let metrics = result
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("result has no metrics object")?;
    let by_metric = set.entry(workload.to_string()).or_default();
    for (name, entry) in metrics {
        let value = entry
            .get("value")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("metric {name} has no numeric value"))?;
        by_metric.entry(name.clone()).or_default().push(value);
    }
    Ok(())
}

fn load_set(dir: &Path) -> Result<RunSet, String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    let mut set = RunSet::new();
    for path in paths.iter().filter(|p| p.is_file()) {
        let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let file = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        let workload = file.split('.').next().unwrap_or_default();
        let line = text.lines().rev().find(|l| !l.trim().is_empty());
        let line = line.ok_or_else(|| format!("{}: empty file", path.display()))?;
        add_run(&mut set, workload, line).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if set.is_empty() {
        return Err(format!("{}: no run outputs", dir.display()));
    }
    Ok(set)
}

pub struct CheckReport {
    pub text: String,
    pub breaches: usize,
}

/// Compare set B against set A (the reference).
pub fn check(rules: &Rules, a: &RunSet, b: &RunSet) -> CheckReport {
    let mut text = String::new();
    let mut breaches = 0;
    let _ = writeln!(
        text,
        "{:<13} {:<34} {:>14} {:>7} {:>14} {:>7} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "iqr A", "median B", "iqr B", "B vs A", "bound"
    );
    for (workload, metrics_a) in a {
        let Some(metrics_b) = b.get(workload) else {
            continue;
        };
        for (metric, values_a) in metrics_a {
            let (Some(values_b), Some(rule)) = (metrics_b.get(metric), rules.metrics.get(metric))
            else {
                continue;
            };
            let (med_a, med_b) = (median(values_a), median(values_b));
            let change = if med_a != 0.0 {
                (med_b - med_a) / med_a.abs()
            } else if med_b == 0.0 {
                0.0
            } else {
                f64::INFINITY
            };
            let worsening = if rule.higher_is_better {
                -change
            } else {
                change
            };
            let (bound, verdict) = match rule.bound {
                Some(bound) if worsening > bound => {
                    breaches += 1;
                    (format!("{:.1}%", bound * 100.0), "BREACH")
                }
                Some(bound) => (format!("{:.1}%", bound * 100.0), "ok"),
                None if rule.is_count && med_a == med_b => ("-".to_string(), "equal"),
                None if rule.is_count => ("-".to_string(), "changed"),
                None => ("-".to_string(), "-"),
            };
            let _ = writeln!(
                text,
                "{workload:<13} {metric:<34} {med_a:>14.6} {:>6.2}% {med_b:>14.6} {:>6.2}% {:>+7.2}% {bound:>6}  {verdict}",
                iqr_spread(values_a) * 100.0,
                iqr_spread(values_b) * 100.0,
                change * 100.0,
            );
        }
    }
    let _ = writeln!(text, "{breaches} breach(es)");
    CheckReport { text, breaches }
}

pub fn check_dirs(a: &Path, b: &Path) -> Result<CheckReport, String> {
    let manifest = fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let rules = Rules::from_manifest(&json::parse(&manifest)?)?;
    Ok(check(&rules, &load_set(a)?, &load_set(b)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules() -> Rules {
        let manifest = json::parse(
            r#"{"end_to_end": [
                 {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.04},
                 {"name": "points_per_s", "unit": "1/s", "better": "higher", "bound": 0.04}],
                "per_layer": [
                 {"name": "sim.cycles", "unit": "count", "better": "lower"}]}"#,
        )
        .unwrap();
        Rules::from_manifest(&manifest).unwrap()
    }

    #[test]
    fn the_repository_manifest_loads() {
        let manifest = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let rules = Rules::from_manifest(&manifest).unwrap();
        assert!(rules.metrics["setup_s"].bound.is_some());
        assert!(rules.metrics["sim.cycles"].is_count);
    }

    fn set(runs: &[(f64, f64, f64)]) -> RunSet {
        let mut set = RunSet::new();
        for (wall, rate, cycles) in runs {
            let line = format!(
                "{{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {{\
                 \"wall_s\": {{\"value\": {wall}, \"unit\": \"s\"}}, \
                 \"points_per_s\": {{\"value\": {rate}, \"unit\": \"1/s\"}}, \
                 \"sim.cycles\": {{\"value\": {cycles}, \"unit\": \"count\"}}}}}}"
            );
            add_run(&mut set, "chip_compute", &line).unwrap();
        }
        set
    }

    #[test]
    fn a_pair_within_the_bounds_passes() {
        let a = set(&[(3.00, 4.00, 1e6), (3.02, 3.98, 1e6), (2.99, 4.01, 1e6)]);
        let b = set(&[(3.03, 3.96, 1e6), (3.01, 3.99, 1e6), (3.05, 3.95, 1e6)]);
        let report = check(&rules(), &a, &b);
        assert_eq!(report.breaches, 0, "{}", report.text);
        assert!(report.text.contains("equal"));
        assert!(!report.text.contains("BREACH"));
    }

    #[test]
    fn worsening_beyond_the_bound_breaches_in_either_direction() {
        let a = set(&[(3.0, 4.0, 1e6), (3.0, 4.0, 1e6)]);
        // wall_s up 10 % (lower is better), points_per_s down 10 % (higher
        // is better), and the simulated cycle count moved.
        let b = set(&[(3.3, 3.6, 1.1e6), (3.3, 3.6, 1.1e6)]);
        let report = check(&rules(), &a, &b);
        assert_eq!(report.breaches, 2, "{}", report.text);
        assert!(report.text.contains("changed"));
        // The same change in the good direction is no breach.
        let report = check(&rules(), &b, &a);
        assert_eq!(report.breaches, 0, "{}", report.text);
    }

    #[test]
    fn an_incorrect_run_is_refused() {
        let mut set = RunSet::new();
        let line = "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}";
        assert!(add_run(&mut set, "chip_compute", line).is_err());
    }
}

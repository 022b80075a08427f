//! The artifact schema: hand-rolled (de)serialization between
//! [`JobResult`]s and the JSON records stored in `results/runs/*.jsonl`
//! and `results/cache/*.json`.
//!
//! One record per simulation, one JSON object per line:
//!
//! ```json
//! {"schema":"dac-run/v1","bench":"LIB","name":"LIBOR Monte Carlo",
//!  "suite":"G","scale":1,"design":"dac","overrides":{"atq_entries":24},
//!  "kernel":"lib","coproc":"dac","cycles":81234,
//!  "stats":{"cycles":81234,"warp_instructions":...},
//!  "mem":{"l1_hits":...},"energy":{"alu":...,"total":...},
//!  "output_digest":"89abcdef01234567","job":3,"wall_ms":412.7,
//!  "cached":false}
//! ```
//!
//! Counter names inside `stats`/`mem` come from `SimStats::fields` /
//! `MemStats::fields` and are part of the schema. Cache entries are the
//! same record with a `"key"` field (the canonical [`Job::cache_key`]) and
//! without the per-invocation `job`/`wall_ms`/`cached` fields.

use crate::job::{DesignPoint, Job, JobResult, Overrides};
use crate::json::Value;
use gpu_energy::{energy_of, EnergyModel};
use simt_mem::MemStats;
use simt_sim::{KernelReport, SimReport, SimStats};

/// Schema tag on every record; loaders reject anything else.
pub const SCHEMA: &str = "dac-run/v1";

/// The overrides relevant at `point`, as a typed JSON object.
fn overrides_to_json(o: &Overrides, point: DesignPoint) -> Value {
    Value::Obj(o.relevant(point).map(|(k, v)| (k.to_string(), v)).collect())
}

fn counters_to_json(fields: Vec<(&'static str, u64)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), Value::Int(v)))
            .collect(),
    )
}

/// Derived profiling view attached to every record: top-down issue-slot
/// fractions plus cache and DRAM hit rates. Purely a function of the raw
/// `stats`/`mem` counters — [`from_json`] ignores it, so old readers and
/// the cache loader are unaffected.
fn profile_to_json(report: &SimReport) -> Value {
    let total = report.stats.issue_slots_total();
    let frac = |v: u64| {
        if total == 0 {
            0.0
        } else {
            v as f64 / total as f64
        }
    };
    let stack = report
        .stats
        .issue_slot_buckets()
        .into_iter()
        .map(|(k, v)| (k.to_string(), Value::Float(frac(v))))
        .collect();
    Value::Obj(vec![
        ("issue_slots".into(), Value::Int(total)),
        ("cpi_stack".into(), Value::Obj(stack)),
        ("l1_hit_rate".into(), Value::Float(report.mem.l1_hit_rate())),
        ("l2_hit_rate".into(), Value::Float(report.mem.l2_hit_rate())),
        (
            "dram_row_hit_rate".into(),
            Value::Float(report.mem.row_hit_rate()),
        ),
    ])
}

/// One per-kernel attribution record of a scenario run. `stats.cycles`
/// is the kernel's residency span (first CTA launch to last retire), not
/// the chip-wide cycle count.
fn kernel_to_json(k: &KernelReport) -> Value {
    Value::Obj(vec![
        ("label".into(), Value::Str(k.label.clone())),
        ("kernel".into(), Value::Str(k.kernel.clone())),
        ("coproc".into(), Value::Str(k.coproc.clone())),
        ("stream".into(), Value::Int(k.stream as u64)),
        ("seq".into(), Value::Int(k.seq as u64)),
        ("ctas".into(), Value::Int(k.ctas)),
        ("first_cycle".into(), Value::Int(k.first_cycle)),
        ("done_cycle".into(), Value::Int(k.done_cycle)),
        ("stats".into(), counters_to_json(k.stats.fields())),
    ])
}

fn kernel_from_json(v: &Value) -> Result<KernelReport, String> {
    let str_field = |name: &str| -> Result<String, String> {
        Ok(v.get(name)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("kernels[]: missing field {name:?}"))?
            .to_string())
    };
    let int_field = |name: &str| -> Result<u64, String> {
        v.get(name)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("kernels[]: missing field {name:?}"))
    };
    let mut stats = SimStats::default();
    for (name, val) in v
        .get("stats")
        .and_then(Value::as_obj)
        .ok_or("kernels[]: missing field \"stats\"")?
    {
        let n = val
            .as_u64()
            .ok_or_else(|| format!("kernels[].stats.{name} not a u64"))?;
        if !stats.set_field(name, n) {
            return Err(format!("unknown stats counter {name:?}"));
        }
    }
    Ok(KernelReport {
        label: str_field("label")?,
        kernel: str_field("kernel")?,
        coproc: str_field("coproc")?,
        stream: int_field("stream")? as usize,
        seq: int_field("seq")? as usize,
        ctas: int_field("ctas")?,
        first_cycle: int_field("first_cycle")?,
        done_cycle: int_field("done_cycle")?,
        stats,
    })
}

/// Serialize one result. `invocation` attaches the per-invocation fields
/// (job index within this run, wall time, cache-hit flag) used in run
/// artifacts but omitted from cache entries; `cache_key` attaches the
/// canonical key used in cache entries.
pub fn to_json(
    job: &Job,
    result: &JobResult,
    invocation: Option<usize>,
    cache_key: Option<&str>,
) -> Value {
    let energy = energy_of(&result.report, &EnergyModel::gtx480());
    let mut fields = vec![("schema".to_string(), Value::Str(SCHEMA.into()))];
    if let Some(key) = cache_key {
        fields.push(("key".into(), Value::Str(key.into())));
    }
    fields.extend([
        ("bench".to_string(), Value::Str(job.bench().into())),
        ("name".to_string(), Value::Str(job.display_name().into())),
        ("suite".to_string(), Value::Str(job.suite_tag().to_string())),
        ("scale".to_string(), Value::Int(job.scale as u64)),
        ("design".to_string(), Value::Str(job.point.name().into())),
        (
            "overrides".to_string(),
            overrides_to_json(&job.overrides, job.point),
        ),
        (
            "kernel".to_string(),
            Value::Str(result.report.kernel.clone()),
        ),
        (
            "coproc".to_string(),
            Value::Str(result.report.coproc.clone()),
        ),
        ("cycles".to_string(), Value::Int(result.report.cycles)),
        (
            "stats".to_string(),
            counters_to_json(result.report.stats.fields()),
        ),
        (
            "mem".to_string(),
            counters_to_json(result.report.mem.fields()),
        ),
        ("profile".to_string(), profile_to_json(&result.report)),
        (
            "energy".to_string(),
            Value::Obj(vec![
                ("alu".into(), Value::Float(energy.alu)),
                ("regfile".into(), Value::Float(energy.regfile)),
                ("other_dynamic".into(), Value::Float(energy.other_dynamic)),
                ("dac_overhead".into(), Value::Float(energy.dac_overhead)),
                ("static".into(), Value::Float(energy.static_)),
                ("total".into(), Value::Float(energy.total())),
            ]),
        ),
        (
            "output_digest".to_string(),
            Value::Str(format!("{:016x}", result.output_digest)),
        ),
    ]);
    if job.scenario().is_some() {
        for (k, v) in job.overrides.scenario_values() {
            fields.push((k.into(), Value::Str(v.into())));
        }
    }
    if !result.per_kernel.is_empty() {
        fields.push((
            "kernels".into(),
            Value::Arr(result.per_kernel.iter().map(kernel_to_json).collect()),
        ));
    }
    if let Some(index) = invocation {
        fields.push(("job".into(), Value::Int(index as u64)));
        fields.push(("wall_ms".into(), Value::Float(result.wall_ms)));
        fields.push(("cached".into(), Value::Bool(result.cached)));
    }
    Value::Obj(fields)
}

/// Re-hydrate a result from a stored record. Returns the record's `"key"`
/// field (empty for run artifacts) alongside the result; rejects unknown
/// schemas and unknown counter names so stale caches read as misses.
pub fn from_json(v: &Value) -> Result<(String, JobResult), String> {
    if v.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(format!(
            "unknown artifact schema {:?}",
            v.get("schema").and_then(Value::as_str)
        ));
    }
    let key = v
        .get("key")
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string();
    let str_field = |name: &str| -> Result<String, String> {
        Ok(v.get(name)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("missing field {name:?}"))?
            .to_string())
    };
    let cycles = v
        .get("cycles")
        .and_then(Value::as_u64)
        .ok_or("missing field \"cycles\"")?;

    let mut stats = SimStats::default();
    for (name, val) in v
        .get("stats")
        .and_then(Value::as_obj)
        .ok_or("missing field \"stats\"")?
    {
        let n = val
            .as_u64()
            .ok_or_else(|| format!("stats.{name} not a u64"))?;
        if !stats.set_field(name, n) {
            return Err(format!("unknown stats counter {name:?}"));
        }
    }
    let mut mem = MemStats::default();
    for (name, val) in v
        .get("mem")
        .and_then(Value::as_obj)
        .ok_or("missing field \"mem\"")?
    {
        let n = val
            .as_u64()
            .ok_or_else(|| format!("mem.{name} not a u64"))?;
        if !mem.set_field(name, n) {
            return Err(format!("unknown mem counter {name:?}"));
        }
    }
    let digest = u64::from_str_radix(&str_field("output_digest")?, 16)
        .map_err(|e| format!("bad output_digest: {e}"))?;
    let per_kernel = match v.get("kernels").and_then(Value::as_arr) {
        None => Vec::new(),
        Some(items) => items
            .iter()
            .map(kernel_from_json)
            .collect::<Result<Vec<_>, _>>()?,
    };

    Ok((
        key,
        JobResult {
            report: SimReport {
                kernel: str_field("kernel")?,
                coproc: str_field("coproc")?,
                cycles,
                stats,
                mem,
            },
            per_kernel,
            output_digest: digest,
            wall_ms: 0.0,
            cached: true,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use gpu_workloads::{benchmark, Design};
    use std::sync::Arc;

    fn small_job(point: DesignPoint) -> Job {
        let mut job = Job::new(Arc::new(benchmark("LIB", 1).unwrap()), 1, point);
        job.overrides.num_sms = Some(2);
        job.overrides.max_warps_per_sm = Some(16);
        job
    }

    #[test]
    fn record_roundtrips_exactly() {
        let job = small_job(DesignPoint::Hw(Design::Dac));
        let result = job.execute();
        let key = job.cache_key();
        let text = to_json(&job, &result, None, Some(&key)).to_json();
        let (loaded_key, loaded) = from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(loaded_key, key);
        assert_eq!(loaded.report.cycles, result.report.cycles);
        assert_eq!(loaded.report.stats, result.report.stats);
        assert_eq!(loaded.report.mem, result.report.mem);
        assert_eq!(loaded.report.kernel, result.report.kernel);
        assert_eq!(loaded.report.coproc, result.report.coproc);
        assert_eq!(loaded.output_digest, result.output_digest);
        assert!(loaded.cached);
    }

    #[test]
    fn run_record_carries_invocation_fields() {
        let job = small_job(DesignPoint::Hw(Design::Baseline));
        let result = job.execute();
        let v = to_json(&job, &result, Some(7), None);
        assert_eq!(v.get("job").and_then(Value::as_u64), Some(7));
        assert!(v.get("wall_ms").and_then(Value::as_f64).is_some());
        assert_eq!(v.get("cached").and_then(Value::as_bool), Some(false));
        assert!(v.get("key").is_none());
        // Still loadable (key comes back empty).
        let (key, _) = from_json(&v).unwrap();
        assert!(key.is_empty());
    }

    #[test]
    fn profile_section_is_derived_and_loader_safe() {
        let job = small_job(DesignPoint::Hw(Design::Baseline));
        let result = job.execute();
        let v = to_json(&job, &result, None, None);
        let profile = v.get("profile").expect("profile section present");
        let slots = profile
            .get("issue_slots")
            .and_then(Value::as_u64)
            .expect("issue_slots");
        assert_eq!(slots, result.report.stats.issue_slots_total());
        let stack = profile
            .get("cpi_stack")
            .and_then(Value::as_obj)
            .expect("cpi_stack");
        let sum: f64 = stack.iter().filter_map(|(_, v)| v.as_f64()).sum();
        assert!((sum - 1.0).abs() < 1e-9, "fractions sum to 1, got {sum}");
        assert!(profile.get("l1_hit_rate").and_then(Value::as_f64).is_some());
        // The loader ignores the derived section entirely.
        let (_, loaded) = from_json(&v).unwrap();
        assert_eq!(loaded.report.stats, result.report.stats);
    }

    #[test]
    fn unknown_schema_and_counters_rejected() {
        let job = small_job(DesignPoint::PerfectMem);
        let result = job.execute();
        let mut v = to_json(&job, &result, None, None);
        if let Value::Obj(fields) = &mut v {
            fields[0].1 = Value::Str("dac-run/v999".into());
        }
        assert!(from_json(&v).is_err());

        let mut v2 = to_json(&job, &result, None, None);
        if let Value::Obj(fields) = &mut v2 {
            for (k, val) in fields.iter_mut() {
                if k == "stats" {
                    if let Value::Obj(stats) = val {
                        stats.push(("warp_speed".into(), Value::Int(9)));
                    }
                }
            }
        }
        assert!(from_json(&v2).is_err());
    }
}

//! Design-space grid requests: the unit of submission to the sweep
//! service.
//!
//! A grid is `workloads × designs × configuration` (plus optional
//! multi-kernel scenarios), exactly the cross product the CLI `sweep`
//! binary runs — but expressed as data so it can arrive over the wire,
//! persist in a manifest, and canonicalize to a stable identity. Every
//! point of a grid lowers to an ordinary harness [`Job`], so its cache
//! key (and therefore its result) is **identical** to what the CLI
//! computes: the daemon and one-shot sweeps share one result store.

use simt_harness::job::MAX_SCALE;
use simt_harness::{fnv1a64, json, scenario_jobs, suite_jobs, DesignPoint, Job, Overrides};

/// A parsed, validated grid request.
#[derive(Debug, Clone)]
pub struct GridRequest {
    /// Benchmark abbreviations (Table 2), upper-cased, in request order.
    pub benches: Vec<String>,
    /// Multi-kernel scenario names, lower-cased, in request order.
    pub scenarios: Vec<String>,
    /// Design points to run each workload under.
    pub designs: Vec<DesignPoint>,
    /// Workload scale factor.
    pub scale: u32,
    /// Configuration overrides applied to every point.
    pub overrides: Overrides,
    /// The override knobs exactly as submitted (`key=value` string pairs
    /// accepted by [`Overrides::set`]) — kept so manifests round-trip the
    /// request without a reverse serializer for every knob.
    pub override_pairs: Vec<(String, String)>,
}

impl GridRequest {
    /// Parse a request from its JSON form:
    ///
    /// ```json
    /// {"benches": ["LIB", "MQ"], "designs": ["baseline", "dac"],
    ///  "scale": 1, "overrides": {"num_sms": 2, "max_warps_per_sm": 16},
    ///  "scenarios": ["pipeline"]}
    /// ```
    ///
    /// Every field is optional except that at least one workload (bench or
    /// scenario) must be named; `designs` defaults to the four hardware
    /// designs. Unknown benchmarks, scenarios, designs, and override knobs
    /// are rejected with the list of valid names — a daemon must turn a
    /// bad request into a 400, never into a panic.
    pub fn from_json(v: &json::Value) -> Result<GridRequest, String> {
        if v.as_obj().is_none() {
            return Err("request body must be a JSON object".into());
        }
        let mut req = GridRequest {
            benches: Vec::new(),
            scenarios: Vec::new(),
            designs: DesignPoint::HW_ALL.to_vec(),
            scale: 1,
            overrides: Overrides::default(),
            override_pairs: Vec::new(),
        };
        if let Some(scale) = v.get("scale") {
            let n = scale
                .as_u64()
                .filter(|&n| n >= 1)
                .ok_or("scale: expected a positive integer")?;
            // Compared before narrowing: 2^32 must not wrap to scale 0.
            req.scale = u32::try_from(n)
                .ok()
                .filter(|&n| n <= MAX_SCALE)
                .ok_or(format!("scale: must be at most {MAX_SCALE}"))?;
        }
        if let Some(benches) = v.get("benches") {
            let items = benches.as_arr().ok_or("benches: expected an array")?;
            for b in items {
                let abbr = b
                    .as_str()
                    .ok_or("benches: expected an array of strings")?
                    .to_uppercase();
                if !gpu_workloads::ALL_ABBRS.contains(&abbr.as_str()) {
                    return Err(format!(
                        "benches: unknown benchmark {abbr:?} (expected one of: {})",
                        gpu_workloads::ALL_ABBRS.join(", ")
                    ));
                }
                if !req.benches.contains(&abbr) {
                    req.benches.push(abbr);
                }
            }
        }
        if let Some(scenarios) = v.get("scenarios") {
            let items = scenarios.as_arr().ok_or("scenarios: expected an array")?;
            for s in items {
                let name = s
                    .as_str()
                    .ok_or("scenarios: expected an array of strings")?
                    .to_ascii_lowercase();
                if !gpu_workloads::ALL_SCENARIOS.contains(&name.as_str()) {
                    return Err(format!(
                        "scenarios: unknown scenario {name:?} (expected one of: {})",
                        gpu_workloads::ALL_SCENARIOS.join(", ")
                    ));
                }
                if !req.scenarios.contains(&name) {
                    req.scenarios.push(name);
                }
            }
        }
        if let Some(designs) = v.get("designs") {
            let items = designs.as_arr().ok_or("designs: expected an array")?;
            let mut points = Vec::new();
            for d in items {
                let name = d.as_str().ok_or("designs: expected an array of strings")?;
                let point = DesignPoint::parse(name).ok_or_else(|| {
                    format!(
                        "designs: unknown design {name:?} \
                         (expected baseline, cae, mta, dac, or perfect)"
                    )
                })?;
                if !points.contains(&point) {
                    points.push(point);
                }
            }
            if points.is_empty() {
                return Err("designs: at least one design required".into());
            }
            req.designs = points;
        }
        if let Some(overrides) = v.get("overrides") {
            let fields = overrides.as_obj().ok_or("overrides: expected an object")?;
            for (key, val) in fields {
                let text = match val {
                    json::Value::Bool(b) => b.to_string(),
                    json::Value::Int(n) => n.to_string(),
                    json::Value::Str(s) => s.clone(),
                    other => {
                        return Err(format!(
                            "overrides.{key}: expected a number, boolean, or string, got {other:?}"
                        ))
                    }
                };
                req.set_override(key, &text)?;
            }
        }
        if req.benches.is_empty() && req.scenarios.is_empty() {
            return Err("empty grid: name at least one benchmark or scenario".into());
        }
        Ok(req)
    }

    /// Apply one `key=value` override, routing the `streams` knob into the
    /// scenario list (over the API, scenarios are first-class rather than
    /// a config knob — but CLI-shaped requests still work).
    pub fn set_override(&mut self, key: &str, value: &str) -> Result<(), String> {
        self.overrides.set(key, value)?;
        if key == "streams" {
            let name = self.overrides.streams.take().unwrap_or_default();
            if !self.scenarios.contains(&name) {
                self.scenarios.push(name);
            }
        } else {
            self.override_pairs.push((key.into(), value.into()));
        }
        Ok(())
    }

    /// The grid lowered to harness jobs: benches in request order × designs,
    /// then scenarios × designs — the same deterministic order a serial CLI
    /// sweep would run.
    ///
    /// # Panics
    ///
    /// Never for a request built by [`GridRequest::from_json`] /
    /// [`GridRequest::set_override`], which validate every name.
    pub fn jobs(&self) -> Vec<Job> {
        let benches = self
            .benches
            .iter()
            .map(|abbr| gpu_workloads::benchmark(abbr, self.scale).expect("validated benchmark"))
            .collect();
        let mut jobs = suite_jobs(benches, self.scale, &self.designs, &self.overrides);
        let scenarios = self
            .scenarios
            .iter()
            .map(|name| gpu_workloads::scenario(name, self.scale).expect("validated scenario"))
            .collect::<Vec<_>>();
        jobs.extend(scenario_jobs(
            scenarios,
            self.scale,
            &self.designs,
            &self.overrides,
        ));
        jobs
    }

    /// The grid's content-addressed identity: `sweep-` plus the FNV-1a
    /// hash of its points' **sorted** canonical cache keys. Two requests
    /// naming the same set of points get the same id regardless of
    /// listing order, so a re-submitted grid resumes/joins its prior
    /// sweep instead of spawning a duplicate.
    pub fn sweep_id(jobs: &[Job]) -> String {
        let mut keys: Vec<String> = jobs.iter().map(Job::cache_key).collect();
        keys.sort();
        keys.dedup();
        format!("sweep-{:016x}", fnv1a64(keys.join("\n").as_bytes()))
    }

    /// The request's canonical JSON form (manifests, status endpoints).
    /// Round-trips exactly through [`GridRequest::from_json`].
    pub fn to_json(&self) -> json::Value {
        let strs = |items: &[String]| {
            json::Value::Arr(items.iter().map(|s| json::Value::Str(s.clone())).collect())
        };
        let mut overrides = Vec::new();
        for (k, v) in &self.override_pairs {
            let val = match v.as_str() {
                "true" => json::Value::Bool(true),
                "false" => json::Value::Bool(false),
                _ => match v.parse::<u64>() {
                    Ok(n) => json::Value::Int(n),
                    Err(_) => json::Value::Str(v.clone()),
                },
            };
            overrides.push((k.clone(), val));
        }
        json::Value::Obj(vec![
            ("benches".into(), strs(&self.benches)),
            ("scenarios".into(), strs(&self.scenarios)),
            (
                "designs".into(),
                json::Value::Arr(
                    self.designs
                        .iter()
                        .map(|p| json::Value::Str(p.name().into()))
                        .collect(),
                ),
            ),
            ("scale".into(), json::Value::Int(self.scale as u64)),
            ("overrides".into(), json::Value::Obj(overrides)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<GridRequest, String> {
        GridRequest::from_json(&json::parse(text).unwrap())
    }

    #[test]
    fn parses_and_lowers_a_small_grid() {
        let req = parse(
            r#"{"benches": ["lib", "MQ"], "designs": ["baseline", "dac"],
                "overrides": {"num_sms": 2, "max_warps_per_sm": 16}}"#,
        )
        .unwrap();
        assert_eq!(req.benches, vec!["LIB", "MQ"]);
        let jobs = req.jobs();
        assert_eq!(jobs.len(), 4);
        assert_eq!(jobs[0].bench(), "LIB");
        assert_eq!(jobs[0].overrides.num_sms, Some(2));
        assert_eq!(jobs[3].bench(), "MQ");
    }

    #[test]
    fn rejects_bad_requests_with_valid_names() {
        let err = parse(r#"{"benches": ["WARP9"]}"#).unwrap_err();
        assert!(err.contains("LIB"), "lists valid names: {err}");
        let err = parse(r#"{"benches": ["LIB"], "designs": ["quantum"]}"#).unwrap_err();
        assert!(err.contains("baseline"), "{err}");
        let err = parse(r#"{"scenarios": ["warp9"]}"#).unwrap_err();
        assert!(err.contains("smem_pressure"), "{err}");
        let err = parse(r#"{"benches": ["LIB"], "overrides": {"warp_speed": 9}}"#).unwrap_err();
        assert!(err.contains("unknown config knob"), "{err}");
        assert!(parse(r#"{}"#).unwrap_err().contains("empty grid"));
        assert!(parse(r#"{"benches": ["LIB"], "scale": 0}"#).is_err());
        // Above the ceiling, at u32::MAX, and past it (must not wrap to 0 or 1).
        for scale in ["65", "4000000000", "4294967295", "4294967296", "4294967297"] {
            let err = parse(&format!(r#"{{"benches": ["LIB"], "scale": {scale}}}"#)).unwrap_err();
            assert_eq!(err, "scale: must be at most 64", "scale {scale}");
        }
        let ok = parse(r#"{"benches": ["LIB"], "scale": 64}"#).unwrap();
        assert_eq!(ok.scale, MAX_SCALE);
    }

    #[test]
    fn sweep_id_is_order_independent_and_content_addressed() {
        let a = parse(r#"{"benches": ["LIB", "MQ"], "designs": ["baseline"]}"#).unwrap();
        let b = parse(r#"{"benches": ["MQ", "LIB"], "designs": ["baseline"]}"#).unwrap();
        let c = parse(r#"{"benches": ["LIB", "MQ"], "designs": ["dac"]}"#).unwrap();
        assert_eq!(
            GridRequest::sweep_id(&a.jobs()),
            GridRequest::sweep_id(&b.jobs())
        );
        assert_ne!(
            GridRequest::sweep_id(&a.jobs()),
            GridRequest::sweep_id(&c.jobs())
        );
        assert!(GridRequest::sweep_id(&a.jobs()).starts_with("sweep-"));
    }

    #[test]
    fn request_roundtrips_through_manifest_json() {
        let req = parse(
            r#"{"benches": ["LIB"], "scenarios": ["pipeline"], "designs": ["dac"],
                "scale": 2, "overrides": {"num_sms": 2, "lock_lines": false,
                "cta_policy": "rr"}}"#,
        )
        .unwrap();
        let text = req.to_json().to_json();
        let back = parse(&text).unwrap();
        assert_eq!(back.benches, req.benches);
        assert_eq!(back.scenarios, req.scenarios);
        assert_eq!(back.scale, req.scale);
        assert_eq!(back.overrides, req.overrides);
        let (ja, jb) = (req.jobs(), back.jobs());
        assert_eq!(
            ja.iter().map(Job::cache_key).collect::<Vec<_>>(),
            jb.iter().map(Job::cache_key).collect::<Vec<_>>()
        );
    }

    #[test]
    fn streams_knob_routes_to_scenarios() {
        let req = parse(r#"{"overrides": {"streams": "pipeline"}}"#).unwrap();
        assert_eq!(req.scenarios, vec!["pipeline"]);
        assert!(req.overrides.streams.is_none());
        assert_eq!(req.jobs().len(), 4);
    }
}

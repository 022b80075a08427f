//! Design-space grid requests: the unit of submission to the sweep
//! service.
//!
//! A grid is `workloads × designs × configuration` (plus optional
//! multi-kernel scenarios), exactly the cross product the CLI `sweep`
//! binary runs — but expressed as data so it can arrive over the wire,
//! persist in a manifest, and canonicalize to a stable identity. Every
//! point of a grid lowers to a [`GridPoint`] keyed from names alone by
//! the harness's one key function ([`simt_harness::cache_key`]), so its
//! cache key (and therefore its result) is **identical** to what the CLI
//! computes: the daemon and one-shot sweeps share one result store. A
//! point builds its workload into an ordinary harness [`Job`] only when it
//! has to simulate; a warm point never does.

use simt_harness::job::MAX_SCALE;
use simt_harness::{
    cache_key, fnv1a64, json, refuse_idle_knobs, DesignPoint, Job, Overrides, Payload, PayloadKind,
};
use std::sync::Arc;

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
    /// Configuration overrides applied to every point (`streams` is
    /// routed into `scenarios`, so it is never set here).
    pub overrides: Overrides,
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
    /// are rejected with the list of valid names, and so are knobs that
    /// would change none of the grid's points
    /// ([`simt_harness::refuse_idle_knobs`]) — a daemon must turn a bad
    /// request into a 400, never into a panic.
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
                req.overrides.set(key, &text)?;
            }
            req.adopt_streams();
        }
        if req.benches.is_empty() && req.scenarios.is_empty() {
            return Err("empty grid: name at least one benchmark or scenario".into());
        }
        refuse_idle_knobs(&req.overrides, &req.designs, !req.scenarios.is_empty())?;
        Ok(req)
    }

    /// Apply one `key=value` override, routing the `streams` knob into the
    /// scenario list (over the API, scenarios are first-class rather than
    /// a config knob — but CLI-shaped requests still work).
    pub fn set_override(&mut self, key: &str, value: &str) -> Result<(), String> {
        self.overrides.set(key, value)?;
        self.adopt_streams();
        Ok(())
    }

    /// Move a `streams` override into the scenario list.
    fn adopt_streams(&mut self) {
        if let Some(name) = self.overrides.streams.take() {
            if !self.scenarios.contains(&name) {
                self.scenarios.push(name);
            }
        }
    }

    /// The grid lowered to name-keyed points: benches in request order ×
    /// designs, then scenarios × designs — the same deterministic order a
    /// serial CLI sweep would run. Builds no workload.
    pub fn points(&self) -> Vec<GridPoint> {
        let benches = self.benches.iter().map(|b| (PayloadKind::Bench, b));
        let scenarios = self.scenarios.iter().map(|s| (PayloadKind::Scenario, s));
        benches
            .chain(scenarios)
            .flat_map(|(kind, name)| {
                self.designs.iter().map(move |&point| {
                    GridPoint::new(kind, name, self.scale, point, &self.overrides)
                })
            })
            .collect()
    }

    /// The grid lowered to harness jobs, one per [`GridRequest::points`]
    /// entry and in that order. Each workload is built once and shared by
    /// its designs.
    pub fn jobs(&self) -> Vec<Job> {
        let mut jobs: Vec<Job> = Vec::new();
        for point in self.points() {
            let job = match jobs.last() {
                Some(prev) if prev.payload.kind() == point.kind && prev.bench() == point.name => {
                    point.job_with(prev.payload.clone())
                }
                _ => point.job(),
            };
            jobs.push(job);
        }
        jobs
    }

    /// The grid's content-addressed identity: `sweep-` plus the FNV-1a
    /// hash of its points' **sorted** canonical cache keys. Two requests
    /// naming the same set of points get the same id regardless of
    /// listing order, so a re-submitted grid resumes/joins its prior
    /// sweep instead of spawning a duplicate.
    pub fn sweep_id(points: &[GridPoint]) -> String {
        let mut keys: Vec<&str> = points.iter().map(|p| p.key.as_str()).collect();
        keys.sort_unstable();
        keys.dedup();
        format!("sweep-{:016x}", fnv1a64(keys.join("\n").as_bytes()))
    }

    /// The request's canonical JSON form (manifests, status endpoints),
    /// overrides typed and in [`simt_harness::KNOBS`] order. Round-trips
    /// exactly through [`GridRequest::from_json`].
    pub fn to_json(&self) -> json::Value {
        let strs = |items: &[String]| {
            json::Value::Arr(items.iter().map(|s| json::Value::Str(s.clone())).collect())
        };
        let overrides = self
            .overrides
            .values()
            .map(|(knob, v)| (knob.name.to_string(), v))
            .collect();
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

/// One point of a grid, keyed from names alone: what the service
/// registers, persists in manifests and looks up in the store.
#[derive(Debug, Clone)]
pub struct GridPoint {
    /// Whether `name` is a benchmark or a scenario.
    kind: PayloadKind,
    /// Benchmark abbreviation or scenario name, as validated.
    name: String,
    scale: u32,
    point: DesignPoint,
    overrides: Overrides,
    /// The canonical cache key, exactly [`Job::cache_key`] of
    /// [`GridPoint::job`].
    pub(crate) key: String,
    /// FNV-1a of `key`: the point's identity and its `/runs/:key` name.
    pub(crate) hash: u64,
    /// `NAME/design`, as [`Job::label`] spells it.
    pub(crate) label: String,
}

impl GridPoint {
    fn new(
        kind: PayloadKind,
        name: &str,
        scale: u32,
        point: DesignPoint,
        overrides: &Overrides,
    ) -> GridPoint {
        let key = cache_key(kind, name, scale, point, overrides);
        GridPoint {
            kind,
            name: name.to_string(),
            scale,
            point,
            overrides: overrides.clone(),
            hash: fnv1a64(key.as_bytes()),
            key,
            label: format!("{name}/{}", point.name()),
        }
    }

    /// The point as a harness job, building its workload now.
    ///
    /// # Panics
    ///
    /// Never for a point of a request built by [`GridRequest::from_json`] /
    /// [`GridRequest::set_override`], which validate every name.
    pub fn job(&self) -> Job {
        let payload = match self.kind {
            PayloadKind::Bench => Payload::Bench(Arc::new(
                gpu_workloads::benchmark(&self.name, self.scale).expect("validated benchmark"),
            )),
            PayloadKind::Scenario => Payload::Scenario(Arc::new(
                gpu_workloads::scenario(&self.name, self.scale).expect("validated scenario"),
            )),
        };
        self.job_with(payload)
    }

    fn job_with(&self, payload: Payload) -> Job {
        Job {
            payload,
            scale: self.scale,
            point: self.point,
            overrides: self.overrides.clone(),
        }
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
        // A knob named twice is the CLI's duplicate `--set`, not "last wins".
        let err = parse(r#"{"benches": ["LIB"], "overrides": {"num_sms": 2, "num_sms": 4}}"#)
            .unwrap_err();
        assert_eq!(
            err,
            r#"--set: duplicate knob "num_sms" (each knob may be set once)"#
        );
        let err =
            parse(r#"{"overrides": {"streams": "pipeline", "streams": "pipeline"}}"#).unwrap_err();
        assert!(err.contains("duplicate knob \"streams\""), "{err}");
        let ok = parse(r#"{"benches": ["LIB"], "scale": 64}"#).unwrap();
        assert_eq!(ok.scale, MAX_SCALE);
    }

    /// Every point keys, hashes and labels exactly as the job it builds:
    /// all benchmarks and scenarios, every design, DAC-only knobs and a
    /// placement policy.
    #[test]
    fn points_key_exactly_as_their_jobs() {
        let mut grid = parse(r#"{"benches": ["LIB"]}"#).unwrap();
        grid.benches = gpu_workloads::ALL_ABBRS.map(String::from).to_vec();
        grid.scenarios = gpu_workloads::ALL_SCENARIOS.map(String::from).to_vec();
        grid.designs.push(DesignPoint::PerfectMem);
        grid.scale = 2;
        for (k, v) in [
            ("num_sms", "2"),
            ("atq_entries", "8"),
            ("lock_lines", "false"),
            ("cta_policy", "rr"),
        ] {
            grid.set_override(k, v).unwrap();
        }
        let (points, jobs) = (grid.points(), grid.jobs());
        assert_eq!(points.len(), (29 + 3) * 5);
        assert_eq!(points.len(), jobs.len());
        for (point, job) in points.iter().zip(&jobs) {
            assert_eq!(point.key, job.cache_key());
            assert_eq!(point.hash, job.cache_hash());
            assert_eq!(point.label, job.label());
        }
        let last = points.last().unwrap();
        assert_eq!(last.job().cache_key(), last.key);
        assert!(last.key.contains("|cta_policy=rr|scale=2|design=perfect"));
    }

    #[test]
    fn sweep_id_is_order_independent_and_content_addressed() {
        let a = parse(r#"{"benches": ["LIB", "MQ"], "designs": ["baseline"]}"#).unwrap();
        let b = parse(r#"{"benches": ["MQ", "LIB"], "designs": ["baseline"]}"#).unwrap();
        let c = parse(r#"{"benches": ["LIB", "MQ"], "designs": ["dac"]}"#).unwrap();
        assert_eq!(
            GridRequest::sweep_id(&a.points()),
            GridRequest::sweep_id(&b.points())
        );
        assert_ne!(
            GridRequest::sweep_id(&a.points()),
            GridRequest::sweep_id(&c.points())
        );
        assert!(GridRequest::sweep_id(&a.points()).starts_with("sweep-"));
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
        let keys = |r: &GridRequest| r.points().into_iter().map(|p| p.key).collect::<Vec<_>>();
        assert_eq!(keys(&req), keys(&back));
        // Manifests written before the knob table kept the overrides as
        // submitted: in request order, with flags in any accepted spelling.
        // They resume as the same points and the same sweep.
        let old = parse(
            r#"{"benches": ["LIB"], "scenarios": ["pipeline"], "designs": ["dac"],
                "scale": 2, "overrides": {"cta_policy": "rr", "lock_lines": "off",
                "num_sms": 2}}"#,
        )
        .unwrap();
        assert_eq!(keys(&old), keys(&req));
        assert_eq!(
            GridRequest::sweep_id(&old.points()),
            GridRequest::sweep_id(&req.points())
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

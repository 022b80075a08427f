//! Sweep manifests: the durable record that makes sweeps resumable.
//!
//! Submitting a grid writes one `dac-sweep/v1` JSON file under
//! `<results>/sweeps/<sweep-id>.json` — the canonical request plus the
//! point list (cache key + hash + label per point). Manifests are
//! write-once and atomic (temp file + rename), so a daemon killed
//! mid-write never leaves a torn manifest.
//!
//! **Completion state is deliberately NOT stored here.** A point is done
//! iff its result is in the content-addressed cache, so the cache itself
//! is the progress record: a restarted daemon re-reads each manifest,
//! re-enqueues every point, and the finished ones resolve instantly as
//! cache hits — no re-execution, no bookkeeping to keep consistent.

use crate::grid::{GridPoint, GridRequest};
use simt_harness::json;
use std::fs;
use std::path::{Path, PathBuf};

/// Schema tag on every manifest; loaders reject anything else.
pub const SCHEMA: &str = "dac-sweep/v1";

/// A sweep's durable description.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Content-addressed sweep id (`sweep-<16 hex>`).
    pub id: String,
    /// The grid that was submitted.
    pub request: GridRequest,
}

/// The manifest directory under a results root.
pub fn dir(results: &Path) -> PathBuf {
    results.join("sweeps")
}

fn path(results: &Path, id: &str) -> PathBuf {
    dir(results).join(format!("{id}.json"))
}

/// Serialize a manifest (the request plus the resolved point list — the
/// points are derivable from the request, but listing them makes manifests
/// self-describing for humans and `GET /sweeps/:id` cheap for machines).
pub fn to_json(id: &str, request: &GridRequest, points: &[GridPoint]) -> json::Value {
    let points = points
        .iter()
        .map(|p| {
            json::Value::Obj(vec![
                ("label".into(), json::Value::Str(p.label.clone())),
                ("run".into(), json::Value::Str(format!("{:016x}", p.hash))),
                ("key".into(), json::Value::Str(p.key.clone())),
            ])
        })
        .collect();
    json::Value::Obj(vec![
        ("schema".into(), json::Value::Str(SCHEMA.into())),
        ("id".into(), json::Value::Str(id.into())),
        ("request".into(), request.to_json()),
        ("points".into(), json::Value::Arr(points)),
    ])
}

/// Write the manifest for a newly submitted sweep, atomically. An existing
/// manifest is left untouched (identical content by construction: the id
/// is a hash of the points).
pub fn store(
    results: &Path,
    id: &str,
    request: &GridRequest,
    points: &[GridPoint],
) -> std::io::Result<()> {
    let path = path(results, id);
    if path.exists() {
        return Ok(());
    }
    fs::create_dir_all(dir(results))?;
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    fs::write(&tmp, to_json(id, request, points).to_json().as_bytes())?;
    fs::rename(&tmp, &path)
}

/// Load every manifest under a results root, oldest-id first (stable
/// across restarts). Unreadable or unparseable manifests are reported and
/// skipped — one bad file must not block the daemon from serving the rest.
pub fn load_all(results: &Path) -> Vec<Manifest> {
    let dir = dir(results);
    let Ok(entries) = fs::read_dir(&dir) else {
        return Vec::new(); // no sweeps yet
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    let mut manifests = Vec::new();
    for p in paths {
        match load_one(&p) {
            Ok(m) => manifests.push(m),
            Err(e) => simt_obs::warn!("serve.manifest", "skipping manifest";
                path = p.display().to_string(), error = e),
        }
    }
    manifests
}

fn load_one(path: &Path) -> Result<Manifest, String> {
    let text = fs::read_to_string(path).map_err(|e| e.to_string())?;
    let v = json::parse(&text)?;
    if v.get("schema").and_then(json::Value::as_str) != Some(SCHEMA) {
        return Err(format!(
            "unknown manifest schema {:?}",
            v.get("schema").and_then(json::Value::as_str)
        ));
    }
    let id = v
        .get("id")
        .and_then(json::Value::as_str)
        .ok_or("missing field \"id\"")?
        .to_string();
    let request = GridRequest::from_json(v.get("request").ok_or("missing field \"request\"")?)?;
    Ok(Manifest { id, request })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_load_roundtrip_and_bad_files_skipped() {
        let results =
            std::env::temp_dir().join(format!("dac-manifest-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&results);
        let req = GridRequest::from_json(
            &json::parse(
                r#"{"benches": ["LIB", "MQ"], "designs": ["baseline", "dac"],
                    "overrides": {"num_sms": 2, "max_warps_per_sm": 16}}"#,
            )
            .unwrap(),
        )
        .unwrap();
        let points = req.points();
        let id = GridRequest::sweep_id(&points);
        store(&results, &id, &req, &points).unwrap();
        // Storing again is a no-op, not an error.
        store(&results, &id, &req, &points).unwrap();
        // A corrupt sibling is skipped with a warning, not fatal.
        fs::write(dir(&results).join("zz-bad.json"), b"{ nope").unwrap();

        let loaded = load_all(&results);
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].id, id);
        let points_back = loaded[0].request.points();
        assert_eq!(GridRequest::sweep_id(&points_back), id);
        assert_eq!(points_back.len(), points.len());

        // The manifest lists each point with its run hash.
        let text = fs::read_to_string(path(&results, &id)).unwrap();
        let v = json::parse(&text).unwrap();
        let points = v.get("points").and_then(json::Value::as_arr).unwrap();
        assert_eq!(points.len(), 4);
        assert_eq!(
            points[0].get("run").and_then(json::Value::as_str).unwrap(),
            format!("{:016x}", req.jobs()[0].cache_hash())
        );
        let _ = fs::remove_dir_all(&results);
    }
}

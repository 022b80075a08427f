//! Service-level integration tests: single-flight dedup under concurrent
//! overlapping submissions, and resumable sweeps across a daemon restart.
//!
//! Everything runs on the small 2-SM machine so the whole file stays in
//! test-suite time budget.

use simt_harness::json;
use simt_serve::{GridRequest, ServeConfig, SweepService};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(300);

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dac-serve-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A small grid request: `benches × {baseline, dac}` on the 2-SM machine.
fn grid(benches: &[&str]) -> GridRequest {
    let list = benches
        .iter()
        .map(|b| format!("{b:?}"))
        .collect::<Vec<_>>()
        .join(", ");
    let text = format!(
        r#"{{"benches": [{list}], "designs": ["baseline", "dac"],
            "overrides": {{"num_sms": 2, "max_warps_per_sm": 16}}}}"#
    );
    GridRequest::from_json(&json::parse(&text).unwrap()).unwrap()
}

/// Map of cache file name → raw bytes under a results root.
fn cache_entries(results: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut entries = BTreeMap::new();
    let dir = results.join("cache");
    for e in fs::read_dir(&dir).expect("cache dir exists") {
        let path = e.unwrap().path();
        entries.insert(
            path.file_name().unwrap().to_string_lossy().into_owned(),
            fs::read(&path).unwrap(),
        );
    }
    entries
}

fn field(status: &json::Value, name: &str) -> u64 {
    status.get(name).and_then(json::Value::as_u64).unwrap()
}

/// Two overlapping grids submitted concurrently must produce artifacts
/// byte-identical to running them serially, with every shared point
/// executed exactly once (the overlap resolves by single-flight sharing,
/// not duplicate simulation).
#[test]
fn concurrent_overlapping_grids_share_work_and_match_serial() {
    let concurrent_dir = tmp_dir("concurrent");
    let serial_dir = tmp_dir("serial");
    // Grids share MQ: |A| = 4, |B| = 4, |A ∪ B| = 6.
    let grid_a = grid(&["LIB", "MQ"]);
    let grid_b = grid(&["MQ", "SPV"]);

    let service = Arc::new(SweepService::new(ServeConfig::new(&concurrent_dir, 3)));
    let (svc_a, svc_b) = (Arc::clone(&service), Arc::clone(&service));
    let (req_a, req_b) = (grid_a.clone(), grid_b.clone());
    let submit_a = std::thread::spawn(move || svc_a.submit(req_a).unwrap());
    let submit_b = std::thread::spawn(move || svc_b.submit(req_b).unwrap());
    let receipt_a = submit_a.join().unwrap();
    let receipt_b = submit_b.join().unwrap();
    assert!(service.wait_for_sweep(&receipt_a.id, WAIT), "sweep A done");
    assert!(service.wait_for_sweep(&receipt_b.id, WAIT), "sweep B done");

    // Exactly |A ∪ B| simulations ran, nothing twice, nothing from disk.
    let (executed, cache_hits, shared, failed) = service.counters();
    assert_eq!(executed, 6, "each unique point executes exactly once");
    assert_eq!(cache_hits, 0, "cold store: nothing resolved from disk");
    assert_eq!(shared, 2, "the two MQ points were shared, not re-run");
    assert_eq!(failed, 0);

    // Per-sweep accounting agrees: the 6 executions split between the two
    // sweeps by ownership, and the 2 shared points belong to exactly one.
    let status_a = service.sweep_status(&receipt_a.id).unwrap();
    let status_b = service.sweep_status(&receipt_b.id).unwrap();
    assert_eq!(field(&status_a, "total"), 4);
    assert_eq!(field(&status_b, "total"), 4);
    assert_eq!(
        field(&status_a, "executed") + field(&status_b, "executed"),
        6
    );
    assert_eq!(field(&status_a, "shared") + field(&status_b, "shared"), 2);
    assert_eq!(field(&status_a, "done"), 4);
    assert_eq!(field(&status_b, "done"), 4);
    drop(service);

    // Serial reference: same grids, one worker, one after the other.
    let serial = SweepService::new(ServeConfig::new(&serial_dir, 1));
    let r1 = serial.submit(grid_a).unwrap();
    assert!(serial.wait_for_sweep(&r1.id, WAIT));
    let r2 = serial.submit(grid_b).unwrap();
    assert!(serial.wait_for_sweep(&r2.id, WAIT));
    drop(serial);

    let concurrent = cache_entries(&concurrent_dir);
    let serial_entries = cache_entries(&serial_dir);
    assert_eq!(concurrent.len(), 6);
    assert_eq!(
        concurrent, serial_entries,
        "concurrent artifacts must be byte-identical to serial"
    );

    let _ = fs::remove_dir_all(&concurrent_dir);
    let _ = fs::remove_dir_all(&serial_dir);
}

/// A brand-new sweep whose points are all already terminal — a subset of
/// a grid completed earlier in the same session — enqueues nothing, so
/// nothing ever transitions; it must still report complete immediately
/// (regression: it used to stay `complete: false` forever and hang
/// `wait_for_sweep`).
#[test]
fn subset_of_completed_sweep_is_complete_at_submission() {
    let results = tmp_dir("subset");
    let service = SweepService::new(ServeConfig::new(&results, 2));
    let superset = service.submit(grid(&["LIB", "MQ"])).unwrap();
    assert!(service.wait_for_sweep(&superset.id, WAIT), "superset done");

    // The subset is a different grid (different sweep id), not a
    // resubmission, and every one of its points is already terminal.
    let subset = service.submit(grid(&["MQ"])).unwrap();
    assert_ne!(subset.id, superset.id);
    assert!(!subset.resubmitted);
    assert_eq!(subset.new, 0);
    assert_eq!(subset.already_done, 2);
    assert!(
        service.wait_for_sweep(&subset.id, Duration::from_millis(100)),
        "all-terminal subset sweep must be complete at submission"
    );
    let status = service.sweep_status(&subset.id).unwrap();
    assert_eq!(
        status.get("complete").and_then(json::Value::as_bool),
        Some(true)
    );
    assert_eq!(field(&status, "done"), 2);

    let _ = fs::remove_dir_all(&results);
}

/// Kill the daemon mid-sweep (in-process: stop after a bounded number of
/// executions), restart over the same results root, and the sweep
/// completes without re-executing any finished point.
#[test]
fn restarted_daemon_resumes_sweep_without_reexecution() {
    let results = tmp_dir("resume");
    let request = grid(&["LIB", "MQ"]); // 4 points

    // Session 1: one worker, budget of 2 fresh simulations — a
    // deterministic stand-in for "killed mid-sweep": exactly 2 of the 4
    // points finish, the manifest is on disk, the rest stay queued.
    {
        let service = SweepService::new(ServeConfig {
            results_dir: results.clone(),
            workers: 1,
            execute_budget: Some(2),
            verbose: false,
        });
        let receipt = service.submit(request.clone()).unwrap();
        assert_eq!(receipt.new, 4);
        assert!(service.wait_idle(WAIT), "session 1 drains");
        assert!(
            !service.wait_for_sweep(&receipt.id, Duration::from_millis(10)),
            "sweep must NOT be complete in session 1"
        );
        let (executed, cache_hits, _, failed) = service.counters();
        assert_eq!(executed, 2, "budget caps session 1 at 2 simulations");
        assert_eq!(cache_hits, 0);
        assert_eq!(failed, 0);
    } // drop = daemon killed

    assert_eq!(
        cache_entries(&results).len(),
        2,
        "two finished points persisted before the kill"
    );

    // Session 2: fresh daemon over the same results root. resume() picks
    // the manifest up; the 2 finished points come back as cache hits and
    // only the 2 unfinished ones execute.
    {
        let service = SweepService::new(ServeConfig {
            results_dir: results.clone(),
            workers: 2,
            execute_budget: None,
            verbose: false,
        });
        let resumed = service.resume();
        assert_eq!(resumed.len(), 1, "one unfinished sweep to resume");
        assert!(service.wait_for_sweep(&resumed[0], WAIT), "sweep completes");
        let (executed, cache_hits, _, failed) = service.counters();
        assert_eq!(executed, 2, "only the unfinished points execute");
        assert_eq!(cache_hits, 2, "finished points served from the store");
        assert_eq!(failed, 0);
        let status = service.sweep_status(&resumed[0]).unwrap();
        assert_eq!(field(&status, "done"), 4);
        assert_eq!(
            status.get("complete").and_then(json::Value::as_bool),
            Some(true)
        );
    }

    // Session 3: everything is warm — resume() reports nothing to do, and
    // an explicit re-submission is answered instantly from the store.
    {
        let service = SweepService::new(ServeConfig::new(&results, 2));
        assert!(service.resume().is_empty(), "nothing unfinished remains");
        let receipt = service.submit(request).unwrap();
        assert!(service.wait_for_sweep(&receipt.id, WAIT));
        let (executed, cache_hits, _, _) = service.counters();
        assert_eq!(executed, 0, "warm store: zero re-executions");
        assert_eq!(cache_hits, 4);
    }

    let _ = fs::remove_dir_all(&results);
}

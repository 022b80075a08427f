//! A sweep containing a failing point must (a) record a `failed` event in
//! the journal with the panic message, (b) count it in the status
//! document, and (c) make `sweepctl tail` exit non-zero.
//!
//! The failing point is an unplaceable launch: `max_warps_per_sm: 3`
//! cannot hold LIB's 4-warp CTAs, which the simulator rejects at launch
//! validation ("can never be placed"). The sweep worker journals that
//! reason (`Job::check`, or a caught panic for any other simulator
//! failure) rather than tearing the daemon down. (A machine with *no*
//! warp slots, SMs or ATQ entries, or with more SMs or warp slots than
//! `MAX_MACHINE_DIM`, or a `scale` above `MAX_SCALE`, never gets that
//! far: the request parser turns it into a 400, as it does a knob that
//! would change none of the grid's points.)

use simt_harness::json;
use simt_serve::client::Client;
use simt_serve::http::Server;
use simt_serve::{ServeConfig, SweepService};
use std::fs;
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn u(v: &json::Value, name: &str) -> u64 {
    v.get(name).and_then(json::Value::as_u64).unwrap()
}

fn s<'a>(v: &'a json::Value, name: &str) -> &'a str {
    v.get(name).and_then(json::Value::as_str).unwrap()
}

#[test]
fn failing_point_is_journaled_and_tail_exits_nonzero() {
    let results = std::env::temp_dir().join(format!("dac-serve-test-fail-{}", std::process::id()));
    let _ = fs::remove_dir_all(&results);
    let service = Arc::new(SweepService::new(ServeConfig::new(&results, 2)));
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let handle = server.handle();
    let addr = handle.addr().to_string();
    let serving = std::thread::spawn(move || server.serve());
    let client = Client::new(addr.clone());

    for knob in ["max_warps_per_sm", "num_sms", "atq_entries"] {
        let empty_machine = json::parse(&format!(
            r#"{{"benches": ["LIB"], "designs": ["baseline"], "overrides": {{"{knob}": 0}}}}"#
        ))
        .unwrap();
        let rejected = client.post("/sweeps", Some(&empty_machine)).unwrap();
        assert_eq!(rejected.status, 400, "{knob}=0 must be a bad request");
    }
    // A machine too large to allocate would abort the daemon (an allocation
    // failure is not a panic the worker pool can contain): also a 400.
    for knob in ["max_warps_per_sm", "num_sms"] {
        let huge_machine = json::parse(&format!(
            r#"{{"benches": ["MC"], "designs": ["baseline"], "overrides": {{"{knob}": 40000000000}}}}"#
        ))
        .unwrap();
        let rejected = client.post("/sweeps", Some(&huge_machine)).unwrap();
        assert_eq!(rejected.status, 400, "{knob}=4e10 must be a bad request");
    }
    // So would a scale whose memory image cannot be allocated; one that
    // wraps a `u32` (2^32 -> 0, 2^32 + 1 -> 1) must not be served as the
    // scale it wraps to. Nothing reaches the store, and the daemon still
    // answers.
    for scale in ["4000000000", "4294967296", "4294967297"] {
        let huge_scale = json::parse(&format!(
            r#"{{"benches": ["MC"], "designs": ["baseline"], "scale": {scale}}}"#
        ))
        .unwrap();
        let rejected = client.post("/sweeps", Some(&huge_scale)).unwrap();
        assert_eq!(rejected.status, 400, "scale {scale} must be a bad request");
        assert_eq!(
            rejected.body.get("error").and_then(json::Value::as_str),
            Some("scale: must be at most 64")
        );
    }
    // A knob the simulator does not have is rejected, not silently keyed.
    let no_such_knob = json::parse(
        r#"{"benches": ["LIB"], "designs": ["dac"], "overrides": {"divergent_tuples": false}}"#,
    )
    .unwrap();
    let rejected = client.post("/sweeps", Some(&no_such_knob)).unwrap();
    assert_eq!(
        rejected.status, 400,
        "divergent_tuples must be a bad request"
    );
    let error = rejected.body.get("error").and_then(json::Value::as_str);
    assert!(
        error.is_some_and(|e| e.starts_with("unknown config knob \"divergent_tuples\"")),
        "{error:?}"
    );
    // So is a knob that would change none of the grid's points: a
    // placement policy without a scenario, a DAC knob without the DAC
    // design, and a queue total the per-warp floor would override.
    for (overrides, designs, needle) in [
        (
            r#"{"cta_policy": "rr"}"#,
            r#"["baseline", "dac"]"#,
            "--set cta_policy: changes no point",
        ),
        (
            r#"{"atq_entries": 4}"#,
            r#"["baseline"]"#,
            "--set atq_entries: changes no point",
        ),
        (
            r#"{"pwaq_total": 0}"#,
            r#"["dac"]"#,
            "--set pwaq_total: must be at least 1",
        ),
    ] {
        let idle = json::parse(&format!(
            r#"{{"benches": ["LIB"], "designs": {designs}, "overrides": {overrides}}}"#
        ))
        .unwrap();
        let rejected = client.post("/sweeps", Some(&idle)).unwrap();
        assert_eq!(rejected.status, 400, "{overrides} must be a bad request");
        let error = rejected.body.get("error").and_then(json::Value::as_str);
        assert!(error.is_some_and(|e| e.starts_with(needle)), "{error:?}");
    }
    let status = client.get("/status").unwrap().ok().unwrap();
    let sweeps = status.get("sweeps").and_then(json::Value::as_arr).unwrap();
    assert!(sweeps.is_empty(), "a rejected grid registered: {status:?}");
    for store in ["cache", "sweeps"] {
        let entries = fs::read_dir(results.join(store)).map_or(0, Iterator::count);
        assert_eq!(entries, 0, "a rejected grid wrote into {store}/");
    }

    let request = json::parse(
        r#"{"benches": ["LIB"], "designs": ["baseline"],
            "overrides": {"max_warps_per_sm": 3, "num_sms": 2}}"#,
    )
    .unwrap();
    let receipt = client
        .post("/sweeps", Some(&request))
        .unwrap()
        .ok()
        .unwrap();
    let id = s(&receipt, "id").to_string();

    // Wait for completion; the single point must be counted as failed.
    let deadline = Instant::now() + Duration::from_secs(120);
    let status = loop {
        let status = client.get(&format!("/sweeps/{id}")).unwrap().ok().unwrap();
        if status.get("complete").and_then(json::Value::as_bool) == Some(true) {
            break status;
        }
        assert!(Instant::now() < deadline, "sweep did not complete");
        std::thread::sleep(Duration::from_millis(100));
    };
    assert_eq!(u(&status, "failed"), 1, "{status:?}");
    // A failed point is terminal but not "done"; nothing may be left over.
    assert_eq!(u(&status, "done"), 0);
    assert_eq!(u(&status, "queued"), 0);
    assert_eq!(u(&status, "running"), 0);

    // The journal carries a `failed` event naming the violated resource.
    let reply = client
        .get(&format!("/sweeps/{id}/events?since=0"))
        .unwrap()
        .ok()
        .unwrap();
    let events = reply.get("events").and_then(json::Value::as_arr).unwrap();
    let failed: Vec<_> = events.iter().filter(|e| s(e, "kind") == "failed").collect();
    assert_eq!(failed.len(), 1, "{events:?}");
    let error = s(failed[0], "error");
    assert!(
        error.contains("can never be placed"),
        "unexpected failure message: {error}"
    );
    assert_eq!(
        events.iter().filter(|e| s(e, "kind") == "complete").count(),
        1
    );

    // Every counter of the failure reads the same point table.
    let metrics = client.get("/metrics").unwrap().ok().unwrap();
    assert_eq!(u(&metrics, "failed"), 1, "{metrics:?}");
    let (_, text) = client.get_text("/metrics?format=prom").unwrap();
    assert!(
        text.lines()
            .any(|l| l == r#"simt_points_resolved_total{resolution="failed"} 1"#),
        "{text}"
    );
    assert_eq!(service.counters().3, 1);

    // `sweepctl tail` replays the journal and exits 1 on the failure.
    let out = Command::new(env!("CARGO_BIN_EXE_sweepctl"))
        .args(["tail", "--addr", &addr, "--timeout", "60", &id])
        .output()
        .expect("run sweepctl");
    assert_eq!(
        out.status.code(),
        Some(1),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAILED"), "tail output: {stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("point(s) failed"), "tail stderr: {stderr}");

    // An argument a command does not consume is a usage error — one line,
    // exit 2, no request sent — not something to ignore: a mistyped
    // `shutdown --adr HOST` would otherwise stop whatever daemon the
    // defaults reach. (`--addr` here points every probe at this daemon, so
    // a `shutdown` that got through would be seen.)
    let rejected = |args: &[&str], needle: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_sweepctl"))
            .args(args)
            .args(["--addr", &addr])
            .output()
            .expect("run sweepctl");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a reply");
    };
    for (args, offending) in [
        (&["status", "--port", "1"][..], "--port"),
        (&["shutdown", "--adr", "x"], "--adr"),
        (&["status", "extra"], "extra"),
        (&["metrics", "--prom", "--json"], "--json"),
        (&["tail", &id, "again"], "again"),
    ] {
        rejected(args, &format!("unknown {} option {offending:?}", args[0]));
    }
    // Retired commands fail the same way, as unknown commands (`tail` and
    // `submit --watch` follow a sweep; `watch` is gone).
    for args in [
        &["bench"][..],
        &["check-bench", "record.json"],
        &["watch", &id],
    ] {
        rejected(args, &format!("unknown command {:?}", args[0]));
    }
    // The daemon's log is set by SIMT_LOG / SIMT_LOG_FORMAT only; the flags
    // are unknown options, refused before anything binds.
    for flag in ["--log-level", "--log-format"] {
        let out = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args([flag, "debug", "--port", "0"])
            .output()
            .expect("run serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown option {flag:?}")),
            "{flag}: {stderr}"
        );
    }
    // The forms each command does take still work, against a daemon the
    // rejected `shutdown` left running.
    for accepted in [&["status"][..], &["metrics"], &["metrics", "--prom"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_sweepctl"))
            .args(accepted)
            .args(["--addr", &addr])
            .output()
            .expect("run sweepctl");
        assert_eq!(out.status.code(), Some(0), "{accepted:?}");
        assert!(!out.stdout.is_empty(), "{accepted:?} printed nothing");
    }
    client.get("/status").unwrap().ok().unwrap();

    client.post("/shutdown", None).unwrap().ok().unwrap();
    serving.join().unwrap();
    let _ = fs::remove_dir_all(&results);
}

/// `serve --jobs` above the ceiling is refused at parse time, before the
/// worker pool exists. The trailing bad `--port` makes a regression fail
/// at parse time too, instead of starting a daemon.
#[test]
fn oversized_jobs_is_a_usage_error() {
    let over = (simt_harness::job::MAX_JOBS + 1).to_string();
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--jobs", &over, "--port", "x"])
        .output()
        .expect("run serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("--jobs must be at most 256"), "{stderr}");
}

/// An empty `--results` or `--port-file` would mean the working directory;
/// both are refused at parse time. The trailing bad `--port` keeps a
/// regression from starting a daemon.
#[test]
fn empty_paths_are_usage_errors() {
    for flag in ["--results", "--port-file"] {
        let out = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args([flag, "", "--port", "x"])
            .output()
            .expect("run serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("{flag}: empty value")),
            "{flag}: {stderr}"
        );
    }
}

/// `check-log` validates against the schema compiled into the binary, so
/// it gives the same verdict from any working directory.
#[test]
fn check_log_works_outside_the_repository() {
    let dir = std::env::temp_dir().join(format!("dac-check-log-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let line = |level: &str| {
        format!(
            r#"{{"schema":"dac-log/v1","ts_us":1,"level":"{level}","target":"t","msg":"m","fields":{{}}}}"#
        )
    };
    fs::write(
        dir.join("valid.log"),
        format!("progress line\n{}\n", line("info")),
    )
    .unwrap();
    fs::write(dir.join("invalid.log"), format!("{}\n", line("loud"))).unwrap();
    for (file, code) in [("valid.log", 0), ("invalid.log", 1)] {
        let out = Command::new(env!("CARGO_BIN_EXE_sweepctl"))
            .args(["check-log", file])
            .current_dir(&dir)
            .output()
            .expect("run sweepctl");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{file}: {stderr}");
    }
    let _ = fs::remove_dir_all(&dir);
}

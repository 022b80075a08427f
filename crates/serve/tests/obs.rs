//! End-to-end observability tests over a real socket: the per-sweep event
//! journal long-poll (`GET /sweeps/:id/events`) and the Prometheus text
//! exposition (`GET /metrics?format=prom`); and the `dac-log/v1` lines the
//! logger writes, against the checked-in schema.

use simt_harness::json;
use simt_obs::log::{self, Format, Level};
use simt_serve::client::Client;
use simt_serve::http::Server;
use simt_serve::{ServeConfig, SweepService};
use std::fs;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn u(v: &json::Value, name: &str) -> u64 {
    v.get(name).and_then(json::Value::as_u64).unwrap()
}

fn s<'a>(v: &'a json::Value, name: &str) -> &'a str {
    v.get(name).and_then(json::Value::as_str).unwrap()
}

fn start(tag: &str) -> (Arc<SweepService>, std::thread::JoinHandle<()>, Client) {
    let results = std::env::temp_dir().join(format!("dac-serve-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&results);
    let service = Arc::new(SweepService::new(ServeConfig::new(&results, 2)));
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let handle = server.handle();
    let serving = std::thread::spawn(move || server.serve());
    let client = Client::new(handle.addr().to_string());
    (service, serving, client)
}

fn submit_grid(client: &Client) -> String {
    let request = json::parse(
        r#"{"benches": ["LIB"], "designs": ["baseline", "dac"],
            "overrides": {"num_sms": 2, "max_warps_per_sm": 16}}"#,
    )
    .unwrap();
    let receipt = client
        .post("/sweeps", Some(&request))
        .unwrap()
        .ok()
        .unwrap();
    s(&receipt, "id").to_string()
}

#[test]
fn events_long_poll_streams_in_order_and_since_resumes() {
    let (_service, serving, client) = start("events");
    assert_eq!(
        client.get("/sweeps/sweep-zzz/events").unwrap().status,
        404,
        "unknown sweep id"
    );
    let id = submit_grid(&client);

    // Tail the journal with a since cursor until the sweep completes.
    let deadline = Instant::now() + Duration::from_secs(300);
    let mut since = 0u64;
    let mut events = Vec::new();
    loop {
        let reply = client
            .get(&format!(
                "/sweeps/{id}/events?since={since}&timeout_ms=2000"
            ))
            .unwrap()
            .ok()
            .unwrap();
        assert_eq!(s(&reply, "schema"), "dac-sweep-events/v1");
        assert_eq!(u(&reply, "since"), since);
        assert_eq!(u(&reply, "dropped"), 0, "journal must not overflow here");
        let batch = reply.get("events").and_then(json::Value::as_arr).unwrap();
        for e in batch {
            assert!(u(e, "seq") >= since, "no events before the cursor");
            events.push(e.clone());
        }
        let next = u(&reply, "next");
        assert!(next >= since);
        since = next;
        if reply.get("complete").and_then(json::Value::as_bool) == Some(true) {
            break;
        }
        assert!(Instant::now() < deadline, "tail timed out");
    }

    // Seqs are dense and in order; the stream replays the whole sweep:
    // 2 started + 2 finished + 1 complete.
    for (i, e) in events.iter().enumerate() {
        assert_eq!(u(e, "seq"), i as u64, "events arrive in order");
    }
    assert_eq!(events.len(), 5, "{events:?}");
    let kinds: Vec<&str> = events.iter().map(|e| s(e, "kind")).collect();
    assert_eq!(kinds.iter().filter(|k| **k == "started").count(), 2);
    assert_eq!(kinds.iter().filter(|k| **k == "finished").count(), 2);
    assert_eq!(*kinds.last().unwrap(), "complete");
    for e in &events {
        if s(e, "kind") == "finished" {
            assert_eq!(s(e, "resolution"), "executed");
            assert_eq!(s(e, "run").len(), 16, "run key is 16 hex");
            assert!(u(e, "cycles") > 0);
        }
    }

    // A since cursor in the middle resumes without loss or duplication.
    let reply = client
        .get(&format!("/sweeps/{id}/events?since=3"))
        .unwrap()
        .ok()
        .unwrap();
    let resumed = reply.get("events").and_then(json::Value::as_arr).unwrap();
    assert_eq!(resumed.len(), 2);
    assert_eq!(u(&resumed[0], "seq"), 3);
    assert_eq!(u(&resumed[1], "seq"), 4);
    assert_eq!(
        reply.get("complete").and_then(json::Value::as_bool),
        Some(true)
    );

    // since == next on a complete sweep returns immediately with no events.
    let reply = client
        .get(&format!("/sweeps/{id}/events?since=5"))
        .unwrap()
        .ok()
        .unwrap();
    assert!(reply
        .get("events")
        .and_then(json::Value::as_arr)
        .unwrap()
        .is_empty());

    client.post("/shutdown", None).unwrap().ok().unwrap();
    serving.join().unwrap();
}

#[test]
fn prom_exposition_over_http() {
    let (_service, serving, client) = start("prom");
    let id = submit_grid(&client);
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let status = client.get(&format!("/sweeps/{id}")).unwrap().ok().unwrap();
        if status.get("complete").and_then(json::Value::as_bool) == Some(true) {
            break;
        }
        assert!(Instant::now() < deadline, "sweep timed out");
        std::thread::sleep(Duration::from_millis(100));
    }

    // The JSON document reports p50/p90/p99 for every endpoint seen so far.
    let metrics = client.get("/metrics").unwrap().ok().unwrap();
    let endpoints = metrics.get("endpoints").unwrap();
    for label in ["POST /sweeps", "GET /sweeps/:id"] {
        let e = endpoints.get(label).unwrap_or_else(|| panic!("no {label}"));
        assert!(u(e, "count") >= 1);
        for q in ["p50_us", "p90_us", "p99_us", "max_us"] {
            assert!(e.get(q).is_some(), "{label} missing {q}");
        }
        assert!(u(e, "p50_us") <= u(e, "p99_us"));
        assert!(u(e, "p99_us") <= u(e, "max_us"));
    }

    // The Prometheus rendering scrapes with the right content type and
    // parses back; the families the smoke relies on are all present.
    let (status, text) = client.get_text("/metrics?format=prom").unwrap();
    assert_eq!(status, 200);
    let samples = simt_obs::prom::parse(&text).unwrap();
    assert!(!samples.is_empty());
    let names: Vec<&str> = samples.iter().map(|s| s.name.as_str()).collect();
    for family in [
        "simt_http_request_duration_us_bucket",
        "simt_http_request_duration_us_sum",
        "simt_http_request_duration_us_count",
        "simt_point_wall_us_count",
        "simt_points_resolved_total",
        "simt_queue_depth",
        "simt_uptime_seconds",
    ] {
        assert!(names.contains(&family), "missing {family} in:\n{text}");
    }
    let executed = samples
        .iter()
        .find(|s| {
            s.name == "simt_points_resolved_total"
                && s.labels
                    .iter()
                    .any(|(k, v)| k == "resolution" && v == "executed")
        })
        .expect("resolution counter");
    assert_eq!(executed.value, 2.0);
    // An unknown format is a 400, not silent JSON.
    assert_eq!(client.get_text("/metrics?format=xml").unwrap().0, 400);

    // There is no HTML dashboard: `/dashboard` is an unknown route.
    let gone = client.get("/dashboard").unwrap();
    assert_eq!(gone.status, 404);
    assert_eq!(s(&gone.body, "error"), "no route GET /dashboard");

    client.post("/shutdown", None).unwrap().ok().unwrap();
    serving.join().unwrap();
}

fn schema_errors(line: &json::Value) -> Vec<String> {
    let schema = json::parse(include_str!("../../../schemas/log_v1.schema.json")).unwrap();
    let mut errors = Vec::new();
    json::validate(line, &schema, "$", &mut errors);
    errors
}

#[test]
fn json_log_lines_conform_to_the_checked_in_schema() {
    // The logger is process-global and the other tests here run daemons
    // that log too: switch to JSON before capturing, so every captured line
    // is a dac-log/v1 document, and validate all of them.
    log::set_level(Level::Debug);
    log::set_format(Format::Json);
    let cap = log::capture();
    let awkward = "quote \" backslash \\ newline \n non-ASCII é→✓";
    simt_obs::error!("obs.schema", "error event"; code = 7u64);
    simt_obs::warn!("obs.schema", "warn event"; ratio = 0.5f64, ok = false);
    simt_obs::info!("obs.schema", awkward; text = awkward);
    simt_obs::debug!("obs.schema", "debug event"; delta = -3i64);
    simt_obs::log_at!(
        Level::Info,
        Some(log::next_span()),
        "obs.schema",
        "spanned event"
    );
    let out = cap.take();
    drop(cap);
    log::set_format(Format::Text);
    log::set_level(Level::Info);

    let mut ours = Vec::new();
    for line in out.lines() {
        let value = json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        let errors = schema_errors(&value);
        assert!(errors.is_empty(), "{line}: {errors:?}");
        if value.get("target").and_then(json::Value::as_str) == Some("obs.schema") {
            ours.push(value);
        }
    }
    let levels: Vec<&str> = ours.iter().map(|v| s(v, "level")).collect();
    assert_eq!(levels, ["error", "warn", "info", "debug", "info"]);
    assert_eq!(s(&ours[2], "msg"), awkward, "message escaping round-trips");
    let fields = ours[2].get("fields").unwrap();
    assert_eq!(s(fields, "text"), awkward, "field escaping round-trips");
    assert!(ours[..4].iter().all(|v| v.get("span").is_none()));
    assert!(u(&ours[4], "span") >= 1);

    // Narrowing the validator must not turn it into accepting everything:
    // an unknown level and a span of 0 are each reported.
    let bad = json::parse(
        r#"{"schema":"dac-log/v1","ts_us":1,"level":"trace","target":"t","msg":"m","span":0,"fields":{}}"#,
    )
    .unwrap();
    let errors = schema_errors(&bad);
    assert_eq!(errors.len(), 2, "{errors:?}");
    assert!(errors[0].starts_with("$.level"), "{errors:?}");
    assert!(errors[1].starts_with("$.span"), "{errors:?}");
}

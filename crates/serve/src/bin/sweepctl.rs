//! `sweepctl` — client for the sweep daemon (`serve`).
//!
//! Submits design-space grids, follows them to completion, fetches raw
//! `dac-run/v1` artifacts out of the shared store, and validates
//! `dac-log/v1` logs. Machine-readable output (JSON documents) goes to
//! stdout; progress lines go to stderr.

use simt_harness::json::{self, Value};
use simt_serve::client::Client;
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage: sweepctl <command> [options]

commands:
  submit       submit a grid (--bench A,B --scenarios S --designs D --scale N
               --set k=v ...); add --watch to follow its event journal
               (on stderr) until it completes, then print its final
               status document
  tail ID      stream the sweep's event journal live (point started /
               finished / failed, resolution, wall time); --json prints
               the raw event documents instead of human lines
  fetch KEY    print the raw dac-run/v1 artifact for a 16-hex run key
               (--out FILE writes it to disk instead)
  status       print the service overview
  metrics      print service counters and p50/p90/p99 endpoint latency;
               --prom prints the Prometheus text exposition instead
  shutdown     stop the daemon
  check-log FILE
               validate every dac-log/v1 line in FILE against
               schemas/log_v1.schema.json

connection options (all commands):
  --addr HOST:PORT   daemon address (default 127.0.0.1:7878)
  --port-file PATH   read the port from PATH (as written by serve
                     --port-file), host 127.0.0.1
  --timeout SECS     submit --watch / tail completion timeout (default 600)";

fn usage_exit(error: &str) -> ! {
    if error == "help" {
        println!("{USAGE}");
        std::process::exit(0);
    }
    eprintln!("sweepctl: {error} (run `sweepctl --help` for usage)");
    std::process::exit(2);
}

fn fail(error: &str) -> ! {
    eprintln!("sweepctl: {error}");
    std::process::exit(1);
}

/// Flags shared by every command, split away from command-specific ones.
struct Common {
    addr: String,
    timeout: Duration,
    rest: Vec<String>,
}

fn parse_common(raw: &[String]) -> Common {
    let mut addr: Option<String> = None;
    let mut port_file: Option<String> = None;
    let mut timeout = Duration::from_secs(600);
    let mut rest = Vec::new();
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage_exit(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--addr" => addr = Some(value("--addr")),
            "--port-file" => port_file = Some(value("--port-file")),
            "--timeout" => {
                timeout = Duration::from_secs(
                    value("--timeout")
                        .parse()
                        .unwrap_or_else(|_| usage_exit("--timeout: expected seconds")),
                )
            }
            "-h" | "--help" => usage_exit("help"),
            other => rest.push(other.to_string()),
        }
    }
    let addr = match (addr, port_file) {
        (Some(a), _) => a,
        (None, Some(path)) => {
            let port = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| fail(&format!("cannot read port file {path}: {e}")));
            format!("127.0.0.1:{}", port.trim())
        }
        (None, None) => "127.0.0.1:7878".into(),
    };
    Common {
        addr,
        timeout,
        rest,
    }
}

/// The arguments of a command that takes at most one positional (`wants`
/// names it for the error when it is missing) and at most one value-less
/// flag: the positional and whether the flag was given. Anything the
/// command would not consume is a usage error, raised before any request
/// is sent.
fn one_arg(
    command: &str,
    rest: &[String],
    wants: Option<&str>,
    flag: Option<&str>,
) -> (String, bool) {
    let mut positional = None;
    let mut flagged = false;
    for arg in rest {
        if Some(arg.as_str()) == flag {
            flagged = true;
        } else if wants.is_some() && positional.is_none() && !arg.starts_with('-') {
            positional = Some(arg.clone());
        } else {
            usage_exit(&format!("unknown {command} option {arg:?}"));
        }
    }
    match (wants, positional) {
        (Some(what), None) => usage_exit(&format!("{command} needs {what}")),
        (_, positional) => (positional.unwrap_or_default(), flagged),
    }
}

fn main() {
    simt_obs::log::init_from_env();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        usage_exit("missing command");
    }
    let command = raw[0].clone();
    if command == "-h" || command == "--help" {
        usage_exit("help");
    }
    let common = parse_common(&raw[1..]);
    let client = Client::new(common.addr.clone());
    match command.as_str() {
        "submit" => submit(&client, &common),
        "tail" => {
            let (id, json_mode) = one_arg("tail", &common.rest, Some("a sweep id"), Some("--json"));
            tail(&client, &id, common.timeout, json_mode, &mut io::stdout());
        }
        "fetch" => fetch(&client, &common),
        "status" => {
            one_arg("status", &common.rest, None, None);
            print_endpoint(&client, "/status");
        }
        "metrics" => {
            if one_arg("metrics", &common.rest, None, Some("--prom")).1 {
                let (status, text) = client
                    .get_text("/metrics?format=prom")
                    .unwrap_or_else(|e| fail(&e));
                if status != 200 {
                    fail(&format!("HTTP {status} from /metrics?format=prom"));
                }
                print!("{text}");
            } else {
                print_endpoint(&client, "/metrics");
            }
        }
        "shutdown" => {
            one_arg("shutdown", &common.rest, None, None);
            let v = client
                .post("/shutdown", None)
                .and_then(|r| r.ok())
                .unwrap_or_else(|e| fail(&e));
            println!("{}", v.to_json());
        }
        "check-log" => {
            let (path, _) = one_arg("check-log", &common.rest, Some("a file"), None);
            std::process::exit(check_log_file(Path::new(&path)));
        }
        other => usage_exit(&format!("unknown command {other:?}")),
    }
}

fn print_endpoint(client: &Client, path: &str) {
    let v = client
        .get(path)
        .and_then(|r| r.ok())
        .unwrap_or_else(|e| fail(&e));
    println!("{}", v.to_json());
}

/// Build a grid-request JSON document from `submit`'s flags.
fn grid_json(
    benches: &[String],
    scenarios: &[String],
    designs: &[String],
    scale: u64,
    sets: &[(String, String)],
) -> Value {
    let strs = |items: &[String]| Value::Arr(items.iter().map(|s| Value::Str(s.clone())).collect());
    let mut fields = Vec::new();
    if !benches.is_empty() {
        fields.push(("benches".into(), strs(benches)));
    }
    if !scenarios.is_empty() {
        fields.push(("scenarios".into(), strs(scenarios)));
    }
    if !designs.is_empty() {
        fields.push(("designs".into(), strs(designs)));
    }
    fields.push(("scale".into(), Value::Int(scale)));
    if !sets.is_empty() {
        fields.push((
            "overrides".into(),
            Value::Obj(
                sets.iter()
                    .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                    .collect(),
            ),
        ));
    }
    Value::Obj(fields)
}

fn split_list(text: &str) -> Vec<String> {
    text.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

fn submit(client: &Client, common: &Common) {
    let mut benches = Vec::new();
    let mut scenarios = Vec::new();
    let mut designs = Vec::new();
    let mut scale = 1u64;
    let mut sets = Vec::new();
    let mut watch_it = false;
    let mut it = common.rest.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage_exit(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--bench" | "--benches" => benches = split_list(&value("--bench")),
            "--scenarios" => scenarios = split_list(&value("--scenarios")),
            "--designs" => designs = split_list(&value("--designs")),
            "--scale" => {
                scale = value("--scale")
                    .parse()
                    .unwrap_or_else(|_| usage_exit("--scale: expected an integer"))
            }
            "--set" => {
                let pair = value("--set");
                let (k, v) = pair
                    .split_once('=')
                    .unwrap_or_else(|| usage_exit("--set: expected key=value"));
                sets.push((k.to_string(), v.to_string()));
            }
            "--watch" => watch_it = true,
            other => usage_exit(&format!("unknown submit option {other:?}")),
        }
    }
    let request = grid_json(&benches, &scenarios, &designs, scale, &sets);
    let receipt = client
        .post("/sweeps", Some(&request))
        .and_then(|r| r.ok())
        .unwrap_or_else(|e| fail(&e));
    let id = receipt
        .get("id")
        .and_then(Value::as_str)
        .unwrap_or_else(|| fail("receipt has no id"))
        .to_string();
    eprintln!(
        "sweepctl: {id}: {} point(s), {} new, {} already done, {} in flight",
        receipt.get("total").and_then(Value::as_u64).unwrap_or(0),
        receipt.get("new").and_then(Value::as_u64).unwrap_or(0),
        receipt
            .get("already_done")
            .and_then(Value::as_u64)
            .unwrap_or(0),
        receipt
            .get("inflight_shared")
            .and_then(Value::as_u64)
            .unwrap_or(0),
    );
    if watch_it {
        tail(client, &id, common.timeout, false, &mut io::stderr());
        print_endpoint(client, &format!("/sweeps/{id}"));
    } else {
        println!("{}", receipt.to_json());
    }
}

/// Follow a sweep's event journal live: long-poll `/sweeps/:id/events`
/// with a `since` cursor, writing each event to `out` as it arrives (one
/// human line, or the raw document with `json_mode`), until the sweep
/// completes. Exits 1 on timeout or if any point failed.
fn tail(client: &Client, id: &str, timeout: Duration, json_mode: bool, out: &mut dyn Write) {
    let deadline = Instant::now() + timeout;
    let mut since = 0u64;
    let mut failures = 0u64;
    loop {
        let wait_ms = deadline
            .saturating_duration_since(Instant::now())
            .as_millis()
            .min(10_000);
        let reply = client
            .get(&format!(
                "/sweeps/{id}/events?since={since}&timeout_ms={wait_ms}"
            ))
            .and_then(|r| r.ok())
            .unwrap_or_else(|e| fail(&e));
        let dropped = reply.get("dropped").and_then(Value::as_u64).unwrap_or(0);
        if dropped > since {
            eprintln!(
                "sweepctl: {id}: journal overflowed; {} event(s) before this cursor were dropped",
                dropped - since
            );
        }
        let events = reply
            .get("events")
            .and_then(Value::as_arr)
            .map(<[Value]>::to_vec)
            .unwrap_or_default();
        for event in &events {
            let line = if json_mode {
                event.to_json()
            } else {
                event_line(id, event)
            };
            let _ = writeln!(out, "{line}");
            if event.get("kind").and_then(Value::as_str) == Some("failed") {
                failures += 1;
            }
        }
        since = reply
            .get("next")
            .and_then(Value::as_u64)
            .unwrap_or_else(|| fail("events reply has no next cursor"));
        if reply.get("complete").and_then(Value::as_bool) == Some(true) {
            if failures > 0 {
                fail(&format!("{id}: {failures} point(s) failed"));
            }
            return;
        }
        if Instant::now() >= deadline {
            fail(&format!("{id}: timed out after {}s", timeout.as_secs()));
        }
    }
}

/// The human-readable line for one journal event.
fn event_line(id: &str, event: &Value) -> String {
    let s = |name: &str| event.get(name).and_then(Value::as_str).unwrap_or("");
    let wall_s = event.get("wall_us").and_then(Value::as_u64).unwrap_or(0) as f64 / 1e6;
    match s("kind") {
        "started" => format!("{} started", s("label")),
        "finished" => {
            let cycles = event.get("cycles").and_then(Value::as_u64).unwrap_or(0);
            format!(
                "{} finished ({}, {wall_s:.3}s, {cycles} cycles)",
                s("label"),
                s("resolution"),
            )
        }
        "failed" => format!("{} FAILED: {}", s("label"), s("error")),
        "complete" => format!("{id} complete ({wall_s:.3}s)"),
        other => format!("{} {other}", s("label")),
    }
}

fn fetch(client: &Client, common: &Common) {
    let mut key: Option<String> = None;
    let mut out: Option<String> = None;
    let mut it = common.rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                out = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| usage_exit("--out needs a path")),
                )
            }
            k if key.is_none() => key = Some(k.to_string()),
            other => usage_exit(&format!("unknown fetch option {other:?}")),
        }
    }
    let key = key.unwrap_or_else(|| usage_exit("fetch needs a 16-hex run key"));
    let response = client
        .get(&format!("/runs/{key}"))
        .unwrap_or_else(|e| fail(&e));
    if response.status != 200 {
        let _ = response.ok().map_err(|e| fail(&e));
        return;
    }
    // The raw body, not a re-serialization: fetched artifacts must be
    // byte-identical to what the store holds.
    match out {
        Some(path) => std::fs::write(&path, &response.raw)
            .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}"))),
        None => println!("{}", response.raw),
    }
}

/// The checked-in `dac-log/v1` schema, compiled in so that `check-log`
/// works from any directory while the repository file stays the one source.
const LOG_SCHEMA: &str = include_str!("../../../../schemas/log_v1.schema.json");

/// Validate every `dac-log/v1` line in a log file against
/// `schemas/log_v1.schema.json`. Non-JSON lines (CLI progress output mixed
/// into the same stream) are skipped; a JSON line claiming the dac-log/v1
/// schema must validate. Returns the process exit code (0 = valid, and at
/// least one dac-log/v1 line was found).
fn check_log_file(path: &Path) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("sweepctl: cannot read {}: {e}", path.display());
            return 2;
        }
    };
    let schema = json::parse(LOG_SCHEMA).expect("the compiled-in log schema is valid JSON");
    let mut checked = 0usize;
    let mut bad = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if !line.starts_with('{') {
            continue; // progress output, not a structured event
        }
        let value = match json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                eprintln!(
                    "sweepctl: {}:{}: invalid JSON: {e}",
                    path.display(),
                    lineno + 1
                );
                bad += 1;
                continue;
            }
        };
        if value.get("schema").and_then(Value::as_str) != Some("dac-log/v1") {
            continue; // some other JSON document in the stream
        }
        checked += 1;
        let mut errors = Vec::new();
        json::validate(&value, &schema, "$", &mut errors);
        for e in &errors {
            eprintln!("sweepctl: {}:{}: {e}", path.display(), lineno + 1);
        }
        bad += usize::from(!errors.is_empty());
    }
    if checked == 0 {
        eprintln!("sweepctl: {}: no dac-log/v1 lines found", path.display());
        return 1;
    }
    if bad > 0 {
        eprintln!(
            "sweepctl: {}: {bad} invalid line(s) out of {checked} checked",
            path.display()
        );
        return 1;
    }
    println!(
        "sweepctl: {}: {checked} dac-log/v1 line(s), all valid",
        path.display()
    );
    0
}

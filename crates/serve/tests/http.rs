//! End-to-end tests over real sockets: the API round trip through the
//! client (bind an ephemeral port, submit a grid, poll it to completion,
//! fetch an artifact, re-submit asserting the store serves everything),
//! then the transport itself — persistent connections, their close rules
//! and framing — spoken byte by byte on raw sockets, and the client's one
//! reconnect through a fake server.

use simt_harness::json;
use simt_serve::client::Client;
use simt_serve::http::{Server, ServerHandle};
use simt_serve::{ServeConfig, SweepService};
use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn u(v: &json::Value, name: &str) -> u64 {
    v.get(name).and_then(json::Value::as_u64).unwrap()
}

#[test]
fn http_api_round_trip() {
    let results = std::env::temp_dir().join(format!("dac-serve-test-http-{}", std::process::id()));
    let _ = fs::remove_dir_all(&results);
    let service = Arc::new(SweepService::new(ServeConfig::new(&results, 2)));
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let handle = server.handle();
    let serving = std::thread::spawn(move || server.serve());
    let client = Client::new(handle.addr().to_string());

    // Bad requests are 400s with the valid names, not daemon crashes.
    let bad = client
        .post(
            "/sweeps",
            Some(&json::parse(r#"{"benches": ["WARP9"]}"#).unwrap()),
        )
        .unwrap();
    assert_eq!(bad.status, 400);
    assert!(
        bad.raw.contains("LIB"),
        "error lists valid names: {}",
        bad.raw
    );
    assert_eq!(client.get("/sweeps/sweep-zzz").unwrap().status, 404);
    assert_eq!(client.get("/runs/not-hex").unwrap().status, 400);
    // from_str_radix alone would accept this 16-char key ('+' prefix) and
    // silently resolve the wrong hash.
    assert_eq!(client.get("/runs/+23456789abcdef0").unwrap().status, 400);
    assert_eq!(client.get("/runs/0123456789abcdef").unwrap().status, 404);

    // Submit a 2-point grid and poll it to completion.
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
    let id = receipt
        .get("id")
        .and_then(json::Value::as_str)
        .unwrap()
        .to_string();
    assert_eq!(u(&receipt, "total"), 2);
    assert_eq!(u(&receipt, "new"), 2);
    let deadline = Instant::now() + Duration::from_secs(300);
    let status = loop {
        let status = client.get(&format!("/sweeps/{id}")).unwrap().ok().unwrap();
        if status.get("complete").and_then(json::Value::as_bool) == Some(true) {
            break status;
        }
        assert!(Instant::now() < deadline, "sweep timed out");
        std::thread::sleep(Duration::from_millis(100));
    };
    assert_eq!(u(&status, "done"), 2);
    assert_eq!(u(&status, "executed"), 2);
    assert_eq!(u(&status, "failed"), 0);

    // Fetch one run artifact: exactly the bytes the store holds.
    let points = status.get("points").and_then(json::Value::as_arr).unwrap();
    let run = points[0].get("run").and_then(json::Value::as_str).unwrap();
    let fetched = client.get(&format!("/runs/{run}")).unwrap();
    assert_eq!(fetched.status, 200);
    let on_disk = fs::read_to_string(results.join("cache").join(format!("{run}.json"))).unwrap();
    assert_eq!(fetched.raw, on_disk, "served artifact is byte-identical");
    assert_eq!(
        fetched.body.get("schema").and_then(json::Value::as_str),
        Some("dac-run/v1")
    );

    // Re-submitting the identical grid is answered from the store: the
    // receipt reports every point already done, and nothing re-executes.
    let again = client
        .post("/sweeps", Some(&request))
        .unwrap()
        .ok()
        .unwrap();
    assert_eq!(
        again.get("resubmitted").and_then(json::Value::as_bool),
        Some(true)
    );
    assert_eq!(u(&again, "already_done"), 2);
    let metrics = client.get("/metrics").unwrap().ok().unwrap();
    assert_eq!(u(&metrics, "executed"), 2, "no re-execution on resubmit");
    assert_eq!(u(&metrics, "queue_depth"), 0);
    assert_eq!(
        metrics.get("schema").and_then(json::Value::as_str),
        Some("dac-serve/v1")
    );
    // Latency accounting saw the endpoints this test exercised (a request
    // is recorded after it is routed, and this /metrics document is built
    // while routing, so it can't list this very call — but all earlier
    // traffic must be there).
    let endpoints = metrics.get("endpoints").unwrap();
    for label in ["POST /sweeps", "GET /sweeps/:id", "GET /runs/:key"] {
        assert!(
            endpoints.get(label).map(|e| u(e, "count") >= 1) == Some(true),
            "missing latency bucket for {label}"
        );
    }

    // Service overview.
    let overview = client.get("/status").unwrap().ok().unwrap();
    assert_eq!(
        overview.get("schema").and_then(json::Value::as_str),
        Some("dac-serve/v1")
    );
    assert_eq!(u(&overview, "workers"), 2);
    let sweeps = overview
        .get("sweeps")
        .and_then(json::Value::as_arr)
        .unwrap();
    assert_eq!(sweeps.len(), 1);
    assert_eq!(
        sweeps[0].get("complete").and_then(json::Value::as_bool),
        Some(true)
    );

    // Shutdown over the API stops the accept loop.
    let ack = client.post("/shutdown", None).unwrap().ok().unwrap();
    assert_eq!(
        ack.get("stopping").and_then(json::Value::as_bool),
        Some(true)
    );
    serving.join().unwrap();
    let _ = fs::remove_dir_all(&results);
}

/// A daemon with no submissions on an ephemeral port.
struct Daemon {
    handle: ServerHandle,
    serving: Option<JoinHandle<()>>,
    results: PathBuf,
}

impl Daemon {
    fn start(tag: &str) -> Daemon {
        let results =
            std::env::temp_dir().join(format!("dac-serve-test-http-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&results);
        let service = Arc::new(SweepService::new(ServeConfig::new(&results, 1)));
        let server = Server::bind(service, "127.0.0.1:0").unwrap();
        let handle = server.handle();
        let serving = Some(std::thread::spawn(move || server.serve()));
        Daemon {
            handle,
            serving,
            results,
        }
    }

    /// A raw connection. The read timeout is well under the server's idle
    /// limit, so a connection the server should have closed fails the
    /// test instead of closing late.
    fn connect(&self) -> BufReader<TcpStream> {
        let stream = TcpStream::connect(self.handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        BufReader::new(stream)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(serving) = self.serving.take() {
            serving.join().unwrap();
        }
        let _ = fs::remove_dir_all(&self.results);
    }
}

/// Write raw request bytes.
fn send(conn: &mut BufReader<TcpStream>, bytes: &[u8]) {
    conn.get_mut().write_all(bytes).unwrap();
}

/// Read one response framed by its `Content-Length`: (status, the
/// `Connection` header's value, body).
fn response(conn: &mut BufReader<TcpStream>) -> (u16, String, String) {
    let mut status_line = String::new();
    conn.read_line(&mut status_line).unwrap();
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
    let (mut length, mut connection) = (None, String::new());
    loop {
        let mut header = String::new();
        conn.read_line(&mut header).unwrap();
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        let (name, value) = header.split_once(':').unwrap();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => length = Some(value.trim().parse::<usize>().unwrap()),
            "connection" => connection = value.trim().to_string(),
            _ => {}
        }
    }
    let mut body = vec![0; length.expect("every response has a Content-Length")];
    conn.read_exact(&mut body).unwrap();
    (status, connection, String::from_utf8(body).unwrap())
}

/// The server closed the connection: the next read is end of file (not a
/// timeout, and not another response).
fn assert_eof(conn: &mut BufReader<TcpStream>) {
    let mut rest = Vec::new();
    conn.read_to_end(&mut rest)
        .expect("the server closes the connection");
    assert!(
        rest.is_empty(),
        "nothing after the last response: {:?}",
        String::from_utf8_lossy(&rest)
    );
}

const STATUS: &[u8] = b"GET /status HTTP/1.1\r\nHost: test\r\n\r\n";

#[test]
fn one_connection_carries_several_requests() {
    let daemon = Daemon::start("keepalive");
    let mut conn = daemon.connect();
    send(&mut conn, STATUS);
    let (status, connection, body) = response(&mut conn);
    assert_eq!((status, connection.as_str()), (200, "keep-alive"));
    assert!(body.contains("dac-serve/v1"), "{body}");
    // A rejected grid is an answer, not a transport error: its body is
    // framed exactly, so the next request on the connection parses.
    let grid = br#"{"benches": ["WARP9"]}"#;
    let post = format!(
        "POST /sweeps HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        grid.len()
    );
    send(&mut conn, &[post.as_bytes(), grid].concat());
    let (status, connection, body) = response(&mut conn);
    assert_eq!((status, connection.as_str()), (400, "keep-alive"));
    assert!(body.contains("LIB"), "{body}");
    // Two requests in one write get two responses, in order.
    send(
        &mut conn,
        &[b"GET /metrics HTTP/1.1\r\n\r\n".as_slice(), STATUS].concat(),
    );
    let (status, _, body) = response(&mut conn);
    assert_eq!(status, 200);
    assert!(body.contains("cache_hit_rate"), "{body}");
    let (status, connection, body) = response(&mut conn);
    assert_eq!((status, connection.as_str()), (200, "keep-alive"));
    assert!(body.contains("queue_depth"), "{body}");
}

#[test]
fn connection_close_and_http_1_0_end_the_connection() {
    let daemon = Daemon::start("close");
    for request in [
        b"GET /status HTTP/1.1\r\nConnection: close\r\n\r\n".as_slice(),
        b"GET /status HTTP/1.1\r\nConnection: Upgrade, Close\r\n\r\n",
        b"GET /status HTTP/1.0\r\n\r\n",
    ] {
        let mut conn = daemon.connect();
        send(&mut conn, STATUS);
        assert_eq!(response(&mut conn).1, "keep-alive");
        send(&mut conn, request);
        let (status, connection, _) = response(&mut conn);
        assert_eq!((status, connection.as_str()), (200, "close"));
        assert_eof(&mut conn);
    }
}

#[test]
fn malformed_requests_get_a_400_then_end_of_file() {
    let daemon = Daemon::start("malformed");
    let big_header = format!(
        "GET /status HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "x".repeat(20 << 10)
    );
    // Each bad request carries a well-formed request as its would-be body:
    // it must never be answered.
    let smuggled = "GET /status HTTP/1.1\r\n\r\n";
    let cases = [
        ("garbage", "\u{1}\u{2} nonsense\r\n\r\n".to_string()),
        (
            "unparsable Content-Length",
            format!("POST /sweeps HTTP/1.1\r\nContent-Length: 2x\r\n\r\n{smuggled}"),
        ),
        (
            "signed Content-Length",
            format!("POST /sweeps HTTP/1.1\r\nContent-Length: +2\r\n\r\n{smuggled}"),
        ),
        (
            "repeated Content-Length",
            format!(
                "POST /sweeps HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 0\r\n\r\n{smuggled}"
            ),
        ),
        (
            "Transfer-Encoding",
            format!(
                "POST /sweeps HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n{smuggled}"
            ),
        ),
        ("head over the cap", big_header),
    ];
    for (what, request) in cases {
        // Always the second request of its connection: the limits and
        // framing rules hold per request, not only on a fresh connection.
        let mut conn = daemon.connect();
        send(&mut conn, STATUS);
        assert_eq!(response(&mut conn).0, 200, "{what}");
        send(&mut conn, request.as_bytes());
        let (status, connection, body) = response(&mut conn);
        assert_eq!(
            (status, connection.as_str()),
            (400, "close"),
            "{what}: {body}"
        );
        assert_eof(&mut conn);
    }
}

#[test]
fn shutdown_leaves_kept_alive_connections_unanswered() {
    let daemon = Daemon::start("shutdown");
    let mut idle = daemon.connect();
    send(&mut idle, STATUS);
    assert_eq!(response(&mut idle).0, 200);
    let client = Client::new(daemon.handle.addr().to_string());
    let ack = client.post("/shutdown", None).unwrap();
    assert_eq!(ack.status, 200);
    send(&mut idle, STATUS);
    assert_eof(&mut idle);
}

/// Read one request head off a fake server's connection.
fn request_head(conn: &mut BufReader<TcpStream>) -> String {
    let mut head = String::new();
    loop {
        let mut line = String::new();
        if conn.read_line(&mut line).unwrap() == 0 || line == "\r\n" {
            return head;
        }
        head.push_str(&line);
    }
}

#[test]
fn client_reconnects_once_when_the_server_closed_its_idle_connection() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    // One kept-alive response per connection, then the server closes it
    // without saying so — as the daemon does at its idle timeout.
    let fake = std::thread::spawn(move || {
        let mut heads = Vec::new();
        for n in 1..=2 {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = BufReader::new(stream);
            heads.push(request_head(&mut conn));
            let body = format!("{{\"n\": {n}}}");
            let reply = format!(
                "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
                body.len()
            );
            conn.get_mut().write_all(reply.as_bytes()).unwrap();
        }
        heads
    });
    let client = Client::new(addr.clone());
    let n = |r: simt_serve::client::ApiResponse| r.ok().unwrap().get("n").unwrap().as_u64();
    assert_eq!(n(client.get("/first").unwrap()), Some(1));
    // The pooled connection is dead by now; a clone shares the pool, finds
    // it closed, and sends the request again on a fresh connection.
    let heads = {
        let clone = client.clone();
        let second = clone.get("/second").unwrap();
        assert_eq!(n(second), Some(2));
        fake.join().unwrap()
    };
    assert!(heads[0].starts_with("GET /first HTTP/1.1\r\n"), "{heads:?}");
    assert!(
        heads[1].starts_with("GET /second HTTP/1.1\r\n"),
        "{heads:?}"
    );
    // With nobody listening, the one retry fails with the usual error.
    let err = client.get("/third").unwrap_err();
    assert!(
        err.starts_with(&format!("cannot connect to {addr}")),
        "{err}"
    );
}

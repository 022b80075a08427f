//! A dependency-free HTTP/1.1 front end for the sweep service.
//!
//! Deliberately minimal: thread-per-connection, `Connection: close`, JSON
//! bodies only. That is all a lab daemon needs, and it keeps the build
//! offline-clean (no async runtime, no TLS, no frameworks).
//!
//! | Method | Path                 | Body         | Response                      |
//! |--------|----------------------|--------------|-------------------------------|
//! | POST   | `/sweeps`            | grid request | submission receipt            |
//! | GET    | `/sweeps/:id`        | —            | sweep status + per-point list |
//! | GET    | `/sweeps/:id/events` | —            | event journal (long-poll; `?since=N&timeout_ms=M`) |
//! | GET    | `/runs/:key`         | —            | raw `dac-run/v1` artifact     |
//! | GET    | `/status`            | —            | service overview              |
//! | GET    | `/metrics`           | —            | counters + p50/p90/p99 endpoint latency (`?format=prom` for Prometheus text) |
//! | POST   | `/shutdown`          | —            | ack, then the daemon exits    |

use crate::grid::GridRequest;
use crate::service::SweepService;
use simt_harness::json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Largest request body we accept (a grid request is a few hundred bytes;
/// this is purely a safety bound against garbage input).
const MAX_BODY: usize = 1 << 20;

/// Largest request line + header block we accept; a client streaming
/// endless headers gets a 400, not an ever-growing buffer.
const MAX_HEAD: u64 = 16 << 10;

/// Per-connection read timeout: a client that connects and goes silent
/// must not pin a handler thread forever.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Default `/sweeps/:id/events` long-poll hold when the request names no
/// `timeout_ms`.
const DEFAULT_POLL_MS: u64 = 10_000;

/// Hard cap on the long-poll hold — kept under the 30s read timeout
/// [`crate::client::Client`] uses, so a well-behaved client never times
/// out waiting for an intentionally-empty reply.
const MAX_POLL_MS: u64 = 25_000;

/// A bound, not-yet-serving HTTP server over a [`SweepService`].
pub struct Server {
    service: Arc<SweepService>,
    listener: TcpListener,
    stop: Arc<AtomicBool>,
}

/// Handle for stopping a running [`Server`] from another thread.
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the accept loop to exit after the connection in flight (the
    /// self-connect below unblocks `accept` immediately).
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }
}

impl Server {
    /// Bind to `addr` (use port 0 for an ephemeral port) without serving
    /// yet. The bound address is available via [`Server::handle`].
    pub fn bind(service: Arc<SweepService>, addr: &str) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            service,
            listener,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The control handle (address + remote shutdown).
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.listener.local_addr().expect("bound listener"),
            stop: Arc::clone(&self.stop),
        }
    }

    /// Serve until [`ServerHandle::shutdown`] (or `POST /shutdown`).
    /// Blocks the calling thread; connections are handled on short-lived
    /// threads so a slow client never blocks a status poll.
    pub fn serve(self) {
        for conn in self.listener.incoming() {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let service = Arc::clone(&self.service);
            let handle = self.handle();
            std::thread::spawn(move || {
                let _ = handle_connection(stream, &service, &handle);
            });
        }
    }
}

struct Request {
    method: String,
    path: String,
    /// Raw query string (no leading `?`; empty when absent).
    query: String,
    body: String,
}

impl Request {
    /// The value of `name` in the query string, if present. No percent
    /// decoding — the service's parameters are plain integers and tokens.
    fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == name).then_some(v)
        })
    }
}

struct Response {
    status: u16,
    content_type: &'static str,
    body: String,
}

impl Response {
    fn json(status: u16, value: &json::Value) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: value.to_json(),
        }
    }

    fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body,
        }
    }

    fn error(status: u16, message: &str) -> Response {
        Response::json(
            status,
            &json::Value::Obj(vec![("error".into(), json::Value::Str(message.into()))]),
        )
    }
}

fn handle_connection(
    mut stream: TcpStream,
    service: &SweepService,
    handle: &ServerHandle,
) -> std::io::Result<()> {
    let request = match read_request(&mut stream) {
        Ok(r) => r,
        Err(msg) => {
            return write_response(&mut stream, &Response::error(400, &msg));
        }
    };
    let started = Instant::now();
    let (label, response) = route(&request, service);
    service.record_endpoint(label, started.elapsed().as_micros() as u64);
    let written = write_response(&mut stream, &response);
    if label == "POST /shutdown" {
        // Signal only after the ack is on the wire, so the client never
        // sees a torn response when the process exits right behind us.
        service.stop();
        handle.shutdown();
    }
    written
}

/// Dispatch one request. Returns the endpoint label used for latency
/// accounting (the route shape, not the concrete path, so `/sweeps/:id`
/// aggregates across ids).
fn route(req: &Request, service: &SweepService) -> (&'static str, Response) {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/sweeps") => ("POST /sweeps", post_sweeps(req, service)),
        ("GET", "/status") => ("GET /status", Response::json(200, &service.status())),
        ("GET", "/metrics") => {
            let response = match req.query_param("format") {
                Some("prom") => Response::text(200, service.prom_metrics()),
                Some(other) => Response::error(400, &format!("unknown metrics format {other:?}")),
                None => Response::json(200, &service.metrics()),
            };
            ("GET /metrics", response)
        }
        ("POST", "/shutdown") => (
            // The caller triggers the actual stop after the response is
            // written; here we only acknowledge.
            "POST /shutdown",
            Response::json(
                200,
                &json::Value::Obj(vec![("stopping".into(), json::Value::Bool(true))]),
            ),
        ),
        ("GET", path) if path.starts_with("/sweeps/") && path.ends_with("/events") => {
            let id = &path["/sweeps/".len()..path.len() - "/events".len()];
            let since = req
                .query_param("since")
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
            // Long-poll hold time, clamped below the client's own read
            // timeout so a quiet sweep yields an empty reply, not a
            // client-side timeout.
            let timeout_ms = req
                .query_param("timeout_ms")
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(DEFAULT_POLL_MS)
                .min(MAX_POLL_MS);
            let response = match service.sweep_events(id, since, Duration::from_millis(timeout_ms))
            {
                Some(events) => Response::json(200, &events),
                None => Response::error(404, &format!("unknown sweep {id:?}")),
            };
            ("GET /sweeps/:id/events", response)
        }
        ("GET", path) if path.starts_with("/sweeps/") => {
            let id = &path["/sweeps/".len()..];
            let response = match service.sweep_status(id) {
                Some(status) => Response::json(200, &status),
                None => Response::error(404, &format!("unknown sweep {id:?}")),
            };
            ("GET /sweeps/:id", response)
        }
        ("GET", path) if path.starts_with("/runs/") => {
            let key = &path["/runs/".len()..];
            let response = match parse_run_key(key) {
                Some(hash) => match service.cache().load_raw_by_hash(hash) {
                    Some(raw) => Response {
                        status: 200,
                        content_type: "application/json",
                        body: raw,
                    },
                    None => Response::error(404, &format!("no result for run {key}")),
                },
                None => Response::error(400, "run key must be 16 hex digits"),
            };
            ("GET /runs/:key", response)
        }
        _ => (
            "other",
            Response::error(404, &format!("no route {} {}", req.method, req.path)),
        ),
    }
}

/// A run key is exactly 16 ASCII hex digits — stricter than
/// `from_str_radix`, which also accepts a leading `+`.
fn parse_run_key(key: &str) -> Option<u64> {
    if key.len() != 16 || !key.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(key, 16).ok()
}

fn post_sweeps(req: &Request, service: &SweepService) -> Response {
    let parsed = json::parse(&req.body)
        .map_err(|e| format!("invalid JSON body: {e}"))
        .and_then(|v| GridRequest::from_json(&v));
    match parsed {
        Ok(grid) => match service.submit(grid) {
            Ok(receipt) => Response::json(200, &receipt.to_json()),
            Err(e) => Response::error(503, &e),
        },
        Err(e) => Response::error(400, &e),
    }
}

fn read_request(stream: &mut TcpStream) -> Result<Request, String> {
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| format!("cannot set read timeout: {e}"))?;
    let mut reader = BufReader::new(stream);
    // The head (request line + headers) reads through a byte-capped
    // handle; once the cap is hit, read_line returns Ok(0) and we bail.
    let mut head = (&mut reader).take(MAX_HEAD);
    let mut line = String::new();
    head.read_line(&mut line)
        .map_err(|e| format!("bad request line: {e}"))?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_string();
    let target = parts.next().ok_or("missing request path")?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        let n = head
            .read_line(&mut header)
            .map_err(|e| format!("bad header: {e}"))?;
        if n == 0 {
            return Err("headers truncated or too large".into());
        }
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if let Some(value) = header
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
            .and_then(|v| v.parse::<usize>().ok())
        {
            content_length = value;
        }
    }
    if content_length > MAX_BODY {
        return Err(format!("body too large ({content_length} bytes)"));
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader
            .read_exact(&mut body)
            .map_err(|e| format!("short body: {e}"))?;
    }
    Ok(Request {
        method,
        path,
        query,
        body: String::from_utf8_lossy(&body).into_owned(),
    })
}

fn write_response(stream: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let reason = match response.status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        503 => "Service Unavailable",
        _ => "Error",
    };
    write!(
        stream,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        response.status,
        reason,
        response.content_type,
        response.body.len(),
        response.body
    )?;
    stream.flush()
}

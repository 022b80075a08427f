//! A dependency-free HTTP/1.1 front end for the sweep service.
//!
//! Deliberately minimal: thread-per-connection, JSON bodies only, no
//! async runtime, no TLS, no frameworks — all a lab daemon needs, and it
//! keeps the build offline-clean.
//!
//! Connections are persistent (HTTP/1.1 keep-alive): a handler reads
//! requests off one buffered connection until the client closes it or
//! stays idle past a 10 s read timeout. A request is framed by its
//! `Content-Length` alone; one with an unparsable or repeated
//! `Content-Length`, or with any `Transfer-Encoding`, is a 400 and ends
//! the connection, so no leftover body byte is ever read as a request.
//! Every response is written with one `write_all` and says
//! `Connection: keep-alive` or `Connection: close`. The server closes
//! after answering a request that says `Connection: close`, is not
//! HTTP/1.1, is malformed, or is `POST /shutdown`; once a shutdown is
//! acknowledged, every other connection closes at its next request
//! unanswered, or at its idle timeout.
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
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Largest request body we accept (a grid request is a few hundred bytes;
/// this is purely a safety bound against garbage input). Per request.
const MAX_BODY: usize = 1 << 20;

/// Largest request line + header block we accept, per request; a client
/// streaming endless headers gets a 400, not an ever-growing buffer.
const MAX_HEAD: u64 = 16 << 10;

/// Per-connection read timeout, which is also the idle limit between
/// requests: a client that connects and goes silent must not pin a
/// handler thread forever.
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
    quiet: Arc<AtomicBool>,
}

/// Handle for stopping a running [`Server`] from another thread.
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    /// The accept loop exits at its next connection.
    stop: Arc<AtomicBool>,
    /// Connection handlers answer nothing more. Raised before the
    /// `/shutdown` ack is written, so no request read after the ack is
    /// answered; `stop` waits until the ack is on the wire.
    quiet: Arc<AtomicBool>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the accept loop to exit after the connection in flight (the
    /// self-connect below unblocks `accept` immediately).
    pub fn shutdown(&self) {
        self.quiet.store(true, Ordering::SeqCst);
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
            quiet: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The control handle (address + remote shutdown).
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.listener.local_addr().expect("bound listener"),
            stop: Arc::clone(&self.stop),
            quiet: Arc::clone(&self.quiet),
        }
    }

    /// Serve until [`ServerHandle::shutdown`] (or `POST /shutdown`).
    /// Blocks the calling thread; each connection is handled on a thread
    /// of its own for as long as it stays open, so a slow client never
    /// blocks a status poll.
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
    /// HTTP/1.1 without `Connection: close`: the client may send another
    /// request on this connection.
    keep_alive: bool,
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
    stream: TcpStream,
    service: &SweepService,
    handle: &ServerHandle,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let mut conn = BufReader::new(stream);
    loop {
        let request = match read_request(&mut conn) {
            Ok(Some(request)) => request,
            Ok(None) => return Ok(()),
            Err(msg) => return reject(conn, &msg),
        };
        // An acknowledged shutdown answers nothing more.
        if handle.quiet.load(Ordering::SeqCst) {
            return Ok(());
        }
        let started = Instant::now();
        let (label, response) = route(&request, service);
        service.record_endpoint(label, started.elapsed().as_micros() as u64);
        let shutdown = label == "POST /shutdown";
        let keep_alive = request.keep_alive && !shutdown;
        if shutdown {
            // Before the ack: a kept-alive client may send its next
            // request the moment it reads the ack.
            handle.quiet.store(true, Ordering::SeqCst);
        }
        let written = write_response(conn.get_mut(), &response, keep_alive);
        if shutdown {
            // Signal only after the ack is on the wire, so the client never
            // sees a torn response when the process exits right behind us.
            service.stop();
            handle.shutdown();
        }
        written?;
        if !keep_alive {
            return Ok(());
        }
    }
}

/// Answer a malformed request with a 400 and end the connection. The
/// request's unread rest is drained (up to [`MAX_BODY`] bytes) after the
/// write side closes: closing a socket with unread input resets it, and
/// the reset can destroy the 400 before the client reads it.
fn reject(mut conn: BufReader<TcpStream>, msg: &str) -> std::io::Result<()> {
    write_response(conn.get_mut(), &Response::error(400, msg), false)?;
    conn.get_ref().shutdown(Shutdown::Write)?;
    let _ = std::io::copy(&mut conn.take(MAX_BODY as u64), &mut std::io::sink());
    Ok(())
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

/// Read the next request off a connection. `Ok(None)` when the client
/// closed it, or left it idle past [`READ_TIMEOUT`], before sending a byte
/// of one. `Err` is the 400 message of a malformed request.
fn read_request(conn: &mut BufReader<TcpStream>) -> Result<Option<Request>, String> {
    if conn.fill_buf().map_or(true, |buf| buf.is_empty()) {
        return Ok(None);
    }
    // The head (request line + headers) reads through a byte-capped
    // handle; once the cap is hit, read_line returns Ok(0) and we bail.
    let mut head = (&mut *conn).take(MAX_HEAD);
    let mut line = String::new();
    head.read_line(&mut line)
        .map_err(|e| format!("bad request line: {e}"))?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_string();
    let target = parts.next().ok_or("missing request path")?;
    let version = parts
        .next()
        .filter(|v| v.starts_with("HTTP/") && parts.next().is_none())
        .ok_or("request line must end in an HTTP version")?;
    let http11 = version == "HTTP/1.1";
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let mut content_length: Option<usize> = None;
    let mut close = false;
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
        let (name, value) = header.split_once(':').unwrap_or((header, ""));
        let value = value.trim();
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => {
                let n = Some(value)
                    .filter(|v| !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()))
                    .and_then(|v| v.parse::<usize>().ok())
                    .ok_or_else(|| format!("bad Content-Length {value:?}"))?;
                if content_length.replace(n).is_some() {
                    return Err("repeated Content-Length".into());
                }
            }
            "transfer-encoding" => {
                return Err("Transfer-Encoding is not supported (send a Content-Length)".into())
            }
            "connection" => {
                close |= value
                    .split(',')
                    .any(|token| token.trim().eq_ignore_ascii_case("close"));
            }
            _ => {}
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(format!("body too large ({content_length} bytes)"));
    }
    let mut body = vec![0u8; content_length];
    conn.read_exact(&mut body)
        .map_err(|e| format!("short body: {e}"))?;
    Ok(Some(Request {
        method,
        path,
        query,
        body: String::from_utf8_lossy(&body).into_owned(),
        keep_alive: http11 && !close,
    }))
}

/// Write a whole response — head and body — with one `write_all`.
fn write_response(
    stream: &mut TcpStream,
    response: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    let reason = match response.status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let message = format!(
        "HTTP/1.1 {} {reason}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{}",
        response.status,
        response.content_type,
        response.body.len(),
        response.body
    );
    stream.write_all(message.as_bytes())
}

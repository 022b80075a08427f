//! The tiny blocking HTTP client behind `sweepctl` and the end-to-end
//! tests. Speaks exactly the dialect [`crate::http`] serves: HTTP/1.1 with
//! persistent connections, responses framed by `Content-Length`, JSON
//! bodies.
//!
//! A [`Client`] and all its clones share one pool of idle connections: a
//! request takes one, or opens a new one, and hands it back unless the
//! server said `Connection: close`. A pooled connection the server has
//! since closed (its idle timeout, or a shutdown) fails before the first
//! byte of the status line; the request is then sent once more on a fresh
//! connection. That is safe even for a `POST`: the server closes a
//! kept-alive connection only while it is idle or stopping, and in both
//! cases it has not routed the request.

use simt_harness::json;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A response: HTTP status plus the parsed JSON body.
#[derive(Debug)]
pub struct ApiResponse {
    pub status: u16,
    pub body: json::Value,
    /// The body exactly as received (for `sweepctl fetch`, which must
    /// write artifacts byte-identical to what the store holds).
    pub raw: String,
}

impl ApiResponse {
    /// The body if the request succeeded, else `Err` with the server's
    /// error message (or the status line when there is none).
    pub fn ok(self) -> Result<json::Value, String> {
        if self.status == 200 {
            Ok(self.body)
        } else {
            let msg = self
                .body
                .get("error")
                .and_then(json::Value::as_str)
                .unwrap_or("request failed")
                .to_string();
            Err(format!("HTTP {}: {msg}", self.status))
        }
    }
}

/// A client bound to one daemon address (`host:port`). Clones share its
/// pool of idle connections.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    timeout: Duration,
    idle: Arc<Mutex<Vec<BufReader<TcpStream>>>>,
}

impl Client {
    pub fn new(addr: impl Into<String>) -> Client {
        Client {
            addr: addr.into(),
            timeout: Duration::from_secs(30),
            idle: Arc::default(),
        }
    }

    pub fn get(&self, path: &str) -> Result<ApiResponse, String> {
        let (status, body) = self.request("GET", path, None)?;
        let parsed = json::parse(&body).map_err(|e| format!("bad JSON body: {e}"))?;
        Ok(ApiResponse {
            status,
            body: parsed,
            raw: body,
        })
    }

    /// GET a non-JSON endpoint (`/metrics?format=prom`):
    /// status plus the raw body, no parsing.
    pub fn get_text(&self, path: &str) -> Result<(u16, String), String> {
        self.request("GET", path, None)
    }

    pub fn post(&self, path: &str, body: Option<&json::Value>) -> Result<ApiResponse, String> {
        let (status, body) = self.request("POST", path, body.map(json::Value::to_json))?;
        let parsed = json::parse(&body).map_err(|e| format!("bad JSON body: {e}"))?;
        Ok(ApiResponse {
            status,
            body: parsed,
            raw: body,
        })
    }

    /// One request/response exchange: (status, raw body). Tries an idle
    /// pooled connection first; if the server had closed it, sends the
    /// request once more on a fresh one.
    fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<String>,
    ) -> Result<(u16, String), String> {
        let body = body.unwrap_or_default();
        let message = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\r\n{body}",
            self.addr,
            body.len(),
        );
        let pooled = self.idle.lock().expect("connection pool lock").pop();
        if let Some(mut conn) = pooled {
            if send(&mut conn, message.as_bytes())? {
                return self.read_response(conn);
            }
        }
        let stream = TcpStream::connect(&self.addr)
            .map_err(|e| format!("cannot connect to {}: {e}", self.addr))?;
        stream.set_read_timeout(Some(self.timeout)).ok();
        stream.set_write_timeout(Some(self.timeout)).ok();
        stream.set_nodelay(true).ok();
        let mut conn = BufReader::new(stream);
        if !send(&mut conn, message.as_bytes())? {
            return Err(format!(
                "{}: connection closed before a response",
                self.addr
            ));
        }
        self.read_response(conn)
    }

    /// Read a response framed by its `Content-Length`, handing the
    /// connection back to the pool unless the server closes it.
    fn read_response(&self, mut conn: BufReader<TcpStream>) -> Result<(u16, String), String> {
        let read_failed = |e: std::io::Error| format!("response read failed: {e}");
        let mut status_line = String::new();
        conn.read_line(&mut status_line).map_err(read_failed)?;
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| format!("bad status line {:?}", status_line.trim_end()))?;
        let mut length = None;
        let mut close = false;
        loop {
            let mut header = String::new();
            if conn.read_line(&mut header).map_err(read_failed)? == 0 {
                return Err("malformed HTTP response".into());
            }
            let header = header.trim();
            if header.is_empty() {
                break;
            }
            let (name, value) = header.split_once(':').unwrap_or((header, ""));
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => length = value.trim().parse::<usize>().ok(),
                "connection" => close |= value.trim().eq_ignore_ascii_case("close"),
                _ => {}
            }
        }
        let mut body = vec![0; length.ok_or("response without a Content-Length")?];
        conn.read_exact(&mut body).map_err(read_failed)?;
        let body = String::from_utf8(body).map_err(|_| "response body is not UTF-8")?;
        if !close {
            self.idle.lock().expect("connection pool lock").push(conn);
        }
        Ok((status, body))
    }
}

/// Send a request on `conn` and wait for the first byte of its answer.
/// `Ok(false)` when the connection turns out closed first: the server
/// closed it while idle or stopping, before routing the request, so the
/// request may be sent again. A timeout is a slow server, not a closed
/// connection.
fn send(conn: &mut BufReader<TcpStream>, message: &[u8]) -> Result<bool, String> {
    if conn.get_mut().write_all(message).is_err() {
        return Ok(false);
    }
    match conn.fill_buf() {
        Ok(buf) => Ok(!buf.is_empty()),
        Err(e) if matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock) => {
            Err(format!("response read failed: {e}"))
        }
        Err(_) => Ok(false),
    }
}

//! The tiny blocking HTTP client behind `sweepctl` and the end-to-end
//! tests. Speaks exactly the dialect [`crate::http`] serves: HTTP/1.1,
//! `Connection: close`, JSON bodies.

use simt_harness::json;
use std::io::{Read, Write};
use std::net::TcpStream;
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

/// A client bound to one daemon address (`host:port`).
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    timeout: Duration,
}

impl Client {
    pub fn new(addr: impl Into<String>) -> Client {
        Client {
            addr: addr.into(),
            timeout: Duration::from_secs(30),
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

    /// One request/response exchange: (status, raw body).
    fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<String>,
    ) -> Result<(u16, String), String> {
        let mut stream = TcpStream::connect(&self.addr)
            .map_err(|e| format!("cannot connect to {}: {e}", self.addr))?;
        stream.set_read_timeout(Some(self.timeout)).ok();
        stream.set_write_timeout(Some(self.timeout)).ok();
        let body = body.unwrap_or_default();
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            self.addr,
            body.len(),
            body
        )
        .map_err(|e| format!("request write failed: {e}"))?;
        let mut raw = String::new();
        stream
            .read_to_string(&mut raw)
            .map_err(|e| format!("response read failed: {e}"))?;
        let (head, body) = raw
            .split_once("\r\n\r\n")
            .ok_or("malformed HTTP response")?;
        let status_line = head.lines().next().ok_or("empty HTTP response")?;
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| format!("bad status line {status_line:?}"))?;
        Ok((status, body.to_string()))
    }
}

//! Leveled, structured event logging (`dac-log/v1`).
//!
//! One process-global logger, configured once near `main` (level, format)
//! and written to from anywhere via the [`error!`](crate::error),
//! [`warn!`](crate::warn), [`info!`](crate::info), and
//! [`debug!`](crate::debug) macros. Every event is one line on stderr:
//!
//! * **text** format — `[warn harness.cache] evicting corrupt entry
//!   hash=00ab… count=3` — the human default;
//! * **json** format — a `dac-log/v1` record: `{"schema":"dac-log/v1",
//!   "ts_us":…, "level":"warn", "target":"harness.cache", "msg":"…",
//!   "fields":{…}}` with an optional `"span"` id — the machine form CI
//!   validates against `schemas/log_v1.schema.json`.
//!
//! The level check is a single relaxed atomic load, done *before* the
//! message or any field expression is evaluated — a disabled event
//! allocates nothing and formats nothing. Events below the configured
//! level disappear; everything else is written line-atomically.

use simt_trace::write_json_str;
use std::fmt::Display;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

/// Schema tag on every JSON-format log line.
pub const SCHEMA: &str = "dac-log/v1";

/// Event severity. Ordering is by urgency: `Error < Warn < Info < Debug`,
/// and the configured level admits everything at or above its urgency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// The operation failed and was not retried.
    Error = 1,
    /// Something unexpected was recovered from (evictions, dropped data).
    Warn = 2,
    /// Lifecycle and progress events (default level).
    Info = 3,
    /// Per-item detail (one event per point, per request, …).
    Debug = 4,
}

impl Level {
    /// The lowercase name used in log lines and `SIMT_LOG`.
    pub fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// Parse a level name (`error|warn|info|debug`).
    pub fn parse(text: &str) -> Option<Level> {
        match text.to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }
}

/// Line format: human text (default) or `dac-log/v1` JSONL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// `[level target] msg k=v …`
    Text,
    /// One `dac-log/v1` JSON document per line.
    Json,
}

// 0 = off; otherwise a Level discriminant. Default: info.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);
// 0 = text, 1 = json.
static FORMAT: AtomicU8 = AtomicU8::new(0);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
// When set, lines go to this buffer instead of stderr (tests).
static CAPTURE: Mutex<Option<Arc<Mutex<String>>>> = Mutex::new(None);

/// Set the maximum admitted level.
pub fn set_level(level: Level) {
    MAX_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Disable all logging.
pub fn set_off() {
    MAX_LEVEL.store(0, Ordering::Relaxed);
}

/// Apply a level by name (`error|warn|info|debug|off`), as accepted by
/// `SIMT_LOG` and the `--log-level` flags.
pub fn set_level_str(text: &str) -> Result<(), String> {
    if text.eq_ignore_ascii_case("off") {
        set_off();
        return Ok(());
    }
    match Level::parse(text) {
        Some(level) => {
            set_level(level);
            Ok(())
        }
        None => Err(format!(
            "unknown log level {text:?} (expected error|warn|info|debug|off)"
        )),
    }
}

/// Set the line format.
pub fn set_format(format: Format) {
    FORMAT.store(matches!(format, Format::Json) as u8, Ordering::Relaxed);
}

/// Apply a format by name (`text|json`), as accepted by `SIMT_LOG_FORMAT`
/// and the `--log-format` flags.
pub fn set_format_str(text: &str) -> Result<(), String> {
    match text.to_ascii_lowercase().as_str() {
        "text" => {
            set_format(Format::Text);
            Ok(())
        }
        "json" => {
            set_format(Format::Json);
            Ok(())
        }
        other => Err(format!("unknown log format {other:?} (expected text|json)")),
    }
}

/// Configure the logger from `SIMT_LOG` (level) and `SIMT_LOG_FORMAT`
/// (format). Unset variables leave the defaults (info, text); invalid
/// values are reported on stderr and ignored. Every binary calls this
/// first thing in `main`; CLI flags may override afterwards.
pub fn init_from_env() {
    if let Ok(level) = std::env::var("SIMT_LOG") {
        if let Err(e) = set_level_str(&level) {
            eprintln!("warning: SIMT_LOG: {e}");
        }
    }
    if let Ok(format) = std::env::var("SIMT_LOG_FORMAT") {
        if let Err(e) = set_format_str(&format) {
            eprintln!("warning: SIMT_LOG_FORMAT: {e}");
        }
    }
}

/// Is `level` admitted right now? One relaxed atomic load — the macros
/// call this before evaluating any argument.
#[inline]
pub fn enabled(level: Level) -> bool {
    level as u8 <= MAX_LEVEL.load(Ordering::Relaxed)
}

/// Allocate a fresh span id (a correlation key grouping related events,
/// e.g. every point event of one sweep).
pub fn next_span() -> u64 {
    NEXT_SPAN.fetch_add(1, Ordering::Relaxed)
}

/// A typed field value. Everything the service tier logs converts into
/// one of these via `From`.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned counter / hash.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (non-finite values serialize as `null`).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Text.
    Str(String),
}

macro_rules! impl_from {
    ($($ty:ty => $variant:ident as $conv:ty),* $(,)?) => {
        $(impl From<$ty> for FieldValue {
            fn from(v: $ty) -> FieldValue { FieldValue::$variant(v as $conv) }
        })*
    };
}
impl_from!(
    u64 => U64 as u64, u32 => U64 as u64, u16 => U64 as u64, usize => U64 as u64,
    i64 => I64 as i64, i32 => I64 as i64,
    f64 => F64 as f64, f32 => F64 as f64,
);

impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

fn write_field_json(out: &mut String, value: &FieldValue) {
    match value {
        FieldValue::U64(n) => {
            let _ = write!(out, "{n}");
        }
        FieldValue::I64(n) => {
            let _ = write!(out, "{n}");
        }
        FieldValue::F64(x) if x.is_finite() => {
            let _ = write!(out, "{x:?}");
        }
        FieldValue::F64(_) => out.push_str("null"),
        FieldValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        FieldValue::Str(s) => write_json_str(out, s),
    }
}

fn write_field_text(out: &mut String, value: &FieldValue) {
    match value {
        FieldValue::U64(n) => {
            let _ = write!(out, "{n}");
        }
        FieldValue::I64(n) => {
            let _ = write!(out, "{n}");
        }
        FieldValue::F64(x) => {
            let _ = write!(out, "{x}");
        }
        FieldValue::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        FieldValue::Str(s) if s.chars().any(|c| c.is_whitespace() || c == '"') => {
            let _ = write!(out, "{s:?}");
        }
        FieldValue::Str(s) => out.push_str(s),
    }
}

/// Emit one event. Called by the macros **after** their [`enabled`] check;
/// calling it directly bypasses level filtering.
pub fn write_event(
    level: Level,
    target: &str,
    msg: &dyn Display,
    span: Option<u64>,
    fields: &[(&str, FieldValue)],
) {
    crate::metrics::global().counter_add(
        "simt_log_events_total",
        "Structured log events emitted, by level.",
        &[("level", level.name())],
        1,
    );
    let json = FORMAT.load(Ordering::Relaxed) == 1;
    let mut line = String::with_capacity(96);
    if json {
        let ts_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default()
            .as_micros() as u64;
        let _ = write!(line, "{{\"schema\":\"{SCHEMA}\",\"ts_us\":{ts_us}");
        let _ = write!(line, ",\"level\":\"{}\",\"target\":", level.name());
        write_json_str(&mut line, target);
        line.push_str(",\"msg\":");
        write_json_str(&mut line, &msg.to_string());
        if let Some(span) = span {
            let _ = write!(line, ",\"span\":{span}");
        }
        line.push_str(",\"fields\":{");
        for (i, (k, v)) in fields.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            write_json_str(&mut line, k);
            line.push(':');
            write_field_json(&mut line, v);
        }
        line.push_str("}}");
    } else {
        let _ = write!(line, "[{} {target}] {msg}", level.name());
        for (k, v) in fields {
            let _ = write!(line, " {k}=");
            write_field_text(&mut line, v);
        }
        if let Some(span) = span {
            let _ = write!(line, " span={span}");
        }
    }
    let capture = CAPTURE.lock().unwrap().clone();
    match capture {
        Some(buf) => {
            let mut buf = buf.lock().unwrap();
            buf.push_str(&line);
            buf.push('\n');
        }
        None => eprintln!("{line}"),
    }
}

/// Redirect log lines into an in-memory buffer until the guard drops.
/// Test-only: the logger is process-global, so tests using this must not
/// run concurrently with other capturing tests.
pub fn capture() -> CaptureGuard {
    let buf = Arc::new(Mutex::new(String::new()));
    *CAPTURE.lock().unwrap() = Some(Arc::clone(&buf));
    CaptureGuard { buf }
}

/// Guard returned by [`capture`]; restores stderr logging on drop.
pub struct CaptureGuard {
    buf: Arc<Mutex<String>>,
}

impl CaptureGuard {
    /// Take everything captured so far.
    pub fn take(&self) -> String {
        std::mem::take(&mut self.buf.lock().unwrap())
    }
}

impl Drop for CaptureGuard {
    fn drop(&mut self) {
        *CAPTURE.lock().unwrap() = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    // The logger is process-global; serialize every test that touches it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn level_parsing_round_trips() {
        for level in [Level::Error, Level::Warn, Level::Info, Level::Debug] {
            assert_eq!(Level::parse(level.name()), Some(level));
        }
        assert_eq!(Level::parse("verbose"), None);
        assert!(set_level_str("nope").is_err());
        assert!(set_format_str("xml").is_err());
    }

    #[test]
    fn disabled_levels_evaluate_nothing() {
        let _guard = lock();
        let cap = capture();
        set_level(Level::Warn);
        let mut evaluated = false;
        crate::debug!("obs.test", {
            evaluated = true;
            "should not appear"
        });
        assert!(!evaluated, "disabled event must not evaluate its message");
        crate::warn!("obs.test", "does appear");
        let out = cap.take();
        assert!(out.contains("does appear"), "{out:?}");
        assert!(!out.contains("should not appear"), "{out:?}");
        set_level(Level::Info);
    }

    #[test]
    fn json_lines_are_valid_and_escaped() {
        let _guard = lock();
        let cap = capture();
        set_level(Level::Info);
        set_format(Format::Json);
        crate::info!("obs.test", "quote \" and newline \n here";
            hash = 0xdeadbeefu64, label = "a \"b\"\nc", ok = true, rate = 0.5f64);
        set_format(Format::Text);
        let out = cap.take();
        let line = out.lines().next().expect("one line");
        assert!(line.starts_with("{\"schema\":\"dac-log/v1\",\"ts_us\":"));
        assert!(line.contains("\"level\":\"info\""));
        assert!(line.contains("\"hash\":3735928559"));
        assert!(line.contains("\"ok\":true"));
        assert!(line.contains("\"rate\":0.5"));
        assert!(line.contains("\\\"b\\\"\\nc"));
        assert!(!line[1..].contains('\n'), "JSONL lines are newline-free");
    }

    #[test]
    fn text_lines_carry_fields_and_span() {
        let _guard = lock();
        let cap = capture();
        set_level(Level::Info);
        crate::log_at!(Level::Info, Some(7), "obs.test", "point done";
            label = "LIB/dac", wall_us = 1234u64);
        let out = cap.take();
        assert_eq!(
            out.trim(),
            "[info obs.test] point done label=LIB/dac wall_us=1234 span=7"
        );
    }

    #[test]
    fn span_ids_are_unique() {
        let a = next_span();
        let b = next_span();
        assert_ne!(a, b);
    }
}

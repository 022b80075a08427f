//! `simt-obs` — structured telemetry for the system *around* the
//! simulator.
//!
//! The simulator tier is deeply observable (`simt-trace` cycle events,
//! `simt-profile` issue-slot accounting); this crate gives the service
//! tier — harness pool, result cache, sweep daemon — the same discipline:
//!
//! * [`log`] — a leveled, structured event log. Every event carries a
//!   timestamp, level, target, message, and typed `key=value` fields, and
//!   serializes either as a human line or as a `dac-log/v1` JSONL record.
//!   Level filtering is one relaxed atomic load; a disabled event costs
//!   nothing (its message and field expressions are never evaluated).
//! * [`metrics`] — a process-wide registry of counters, gauges, and
//!   fixed-bucket histograms (reusing `simt-profile`'s allocation-free
//!   [`Histogram`](simt_profile::Histogram)), snapshottable for JSON
//!   documents.
//! * [`prom`] — Prometheus text exposition (deterministic ordering,
//!   spec-conformant escaping) plus a scrape parser used by the round-trip
//!   tests and CI smoke.
//!
//! The crate is std-only and dependency-free beyond the workspace, like
//! everything else in this repo.
//!
//! ```
//! simt_obs::log::set_level(simt_obs::log::Level::Info);
//! simt_obs::warn!("doc.example", "cache entry evicted"; hash = 0xdeadbeefu64, count = 3u64);
//! simt_obs::metrics::global().counter_add(
//!     "simt_doc_examples_total", "Doc-test executions.", &[], 1);
//! ```

#![forbid(unsafe_code)]

pub mod log;
pub mod metrics;
pub mod prom;

/// Log an event at an explicit level with an optional span id.
///
/// `$span` is an `Option<u64>`; `$msg` is any `Display` expression (it is
/// only evaluated — and only allocates — when the level is enabled);
/// fields follow after `;` as `name = value` pairs, where values convert
/// via [`log::FieldValue::from`].
#[macro_export]
macro_rules! log_at {
    ($lvl:expr, $span:expr, $target:expr, $msg:expr $(; $($k:ident = $v:expr),* $(,)?)?) => {{
        if $crate::log::enabled($lvl) {
            $crate::log::write_event(
                $lvl,
                $target,
                &($msg),
                $span,
                &[$($((stringify!($k), $crate::log::FieldValue::from($v))),*)?],
            );
        }
    }};
}

/// Log an error-level event: `error!(target, msg; k = v, ...)`.
#[macro_export]
macro_rules! error {
    ($target:expr, $msg:expr $(; $($k:ident = $v:expr),* $(,)?)?) => {
        $crate::log_at!($crate::log::Level::Error, None, $target, $msg $(; $($k = $v),*)?)
    };
}

/// Log a warn-level event: `warn!(target, msg; k = v, ...)`.
#[macro_export]
macro_rules! warn {
    ($target:expr, $msg:expr $(; $($k:ident = $v:expr),* $(,)?)?) => {
        $crate::log_at!($crate::log::Level::Warn, None, $target, $msg $(; $($k = $v),*)?)
    };
}

/// Log an info-level event: `info!(target, msg; k = v, ...)`.
#[macro_export]
macro_rules! info {
    ($target:expr, $msg:expr $(; $($k:ident = $v:expr),* $(,)?)?) => {
        $crate::log_at!($crate::log::Level::Info, None, $target, $msg $(; $($k = $v),*)?)
    };
}

/// Log a debug-level event: `debug!(target, msg; k = v, ...)`.
#[macro_export]
macro_rules! debug {
    ($target:expr, $msg:expr $(; $($k:ident = $v:expr),* $(,)?)?) => {
        $crate::log_at!($crate::log::Level::Debug, None, $target, $msg $(; $($k = $v),*)?)
    };
}

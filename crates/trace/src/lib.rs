//! # simt-trace — cycle-level event tracing for the DAC simulator stack
//!
//! A structured tracing subsystem threaded through `simt-sim`, `simt-mem`,
//! and the coprocessors. Design invariants:
//!
//! * **Zero-cost when disabled.** Every emit site in the simulators is
//!   written `if tracer.enabled() { tracer.emit(..) }`; with the
//!   [`NullTracer`] the branch is one virtual call returning a constant,
//!   and no event value is ever built. There is one path per behaviour:
//!   every entry point that can emit takes a `&mut dyn Tracer`
//!   (`MemoryFabric::cycle`, `GpuSim::run_traced`, …) and an untraced run
//!   passes a [`NullTracer`].
//! * **Pure observation.** A tracer receives copies of state and has no
//!   way to influence timing, so a `SimReport` is byte-identical with
//!   tracing on or off (asserted by the harness determinism test).
//! * **Bounded memory.** The standard sink is a [`RingSink`] that evicts
//!   the oldest events when full and counts what it dropped.
//!
//! Exporters: [`chrome::export`] writes Chrome `trace_event` JSON for
//! `chrome://tracing` / Perfetto; [`jsonl::export`] writes the
//! `dac-trace/v1` line format (one JSON object per event, mirroring the
//! harness's `dac-run/v1` artifacts). [`write_json_str`] is the one JSON
//! string escaper of the workspace: the exporters, the harness's JSON
//! values and the `dac-log/v1` logger all write strings through it.

#![forbid(unsafe_code)]

pub mod chrome;
pub mod event;
pub mod jsonl;
pub mod sink;

pub use event::{StallCause, TimedEvent, TraceClient, TraceEvent, TraceReqKind};
pub use sink::{NullTracer, RingSink, Tracer};

use std::fmt::Write as _;

/// Append `s` to `out` as a quoted JSON string literal. Quotes,
/// backslashes and every control character are escaped (`\n`, `\r`, `\t`
/// by name, the rest as `\u00XX`); any other scalar passes through as
/// UTF-8 (valid JSON).
pub fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::write_json_str;

    fn quoted(s: &str) -> String {
        let mut out = String::new();
        write_json_str(&mut out, s);
        out
    }

    #[test]
    fn escaping_covers_specials_and_controls() {
        assert_eq!(quoted("plain"), "\"plain\"");
        assert_eq!(quoted("a\"b"), "\"a\\\"b\"");
        assert_eq!(quoted("back\\slash"), "\"back\\\\slash\"");
        assert_eq!(quoted("nl\ncr\rtab\t"), "\"nl\\ncr\\rtab\\t\"");
        assert_eq!(quoted("\u{08}\u{0c}"), "\"\\u0008\\u000c\"");
        assert_eq!(quoted("\u{01}\u{1f}"), "\"\\u0001\\u001f\"");
        // Non-ASCII passes through unescaped (valid JSON as UTF-8).
        assert_eq!(quoted("µops"), "\"µops\"");
    }
}

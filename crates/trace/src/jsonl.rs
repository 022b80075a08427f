//! JSONL exporter: the `dac-trace/v1` format.
//!
//! Shape follows the harness's `dac-run/v1` artifacts: a header object on
//! the first line (schema id + run metadata), then one JSON object per
//! line. Every event line has `t` (cycle) and `ev` (event-type name)
//! first, followed by the event's own fields in a fixed order, so the
//! output is deterministic and greppable (`grep '"ev": "mem_resp"'`).

use crate::event::{TimedEvent, TraceEvent};
use crate::write_json_str;
use std::fmt::Write as _;

/// Schema identifier written in the header line.
pub const SCHEMA: &str = "dac-trace/v1";

/// Render a `dac-trace/v1` document. `meta` is a list of extra
/// `(key, value)` string pairs for the header (workload, design, …);
/// `dropped` is the ring sink's eviction count.
pub fn export<'a>(
    events: impl Iterator<Item = &'a TimedEvent>,
    meta: &[(&str, &str)],
    dropped: u64,
) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"schema\": \"{SCHEMA}\", \"dropped\": {dropped}");
    for (k, v) in meta {
        out.push_str(", ");
        write_json_str(&mut out, k);
        out.push_str(": ");
        write_json_str(&mut out, v);
    }
    out.push_str("}\n");
    for te in events {
        let t = te.cycle;
        let _ = write!(out, "{{\"t\": {t}, \"ev\": \"{}\"", te.event.kind_name());
        match te.event {
            TraceEvent::WarpIssue {
                sm,
                warp,
                pc,
                active,
            } => {
                let _ = write!(
                    out,
                    ", \"sm\": {sm}, \"warp\": {warp}, \"pc\": {pc}, \"active\": {active}"
                );
            }
            TraceEvent::WarpStall {
                sm,
                warp,
                pc,
                cause,
            } => {
                let _ = write!(
                    out,
                    ", \"sm\": {sm}, \"warp\": {warp}, \"pc\": {pc}, \"cause\": \"{}\"",
                    cause.name()
                );
            }
            TraceEvent::StackDepth {
                sm,
                warp,
                pc,
                depth,
                push,
            } => {
                let _ = write!(
                    out,
                    ", \"sm\": {sm}, \"warp\": {warp}, \"pc\": {pc}, \
                     \"depth\": {depth}, \"push\": {push}"
                );
            }
            TraceEvent::Coalesce {
                sm,
                warp,
                pc,
                lanes,
                txns,
                store,
            } => {
                let _ = write!(
                    out,
                    ", \"sm\": {sm}, \"warp\": {warp}, \"pc\": {pc}, \
                     \"lanes\": {lanes}, \"txns\": {txns}, \"store\": {store}"
                );
            }
            TraceEvent::MemReq {
                sm,
                line,
                kind,
                client,
                token,
            } => {
                let _ = write!(
                    out,
                    ", \"sm\": {sm}, \"line\": {line}, \"kind\": \"{}\", \
                     \"client\": \"{}\", \"token\": {token}",
                    kind.name(),
                    client.name()
                );
            }
            TraceEvent::MemStall {
                sm,
                line,
                client,
                cause,
            } => {
                let _ = write!(
                    out,
                    ", \"sm\": {sm}, \"line\": {line}, \"client\": \"{}\", \
                     \"cause\": \"{}\"",
                    client.name(),
                    cause.name()
                );
            }
            TraceEvent::L2Access {
                partition,
                line,
                hit,
                client,
            } => {
                let _ = write!(
                    out,
                    ", \"partition\": {partition}, \"line\": {line}, \"hit\": {hit}, \
                     \"client\": \"{}\"",
                    client.name()
                );
            }
            TraceEvent::DramAccess {
                partition,
                line,
                row_hit,
                write,
            } => {
                let _ = write!(
                    out,
                    ", \"partition\": {partition}, \"line\": {line}, \
                     \"row_hit\": {row_hit}, \"write\": {write}"
                );
            }
            TraceEvent::Fill { sm, line } => {
                let _ = write!(out, ", \"sm\": {sm}, \"line\": {line}");
            }
            TraceEvent::MemResp {
                sm,
                line,
                client,
                token,
                latency,
            } => {
                let _ = write!(
                    out,
                    ", \"sm\": {sm}, \"line\": {line}, \"client\": \"{}\", \
                     \"token\": {token}, \"latency\": {latency}",
                    client.name()
                );
            }
            TraceEvent::QueueSample {
                sm,
                atq,
                pwaq,
                pwpq,
                runahead,
            } => {
                let _ = write!(
                    out,
                    ", \"sm\": {sm}, \"atq\": {atq}, \"pwaq\": {pwaq}, \
                     \"pwpq\": {pwpq}, \"runahead\": {runahead}"
                );
            }
            TraceEvent::AffineIssue { sm, slot, pc } => {
                let _ = write!(out, ", \"sm\": {sm}, \"slot\": {slot}, \"pc\": {pc}");
            }
            TraceEvent::Expand { sm, warp, pred } => {
                let _ = write!(out, ", \"sm\": {sm}, \"warp\": {warp}, \"pred\": {pred}");
            }
            TraceEvent::CtaLaunch {
                sm,
                slot,
                kernel,
                cta,
            } => {
                let _ = write!(
                    out,
                    ", \"sm\": {sm}, \"slot\": {slot}, \"kernel\": {kernel}, \"cta\": {cta}"
                );
            }
            TraceEvent::CtaRetire { sm, slot, kernel } => {
                let _ = write!(
                    out,
                    ", \"sm\": {sm}, \"slot\": {slot}, \"kernel\": {kernel}"
                );
            }
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{TraceClient, TraceEvent, TraceReqKind};

    #[test]
    fn header_then_one_line_per_event() {
        let events = [
            TimedEvent {
                cycle: 1,
                event: TraceEvent::MemReq {
                    sm: 0,
                    line: 4096,
                    kind: TraceReqKind::Load,
                    client: TraceClient::Lsu,
                    token: 9,
                },
            },
            TimedEvent {
                cycle: 3,
                event: TraceEvent::QueueSample {
                    sm: 0,
                    atq: 1,
                    pwaq: 2,
                    pwpq: 3,
                    runahead: 3,
                },
            },
        ];
        let doc = export(
            events.iter(),
            &[("workload", "BFS \"q\""), ("design", "dac")],
            5,
        );
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"schema\": \"dac-trace/v1\""));
        assert!(lines[0].contains("\"dropped\": 5"));
        assert!(
            lines[0].contains("BFS \\\"q\\\""),
            "meta values must be escaped"
        );
        assert!(lines[1].starts_with("{\"t\": 1, \"ev\": \"mem_req\""));
        assert!(lines[1].contains("\"kind\": \"load\""));
        assert!(lines[2].contains("\"runahead\": 3"));
        // Each line is a balanced JSON object.
        for line in lines {
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
    }
}

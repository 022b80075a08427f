//! Chrome `trace_event` JSON exporter.
//!
//! Produces the "JSON Object Format" understood by `chrome://tracing` and
//! Perfetto: `{"traceEvents": [...], ...}`. Mapping:
//!
//! * one simulated cycle = one microsecond of trace time (`ts` is the raw
//!   cycle number — timeline positions read directly as cycles);
//! * `pid` = SM index (L2 partitions use `pid = 1000 + partition` so they
//!   get their own process lane);
//! * `tid` = warp slot for pipeline events, a per-client lane for memory
//!   lifecycle events;
//! * request lifecycles ([`TraceEvent::MemResp`] with its latency) become
//!   duration events (`ph:"X"`) spanning acceptance → delivery; counters
//!   ([`TraceEvent::QueueSample`]) become counter events (`ph:"C"`);
//!   everything else is an instant (`ph:"i"`).

use crate::event::{TimedEvent, TraceEvent};
use std::fmt::Write as _;

// Memory-lane tids: keep warp tids (0..max_warps) clear of lifecycle lanes.
fn client_tid(client: crate::event::TraceClient) -> u32 {
    match client {
        crate::event::TraceClient::Lsu => 900,
        crate::event::TraceClient::Dac => 901,
        crate::event::TraceClient::Mta => 902,
    }
}

fn push_event(out: &mut String, fields: std::fmt::Arguments) {
    if out.ends_with('}') {
        out.push_str(",\n");
    }
    let _ = write!(out, "{fields}");
}

/// Render retained events as a complete Chrome trace JSON document.
/// `dropped` (from the ring sink) is recorded in metadata so a truncated
/// timeline is visibly truncated.
pub fn export<'a>(events: impl Iterator<Item = &'a TimedEvent>, dropped: u64) -> String {
    let mut out = String::new();
    out.push_str("{\"traceEvents\": [\n");
    for te in events {
        let ts = te.cycle;
        match te.event {
            TraceEvent::WarpIssue {
                sm,
                warp,
                pc,
                active,
            } => push_event(
                &mut out,
                format_args!(
                    "{{\"name\": \"issue pc={pc}\", \"cat\": \"warp\", \"ph\": \"i\", \
                     \"s\": \"t\", \"ts\": {ts}, \"pid\": {sm}, \"tid\": {warp}, \
                     \"args\": {{\"pc\": {pc}, \"active\": {active}}}}}"
                ),
            ),
            TraceEvent::WarpStall {
                sm,
                warp,
                pc,
                cause,
            } => push_event(
                &mut out,
                format_args!(
                    "{{\"name\": \"stall:{}\", \"cat\": \"warp\", \"ph\": \"i\", \
                     \"s\": \"t\", \"ts\": {ts}, \"pid\": {sm}, \"tid\": {warp}, \
                     \"args\": {{\"pc\": {pc}}}}}",
                    cause.name()
                ),
            ),
            TraceEvent::StackDepth {
                sm,
                warp,
                pc,
                depth,
                push,
            } => push_event(
                &mut out,
                format_args!(
                    "{{\"name\": \"simt-stack {}\", \"cat\": \"warp\", \"ph\": \"i\", \
                     \"s\": \"t\", \"ts\": {ts}, \"pid\": {sm}, \"tid\": {warp}, \
                     \"args\": {{\"pc\": {pc}, \"depth\": {depth}}}}}",
                    if push { "push" } else { "pop" }
                ),
            ),
            TraceEvent::Coalesce {
                sm,
                warp,
                pc,
                lanes,
                txns,
                store,
            } => push_event(
                &mut out,
                format_args!(
                    "{{\"name\": \"coalesce {}\", \"cat\": \"mem\", \"ph\": \"i\", \
                     \"s\": \"t\", \"ts\": {ts}, \"pid\": {sm}, \"tid\": {warp}, \
                     \"args\": {{\"pc\": {pc}, \"lanes\": {lanes}, \"txns\": {txns}}}}}",
                    if store { "st" } else { "ld" }
                ),
            ),
            TraceEvent::MemReq {
                sm,
                line,
                kind,
                client,
                token,
            } => push_event(
                &mut out,
                format_args!(
                    "{{\"name\": \"req {}\", \"cat\": \"mem\", \"ph\": \"i\", \
                     \"s\": \"t\", \"ts\": {ts}, \"pid\": {sm}, \"tid\": {tid}, \
                     \"args\": {{\"line\": {line}, \"client\": \"{client}\", \
                     \"token\": {token}}}}}",
                    kind.name(),
                    tid = client_tid(client),
                    client = client.name(),
                ),
            ),
            TraceEvent::MemStall {
                sm,
                line,
                client,
                cause,
            } => push_event(
                &mut out,
                format_args!(
                    "{{\"name\": \"port-stall:{}\", \"cat\": \"mem\", \"ph\": \"i\", \
                     \"s\": \"t\", \"ts\": {ts}, \"pid\": {sm}, \"tid\": {tid}, \
                     \"args\": {{\"line\": {line}, \"client\": \"{client}\"}}}}",
                    cause.name(),
                    tid = client_tid(client),
                    client = client.name(),
                ),
            ),
            TraceEvent::L2Access {
                partition,
                line,
                hit,
                client,
            } => push_event(
                &mut out,
                format_args!(
                    "{{\"name\": \"l2-{}\", \"cat\": \"mem\", \"ph\": \"i\", \
                     \"s\": \"t\", \"ts\": {ts}, \"pid\": {pid}, \"tid\": 0, \
                     \"args\": {{\"line\": {line}, \"client\": \"{client}\"}}}}",
                    if hit { "hit" } else { "miss" },
                    pid = 1000 + partition,
                    client = client.name(),
                ),
            ),
            TraceEvent::DramAccess {
                partition,
                line,
                row_hit,
                write,
            } => push_event(
                &mut out,
                format_args!(
                    "{{\"name\": \"dram-row-{}\", \"cat\": \"mem\", \"ph\": \"i\", \
                     \"s\": \"t\", \"ts\": {ts}, \"pid\": {pid}, \"tid\": 1, \
                     \"args\": {{\"line\": {line}, \"write\": {write}}}}}",
                    if row_hit { "hit" } else { "miss" },
                    pid = 1000 + partition,
                ),
            ),
            TraceEvent::Fill { sm, line } => push_event(
                &mut out,
                format_args!(
                    "{{\"name\": \"fill\", \"cat\": \"mem\", \"ph\": \"i\", \
                     \"s\": \"t\", \"ts\": {ts}, \"pid\": {sm}, \"tid\": 950, \
                     \"args\": {{\"line\": {line}}}}}"
                ),
            ),
            TraceEvent::MemResp {
                sm,
                line,
                client,
                token,
                latency,
            } => push_event(
                &mut out,
                // A duration event spanning the request's whole lifecycle:
                // starts at acceptance (ts - latency), ends at delivery.
                format_args!(
                    "{{\"name\": \"{client} line={line:#x}\", \"cat\": \"mem\", \
                     \"ph\": \"X\", \"ts\": {t0}, \"dur\": {dur}, \"pid\": {sm}, \
                     \"tid\": {tid}, \"args\": {{\"token\": {token}, \
                     \"latency\": {latency}}}}}",
                    client = client.name(),
                    t0 = ts.saturating_sub(latency),
                    dur = latency.max(1),
                    tid = client_tid(client),
                ),
            ),
            TraceEvent::QueueSample {
                sm,
                atq,
                pwaq,
                pwpq,
                runahead,
            } => {
                push_event(
                    &mut out,
                    format_args!(
                        "{{\"name\": \"dac-queues\", \"cat\": \"dac\", \"ph\": \"C\", \
                         \"ts\": {ts}, \"pid\": {sm}, \
                         \"args\": {{\"atq\": {atq}, \"pwaq\": {pwaq}, \
                         \"pwpq\": {pwpq}}}}}"
                    ),
                );
                push_event(
                    &mut out,
                    format_args!(
                        "{{\"name\": \"dac-runahead\", \"cat\": \"dac\", \"ph\": \"C\", \
                         \"ts\": {ts}, \"pid\": {sm}, \
                         \"args\": {{\"runahead\": {runahead}}}}}"
                    ),
                );
            }
            TraceEvent::AffineIssue { sm, slot, pc } => push_event(
                &mut out,
                format_args!(
                    "{{\"name\": \"affine pc={pc}\", \"cat\": \"dac\", \"ph\": \"i\", \
                     \"s\": \"t\", \"ts\": {ts}, \"pid\": {sm}, \"tid\": 903, \
                     \"args\": {{\"slot\": {slot}}}}}"
                ),
            ),
            TraceEvent::Expand { sm, warp, pred } => push_event(
                &mut out,
                format_args!(
                    "{{\"name\": \"{}\", \"cat\": \"dac\", \"ph\": \"i\", \
                     \"s\": \"t\", \"ts\": {ts}, \"pid\": {sm}, \"tid\": 904, \
                     \"args\": {{\"warp\": {warp}}}}}",
                    if pred { "peu-expand" } else { "aeu-expand" }
                ),
            ),
            TraceEvent::CtaLaunch {
                sm,
                slot,
                kernel,
                cta,
            } => push_event(
                &mut out,
                format_args!(
                    "{{\"name\": \"cta-launch\", \"cat\": \"cta\", \"ph\": \"i\", \
                     \"s\": \"t\", \"ts\": {ts}, \"pid\": {sm}, \"tid\": 905, \
                     \"args\": {{\"slot\": {slot}, \"kernel\": {kernel}, \
                     \"cta\": {cta}}}}}"
                ),
            ),
            TraceEvent::CtaRetire { sm, slot, kernel } => push_event(
                &mut out,
                format_args!(
                    "{{\"name\": \"cta-retire\", \"cat\": \"cta\", \"ph\": \"i\", \
                     \"s\": \"t\", \"ts\": {ts}, \"pid\": {sm}, \"tid\": 905, \
                     \"args\": {{\"slot\": {slot}, \"kernel\": {kernel}}}}}"
                ),
            ),
        }
    }
    let _ = write!(
        out,
        "\n], \"displayTimeUnit\": \"ns\", \
         \"otherData\": {{\"schema\": \"dac-trace/v1 (chrome)\", \"dropped\": {dropped}}}}}\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{StallCause, TraceClient, TraceEvent, TraceReqKind};

    #[test]
    fn export_produces_balanced_json() {
        let events = [
            TimedEvent {
                cycle: 5,
                event: TraceEvent::WarpIssue {
                    sm: 0,
                    warp: 3,
                    pc: 7,
                    active: 32,
                },
            },
            TimedEvent {
                cycle: 6,
                event: TraceEvent::WarpStall {
                    sm: 0,
                    warp: 4,
                    pc: 8,
                    cause: StallCause::Scoreboard,
                },
            },
            TimedEvent {
                cycle: 9,
                event: TraceEvent::MemResp {
                    sm: 1,
                    line: 0x1000,
                    client: TraceClient::Dac,
                    token: 42,
                    latency: 120,
                },
            },
            TimedEvent {
                cycle: 10,
                event: TraceEvent::MemReq {
                    sm: 1,
                    line: 0x1080,
                    kind: TraceReqKind::PrefetchLock,
                    client: TraceClient::Dac,
                    token: 43,
                },
            },
            TimedEvent {
                cycle: 10,
                event: TraceEvent::QueueSample {
                    sm: 1,
                    atq: 3,
                    pwaq: 9,
                    pwpq: 2,
                    runahead: 12,
                },
            },
        ];
        let json = export(events.iter(), 7);
        // Structural sanity: balanced braces/brackets, key strings present.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "unbalanced braces in:\n{json}");
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.starts_with("{\"traceEvents\": ["));
        assert!(
            json.contains("\"ph\": \"X\""),
            "lifecycle duration event missing"
        );
        assert!(json.contains("\"ph\": \"C\""), "counter event missing");
        assert!(json.contains("\"dropped\": 7"));
        // The duration event back-dates its start by the latency.
        assert!(json.contains("\"ts\": 0, \"dur\": 120") || json.contains("\"dur\": 120"));
    }

    #[test]
    fn export_empty_is_valid() {
        let json = export([].iter(), 0);
        assert!(json.contains("\"traceEvents\": [\n\n]"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}

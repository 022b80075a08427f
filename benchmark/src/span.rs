//! In-memory spans around calls into the layers, recorded from outside.
//!
//! The traced run wraps every call into a layer's public function in a
//! span (name, start, end, parent, slot id). Spans stay in memory until
//! the run ends and are then written as a Chrome `trace_event` file. A
//! layer's number is the summed **self** time of its spans: duration
//! minus the part its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer call this span wraps (`sim.run`, `harness.cache_store`…);
    /// spans of one name sum into one per-layer metric.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The slot this span belongs to; spans of one slot execution share it.
    pub slot: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on one thread; nesting follows the call structure.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    slot: u32,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder::with_capacity(0)
    }

    /// A recorder with room for `spans` spans, so that recording does not
    /// reallocate inside a timed region.
    pub fn with_capacity(spans: usize) -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(spans),
            open: Vec::new(),
            slot: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tag every span opened from now on with `slot`.
    pub fn set_slot(&mut self, slot: u32) {
        self.slot = slot;
    }

    /// Run `f` inside a span named `name`; spans opened by `f` through the
    /// recorder it is handed become children of this one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            slot: self.slot,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// A leaf span around `f`.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(name, |_| f())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of the most recently *opened* span named `name`.
    pub fn last_duration_ns(&self, name: &str) -> Option<u64> {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map(Span::duration_ns)
    }
}

/// Each span's self time: its duration minus its direct children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Summed self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(span.name).or_insert(0) += own;
    }
    out
}

/// Span groups as one Chrome `trace_event` document (complete events,
/// µs), each group shown as a process of its own. The `id` and `parent`
/// arguments index into the span's own group.
pub fn chrome_json(groups: &[(&str, &[Span])]) -> String {
    let spans: usize = groups.iter().map(|(_, g)| g.len()).sum();
    let mut out = String::with_capacity(spans * 128 + 256);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut event = |out: &mut String, text: String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&text);
    };
    for (pid, (group, spans)) in groups.iter().enumerate() {
        let pid = pid + 1;
        event(
            &mut out,
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\
                 \"args\":{{\"name\":\"{group}\"}}}}"
            ),
        );
        for (id, span) in spans.iter().enumerate() {
            let layer = span.name.split('.').next().unwrap_or(span.name);
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            event(
                &mut out,
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                     \"pid\":{pid},\"tid\":1,\"args\":{{\"id\":{},\"parent\":{},\"slot\":{}}}}}",
                    span.name,
                    layer,
                    span.start_ns as f64 / 1e3,
                    span.duration_ns() as f64 / 1e3,
                    id,
                    parent,
                    span.slot
                ),
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Summed duration of the spans that have no parent: what the self
    /// times must add up to.
    fn root_wall_ns(spans: &[Span]) -> u64 {
        spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum()
    }

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            slot: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        // root 0..100 with adjacent children 10..30 and 30..60; the second
        // child has its own child 35..45.
        let spans = vec![
            span("slot", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 30, 60, Some(0)),
            span("a", 35, 45, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 20, 10]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["slot"], 50);
        assert_eq!(by_name["a"], 30);
        assert_eq!(by_name["b"], 20);
        // Self times partition the root's duration exactly.
        assert_eq!(by_name.values().sum::<u64>(), root_wall_ns(&spans));
    }

    #[test]
    fn recorder_nests_by_call_structure() {
        let mut rec = Recorder::new();
        rec.set_slot(7);
        let out = rec.span("slot", |rec| {
            rec.leaf("a", || std::hint::black_box(1 + 1));
            rec.span("b", |rec| rec.leaf("a", || 40)) + 2
        });
        assert_eq!(out, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.slot == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[3].end_ns);
        let total: u64 = self_time_by_name(spans).values().sum();
        assert_eq!(total, root_wall_ns(spans));
    }

    #[test]
    fn chrome_export_is_valid_json_with_one_event_per_span() {
        let spans = vec![
            span("slot", 0, 2_500, None),
            span("sim.run", 500, 1_500, Some(0)),
        ];
        let text = chrome_json(&[("passes", &spans), ("probes", &spans[..1])]);
        let doc = simt_harness::json::parse(&text).expect("chrome trace parses");
        let events = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        // One metadata event per group, one complete event per span.
        assert_eq!(events.len(), 2 + 3);
        assert_eq!(events[2].get("cat").and_then(|v| v.as_str()), Some("sim"));
        assert_eq!(events[2].get("dur").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(events[4].get("pid").and_then(|v| v.as_u64()), Some(2));
    }
}

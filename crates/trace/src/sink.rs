//! Tracer trait and sinks.
//!
//! The contract that keeps tracing zero-cost and deterministic:
//!
//! * every emit site is guarded by `if tracer.enabled()`, so with a
//!   [`NullTracer`] no event value is ever constructed — the only residue
//!   in the hot loop is one virtual call returning a constant `false`;
//! * a tracer is a pure observer: `emit` receives copies of simulator
//!   state and has no channel back into timing, so enabling tracing can
//!   never change a `SimReport`.

use crate::event::{TimedEvent, TraceEvent};

/// A consumer of trace events. Object-safe so the simulator can thread
/// `&mut dyn Tracer` through its layers without generics.
pub trait Tracer {
    /// Global gate. Emit sites skip event construction entirely when this
    /// is `false`.
    fn enabled(&self) -> bool;

    /// Record one event at `cycle`. Only called when [`Tracer::enabled`]
    /// returned `true` (callers guard), but implementations must tolerate
    /// unconditional calls.
    fn emit(&mut self, cycle: u64, event: TraceEvent);
}

/// The disabled tracer: `enabled()` is `false`, `emit` is a no-op. An
/// untraced run passes one of these wherever the stack takes a tracer.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTracer;

impl Tracer for NullTracer {
    fn enabled(&self) -> bool {
        false
    }

    fn emit(&mut self, _cycle: u64, _event: TraceEvent) {}
}

/// A bounded in-memory ring of timed events. When full, the *oldest*
/// events are evicted, so the tail of a long run — usually where the
/// interesting behaviour is — survives. `dropped()` reports how many
/// events were evicted so exporters can flag truncation.
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    buf: std::collections::VecDeque<TimedEvent>,
    emitted: u64,
    dropped: u64,
}

impl RingSink {
    /// A ring holding at most `capacity` events. Capacity 0 is legal: the
    /// sink counts events but retains none (useful as a pure event
    /// counter).
    pub fn new(capacity: usize) -> RingSink {
        RingSink {
            capacity,
            // Cap the eager allocation; a huge ring grows on demand.
            buf: std::collections::VecDeque::with_capacity(capacity.min(1 << 16)),
            emitted: 0,
            dropped: 0,
        }
    }

    /// Total events ever emitted into the sink (retained + dropped).
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Events evicted (or rejected by a capacity-0 ring).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TimedEvent> {
        self.buf.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl Tracer for RingSink {
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&mut self, cycle: u64, event: TraceEvent) {
        self.emitted += 1;
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(TimedEvent { cycle, event });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: u64) -> TraceEvent {
        TraceEvent::Fill { sm: 0, line: n }
    }

    #[test]
    fn ring_retains_in_order() {
        let mut s = RingSink::new(8);
        for i in 0..5 {
            s.emit(i, ev(i));
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.emitted(), 5);
        assert_eq!(s.dropped(), 0);
        let cycles: Vec<u64> = s.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ring_wraparound_keeps_newest() {
        let mut s = RingSink::new(3);
        for i in 0..10 {
            s.emit(i, ev(i));
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.emitted(), 10);
        assert_eq!(s.dropped(), 7);
        let cycles: Vec<u64> = s.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![7, 8, 9], "oldest events must be evicted");
        // Events carry their payloads through the wrap.
        let lines: Vec<u64> = s
            .events()
            .map(|e| match e.event {
                TraceEvent::Fill { line, .. } => line,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(lines, vec![7, 8, 9]);
    }

    #[test]
    fn capacity_zero_counts_but_retains_nothing() {
        let mut s = RingSink::new(0);
        for i in 0..100 {
            s.emit(i, ev(i));
        }
        assert!(s.is_empty());
        assert_eq!(s.emitted(), 100);
        assert_eq!(s.dropped(), 100);
        assert_eq!(s.events().count(), 0);
    }

    #[test]
    fn null_tracer_is_disabled() {
        let t = NullTracer;
        assert!(!t.enabled());
        // emit must be callable and harmless.
        let mut t = t;
        t.emit(42, ev(1));
    }
}

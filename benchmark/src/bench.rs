//! What the runner needs from a workload: slots it can time, and the
//! checks and counts that go with them.

use crate::span::Recorder;
use std::collections::BTreeMap;

/// Results a slot handed to its caller: the numerators of the rates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Result points produced (simulated or served from the store).
    pub points: u64,
    /// Simulated cycles of those results.
    pub cycles: u64,
    /// Warp instructions of those results.
    pub warp_instructions: u64,
}

impl Work {
    pub fn add(&mut self, other: Work) {
        self.points += other.points;
        self.cycles += other.cycles;
        self.warp_instructions += other.warp_instructions;
    }
}

/// One execution of one slot.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Wall time of the call into the program under test, nothing else.
    pub ns: u64,
    /// What the call returned, reduced to numbers that must repeat
    /// exactly on every pass, traced or not: for a simulation
    /// `(cycles, warp_instructions, output_digest)`.
    pub sig: [u64; 3],
    pub work: Work,
    /// Why this execution's own output check failed, if it did.
    pub failure: Option<String>,
}

/// Exact, repeatable counts taken from the results of one pass.
pub type Counts = BTreeMap<&'static str, f64>;

/// What the probes of a traced run found.
#[derive(Debug, Default)]
pub struct ProbeReport {
    /// Derived per-layer metrics, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Probe executions whose output was checked, and the failed checks.
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// A set-up workload. A *pass* is `begin_pass`, every slot once in
/// `order()`, `end_pass`; only the inside of a slot is timed.
pub trait Bench {
    /// Slot names, indexed by slot id.
    fn slot_names(&self) -> &[String];

    /// The order a pass runs the slots in (decided by the seed).
    fn order(&self) -> &[usize];

    /// The design a slot simulates, where host cost per simulated cycle
    /// is reported per design.
    fn slot_group(&self, _slot: usize) -> Option<&'static str> {
        None
    }

    /// Untimed preparation of a pass (fresh directories and the like);
    /// `decomposed` says which of the two slot functions the pass calls.
    fn begin_pass(&mut self, decomposed: bool);

    /// Run one slot through the entry point users call.
    fn run_slot(&mut self, slot: usize) -> Sample;

    /// Run one slot step by step through the layers' public functions,
    /// with a span around every call. Must produce the same `sig`.
    fn run_slot_decomposed(&mut self, slot: usize, rec: &mut Recorder) -> Sample;

    /// Untimed end of a pass: checks that need the whole pass, as
    /// `(slot, reason)` for every slot they fail, then clean-up.
    fn end_pass(&mut self) -> Vec<(usize, String)>;

    /// Counts from the most recent complete pass.
    fn counts(&self) -> Counts;

    /// Extra measurements of a traced run that are not part of a pass
    /// (probe slots, re-runs with a knob changed), made after the
    /// decomposed passes. Spans go to `rec`, which holds nothing else.
    fn probes(&mut self, rec: &mut Recorder) -> ProbeReport;
}

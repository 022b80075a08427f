//! Miss Status Holding Registers with same-line request merging.

use crate::fxhash::FxHashMap;

/// A target waiting on an in-flight line: who to notify when it fills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MshrTarget {
    /// Client id (LSU / DAC / MTA — see [`crate::fabric::Client`]).
    pub client: u8,
    /// Client-defined token returned in the response.
    pub token: u64,
}

#[derive(Debug, Clone)]
struct Entry {
    targets: Vec<MshrTarget>,
}

/// An MSHR table: bounds the number of distinct outstanding miss lines and
/// the number of merged requests per line.
#[derive(Debug, Clone)]
pub struct MshrTable {
    // FxHashMap, not the default SipHash map: this table sits on the
    // per-access hot path and is never iterated, so the hasher swap cannot
    // perturb results.
    entries: FxHashMap<u64, Entry>,
    capacity: usize,
    merge_capacity: usize,
    /// Allocation failures due to a full table (structural stall events).
    pub full_stalls: u64,
    /// Requests merged into an existing entry.
    pub merges: u64,
}

impl MshrTable {
    /// A table with `capacity` entries and `merge_capacity` targets each.
    pub fn new(capacity: usize, merge_capacity: usize) -> Self {
        MshrTable {
            entries: FxHashMap::default(),
            capacity,
            merge_capacity,
            full_stalls: 0,
            merges: 0,
        }
    }

    /// Is a miss for `line` already outstanding?
    pub fn contains(&self, line: u64) -> bool {
        self.entries.contains_key(&line)
    }

    /// Can a request for `line` be accepted right now (allocate or merge)?
    pub fn can_accept(&self, line: u64) -> bool {
        match self.entries.get(&line) {
            Some(e) => e.targets.len() < self.merge_capacity,
            None => self.entries.len() < self.capacity,
        }
    }

    /// Register a miss. Returns `true` if this allocated a **new** entry
    /// (i.e. a request must be forwarded down the hierarchy); `false` if it
    /// merged into an in-flight one.
    ///
    /// # Panics
    ///
    /// Panics when called while [`MshrTable::can_accept`] is false; callers
    /// must check first (that is the structural stall).
    pub fn allocate(&mut self, line: u64, target: MshrTarget) -> bool {
        assert!(
            self.can_accept(line),
            "MSHR overflow — check can_accept first"
        );
        match self.entries.get_mut(&line) {
            Some(e) => {
                e.targets.push(target);
                self.merges += 1;
                false
            }
            None => {
                self.entries.insert(
                    line,
                    Entry {
                        targets: vec![target],
                    },
                );
                true
            }
        }
    }

    /// The fill for `line` arrived: release the entry and return everyone
    /// waiting on it.
    pub fn release(&mut self, line: u64) -> Vec<MshrTarget> {
        self.entries
            .remove(&line)
            .map(|e| e.targets)
            .unwrap_or_default()
    }

    /// Client id of the first (originating) requester of an in-flight line.
    pub fn first_client(&self, line: u64) -> Option<u8> {
        self.entries
            .get(&line)
            .and_then(|e| e.targets.first())
            .map(|t| t.client)
    }

    /// Outstanding distinct miss lines.
    pub fn outstanding(&self) -> usize {
        self.entries.len()
    }

    /// Drop all state (between kernels).
    pub fn flush(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(token: u64) -> MshrTarget {
        MshrTarget { client: 0, token }
    }

    #[test]
    fn allocate_then_merge() {
        let mut m = MshrTable::new(2, 4);
        assert!(m.allocate(0x100, t(1))); // new entry → forward
        assert!(!m.allocate(0x100, t(2))); // merge → no forward
        assert_eq!(m.merges, 1);
        assert_eq!(m.outstanding(), 1);
        let targets = m.release(0x100);
        assert_eq!(targets.len(), 2);
        assert_eq!(m.outstanding(), 0);
    }

    #[test]
    fn capacity_limits() {
        let mut m = MshrTable::new(1, 2);
        m.allocate(0x100, t(1));
        assert!(!m.can_accept(0x200)); // table full
        assert!(m.can_accept(0x100)); // merge ok
        m.allocate(0x100, t(2));
        assert!(!m.can_accept(0x100)); // merge list full
    }

    #[test]
    #[should_panic(expected = "MSHR overflow")]
    fn overflow_panics() {
        let mut m = MshrTable::new(1, 1);
        m.allocate(0x100, t(1));
        m.allocate(0x200, t(2));
    }

    #[test]
    fn release_unknown_is_empty() {
        let mut m = MshrTable::new(1, 1);
        assert!(m.release(0xABC).is_empty());
    }
}

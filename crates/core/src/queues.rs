//! DAC's queues: the Affine Tuple Queue and the per-warp address and
//! predicate queues (paper Figure 9, Table 1).

use simt_ir::{QueueKind, Space, Width};
use simt_mem::{FxHashMap, LaneAddrs};
use simt_sim::AddrRecord;
use std::collections::VecDeque;

/// The concrete expansion of one enqueue for one non-affine warp,
/// precomputed by the affine engine (the AEU/PEU charge the timing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarpExpansion {
    /// SM warp slot the expansion is destined for.
    pub warp_global: usize,
    /// Per-lane addresses (Data/Addr kinds; no lanes for Pred).
    pub addrs: LaneAddrs,
    /// Predicate bits (Pred kind).
    pub bits: u32,
    /// Lanes active at the enqueue (drives PEU cost classification).
    pub active: u32,
}

/// One Affine Tuple Queue entry: an enqueued tuple awaiting expansion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtqEntry {
    /// CTA slot the tuple belongs to.
    pub slot: usize,
    /// Which queue family it expands into.
    pub kind: QueueKind,
    /// Access granularity (Data/Addr).
    pub width: Width,
    /// Memory space of the original access.
    pub space: Space,
    /// Per-warp expansions, in warp order.
    pub per_warp: Vec<WarpExpansion>,
    /// Expansion progress: next warp index to process.
    pub next: usize,
    /// Barrier epoch at enqueue (§4.2: the AEU only expands for CTAs that
    /// have passed the matching barrier).
    pub epoch: u32,
}

/// A produced address record waiting in a PWAQ, plus its readiness.
#[derive(Debug, Clone)]
pub struct RecordState {
    /// The record handed to the non-affine warp at dequeue.
    pub record: AddrRecord,
    /// Early line requests still in flight (Data kind).
    pub pending: usize,
}

impl RecordState {
    /// Data present (or no early request was needed)?
    pub fn ready(&self) -> bool {
        self.pending == 0
    }
}

/// All DAC queues of one SM.
#[derive(Debug)]
pub struct DacQueues {
    /// The shared Affine Tuple Queue.
    pub atq: VecDeque<AtqEntry>,
    /// Per-warp address queues (record ids).
    pub pwaq: Vec<VecDeque<u64>>,
    /// Per-warp predicate queues (bit vectors).
    pub pwpq: Vec<VecDeque<u32>>,
    /// Record store. Fx-hashed: lookups/inserts/removes only — the one
    /// place keys are enumerated collects them into a membership set, so
    /// iteration order never reaches a simulation result.
    pub records: FxHashMap<u64, RecordState>,
    atq_cap: usize,
    pwaq_cap: usize,
    pwpq_cap: usize,
    next_rec: u64,
}

impl DacQueues {
    /// Queues for an SM with `warps` warp slots.
    pub fn new(warps: usize, atq_cap: usize, pwaq_cap: usize, pwpq_cap: usize) -> Self {
        DacQueues {
            atq: VecDeque::new(),
            pwaq: vec![VecDeque::new(); warps],
            pwpq: vec![VecDeque::new(); warps],
            records: FxHashMap::default(),
            atq_cap,
            pwaq_cap,
            pwpq_cap,
            next_rec: 0,
        }
    }

    /// Grow the per-warp queues to cover at least `warps` warp slots.
    pub fn ensure_warps(&mut self, warps: usize) {
        if self.pwaq.len() < warps {
            self.pwaq.resize_with(warps, VecDeque::new);
            self.pwpq.resize_with(warps, VecDeque::new);
        }
    }

    /// Repartition the per-warp capacities (occupancy changed). Entries
    /// already queued beyond a shrunken cap stay and drain naturally.
    pub fn set_per_warp_caps(&mut self, pwaq: usize, pwpq: usize) {
        self.pwaq_cap = pwaq;
        self.pwpq_cap = pwpq;
    }

    /// Kind and readiness of the head record in `warp`'s PWAQ.
    pub fn pwaq_front_kind(&self, warp: usize) -> Option<(simt_sim::RecordKind, bool)> {
        let id = self.pwaq.get(warp)?.front()?;
        let r = self.records.get(id)?;
        Some((r.record.kind, r.ready()))
    }

    /// Is a predicate bit vector queued for `warp`?
    pub fn pred_available(&self, warp: usize) -> bool {
        self.pwpq.get(warp).map(|q| !q.is_empty()).unwrap_or(false)
    }

    /// Can the affine warp enqueue another tuple?
    pub fn atq_has_space(&self) -> bool {
        self.atq.len() < self.atq_cap
    }

    /// Push a tuple (checked by the enq scoreboard gate).
    ///
    /// # Panics
    ///
    /// Panics if the ATQ is full.
    pub fn push_atq(&mut self, e: AtqEntry) {
        assert!(self.atq_has_space(), "ATQ overflow");
        self.atq.push_back(e);
    }

    /// Room in `warp`'s address queue?
    pub fn pwaq_has_space(&self, warp: usize) -> bool {
        self.pwaq[warp].len() < self.pwaq_cap
    }

    /// Room in `warp`'s predicate queue?
    pub fn pwpq_has_space(&self, warp: usize) -> bool {
        self.pwpq[warp].len() < self.pwpq_cap
    }

    /// Store a new record and queue it for `warp`. Returns the record id.
    pub fn push_record(&mut self, warp: usize, record: AddrRecord, pending: usize) -> u64 {
        debug_assert!(self.pwaq_has_space(warp));
        let id = self.next_rec;
        self.next_rec += 1;
        self.records.insert(id, RecordState { record, pending });
        self.pwaq[warp].push_back(id);
        id
    }

    /// Is the head record of `warp`'s PWAQ present and ready?
    pub fn front_ready(&self, warp: usize) -> bool {
        match self.pwaq[warp].front() {
            Some(id) => self.records.get(id).map(|r| r.ready()).unwrap_or(false),
            None => false,
        }
    }

    /// Pop the head record for `warp`.
    pub fn pop_record(&mut self, warp: usize) -> Option<AddrRecord> {
        let id = self.pwaq[warp].pop_front()?;
        self.records.remove(&id).map(|r| r.record)
    }

    /// A fill response arrived for record `id`.
    pub fn record_response(&mut self, id: u64) {
        if let Some(r) = self.records.get_mut(&id) {
            r.pending = r.pending.saturating_sub(1);
        }
    }

    /// Push predicate bits for `warp`.
    pub fn push_pred(&mut self, warp: usize, bits: u32) {
        debug_assert!(self.pwpq_has_space(warp));
        self.pwpq[warp].push_back(bits);
    }

    /// Pop predicate bits for `warp`.
    pub fn pop_pred(&mut self, warp: usize) -> Option<u32> {
        self.pwpq[warp].pop_front()
    }

    /// Any queued work left anywhere?
    pub fn empty(&self) -> bool {
        self.atq.is_empty()
            && self.records.is_empty()
            && self.pwaq.iter().all(|q| q.is_empty())
            && self.pwpq.iter().all(|q| q.is_empty())
    }

    /// Drop queued state belonging to `warps` (defensive cleanup at CTA
    /// retire; matched streams leave nothing behind). Returns how many
    /// items were discarded.
    pub fn drop_warps(&mut self, slot: usize, warps: &[usize]) -> usize {
        let mut dropped = 0;
        let before = self.atq.len();
        self.atq.retain(|e| e.slot != slot);
        dropped += before - self.atq.len();
        for &w in warps {
            dropped += self.pwaq[w].len() + self.pwpq[w].len();
            for id in self.pwaq[w].drain(..) {
                self.records.remove(&id);
            }
            self.pwpq[w].clear();
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_sim::RecordKind;

    fn rec() -> AddrRecord {
        AddrRecord {
            kind: RecordKind::Data,
            thread_addrs: LaneAddrs {
                addrs: [0; 32],
                mask: u32::MAX,
            },
            lines: vec![0],
            space: Space::Global,
            width: Width::W32,
        }
    }

    fn queues() -> DacQueues {
        DacQueues::new(4, 2, 2, 2)
    }

    #[test]
    fn atq_capacity() {
        let mut q = queues();
        assert!(q.atq_has_space());
        for _ in 0..2 {
            q.push_atq(AtqEntry {
                slot: 0,
                kind: simt_ir::QueueKind::Data,
                width: Width::W32,
                space: Space::Global,
                per_warp: vec![],
                next: 0,
                epoch: 0,
            });
        }
        assert!(!q.atq_has_space());
    }

    #[test]
    fn record_lifecycle() {
        let mut q = queues();
        let id = q.push_record(1, rec(), 2);
        assert!(!q.front_ready(1));
        q.record_response(id);
        assert!(!q.front_ready(1));
        q.record_response(id);
        assert!(q.front_ready(1));
        let r = q.pop_record(1).unwrap();
        assert_eq!(r.kind, RecordKind::Data);
        assert!(q.pop_record(1).is_none());
        assert!(q.empty());
    }

    #[test]
    fn per_warp_isolation() {
        let mut q = queues();
        q.push_record(0, rec(), 0);
        assert!(q.front_ready(0));
        assert!(!q.front_ready(1));
        assert!(q.pwaq_has_space(1));
    }

    #[test]
    fn pred_queue_fifo() {
        let mut q = queues();
        q.push_pred(2, 0xF);
        q.push_pred(2, 0x3);
        assert_eq!(q.pop_pred(2), Some(0xF));
        assert_eq!(q.pop_pred(2), Some(0x3));
        assert_eq!(q.pop_pred(2), None);
    }

    #[test]
    fn drop_warps_cleans_up() {
        let mut q = queues();
        q.push_atq(AtqEntry {
            slot: 3,
            kind: simt_ir::QueueKind::Data,
            width: Width::W32,
            space: Space::Global,
            per_warp: vec![],
            next: 0,
            epoch: 0,
        });
        q.push_record(0, rec(), 1);
        q.push_pred(0, 1);
        let dropped = q.drop_warps(3, &[0]);
        assert_eq!(dropped, 3);
        assert!(q.empty());
    }
}

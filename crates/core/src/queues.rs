//! DAC's queues: the Affine Tuple Queue and the per-warp address and
//! predicate queues (paper Figure 9, Table 1).

use crate::engine::LaunchCtx;
use affine::value::MAX_CTA_WARPS;
use affine::AffineVal;
use simt_ir::{QueueKind, Space, Width};
use simt_mem::{IdRing, LaneAddrs};
use simt_sim::sm::{LOCAL_BASE, LOCAL_STRIDE};
use simt_sim::AddrRecord;
use std::collections::VecDeque;

/// One Affine Tuple Queue entry: an enqueued tuple awaiting expansion. It
/// holds the tuple itself, not its lane addresses — the AEU computes one
/// warp's addresses when it expands that warp's record (§4.2).
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
    /// The enqueued value as it stood at the enqueue (Data/Addr; a scalar
    /// zero for Pred).
    pub val: AffineVal,
    /// Linear id of the CTA (local-space addresses are per thread).
    pub cta_linear: u64,
    /// Warps of the CTA (bit = warp index within the CTA) that reach the
    /// enqueue and are not expanded yet; the lowest is expanded next.
    pub left: u32,
    /// Per warp of the CTA: the lanes taking part in the access
    /// (Data/Addr), or the predicate bits (Pred).
    pub bits: [u32; MAX_CTA_WARPS],
    /// Barrier epoch at enqueue (§4.2: the AEU only expands for CTAs that
    /// have passed the matching barrier).
    pub epoch: u32,
}

impl AtqEntry {
    /// The warp (index within the CTA) the next expansion serves.
    pub fn next_warp(&self) -> usize {
        self.left.trailing_zeros() as usize
    }

    /// The lane addresses of warp `warp`'s record (`warp` indexes the
    /// CTA's warps). Lanes outside the record's mask stay zero.
    pub fn lane_addrs(&self, warp: usize, launch: &LaunchCtx) -> LaneAddrs {
        let bits = self.bits[warp];
        let mut out = LaneAddrs {
            mask: bits,
            ..LaneAddrs::default()
        };
        let first = self.cta_linear * launch.threads_per_cta() + warp as u64 * 32;
        let mut rest = bits;
        while rest != 0 {
            let lane = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let a = self.val.eval(warp, lane, launch.coords(warp, lane));
            out.addrs[lane] = if self.space == Space::Local {
                let gtid = first + lane as u64;
                LOCAL_BASE + gtid * LOCAL_STRIDE + (a % LOCAL_STRIDE)
            } else {
                a
            };
        }
        out
    }
}

/// The unique cache lines `addrs` touches, in first-lane order: the AEU's
/// coalescer. Returns the lines and how many of the 32 slots are used.
pub fn unique_lines(addrs: &LaneAddrs, line_bytes: u64) -> ([u64; 32], usize) {
    let mut lines = [0u64; 32];
    let mut n = 0;
    for (_, a) in addrs.active() {
        let line = a & !(line_bytes - 1);
        if !lines[..n].contains(&line) {
            lines[n] = line;
            n += 1;
        }
    }
    (lines, n)
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

/// One CTA slot's share of the ATQ.
#[derive(Debug, Default)]
struct SlotAtq {
    /// One FIFO per expansion unit of indices into `DacQueues::tuples`,
    /// in enqueue order: `fifos[0]` the slot's Data/Addr tuples (AEU),
    /// `fifos[1]` its Pred tuples (PEU).
    fifos: [VecDeque<usize>; 2],
    /// SM warp slot of each warp of the CTA (index = warp within the CTA).
    warps: [usize; MAX_CTA_WARPS],
    /// Warps in the CTA; 0 while the slot is free.
    nwarps: usize,
}

/// All DAC queues of one SM.
#[derive(Debug)]
pub struct DacQueues {
    /// The shared Affine Tuple Queue's order: one FIFO per CTA slot and
    /// expansion unit.
    atq: Vec<SlotAtq>,
    /// The shared Affine Tuple Queue's storage, `(age, tuple)` per entry,
    /// `None` when free; it never grows past the capacity. The age is the
    /// SM-wide enqueue count, so the oldest head over all slots is the
    /// entry a walk of the one shared queue meets first.
    tuples: Vec<Option<(u64, AtqEntry)>>,
    /// Free indices of `tuples`.
    free: Vec<usize>,
    /// Age of the next enqueued tuple.
    next_age: u64,
    /// Per-warp address queues: `(record id, record)`, ids ascending.
    pwaq: Vec<VecDeque<(u64, RecordState)>>,
    /// Per-warp predicate queues (bit vectors).
    pwpq: Vec<VecDeque<u32>>,
    /// Warp of every queued record still awaiting early-request responses
    /// (a fill response names its record only by id). Record ids rise, so
    /// a ring indexes it; a record that awaits nothing leaves a hole.
    awaiting: IdRing<usize>,
    /// Records queued across all PWAQs.
    pwaq_len: usize,
    /// Bit vectors queued across all PWPQs.
    pwpq_len: usize,
    atq_cap: usize,
    pwaq_cap: usize,
    pwpq_cap: usize,
    next_rec: u64,
}

impl DacQueues {
    /// Queues for an SM with `warps` warp slots.
    pub fn new(warps: usize, atq_cap: usize, pwaq_cap: usize, pwpq_cap: usize) -> Self {
        DacQueues {
            atq: Vec::new(),
            tuples: Vec::new(),
            free: Vec::new(),
            next_age: 0,
            pwaq: vec![VecDeque::new(); warps],
            pwpq: vec![VecDeque::new(); warps],
            awaiting: IdRing::default(),
            pwaq_len: 0,
            pwpq_len: 0,
            atq_cap,
            pwaq_cap,
            pwpq_cap,
            next_rec: 0,
        }
    }

    /// A CTA launched into `slot` with SM warp slots `warps` (index = warp
    /// within the CTA).
    pub fn launch_slot(&mut self, slot: usize, warps: &[usize]) {
        if self.atq.len() <= slot {
            self.atq.resize_with(slot + 1, SlotAtq::default);
        }
        let s = &mut self.atq[slot];
        s.warps[..warps.len()].copy_from_slice(warps);
        s.nwarps = warps.len();
        if let Some(&maxw) = warps.iter().max() {
            if self.pwaq.len() <= maxw {
                self.pwaq.resize_with(maxw + 1, VecDeque::new);
                self.pwpq.resize_with(maxw + 1, VecDeque::new);
            }
        }
    }

    /// Warps of every launched CTA.
    pub fn resident_warps(&self) -> usize {
        self.atq.iter().map(|s| s.nwarps).sum()
    }

    /// Repartition the per-warp capacities (occupancy changed). Entries
    /// already queued beyond a shrunken cap stay and drain naturally.
    pub fn set_per_warp_caps(&mut self, pwaq: usize, pwpq: usize) {
        self.pwaq_cap = pwaq;
        self.pwpq_cap = pwpq;
    }

    /// Kind and readiness of the head record in `warp`'s PWAQ.
    pub fn pwaq_front_kind(&self, warp: usize) -> Option<(simt_sim::RecordKind, bool)> {
        let (_, r) = self.pwaq.get(warp)?.front()?;
        Some((r.record.kind, r.ready()))
    }

    /// Is a predicate bit vector queued for `warp`?
    pub fn pred_available(&self, warp: usize) -> bool {
        self.pwpq.get(warp).map(|q| !q.is_empty()).unwrap_or(false)
    }

    /// Tuples queued in the ATQ.
    pub fn atq_len(&self) -> usize {
        self.tuples.len() - self.free.len()
    }

    /// Can the affine warp enqueue another tuple?
    pub fn atq_has_space(&self) -> bool {
        self.atq_len() < self.atq_cap
    }

    /// Push a tuple (checked by the enq scoreboard gate) onto its slot's
    /// FIFO for its expansion unit.
    ///
    /// # Panics
    ///
    /// Panics if the ATQ is full.
    pub fn push_atq(&mut self, e: AtqEntry) {
        assert!(self.atq_has_space(), "ATQ overflow");
        debug_assert!(e.left != 0, "an enqueue reached by no warp");
        debug_assert!(self.atq[e.slot].nwarps > 0, "tuple for a free CTA slot");
        let (slot, unit) = (e.slot, (e.kind == QueueKind::Pred) as usize);
        let tuple = Some((self.next_age, e));
        self.next_age += 1;
        let i = match self.free.pop() {
            Some(i) => {
                self.tuples[i] = tuple;
                i
            }
            None => {
                self.tuples.push(tuple);
                self.tuples.len() - 1
            }
        };
        self.atq[slot].fifos[unit].push_back(i);
    }

    /// The CTA slot whose tuple the PEU (`pred`) or the AEU expands next:
    /// the oldest FIFO head, over the slots, whose CTA has passed the
    /// tuple's barrier epoch (`epochs[slot]`, the barriers its non-affine
    /// warps passed) and whose next warp has room in its queue.
    ///
    /// This is the tuple a walk of the one shared ATQ returns: the walk
    /// meets each slot's entries of the unit's kind in FIFO order, blocks
    /// the slot at the first one (its head) that is not expandable, and
    /// returns the first expandable head it meets, i.e. the oldest
    /// (per-CTA accumulators let a unit skip a blocked CTA, §4.2).
    pub fn pick(&self, pred: bool, epochs: &[u32]) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for (slot, s) in self.atq.iter().enumerate() {
            let Some(&i) = s.fifos[pred as usize].front() else {
                continue;
            };
            let (age, e) = self.tuple(i);
            if best.is_some_and(|(oldest, _)| oldest < *age) || e.epoch > epochs[slot] {
                continue;
            }
            let warp = s.warps[e.next_warp()];
            let room = if pred {
                self.pwpq_has_space(warp)
            } else {
                self.pwaq_has_space(warp)
            };
            if room {
                best = Some((*age, slot));
            }
        }
        best.map(|(_, slot)| slot)
    }

    /// The head tuple of `slot`'s FIFO for the PEU (`pred`) or the AEU,
    /// and the SM warp slot its next expansion serves.
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is empty.
    pub fn atq_head(&self, slot: usize, pred: bool) -> (&AtqEntry, usize) {
        let s = &self.atq[slot];
        let (_, e) = self.tuple(*s.fifos[pred as usize].front().expect("FIFO head"));
        (e, s.warps[e.next_warp()])
    }

    /// The queued tuple at `tuples[i]`.
    fn tuple(&self, i: usize) -> &(u64, AtqEntry) {
        self.tuples[i]
            .as_ref()
            .expect("a FIFO names a queued tuple")
    }

    /// The head tuple of `slot`'s FIFO expanded one warp: drop that warp,
    /// and the tuple once every warp is expanded.
    pub fn expand_head(&mut self, slot: usize, pred: bool) {
        let fifo = &mut self.atq[slot].fifos[pred as usize];
        let i = *fifo.front().expect("FIFO head");
        let (_, e) = self.tuples[i]
            .as_mut()
            .expect("a FIFO names a queued tuple");
        e.left &= e.left - 1;
        if e.left == 0 {
            fifo.pop_front();
            self.tuples[i] = None;
            self.free.push(i);
        }
    }

    /// Every queued tuple, oldest first: the one shared ATQ.
    #[cfg(test)]
    pub(crate) fn atq_entries(&self) -> Vec<&AtqEntry> {
        let mut all: Vec<&(u64, AtqEntry)> = self.tuples.iter().flatten().collect();
        all.sort_by_key(|(age, _)| *age);
        all.into_iter().map(|(_, e)| e).collect()
    }

    /// Room in `warp`'s address queue?
    pub fn pwaq_has_space(&self, warp: usize) -> bool {
        self.pwaq[warp].len() < self.pwaq_cap
    }

    /// Room in `warp`'s predicate queue?
    pub fn pwpq_has_space(&self, warp: usize) -> bool {
        self.pwpq[warp].len() < self.pwpq_cap
    }

    /// Records queued across all PWAQs.
    pub fn records_len(&self) -> usize {
        self.pwaq_len
    }

    /// Predicate bit vectors queued across all PWPQs.
    pub fn preds_len(&self) -> usize {
        self.pwpq_len
    }

    /// Is record `id` queued and still waiting for an early-request
    /// response?
    pub fn awaits_response(&self, id: u64) -> bool {
        self.awaiting.get(id).is_some()
    }

    /// Store a new record and queue it for `warp`. Returns the record id.
    pub fn push_record(&mut self, warp: usize, record: AddrRecord, pending: usize) -> u64 {
        debug_assert!(self.pwaq_has_space(warp));
        let id = self.next_rec;
        self.next_rec += 1;
        if pending > 0 {
            self.awaiting.insert(id, warp);
        }
        self.pwaq[warp].push_back((id, RecordState { record, pending }));
        self.pwaq_len += 1;
        id
    }

    /// Is the head record of `warp`'s PWAQ present and ready?
    pub fn front_ready(&self, warp: usize) -> bool {
        self.pwaq[warp].front().is_some_and(|(_, r)| r.ready())
    }

    /// Pop the head record for `warp`.
    pub fn pop_record(&mut self, warp: usize) -> Option<AddrRecord> {
        let (id, r) = self.pwaq[warp].pop_front()?;
        self.pwaq_len -= 1;
        if r.pending > 0 {
            self.awaiting.remove(id);
        }
        Some(r.record)
    }

    /// A fill response arrived for record `id`. Returns the record's warp
    /// when that was the last line its warp's head record waited for —
    /// the response opened the warp's `deq.data` gate.
    pub fn record_response(&mut self, id: u64) -> Option<usize> {
        let &warp = self.awaiting.get(id)?;
        let q = &mut self.pwaq[warp];
        let i = q
            .binary_search_by_key(&id, |(rid, _)| *rid)
            .expect("an awaiting record is queued");
        let r = &mut q[i].1;
        r.pending -= 1;
        if r.pending > 0 {
            return None;
        }
        self.awaiting.remove(id);
        (i == 0).then_some(warp)
    }

    /// Push predicate bits for `warp`.
    pub fn push_pred(&mut self, warp: usize, bits: u32) {
        debug_assert!(self.pwpq_has_space(warp));
        self.pwpq[warp].push_back(bits);
        self.pwpq_len += 1;
    }

    /// Pop predicate bits for `warp`.
    pub fn pop_pred(&mut self, warp: usize) -> Option<u32> {
        let bits = self.pwpq[warp].pop_front()?;
        self.pwpq_len -= 1;
        Some(bits)
    }

    /// Any queued work left anywhere?
    pub fn empty(&self) -> bool {
        self.atq_len() == 0 && self.pwaq_len == 0 && self.pwpq_len == 0
    }

    /// The CTA in `slot` retired: drop the tuples and the per-warp queue
    /// state it left (defensive cleanup; matched streams leave nothing
    /// behind) and free the slot. Returns how many items were discarded.
    pub fn retire_slot(&mut self, slot: usize) -> usize {
        let mut dropped = 0;
        let s = &mut self.atq[slot];
        for fifo in &mut s.fifos {
            dropped += fifo.len();
            for i in fifo.drain(..) {
                self.tuples[i] = None;
                self.free.push(i);
            }
        }
        let (warps, nwarps) = (s.warps, std::mem::take(&mut s.nwarps));
        for &w in &warps[..nwarps] {
            dropped += self.pwaq[w].len() + self.pwpq[w].len();
            self.pwaq_len -= self.pwaq[w].len();
            self.pwpq_len -= self.pwpq[w].len();
            while let Some((id, r)) = self.pwaq[w].pop_front() {
                if r.pending > 0 {
                    self.awaiting.remove(id);
                }
            }
            self.pwpq[w].clear();
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use affine::value::DivergentVal;
    use affine::{tuple::ModExt, AffineTuple};
    use simt_ir::{Dim3, LaunchConfig};
    use simt_mem::FxHashMap;
    use simt_sim::RecordKind;

    fn rec() -> AddrRecord {
        AddrRecord {
            kind: RecordKind::Data,
            thread_addrs: LaneAddrs {
                addrs: [0; 32],
                mask: u32::MAX,
            },
            space: Space::Global,
            width: Width::W32,
        }
    }

    fn queues() -> DacQueues {
        DacQueues::new(4, 2, 2, 2)
    }

    fn entry(slot: usize) -> AtqEntry {
        AtqEntry {
            slot,
            kind: simt_ir::QueueKind::Data,
            width: Width::W32,
            space: Space::Global,
            val: AffineVal::scalar(0),
            cta_linear: 0,
            left: 1,
            bits: [0; MAX_CTA_WARPS],
            epoch: 0,
        }
    }

    #[test]
    fn atq_capacity() {
        let mut q = queues();
        q.launch_slot(0, &[0]);
        assert!(q.atq_has_space());
        for _ in 0..2 {
            q.push_atq(entry(0));
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
    fn retire_slot_cleans_up() {
        let mut q = queues();
        q.launch_slot(3, &[0]);
        q.push_atq(entry(3));
        q.push_record(0, rec(), 1);
        q.push_pred(0, 1);
        let dropped = q.retire_slot(3);
        assert_eq!(dropped, 3);
        assert!(q.empty());
        assert_eq!(q.resident_warps(), 0);
    }

    /// Deterministic xorshift stream for the reference-model tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// The record store the inline PWAQ replaced: ids in the per-warp
    /// queues, records in one id-keyed map.
    struct RefStore {
        pwaq: Vec<VecDeque<u64>>,
        records: FxHashMap<u64, RecordState>,
        next_rec: u64,
    }

    impl RefStore {
        fn push_record(&mut self, warp: usize, record: AddrRecord, pending: usize) -> u64 {
            let id = self.next_rec;
            self.next_rec += 1;
            self.records.insert(id, RecordState { record, pending });
            self.pwaq[warp].push_back(id);
            id
        }

        fn pwaq_front_kind(&self, warp: usize) -> Option<(RecordKind, bool)> {
            let r = self.records.get(self.pwaq.get(warp)?.front()?)?;
            Some((r.record.kind, r.ready()))
        }

        fn pop_record(&mut self, warp: usize) -> Option<AddrRecord> {
            let id = self.pwaq[warp].pop_front()?;
            self.records.remove(&id).map(|r| r.record)
        }

        fn record_response(&mut self, id: u64) {
            if let Some(r) = self.records.get_mut(&id) {
                r.pending = r.pending.saturating_sub(1);
            }
        }

        fn drop_warps(&mut self, warps: &[usize]) {
            for &w in warps {
                for id in self.pwaq[w].drain(..) {
                    self.records.remove(&id);
                }
            }
        }
    }

    /// Seeded push / response / pop / drop streams: the inline PWAQ agrees
    /// with the id-keyed record store on every head, every popped record
    /// and the occupancy count, including responses for records already
    /// popped or dropped.
    #[test]
    fn inline_records_match_the_record_store() {
        for seed in 1..=40u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let warps = 1 + rng.below(6) as usize;
            let mut q = DacQueues::new(warps, 4, 1 << 20, 4);
            // One CTA slot per warp, so a retire drops one warp's queues.
            for w in 0..warps {
                q.launch_slot(w, &[w]);
            }
            let mut model = RefStore {
                pwaq: vec![VecDeque::new(); warps],
                records: FxHashMap::default(),
                next_rec: 0,
            };
            let mut issued: Vec<u64> = Vec::new();
            for step in 0..600 {
                let w = rng.below(warps as u64) as usize;
                match rng.below(10) {
                    0..=3 => {
                        let mut r = rec();
                        r.kind = if rng.below(3) == 0 {
                            RecordKind::Addr
                        } else {
                            RecordKind::Data
                        };
                        r.thread_addrs.addrs[0] = step;
                        let pending = rng.below(4) as usize;
                        let id = q.push_record(w, r.clone(), pending);
                        assert_eq!(id, model.push_record(w, r, pending));
                        issued.push(id);
                    }
                    4..=6 if !issued.is_empty() => {
                        let id = issued[rng.below(issued.len() as u64) as usize];
                        let heads: Vec<_> = (0..warps).map(|w| model.pwaq_front_kind(w)).collect();
                        let opened = q.record_response(id);
                        model.record_response(id);
                        // The response opened a gate exactly when it
                        // turned one warp's head record ready.
                        let turned: Vec<usize> = (0..warps)
                            .filter(|&w| {
                                heads[w].is_some_and(|(_, ready)| !ready)
                                    && model.pwaq_front_kind(w).is_some_and(|(_, ready)| ready)
                            })
                            .collect();
                        assert_eq!(opened.into_iter().collect::<Vec<_>>(), turned);
                    }
                    7 | 8 => assert_eq!(q.pop_record(w), model.pop_record(w)),
                    _ => {
                        q.retire_slot(w);
                        q.launch_slot(w, &[w]);
                        model.drop_warps(&[w]);
                    }
                }
                for w in 0..warps {
                    assert_eq!(q.pwaq_front_kind(w), model.pwaq_front_kind(w));
                }
                assert_eq!(q.records_len(), model.records.len(), "seed {seed}");
            }
        }
    }

    /// The eager expansion the ATQ used to hold: at the enqueue, every
    /// warp's 32 lane addresses through `Dim3::unflatten`, then the AEU's
    /// `Vec::contains` coalescer.
    fn eager_expansion(
        val: &AffineVal,
        masks: &[u32],
        cta_linear: u64,
        launch: &LaunchConfig,
        space: Space,
        line_bytes: u64,
    ) -> Vec<(LaneAddrs, Vec<u64>)> {
        let tpc = launch.threads_per_cta() as u64;
        let mut out = Vec::new();
        for (w, &mask) in masks.iter().enumerate() {
            let mut addrs = LaneAddrs {
                mask,
                ..LaneAddrs::default()
            };
            for lane in 0..32 {
                if addrs.mask & (1 << lane) == 0 {
                    continue;
                }
                let coords = launch.block.unflatten(w as u64 * 32 + lane as u64);
                let a = val.eval(w, lane, coords);
                addrs.addrs[lane] = if space == Space::Local {
                    let gtid = cta_linear * tpc + (w as u64 * 32 + lane as u64);
                    LOCAL_BASE + gtid * LOCAL_STRIDE + (a % LOCAL_STRIDE)
                } else {
                    a
                };
            }
            let mut lines: Vec<u64> = Vec::new();
            for (_, a) in addrs.active() {
                let line = a & !(line_bytes - 1);
                if !lines.contains(&line) {
                    lines.push(line);
                }
            }
            out.push((addrs, lines));
        }
        out
    }

    fn random_tuple(rng: &mut Rng) -> AffineTuple {
        let small = |rng: &mut Rng| rng.below(41) as i64 - 8;
        let mut t = AffineTuple {
            base: match rng.below(3) {
                0 => rng.below(64) as i64,
                1 => 0x10_0000 + rng.below(1 << 16) as i64 * 4,
                _ => rng.next() as i64,
            },
            off: [small(rng) * 4, small(rng) * 64, small(rng)],
            mod_ext: None,
        };
        match rng.below(5) {
            0 => t.off = [0; 3],
            1 => {
                t.mod_ext = Some(ModExt {
                    mod_base: rng.below(100) as i64,
                    divisor: 1 + rng.below(512) as i64,
                })
            }
            _ => {}
        }
        t
    }

    /// Seeded single, divergent and mod tuples under guards, partial last
    /// warps, 1-D/2-D/3-D blocks and every space: expanding the compact
    /// tuple at the AEU gives the eager model's lane addresses and lines
    /// for every warp record.
    #[test]
    fn lazy_expansion_matches_eager_model() {
        let blocks = [
            Dim3::x(64),
            Dim3::x(100),
            Dim3::x(7),
            Dim3::xy(16, 5),
            Dim3::xy(48, 3),
            Dim3 { x: 8, y: 4, z: 3 },
            Dim3 { x: 5, y: 3, z: 7 },
        ];
        for seed in 1..=300u64 {
            let mut rng = Rng(seed.wrapping_mul(0xD134_2543_DE82_EF95) | 1);
            let block = blocks[rng.below(blocks.len() as u64) as usize];
            let launch = LaunchConfig {
                grid: Dim3::xy(6, 4),
                block,
                params: vec![],
            };
            let ctx = LaunchCtx::new(&launch);
            let nw = launch.warps_per_cta() as usize;
            let threads = launch.threads_per_cta() as u64;
            let val = if rng.below(3) == 0 {
                let n = 2 + rng.below(3) as usize;
                let tuples: Vec<AffineTuple> = (0..n).map(|_| random_tuple(&mut rng)).collect();
                let select = (0..nw)
                    .map(|_| std::array::from_fn(|_| rng.below(n as u64) as u8))
                    .collect();
                AffineVal::Divergent(DivergentVal { tuples, select })
            } else {
                AffineVal::Tuple(random_tuple(&mut rng))
            };
            let space = [Space::Global, Space::Shared, Space::Local][rng.below(3) as usize];
            // Live lanes of each warp, narrowed by a random guard.
            let masks: Vec<u32> = (0..nw)
                .map(|w| {
                    let live = threads.saturating_sub(w as u64 * 32).min(32) as u32;
                    let exist = if live == 32 {
                        u32::MAX
                    } else {
                        (1u32 << live) - 1
                    };
                    match rng.below(3) {
                        0 => exist & rng.next() as u32,
                        1 => 0,
                        _ => exist,
                    }
                })
                .collect();
            let cta_linear = rng.below(24);
            let e = AtqEntry {
                slot: 0,
                kind: QueueKind::Data,
                width: Width::W32,
                space,
                val: val.clone(),
                cta_linear,
                left: (1 << nw) - 1,
                bits: std::array::from_fn(|w| masks.get(w).copied().unwrap_or(0)),
                epoch: 0,
            };
            let line_bytes = [32u64, 128][rng.below(2) as usize];
            let eager = eager_expansion(&val, &masks, cta_linear, &launch, space, line_bytes);
            for (k, (addrs, lines)) in eager.iter().enumerate() {
                let lazy = e.lane_addrs(k, &ctx);
                assert_eq!(&lazy, addrs, "seed {seed} warp {k}");
                let (uniq, n) = unique_lines(&lazy, line_bytes);
                assert_eq!(&uniq[..n], &lines[..], "seed {seed} warp {k}");
            }
        }
    }

    /// The pick the per-slot FIFOs replaced: a walk of the one shared ATQ
    /// in enqueue order that blocks a CTA slot at its first tuple of the
    /// unit's kind that cannot be expanded (epoch not reached, or no room
    /// for its next warp) and returns the index of the first that can.
    fn walk_pick(
        atq: &VecDeque<AtqEntry>,
        pred: bool,
        epochs: &[u32],
        slot_warps: &[Vec<usize>],
        room: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let mut blocked = 0u64;
        for (i, e) in atq.iter().enumerate() {
            if (e.kind == QueueKind::Pred) != pred || blocked & (1 << e.slot) != 0 {
                continue;
            }
            if e.epoch > epochs[e.slot] || !room(slot_warps[e.slot][e.next_warp()]) {
                blocked |= 1 << e.slot;
                continue;
            }
            return Some(i);
        }
        None
    }

    /// Seeded streams of ATQ pushes of both units' kinds, affine and
    /// non-affine barriers, expansions, per-warp dequeues and CTA retires:
    /// at every step both units' picks name the slot of the tuple the
    /// shared-queue walk returns, the FIFO heads are those tuples, and the
    /// queue holds the walk's entries in the same order.
    #[test]
    fn slot_fifo_pick_matches_the_atq_walk() {
        let kinds = [QueueKind::Data, QueueKind::Addr, QueueKind::Pred];
        for seed in 1..=200u64 {
            let mut rng = Rng(seed.wrapping_mul(0xA24B_AED4_963E_E407) | 1);
            let nslots = 1 + rng.below(8) as usize;
            let per_cta = 1 + rng.below(4) as usize;
            let warps = nslots * per_cta;
            let atq_cap = 1 + rng.below(24) as usize;
            let cap = 1 + rng.below(3) as usize;
            let mut q = DacQueues::new(warps, atq_cap, cap, cap);
            let mut model: VecDeque<AtqEntry> = VecDeque::new();
            let mut slot_warps: Vec<Vec<usize>> = Vec::new();
            // Barriers passed by each slot's affine and non-affine warps.
            let mut affine_epoch = vec![0u32; nslots];
            let mut epochs = vec![0u32; nslots];
            for slot in 0..nslots {
                let ws: Vec<usize> = (slot * per_cta..(slot + 1) * per_cta).collect();
                q.launch_slot(slot, &ws);
                slot_warps.push(ws);
            }
            for step in 0..400 {
                let slot = rng.below(nslots as u64) as usize;
                match rng.below(16) {
                    0..=4 if q.atq_has_space() => {
                        let e = AtqEntry {
                            slot,
                            kind: kinds[rng.below(3) as usize],
                            width: Width::W32,
                            space: Space::Global,
                            val: AffineVal::scalar(step),
                            cta_linear: slot as u64,
                            left: (rng.next() as u32 & ((1 << per_cta) - 1)).max(1),
                            bits: std::array::from_fn(|_| rng.next() as u32),
                            epoch: affine_epoch[slot],
                        };
                        q.push_atq(e.clone());
                        model.push_back(e);
                    }
                    5 => affine_epoch[slot] += 1,
                    6 if epochs[slot] < affine_epoch[slot] => epochs[slot] += 1,
                    7..=10 => {
                        let pred = rng.below(2) == 0;
                        let Some(slot) = q.pick(pred, &epochs) else {
                            continue;
                        };
                        // The checks below the match agreed on this tuple.
                        let i = model
                            .iter()
                            .position(|e| e.slot == slot && (e.kind == QueueKind::Pred) == pred)
                            .expect("the slot's head");
                        let (e, warp) = q.atq_head(slot, pred);
                        let bits = e.bits[e.next_warp()];
                        q.expand_head(slot, pred);
                        if pred {
                            q.push_pred(warp, bits);
                        } else {
                            q.push_record(warp, rec(), 0);
                        }
                        let m = &mut model[i];
                        m.left &= m.left - 1;
                        if m.left == 0 {
                            model.remove(i);
                        }
                    }
                    11..=13 => {
                        let w = rng.below(warps as u64) as usize;
                        if rng.below(2) == 0 {
                            q.pop_record(w);
                        } else {
                            q.pop_pred(w);
                        }
                    }
                    14 => {
                        q.retire_slot(slot);
                        model.retain(|e| e.slot != slot);
                        // The next CTA takes the slot's warps in a new order.
                        slot_warps[slot].rotate_left(1);
                        q.launch_slot(slot, &slot_warps[slot]);
                        affine_epoch[slot] = 0;
                        epochs[slot] = 0;
                    }
                    _ => {}
                }
                for pred in [false, true] {
                    let room = |w: usize| {
                        if pred {
                            q.pwpq_has_space(w)
                        } else {
                            q.pwaq_has_space(w)
                        }
                    };
                    let want = walk_pick(&model, pred, &epochs, &slot_warps, room);
                    let got = q.pick(pred, &epochs);
                    assert_eq!(
                        got,
                        want.map(|i| model[i].slot),
                        "seed {seed} step {step} pred {pred}"
                    );
                    if let (Some(slot), Some(i)) = (got, want) {
                        assert_eq!(q.atq_head(slot, pred).0, &model[i], "seed {seed}");
                    }
                }
                assert_eq!(q.atq_len(), model.len(), "seed {seed} step {step}");
                assert!(q.atq_entries().into_iter().eq(model.iter()), "seed {seed}");
            }
        }
    }
}

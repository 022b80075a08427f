//! The full memory hierarchy: per-SM L1s (+ optional prefetch buffer),
//! address-interleaved L2 partitions, and per-partition DRAM.
//!
//! Clients (the SM load/store units, DAC's Address Expansion Unit, and the
//! MTA prefetcher) submit [`MemRequest`]s tagged with a [`Client`] id and an
//! opaque token; completed loads come back as [`MemResponse`]s through
//! [`MemoryFabric::drain_responses_into`]. The fabric owns all timing:
//! structural stalls are reported synchronously as
//! [`AccessOutcome::Stall`] so callers can retry (that retry *is* the
//! stall). A client that stops retrying while its SM sleeps is credited
//! the retries it skipped when it next calls ([`MemoryFabric::access`]).
//! Partitions and ports tick only when due, and the fabric posts a
//! sleeping SM's wakes ([`MemoryFabric::wake_at`]): DESIGN.md "One wake
//! protocol".

use crate::cache::{Cache, CacheOutcome};
use crate::config::MemConfig;
use crate::dram::{DramPartition, DramRequest};
use crate::fxhash::FxHashMap;
use crate::mshr::{MshrTable, MshrTarget};
use crate::ring::IdRing;
use crate::stats::MemStats;
use simt_trace::{StallCause, TraceClient, TraceEvent, TraceReqKind, Tracer};
use std::collections::VecDeque;

/// Clients per SM port (`Client::to_u8` indexes them).
const CLIENTS: usize = 3;

/// The port's ready lanes, one per latency class: every push to a lane
/// is due a fixed time after the cycle that pushes it.
const LANES: usize = 3;
/// Matured fills and direct responses, due the cycle they mature.
const MATURED: usize = 0;
/// L1 hits (`l1_hit_latency`), or on a perfect fabric, which has no L1,
/// every load (`perfect_latency`).
const HIT: usize = 1;
/// Prefetch-buffer hits (`prefetch_buffer_latency`).
const PBUF_HIT: usize = 2;

/// Who issued a request (routes the response).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Client {
    /// The SM's load/store unit (ordinary warp accesses).
    Lsu,
    /// DAC's Address Expansion Unit (early, locking requests).
    Dac,
    /// The MTA prefetcher.
    Mta,
}

impl Client {
    /// The tracing mirror of this client id.
    pub fn trace(self) -> TraceClient {
        match self {
            Client::Lsu => TraceClient::Lsu,
            Client::Dac => TraceClient::Dac,
            Client::Mta => TraceClient::Mta,
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            Client::Lsu => 0,
            Client::Dac => 1,
            Client::Mta => 2,
        }
    }

    fn from_u8(v: u8) -> Client {
        match v {
            0 => Client::Lsu,
            1 => Client::Dac,
            _ => Client::Mta,
        }
    }
}

/// Request kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// Demand load; response delivered when data is L1-resident.
    Load,
    /// Store (write-through at L1, write-back at L2); no response.
    Store,
    /// Atomic RMW — bypasses L1, serviced at L2/DRAM; response carries
    /// completion (functional value is computed by the SM at issue).
    Atomic,
    /// DAC early load: like `Load` but locks the L1 line on fill so it
    /// cannot be evicted before the demand access (paper §4.2).
    PrefetchLock,
    /// MTA speculative prefetch: fills the dedicated prefetch buffer; no
    /// warp is waiting on it.
    Prefetch,
}

impl ReqKind {
    /// The tracing mirror of this request kind.
    pub fn trace(self) -> TraceReqKind {
        match self {
            ReqKind::Load => TraceReqKind::Load,
            ReqKind::Store => TraceReqKind::Store,
            ReqKind::Atomic => TraceReqKind::Atomic,
            ReqKind::PrefetchLock => TraceReqKind::PrefetchLock,
            ReqKind::Prefetch => TraceReqKind::Prefetch,
        }
    }
}

/// A memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Issuing SM.
    pub sm: usize,
    /// Cache-line-aligned address.
    pub line: u64,
    /// Kind of access.
    pub kind: ReqKind,
    /// Issuing client.
    pub client: Client,
    /// Client-defined token, returned in the response.
    pub token: u64,
}

impl MemRequest {
    fn response(&self) -> MemResponse {
        let (sm, line, client, token) = (self.sm, self.line, self.client, self.token);
        MemResponse {
            sm,
            line,
            client,
            token,
        }
    }
}

/// A completed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemResponse {
    /// SM the response belongs to.
    pub sm: usize,
    /// Line address.
    pub line: u64,
    /// Client that issued the request.
    pub client: Client,
    /// Token from the request.
    pub token: u64,
}

/// Why a request could not be accepted this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallReason {
    /// L1 MSHR table full.
    MshrFull,
    /// Interconnect/partition queue full.
    QueueFull,
    /// DAC lock budget (`ways - 1` locked lines per set) exhausted.
    LockBudget,
}

impl StallReason {
    /// The tracing mirror of this port-stall reason.
    pub fn trace(self) -> StallCause {
        match self {
            StallReason::MshrFull => StallCause::MshrFull,
            StallReason::QueueFull => StallCause::QueueFull,
            StallReason::LockBudget => StallCause::LockBudget,
        }
    }
}

/// Result of submitting a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Request accepted; a response will arrive later (loads/atomics) or
    /// the request is fire-and-forget (stores/prefetches).
    Accepted,
    /// Structural stall; retry next cycle.
    Stall(StallReason),
}

#[derive(Debug, Clone, Copy)]
enum PartEvent {
    /// A line fill heading to an SM (goes through the MSHR release path).
    Fill { line: u64 },
    /// A direct response (atomics — no L1 fill).
    Direct(MemResponse),
}

impl PartEvent {
    /// What a partition sends back for `req`.
    fn of(req: &MemRequest) -> Self {
        match req.kind {
            ReqKind::Atomic => PartEvent::Direct(req.response()),
            _ => PartEvent::Fill { line: req.line },
        }
    }
}

/// The last request the fabric refused a client: why, when it was last
/// looked at and the port's `changes` count then. A gap between `at` and
/// the next look is retries skipped, asleep or answered from here.
#[derive(Debug, Clone, Copy)]
struct Refusal {
    req: MemRequest,
    reason: StallReason,
    at: u64,
    changes: u64,
}

#[derive(Debug)]
struct Partition {
    /// Index among the partitions (trace events name it).
    id: usize,
    inq: VecDeque<(u64, MemRequest)>,
    /// The next cycle its tick can change anything (`u64::MAX`: until a
    /// push).
    due: u64,
    /// SMs a client of which this full input queue refused since its last
    /// pop, the only way it gets room, one bit each: the pop wakes them.
    waiters: Vec<u64>,
    /// The last cycle the input head was served and refused for a full
    /// DRAM queue, while it still waits (`None`: it does not).
    blocked_at: Option<u64>,
    l2: Cache,
    dram: DramPartition,
    /// The next cycle the DRAM queue walk can start a request
    /// ([`DramPartition::cycle`]), or `now` after a push.
    dram_due: u64,
    /// Outstanding DRAM reads by DRAM id. A writeback takes an id and
    /// leaves a hole.
    inflight: IdRing<MemRequest>,
    next_id: u64,
    /// Dirty L2 evictions written back to DRAM (partition-local slice of
    /// [`MemStats::writebacks`]).
    writebacks: u64,
}

#[derive(Debug)]
struct SmPort {
    l1: Cache,
    mshr: MshrTable,
    pbuf: Option<Cache>,
    /// `(ready_cycle, seq, event)`: fills and direct responses from the
    /// partitions, in push order. Every push is due `l2_latency +
    /// icnt_latency` after the cycle that pushes it and takes a rising
    /// `seq`, so push order is `(at, seq)` order and the front is the
    /// next event due: the port's due cycle, kept in
    /// [`MemoryFabric::port_due`].
    incoming: VecDeque<(u64, u64, PartEvent)>,
    /// The wake posted for the SM: the first cycle a response is ready, an
    /// incoming event matured or a partition that refused one of its
    /// clients popped (`u64::MAX`: none). A drain resets it.
    wake: u64,
    /// Changes to the port state a refusal reads: matured events, unlocks
    /// and accepted requests of this SM. Nothing else reaches the port.
    changes: u64,
    /// `(ready_cycle, seq, response)`: responses ready for the client to
    /// drain, one FIFO per latency class (`MATURED`, `HIT`, `PBUF_HIT`).
    /// Within a lane push order is `(at, seq)` order; responses sharing
    /// one `(at, seq)` (an MSHR fill releasing merged targets) sit in
    /// one lane in insertion order. `seq` is unique across lanes, so
    /// draining the least `(at, seq)` front first is one global order.
    ready: [VecDeque<(u64, u64, MemResponse)>; LANES],
    /// Port-local sequence counter: `seq` only ever tie-breaks within this
    /// port's queues. Each cycle assigns it to partition events first
    /// (partitions cycle in index order and deliver as they generate),
    /// then to this SM's client accesses.
    seq: u64,
    /// The last refusal of each client, until it is accepted.
    refused: [Option<Refusal>; CLIENTS],
    /// Fills delivered into the prefetch buffer (port-local slice of
    /// [`MemStats::pbuf_fills`]).
    pbuf_fills: u64,
}

impl SmPort {
    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// The cycle the head of `incoming` matures (`u64::MAX`: empty).
    fn due(&self) -> u64 {
        self.incoming.front().map_or(u64::MAX, |&(at, ..)| at)
    }

    /// A partition's fill or direct response, due at `at`, lowering the
    /// port's due cycle `due` to it.
    fn push_incoming(&mut self, at: u64, ev: PartEvent, due: &mut u64) {
        debug_assert!(self.incoming.back().is_none_or(|&(last, ..)| last <= at));
        let seq = self.next_seq();
        self.incoming.push_back((at, seq, ev));
        *due = (*due).min(at);
    }

    fn push_ready(&mut self, lane: usize, at: u64, seq: u64, r: MemResponse) {
        debug_assert!(self.ready[lane]
            .back()
            .is_none_or(|&(last, s, _)| (last, s) <= (at, seq)));
        self.wake = self.wake.min(at);
        self.ready[lane].push_back((at, seq, r));
    }

    /// The lane whose front drains next at `now`: the least `(at, seq)`
    /// front due by `now`.
    fn next_ready(&self, now: u64) -> Option<usize> {
        let fronts = self.ready.iter().enumerate();
        let due = fronts.filter_map(|(i, l)| l.front().map(|&(at, seq, _)| (at, seq, i)));
        due.filter(|&(at, ..)| at <= now).min().map(|(.., i)| i)
    }

    /// Process matured incoming events: MSHR releases, L1/prefetch-buffer
    /// fills, and direct responses. Entirely port-local.
    fn incoming_cycle(&mut self, sm: usize, now: u64, tracer: &mut dyn Tracer) {
        while let Some(&(at, seq, ev)) = self.incoming.front() {
            if at > now {
                break;
            }
            self.incoming.pop_front();
            self.wake = self.wake.min(now);
            self.changes += 1;
            match ev {
                PartEvent::Direct(resp) => {
                    self.push_ready(MATURED, now, seq, resp);
                }
                PartEvent::Fill { line, .. } => {
                    if tracer.enabled() {
                        tracer.emit(
                            now,
                            TraceEvent::Fill {
                                sm: sm as u32,
                                line,
                            },
                        );
                    }
                    let targets = self.mshr.release(line);
                    let locks = self.l1.pending_locks_for(line);
                    let to_l1 = locks > 0
                        || targets
                            .iter()
                            .any(|t| Client::from_u8(t.client) != Client::Mta);
                    if to_l1 {
                        let _ = self.l1.fill(line, locks);
                    } else if let Some(pbuf) = self.pbuf.as_mut() {
                        let _ = pbuf.fill(line, 0);
                        self.pbuf_fills += 1;
                    } else {
                        // No prefetch buffer configured: fill L1 anyway.
                        let _ = self.l1.fill(line, 0);
                    }
                    for t in targets {
                        let client = Client::from_u8(t.client);
                        if client == Client::Mta {
                            continue; // prefetches need no response
                        }
                        self.push_ready(
                            MATURED,
                            now,
                            seq,
                            MemResponse {
                                sm,
                                line,
                                client,
                                token: t.token,
                            },
                        );
                    }
                }
            }
        }
    }
}

impl Partition {
    /// Queue `line` for DRAM (the caller checked `can_accept`); its id.
    fn send_to_dram(&mut self, now: u64, line: u64, write: bool) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.dram.push(DramRequest { line, write, id });
        self.dram_due = self.dram_due.min(now);
        id
    }

    /// Advance this partition one cycle: service the input-queue head, run
    /// DRAM, and push each completion onto its SM port's `incoming` FIFO,
    /// lowering the port's entry of `port_due`.
    /// Reads no port state, and no port looks at `incoming` until every
    /// partition has cycled, so each port numbers its events in
    /// partition-index-then-generation order. Ends by setting `due`. A
    /// traced run (`all`) walks the DRAM queue every cycle, the reference
    /// for `dram_due`.
    fn cycle(
        &mut self,
        cfg: &MemConfig,
        now: u64,
        ports: &mut [SmPort],
        port_due: &mut [u64],
        all: bool,
        tracer: &mut dyn Tracer,
    ) {
        // Every event sent back reaches its port at this cycle.
        let back = now + cfg.l2_latency + cfg.icnt_latency;
        // 1. Service the head of the input queue.
        let pop = matches!(self.inq.front(), Some(&(arrive, _)) if arrive <= now);
        if pop {
            let (_, req) = self.inq.front().copied().unwrap();
            // Each cycle skipped since the head was last refused would
            // have looked it up in the L2 and missed again.
            if let Some(at) = self.blocked_at.take() {
                self.l2.count_misses(now - at - 1);
            }
            let mut l2_hit = false;
            let proceed = match req.kind {
                ReqKind::Store => {
                    match self.l2.access(req.line, true) {
                        CacheOutcome::Hit => {
                            l2_hit = true;
                            true // dirty in L2, done
                        }
                        CacheOutcome::Miss => {
                            // Write-no-allocate: forward to DRAM if room.
                            let room = self.dram.can_accept();
                            if room {
                                self.send_to_dram(now, req.line, true);
                            }
                            room
                        }
                    }
                }
                _ => {
                    let is_atomic = req.kind == ReqKind::Atomic;
                    let hit = self.l2.access(req.line, is_atomic) == CacheOutcome::Hit;
                    l2_hit = hit;
                    if hit {
                        let due = &mut port_due[req.sm];
                        ports[req.sm].push_incoming(back, PartEvent::of(&req), due);
                        true
                    } else if self.dram.can_accept() {
                        let id = self.send_to_dram(now, req.line, false);
                        self.inflight.insert(id, req);
                        true
                    } else {
                        false
                    }
                }
            };
            if proceed {
                self.inq.pop_front();
                for (w, word) in self.waiters.iter_mut().enumerate() {
                    let mut bits = std::mem::take(word);
                    while bits != 0 {
                        let port = &mut ports[w * 64 + bits.trailing_zeros() as usize];
                        port.wake = port.wake.min(now);
                        bits &= bits - 1;
                    }
                }
                if tracer.enabled() {
                    tracer.emit(
                        now,
                        TraceEvent::L2Access {
                            partition: self.id as u32,
                            line: req.line,
                            hit: l2_hit,
                            client: req.client.trace(),
                        },
                    );
                }
            } else {
                self.blocked_at = Some(now);
            }
        }
        // 2. DRAM.
        if all || self.dram_due <= now {
            self.dram_due = self.dram.cycle(now, self.id, tracer);
        }
        // 3. Completed DRAM reads → fill L2, route to SM.
        let mut filled = false;
        while let Some(done) = self.dram.pop_done(now) {
            let req = match self.inflight.remove(done.id) {
                Some(r) => r,
                None => continue,
            };
            filled = true;
            // Fill L2 (atomics dirty the line).
            let dirty_evict = self.l2.fill(req.line, 0);
            if req.kind == ReqKind::Atomic {
                let _ = self.l2.access(req.line, true);
            }
            if let Some(wb_line) = dirty_evict {
                self.writebacks += 1;
                if self.dram.can_accept() {
                    self.send_to_dram(now, wb_line, true);
                }
            }
            ports[req.sm].push_incoming(back, PartEvent::of(&req), &mut port_due[req.sm]);
        }
        // A head refused for a full DRAM queue is refused again until the
        // queue has room or a fill lands in the L2.
        let mut due = self.dram_due.min(self.dram.next_done());
        if let Some(&(arrive, _)) = self.inq.front() {
            if self.blocked_at.is_none() || filled || self.dram.can_accept() {
                due = due.min(arrive.max(now + 1));
            }
        }
        self.due = due;
    }
}

/// The complete memory hierarchy for `num_sms` SMs.
#[derive(Debug)]
pub struct MemoryFabric {
    cfg: MemConfig,
    sms: Vec<SmPort>,
    /// Each port's due cycle, the head of its `incoming` FIFO
    /// (`u64::MAX`: empty): a partition lowers it on a push, the port's
    /// tick resets it.
    port_due: Vec<u64>,
    parts: Vec<Partition>,
    /// The earliest cycle any partition or port is due: a cycle before it
    /// has nothing to tick.
    due: u64,
    stats_extra: MemStats,
    /// Acceptance cycle of in-flight traced requests, keyed by
    /// `(sm, client, token)`. Populated only while a tracer is enabled
    /// (pure observability — never read by timing code).
    trace_t0: FxHashMap<(usize, u8, u64), u64>,
}

impl MemoryFabric {
    /// Build the hierarchy from a configuration.
    pub fn new(cfg: MemConfig, num_sms: usize) -> Self {
        let sms = (0..num_sms)
            .map(|_| SmPort {
                l1: Cache::new(cfg.l1_size, cfg.l1_ways, cfg.line_bytes),
                mshr: MshrTable::new(cfg.mshr_entries, cfg.mshr_merge),
                pbuf: (cfg.prefetch_buffer_size > 0)
                    .then(|| Cache::new(cfg.prefetch_buffer_size, 8, cfg.line_bytes)),
                incoming: VecDeque::new(),
                wake: u64::MAX,
                changes: 0,
                ready: Default::default(),
                seq: 0,
                refused: [None; CLIENTS],
                pbuf_fills: 0,
            })
            .collect();
        let parts = (0..cfg.num_partitions)
            .map(|id| Partition {
                id,
                inq: VecDeque::new(),
                due: u64::MAX,
                waiters: vec![0; num_sms.div_ceil(64)],
                blocked_at: None,
                l2: Cache::new(cfg.l2_size_per_partition, cfg.l2_ways, cfg.line_bytes),
                dram: DramPartition::new(&cfg),
                dram_due: u64::MAX,
                inflight: IdRing::default(),
                next_id: 0,
                writebacks: 0,
            })
            .collect();
        MemoryFabric {
            cfg,
            sms,
            port_due: vec![u64::MAX; num_sms],
            parts,
            due: u64::MAX,
            stats_extra: MemStats::default(),
            trace_t0: FxHashMap::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Submit a request at cycle `now`, emitting its request or stall
    /// event into `tracer`. While tracing, accepted requests with responses
    /// also record their acceptance cycle so
    /// [`MemoryFabric::drain_responses_into`] can report end-to-end latency.
    ///
    /// A client retries a refused request on every cycle its SM ticks.
    /// Until the port's `changes` count moves, an untraced retry gets the
    /// same answer unlooked-at (a `QueueFull` one while the queue is still
    /// full). Each retry skipped so — or while the SM slept — would have
    /// been refused alike, and is counted when the request is next looked
    /// at.
    pub fn access(&mut self, now: u64, req: MemRequest, tracer: &mut dyn Tracer) -> AccessOutcome {
        debug_assert_eq!(req.line % self.cfg.line_bytes, 0, "unaligned line");
        let client = req.client.to_u8() as usize;
        let port = &self.sms[req.sm];
        if let Some(r) = port.refused[client] {
            if r.req == req {
                if r.changes == port.changes && !tracer.enabled() {
                    if r.reason != StallReason::QueueFull {
                        return AccessOutcome::Stall(r.reason);
                    }
                    if let Some(p) = self.full_queue(&req) {
                        self.wait_on(p, req.sm);
                        return AccessOutcome::Stall(r.reason);
                    }
                }
                if now > r.at + 1 {
                    self.count_refusals(&req, r.reason, now - r.at - 1);
                }
            }
        }
        let out = if self.cfg.perfect {
            self.access_perfect(now, req)
        } else {
            match req.kind {
                ReqKind::Load | ReqKind::PrefetchLock => self.access_load(now, req),
                ReqKind::Store => self.access_store(now, req),
                ReqKind::Atomic => self.access_atomic(now, req),
                ReqKind::Prefetch => self.access_prefetch(now, req),
            }
        };
        let port = &mut self.sms[req.sm];
        port.refused[client] = match out {
            AccessOutcome::Accepted => {
                port.changes += 1;
                None
            }
            AccessOutcome::Stall(reason) => Some(Refusal {
                req,
                reason,
                at: now,
                changes: port.changes,
            }),
        };
        if tracer.enabled() {
            match out {
                AccessOutcome::Accepted => {
                    tracer.emit(
                        now,
                        TraceEvent::MemReq {
                            sm: req.sm as u32,
                            line: req.line,
                            kind: req.kind.trace(),
                            client: req.client.trace(),
                            token: req.token,
                        },
                    );
                    if req.kind.trace().has_response() {
                        self.trace_t0
                            .insert((req.sm, req.client.to_u8(), req.token), now);
                    }
                }
                AccessOutcome::Stall(reason) => tracer.emit(
                    now,
                    TraceEvent::MemStall {
                        sm: req.sm as u32,
                        line: req.line,
                        client: req.client.trace(),
                        cause: reason.trace(),
                    },
                ),
            }
        }
        out
    }

    fn access_perfect(&mut self, now: u64, req: MemRequest) -> AccessOutcome {
        let seq = self.sms[req.sm].next_seq();
        match req.kind {
            ReqKind::Store | ReqKind::Prefetch => {
                self.stats_extra.stores += (req.kind == ReqKind::Store) as u64;
            }
            _ => {
                self.stats_extra.loads += 1;
                let at = now + self.cfg.perfect_latency;
                self.sms[req.sm].push_ready(HIT, at, seq, req.response());
            }
        }
        AccessOutcome::Accepted
    }

    fn access_load(&mut self, now: u64, req: MemRequest) -> AccessOutcome {
        let lock = req.kind == ReqKind::PrefetchLock;
        let sm = req.sm;
        let seq = self.sms[sm].next_seq();
        // Probe without updating statistics: structural stalls retry this
        // call every cycle and must not inflate hit/miss counts.
        let port = &mut self.sms[sm];
        let hit_latency = if port.l1.probe(req.line) {
            let _ = port.l1.access(req.line, false); // hit: count + LRU
            if lock {
                port.l1.lock_resident(req.line);
            }
            Some((HIT, self.cfg.l1_hit_latency))
        } else if let Some(pbuf) = port.pbuf.as_mut().filter(|p| p.probe(req.line)) {
            let _ = pbuf.access(req.line, false);
            self.stats_extra.pbuf_hits += 1;
            Some((PBUF_HIT, self.cfg.prefetch_buffer_latency))
        } else {
            None
        };
        if let Some((lane, latency)) = hit_latency {
            port.push_ready(lane, now + latency, seq, req.response());
            self.stats_extra.loads += 1;
            return AccessOutcome::Accepted;
        }
        // Miss: MSHR + lock budget + partition queue gates first...
        if !self.sms[sm].mshr.can_accept(req.line) {
            return self.refuse(&req, StallReason::MshrFull);
        }
        if lock && !self.sms[sm].l1.can_reserve_lock(req.line) {
            return self.refuse(&req, StallReason::LockBudget);
        }
        let will_forward = !self.sms[sm].mshr.contains(req.line);
        if will_forward {
            if let Some(p) = self.full_queue(&req) {
                return self.refuse_full(p, &req);
            }
            self.push_inq(now, req);
        } else if req.client == Client::Lsu && self.sms[sm].mshr.first_client(req.line) == Some(2) {
            // Demand merging into an in-flight MTA prefetch: covered.
            self.stats_extra.prefetch_merged += 1;
        }
        // ...then count the miss exactly once, on acceptance.
        let _ = self.sms[sm].l1.access(req.line, false);
        self.sms[sm].mshr.allocate(
            req.line,
            MshrTarget {
                client: req.client.to_u8(),
                token: req.token,
            },
        );
        if lock {
            self.sms[sm].l1.reserve_pending_lock(req.line);
        }
        self.stats_extra.loads += 1;
        AccessOutcome::Accepted
    }

    fn access_store(&mut self, now: u64, req: MemRequest) -> AccessOutcome {
        if let Some(p) = self.full_queue(&req) {
            return self.refuse_full(p, &req);
        }
        // Write-through, no-allocate at L1 (Fermi global stores).
        let _ = self.sms[req.sm].l1.access(req.line, false);
        self.push_inq(now, req);
        self.stats_extra.stores += 1;
        AccessOutcome::Accepted
    }

    fn access_atomic(&mut self, now: u64, req: MemRequest) -> AccessOutcome {
        if let Some(p) = self.full_queue(&req) {
            return self.refuse_full(p, &req);
        }
        self.push_inq(now, req);
        self.stats_extra.atomics += 1;
        AccessOutcome::Accepted
    }

    fn access_prefetch(&mut self, now: u64, req: MemRequest) -> AccessOutcome {
        let sm = req.sm;
        // Drop if already resident or in flight.
        let redundant = self.sms[sm].l1.probe(req.line)
            || self.sms[sm]
                .pbuf
                .as_ref()
                .map(|p| p.probe(req.line))
                .unwrap_or(false)
            || self.sms[sm].mshr.contains(req.line);
        if redundant {
            self.stats_extra.redundant_prefetches += 1;
            return AccessOutcome::Accepted;
        }
        // Speculative prefetches must not starve demand misses: leave a
        // quarter of the MSHRs for demand traffic.
        let reserve = self.cfg.mshr_entries / 4;
        if !self.sms[sm].mshr.can_accept(req.line)
            || self.sms[sm].mshr.outstanding() + reserve >= self.cfg.mshr_entries
        {
            return self.refuse(&req, StallReason::MshrFull);
        }
        if let Some(p) = self.full_queue(&req) {
            return self.refuse_full(p, &req);
        }
        self.sms[sm].mshr.allocate(
            req.line,
            MshrTarget {
                client: req.client.to_u8(),
                token: req.token,
            },
        );
        self.push_inq(now, req);
        AccessOutcome::Accepted
    }

    /// `req`'s partition, if its input queue is too full to take `req`.
    /// Prefetches yield to demand traffic: they enter only a half-empty
    /// queue (keeps speculation off the critical path without starving
    /// it).
    fn full_queue(&self, req: &MemRequest) -> Option<usize> {
        let p = self.cfg.partition_of(req.line);
        let cap = match req.kind {
            ReqKind::Prefetch => self.cfg.l2_queue / 2,
            _ => self.cfg.l2_queue,
        };
        (self.parts[p].inq.len() >= cap).then_some(p)
    }

    /// `req` enters its partition's input queue at `now`, arriving after
    /// the interconnect latency; the partition is due then.
    fn push_inq(&mut self, now: u64, req: MemRequest) {
        let p = self.cfg.partition_of(req.line);
        let arrive = now + self.cfg.icnt_latency;
        self.parts[p].inq.push_back((arrive, req));
        self.parts[p].due = self.parts[p].due.min(arrive);
        self.due = self.due.min(arrive);
    }

    /// Partition `p`'s full input queue refused a client of `sm`: wake
    /// the SM when the queue pops.
    fn wait_on(&mut self, p: usize, sm: usize) {
        self.parts[p].waiters[sm / 64] |= 1 << (sm % 64);
    }

    /// Refuse `req` for partition `p`'s full input queue.
    fn refuse_full(&mut self, p: usize, req: &MemRequest) -> AccessOutcome {
        self.wait_on(p, req.sm);
        self.refuse(req, StallReason::QueueFull)
    }

    /// Refuse `req` for `reason`, counting the refusal.
    fn refuse(&mut self, req: &MemRequest, reason: StallReason) -> AccessOutcome {
        self.count_refusals(req, reason, 1);
        AccessOutcome::Stall(reason)
    }

    /// Count `n` refusals of `req` for `reason` in the stall counters.
    /// Speculative prefetches are refused uncounted.
    fn count_refusals(&mut self, req: &MemRequest, reason: StallReason, n: u64) {
        if req.kind == ReqKind::Prefetch {
            return;
        }
        match reason {
            StallReason::MshrFull => self.sms[req.sm].mshr.full_stalls += n,
            StallReason::QueueFull => self.stats_extra.queue_full_stalls += n,
            StallReason::LockBudget => self.stats_extra.lock_budget_stalls += n,
        }
    }

    /// The first cycle the fabric wakes a sleeping `sm`, as posted so far:
    /// a response comes ready for it, an incoming event matures at its
    /// port (a fill changes the L1, the prefetch buffer, the MSHRs and the
    /// pending locks — everything a refused load or lock is refused on,
    /// besides the SM's own accesses), or a partition whose full queue
    /// refused one of its clients pops its head. Read after
    /// [`MemoryFabric::cycle`] and before the SM's tick.
    pub fn wake_at(&self, sm: usize) -> u64 {
        self.sms[sm].wake
    }

    /// Advance the hierarchy one cycle, emitting L2-access, DRAM and
    /// SM-fill events into `tracer`. Two phases: every partition due at
    /// `now` cycles in index order (delivering fills and direct responses
    /// to the ports), then every port due matures its events. A unit that
    /// is not due would change nothing; a traced run ticks them all, so it
    /// stays the reference the due times are checked against.
    pub fn cycle(&mut self, now: u64, tracer: &mut dyn Tracer) {
        let all = tracer.enabled();
        if !all && self.due > now {
            return;
        }
        let mut due = u64::MAX;
        for part in &mut self.parts {
            if all || part.due <= now {
                let (ports, port_due) = (&mut self.sms, &mut self.port_due);
                part.cycle(&self.cfg, now, ports, port_due, all, tracer);
            }
            due = due.min(part.due);
        }
        for (sm, port_due) in self.port_due.iter_mut().enumerate() {
            if all || *port_due <= now {
                let port = &mut self.sms[sm];
                port.incoming_cycle(sm, now, tracer);
                *port_due = port.due();
            }
            due = due.min(*port_due);
        }
        self.due = due;
    }

    /// Drain all responses ready for `sm` at cycle `now`, appending into
    /// a caller-owned buffer (the per-cycle hot path reuses one allocation
    /// across cycles). Emits one [`TraceEvent::MemResp`] per delivered
    /// response, with end-to-end latency measured from fabric acceptance
    /// (requests submitted while tracing was off report latency 0).
    pub fn drain_responses_into(
        &mut self,
        sm: usize,
        now: u64,
        tracer: &mut dyn Tracer,
        out: &mut Vec<MemResponse>,
    ) {
        let port = &mut self.sms[sm];
        if port.wake > now {
            return; // nothing ready: `wake` is the earliest lane front
        }
        let start = out.len();
        while let Some(lane) = port.next_ready(now) {
            out.push(port.ready[lane].pop_front().unwrap().2);
        }
        let fronts = port.ready.iter().filter_map(|l| l.front());
        port.wake = fronts.map(|&(at, ..)| at).min().unwrap_or(u64::MAX);
        if tracer.enabled() {
            for r in &out[start..] {
                let key = (r.sm, r.client.to_u8(), r.token);
                let t0 = self.trace_t0.get(&key).copied().unwrap_or(now);
                tracer.emit(
                    now,
                    TraceEvent::MemResp {
                        sm: r.sm as u32,
                        line: r.line,
                        client: r.client.trace(),
                        token: r.token,
                        latency: now - t0,
                    },
                );
            }
            for r in &out[start..] {
                self.trace_t0.remove(&(r.sm, r.client.to_u8(), r.token));
            }
        }
    }

    /// Unlock a DAC-locked L1 line after its demand access (paper §4.2).
    pub fn unlock(&mut self, sm: usize, line: u64) {
        self.sms[sm].l1.unlock(line);
        self.sms[sm].changes += 1;
    }

    /// Any work still in flight anywhere in the hierarchy?
    pub fn quiescent(&self) -> bool {
        self.sms.iter().all(|s| {
            s.incoming.is_empty()
                && s.ready.iter().all(VecDeque::is_empty)
                && s.mshr.outstanding() == 0
        }) && self
            .parts
            .iter()
            .all(|p| p.inq.is_empty() && p.inflight.is_empty() && p.dram.pending() == 0)
    }

    /// Aggregate statistics from every component.
    pub fn stats(&self) -> MemStats {
        let mut s = self.stats_extra.clone();
        for port in &self.sms {
            s.l1_hits += port.l1.hits;
            s.l1_misses += port.l1.misses;
            s.mshr_full_stalls += port.mshr.full_stalls;
            s.pbuf_fills += port.pbuf_fills;
            if let Some(p) = &port.pbuf {
                s.pbuf_unused_evictions += p.unused_evictions;
            }
        }
        for p in &self.parts {
            s.l2_hits += p.l2.hits;
            s.l2_misses += p.l2.misses;
            s.dram_row_hits += p.dram.row_hits;
            s.dram_row_misses += p.dram.row_misses;
            s.dram_serviced += p.dram.serviced;
            s.writebacks += p.writebacks;
        }
        s
    }

    /// Live state for the deadlock report: the depth of every queue
    /// [`MemoryFabric::quiescent`] tests and the cycle each unit is next
    /// due (`none`: until a push), one labelled line for the partitions
    /// and one for the SM ports.
    pub fn stall_state(&self) -> [String; 2] {
        let line = |label: &str, units: &mut dyn Iterator<Item = (usize, usize, usize, u64)>| {
            let units: Vec<String> = units
                .map(|(a, b, c, due)| match due {
                    u64::MAX => format!("{a}/{b}/{c}@none"),
                    due => format!("{a}/{b}/{c}@{due}"),
                })
                .collect();
            format!("{label}: {}", units.join(" "))
        };
        let parts = self.parts.iter();
        let ports = self.sms.iter().zip(&self.port_due);
        [
            line(
                "partitions (inq/dram-reads/dram-queue@due)",
                &mut parts.map(|p| {
                    let reads = p.inflight.values().count();
                    (p.inq.len(), reads, p.dram.pending(), p.due)
                }),
            ),
            line(
                "sm-ports (incoming/ready/mshr@due)",
                &mut ports.map(|(s, &due)| {
                    (
                        s.incoming.len(),
                        s.ready.iter().map(VecDeque::len).sum(),
                        s.mshr.outstanding(),
                        due,
                    )
                }),
            ),
        ]
    }
}

#[cfg(test)]
#[path = "../../../tests/support/pin.rs"]
mod pin;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_rng::Rng;
    use simt_trace::NullTracer;

    impl MemoryFabric {
        fn probe_l1(&self, sm: usize, line: u64) -> bool {
            self.sms[sm].l1.probe(line)
        }

        fn locked_lines(&self, sm: usize) -> usize {
            self.sms[sm].l1.locked_lines()
        }
    }

    fn fabric() -> MemoryFabric {
        MemoryFabric::new(MemConfig::gtx480(), 2)
    }

    fn load(sm: usize, line: u64, token: u64) -> MemRequest {
        MemRequest {
            sm,
            line,
            kind: ReqKind::Load,
            client: Client::Lsu,
            token,
        }
    }

    /// Everything ready for `sm` at `now`, as a fresh `Vec`.
    fn drain(f: &mut MemoryFabric, sm: usize, now: u64) -> Vec<MemResponse> {
        let mut out = Vec::new();
        f.drain_responses_into(sm, now, &mut NullTracer, &mut out);
        out
    }

    /// Run the fabric until a response for `sm` appears or `limit` cycles.
    fn run_until_response(
        f: &mut MemoryFabric,
        sm: usize,
        start: u64,
        limit: u64,
    ) -> (u64, Vec<MemResponse>) {
        for t in start..start + limit {
            f.cycle(t, &mut NullTracer);
            let r = drain(f, sm, t);
            if !r.is_empty() {
                return (t, r);
            }
        }
        panic!("no response within {limit} cycles");
    }

    #[test]
    fn cold_load_misses_to_dram_and_returns() {
        let mut f = fabric();
        assert_eq!(
            f.access(0, load(0, 0, 42), &mut NullTracer),
            AccessOutcome::Accepted
        );
        let (t, resps) = run_until_response(&mut f, 0, 0, 2000);
        assert_eq!(resps[0].token, 42);
        // Cold miss must pay icnt + L2 + DRAM row miss + return.
        assert!(t > 200, "cold miss returned unrealistically fast: {t}");
        assert!(f.probe_l1(0, 0), "line should be filled in L1");
        let s = f.stats();
        assert_eq!(s.l1_misses, 1);
        assert_eq!(s.l2_misses, 1);
    }

    #[test]
    fn second_load_hits_l1_fast() {
        let mut f = fabric();
        f.access(0, load(0, 0, 1), &mut NullTracer);
        let (t0, _) = run_until_response(&mut f, 0, 0, 2000);
        f.access(t0 + 1, load(0, 0, 2), &mut NullTracer);
        let (t1, resps) = run_until_response(&mut f, 0, t0 + 1, 100);
        assert_eq!(resps[0].token, 2);
        let hit = MemConfig::gtx480().l1_hit_latency;
        assert!(t1 - t0 <= hit + 1, "L1 hit latency too long: {}", t1 - t0);
        assert_eq!(f.stats().l1_hits, 1);
    }

    #[test]
    fn mshr_merges_same_line() {
        let mut f = fabric();
        f.access(0, load(0, 0, 1), &mut NullTracer);
        f.access(0, load(0, 0, 2), &mut NullTracer);
        // Both come back together in one fill.
        let (_, resps) = run_until_response(&mut f, 0, 0, 2000);
        let mut tokens: Vec<u64> = resps.iter().map(|r| r.token).collect();
        tokens.sort_unstable();
        assert_eq!(tokens, vec![1, 2]);
        assert_eq!(f.stats().l2_misses, 1, "merged miss must reach L2 once");
    }

    #[test]
    fn prefetch_lock_protects_line() {
        let mut f = fabric();
        let req = MemRequest {
            sm: 0,
            line: 0,
            kind: ReqKind::PrefetchLock,
            client: Client::Dac,
            token: 7,
        };
        assert_eq!(f.access(0, req, &mut NullTracer), AccessOutcome::Accepted);
        let (t, resps) = run_until_response(&mut f, 0, 0, 2000);
        assert_eq!(resps[0].client, Client::Dac);
        assert_eq!(f.locked_lines(0), 1);
        // Thrash the set: lines mapping to the same set are 96 sets apart.
        let stride = 128 * 96;
        for i in 1..=8u64 {
            f.access(t + i, load(0, i * stride, 100 + i), &mut NullTracer);
        }
        for now in t + 9..t + 5009 {
            f.cycle(now, &mut NullTracer);
            drain(&mut f, 0, now);
            if f.quiescent() {
                break;
            }
        }
        assert!(f.probe_l1(0, 0), "locked line was evicted");
        f.unlock(0, 0);
        assert_eq!(f.locked_lines(0), 0);
    }

    #[test]
    fn lock_budget_stalls_at_ways_minus_one() {
        let mut f = fabric();
        let stride = 128 * 96; // same-set stride (96 sets)
        let mut accepted = 0;
        for i in 0..4u64 {
            let req = MemRequest {
                sm: 0,
                line: i * stride,
                kind: ReqKind::PrefetchLock,
                client: Client::Dac,
                token: i,
            };
            if f.access(0, req, &mut NullTracer) == AccessOutcome::Accepted {
                accepted += 1;
            }
        }
        // 4-way L1 ⇒ at most 3 locked lines per set.
        assert_eq!(accepted, 3);
        assert_eq!(f.stats().lock_budget_stalls, 1);
    }

    #[test]
    fn stores_are_fire_and_forget() {
        let mut f = fabric();
        let st = MemRequest {
            sm: 0,
            line: 128,
            kind: ReqKind::Store,
            client: Client::Lsu,
            token: 0,
        };
        assert_eq!(f.access(0, st, &mut NullTracer), AccessOutcome::Accepted);
        let mut now = 1;
        while !f.quiescent() && now < 3000 {
            f.cycle(now, &mut NullTracer);
            assert!(drain(&mut f, 0, now).is_empty());
            now += 1;
        }
        assert!(f.quiescent());
        assert_eq!(f.stats().stores, 1);
    }

    #[test]
    fn atomics_round_trip_without_l1_fill() {
        let mut f = fabric();
        let at = MemRequest {
            sm: 1,
            line: 256,
            kind: ReqKind::Atomic,
            client: Client::Lsu,
            token: 5,
        };
        assert_eq!(f.access(0, at, &mut NullTracer), AccessOutcome::Accepted);
        let (_, resps) = run_until_response(&mut f, 1, 0, 3000);
        assert_eq!(resps[0].token, 5);
        assert!(!f.probe_l1(1, 256), "atomics must not fill L1");
        assert_eq!(f.stats().atomics, 1);
    }

    #[test]
    fn prefetch_fills_pbuf_and_demand_hits_it() {
        let mut f = MemoryFabric::new(MemConfig::gtx480_with_prefetch_buffer(), 1);
        let pf = MemRequest {
            sm: 0,
            line: 512,
            kind: ReqKind::Prefetch,
            client: Client::Mta,
            token: 0,
        };
        assert_eq!(f.access(0, pf, &mut NullTracer), AccessOutcome::Accepted);
        let mut now = 1;
        while !f.quiescent() && now < 3000 {
            f.cycle(now, &mut NullTracer);
            drain(&mut f, 0, now);
            now += 1;
        }
        assert_eq!(f.stats().pbuf_fills, 1);
        assert!(!f.probe_l1(0, 512));
        // Demand load now hits the prefetch buffer.
        f.access(now, load(0, 512, 9), &mut NullTracer);
        let (t, resps) = run_until_response(&mut f, 0, now, 100);
        assert_eq!(resps[0].token, 9);
        assert!(t - now <= 29);
        assert_eq!(f.stats().pbuf_hits, 1);
    }

    #[test]
    fn prefetch_merged_with_demand_fills_l1() {
        let mut f = MemoryFabric::new(MemConfig::gtx480_with_prefetch_buffer(), 1);
        let pf = MemRequest {
            sm: 0,
            line: 512,
            kind: ReqKind::Prefetch,
            client: Client::Mta,
            token: 0,
        };
        f.access(0, pf, &mut NullTracer);
        // Demand for the same line while prefetch is in flight merges and
        // upgrades the fill destination to L1.
        f.access(1, load(0, 512, 3), &mut NullTracer);
        let (_, resps) = run_until_response(&mut f, 0, 1, 3000);
        assert_eq!(resps.len(), 1);
        assert_eq!(resps[0].token, 3);
        assert!(f.probe_l1(0, 512));
    }

    #[test]
    fn redundant_prefetch_dropped() {
        let mut f = MemoryFabric::new(MemConfig::gtx480_with_prefetch_buffer(), 1);
        f.access(0, load(0, 0, 1), &mut NullTracer);
        let pf = MemRequest {
            sm: 0,
            line: 0,
            kind: ReqKind::Prefetch,
            client: Client::Mta,
            token: 0,
        };
        assert_eq!(f.access(0, pf, &mut NullTracer), AccessOutcome::Accepted);
        assert_eq!(f.stats().redundant_prefetches, 1);
    }

    #[test]
    fn perfect_memory_is_flat_and_fast() {
        let mut f = MemoryFabric::new(MemConfig::perfect(), 1);
        f.access(0, load(0, 0, 1), &mut NullTracer);
        f.access(0, load(0, 128 * 999, 2), &mut NullTracer);
        f.cycle(1, &mut NullTracer);
        let resps = drain(&mut f, 0, 1);
        assert_eq!(resps.len(), 2);
    }

    #[test]
    fn mshr_full_stalls_reported() {
        let mut cfg = MemConfig::gtx480();
        cfg.mshr_entries = 1;
        let mut f = MemoryFabric::new(cfg, 1);
        assert_eq!(
            f.access(0, load(0, 0, 1), &mut NullTracer),
            AccessOutcome::Accepted
        );
        assert_eq!(
            f.access(0, load(0, 128, 2), &mut NullTracer),
            AccessOutcome::Stall(StallReason::MshrFull)
        );
        assert!(f.stats().mshr_full_stalls >= 1);
    }

    /// One seeded traffic driver over the whole hierarchy, shaped like the
    /// run loop: `cycle(t)`, then per SM in index order a drain and two
    /// submissions (an LSU slot and a coprocessor slot, each retrying a
    /// stalled request every cycle until it is accepted). A `Dac` response
    /// queues the demand load that later unlocks its line, as the SM does.
    /// Returns an FNV-1a digest over every `(cycle, sm, MemResponse)`
    /// delivered and the final `MemStats`.
    fn traffic_digest(cfg: MemConfig) -> u64 {
        const SMS: usize = 4;
        const UNLOCK: u64 = 1 << 32;
        fn random_line(rng: &mut Rng) -> u64 {
            let idx = match rng.below(100) {
                0..=49 => rng.below(256),      // hot: fits the L1
                50..=74 => rng.below(16) * 96, // 16 lines of one L1 set
                _ => rng.below(1 << 16),       // 8 MB: misses the L2
            };
            idx * 128
        }
        let mut f = MemoryFabric::new(cfg, SMS);
        let mut rng = Rng(0xFAB1_C0DE);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |words: &[u64]| {
            for b in words.iter().flat_map(|w| w.to_le_bytes()) {
                digest = (digest ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        };
        let mut slots = [[None::<MemRequest>; 2]; SMS];
        let mut demand: [VecDeque<u64>; SMS] = Default::default();
        let mut next_token = 0u64;
        let mut resps = Vec::new();
        for t in 0..20_000u64 {
            f.cycle(t, &mut NullTracer);
            // Offered load per slot per cycle, in percent: saturating,
            // nearly idle, moderate.
            let rate = [90, 10, 40][(t / 2500 % 3) as usize];
            for sm in 0..SMS {
                resps.clear();
                f.drain_responses_into(sm, t, &mut NullTracer, &mut resps);
                for r in &resps {
                    let client = r.client.to_u8() as u64;
                    mix(&[t, sm as u64, r.sm as u64, r.line, client, r.token]);
                    match r.client {
                        Client::Dac => demand[sm].push_back(r.line),
                        Client::Lsu if r.token & UNLOCK != 0 => f.unlock(sm, r.line),
                        _ => {}
                    }
                }
                for (slot, pending) in slots[sm].iter_mut().enumerate() {
                    if pending.is_none() && rng.below(100) < rate {
                        next_token += 1;
                        let unlock = if slot == 0 {
                            demand[sm].pop_front()
                        } else {
                            None
                        };
                        let (kind, client) = match (slot, rng.below(10)) {
                            (0, 0..=6) => (ReqKind::Load, Client::Lsu),
                            (0, 7..=8) => (ReqKind::Store, Client::Lsu),
                            (0, _) => (ReqKind::Atomic, Client::Lsu),
                            (_, 0..=4) => (ReqKind::Prefetch, Client::Mta),
                            _ => (ReqKind::PrefetchLock, Client::Dac),
                        };
                        let (line, kind, token) = match unlock {
                            Some(l) => (l, ReqKind::Load, next_token | UNLOCK),
                            None => (random_line(&mut rng), kind, next_token),
                        };
                        *pending = Some(MemRequest {
                            sm,
                            line,
                            kind,
                            client,
                            token,
                        });
                    }
                    if let Some(req) = *pending {
                        if f.access(t, req, &mut NullTracer) == AccessOutcome::Accepted {
                            *pending = None;
                        }
                    }
                }
            }
        }
        let stats = f.stats();
        assert!(stats.l1_hits > 1000 && stats.l2_hits > 1000 && stats.dram_row_hits > 100);
        assert!(stats.writebacks > 0 && stats.atomics > 100 && stats.prefetch_merged > 0);
        assert!(stats.mshr_full_stalls > 0 && stats.queue_full_stalls > 0);
        assert!(stats.lock_budget_stalls > 0 && stats.redundant_prefetches > 0);
        for (_, v) in stats.fields() {
            mix(&[v]);
        }
        digest
    }

    /// Every response's delivery cycle and order, and every counter, under
    /// mixed traffic from four SMs, pinned in
    /// `results/pins/fabric_traffic.txt`.
    #[test]
    fn traffic_digests_are_pinned() {
        let rows = [
            ("gtx480", MemConfig::gtx480()),
            (
                "gtx480_with_prefetch_buffer",
                MemConfig::gtx480_with_prefetch_buffer(),
            ),
        ]
        .map(|(name, cfg)| format!("{name} traffic={:#018x}", traffic_digest(cfg)));
        super::pin::check("results/pins/fabric_traffic.txt", &super::pin::lines(rows));
    }

    /// The ready heap the lanes replaced, for one port: every response
    /// pushed to any lane, drained by `(at, seq, ord)` with `ord` the push
    /// order.
    #[derive(Default)]
    struct HeapModel {
        heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64, usize)>>,
        pushed: Vec<MemResponse>,
        /// Entries of each lane already in the model.
        seen: [usize; LANES],
    }

    impl HeapModel {
        /// Take in what was pushed to `port`'s lanes since the last look.
        fn observe(&mut self, port: &SmPort) {
            for (lane, seen) in port.ready.iter().zip(&mut self.seen) {
                for &(at, seq, r) in lane.iter().skip(*seen) {
                    let ord = self.pushed.len();
                    self.pushed.push(r);
                    self.heap.push(std::cmp::Reverse((at, seq, ord)));
                }
                *seen = lane.len();
            }
        }

        /// Pop what is ready at `now`, with each pop's `(at, seq)`.
        fn drain(&mut self, now: u64) -> Vec<((u64, u64), MemResponse)> {
            let mut out = Vec::new();
            while let Some(&std::cmp::Reverse((at, seq, ord))) = self.heap.peek() {
                if at > now {
                    break;
                }
                self.heap.pop();
                out.push(((at, seq), self.pushed[ord]));
            }
            out
        }
    }

    /// The lanes drain exactly in the order of the heap they replaced:
    /// L1 hits, prefetch-buffer hits on a latency of their own, fills that
    /// release several merged targets, atomics, and perfect memory. Each
    /// SM drains on a random third of the cycles, so one drain takes
    /// responses of several cycles and lanes, and the prefetch buffer is
    /// slower than the L1, so lane order is not `(at, seq)` order.
    #[test]
    fn ready_lanes_drain_in_heap_order() {
        const SMS: usize = 2;
        let mut pbuf = MemConfig::gtx480_with_prefetch_buffer();
        pbuf.prefetch_buffer_latency = 45;
        assert!(pbuf.prefetch_buffer_latency > pbuf.l1_hit_latency);
        for cfg in [pbuf, MemConfig::perfect()] {
            let perfect = cfg.perfect;
            let mut f = MemoryFabric::new(cfg, SMS);
            let mut models: Vec<HeapModel> = (0..SMS).map(|_| HeapModel::default()).collect();
            let mut rng = Rng(0x1A4E_5EED);
            let (mut token, mut merged, mut late) = (0u64, 0u64, 0u64);
            let mut out = Vec::new();
            for t in 0..20_000u64 {
                f.cycle(t, &mut NullTracer);
                for (sm, model) in models.iter_mut().enumerate() {
                    model.observe(&f.sms[sm]);
                    if rng.below(3) == 0 {
                        out.clear();
                        f.drain_responses_into(sm, t, &mut NullTracer, &mut out);
                        model.seen = f.sms[sm].ready.each_ref().map(VecDeque::len);
                        let want = model.drain(t);
                        let order: Vec<MemResponse> = want.iter().map(|&(_, r)| r).collect();
                        assert_eq!(out, order, "sm {sm} at cycle {t}");
                        let keys = || want.iter().map(|&(key, _)| key);
                        merged += keys().zip(keys().skip(1)).filter(|(a, b)| a == b).count() as u64;
                        late += keys().filter(|&(at, _)| at < t).count() as u64;
                    }
                    if rng.below(100) < 60 {
                        token += 1;
                        // A hot line set that fits the L1, and a range MTA
                        // prefetches into the prefetch buffer.
                        let (kind, client, line) = match rng.below(10) {
                            0..=4 => (ReqKind::Load, Client::Lsu, rng.below(192)),
                            5..=6 => (ReqKind::Load, Client::Lsu, 1024 + rng.below(64)),
                            7 => (ReqKind::Prefetch, Client::Mta, 1024 + rng.below(64)),
                            8 => (ReqKind::Atomic, Client::Lsu, rng.below(64)),
                            _ => (ReqKind::Store, Client::Lsu, rng.below(4096)),
                        };
                        let req = MemRequest {
                            sm,
                            line: line * 128,
                            kind,
                            client,
                            token,
                        };
                        let _ = f.access(t, req, &mut NullTracer);
                    }
                    model.observe(&f.sms[sm]);
                }
            }
            let stats = f.stats();
            assert!(
                stats.loads > 1000 && late > 1000,
                "{stats:?}, {late} drained late"
            );
            if !perfect {
                assert!(stats.l1_hits > 1000 && stats.pbuf_hits > 100, "{stats:?}");
                assert!(stats.atomics > 100, "{stats:?}");
                assert!(merged > 100, "{merged} responses shared a fill");
            }
        }
    }

    #[test]
    fn streaming_throughput_bounded_by_dram_bus() {
        // 6 partitions × one 128 B line per 4 cycles ⇒ ~192 B/cycle max.
        let mut f = fabric();
        let n = 240u64;
        let mut issued = 0;
        let mut now = 0u64;
        let mut got = 0;
        while got < n && now < 100_000 {
            if issued < n {
                let line = 128 * issued;
                if f.access(now, load(0, line, issued), &mut NullTracer) == AccessOutcome::Accepted
                {
                    issued += 1;
                }
            }
            f.cycle(now, &mut NullTracer);
            got += drain(&mut f, 0, now).len() as u64;
            now += 1;
        }
        assert_eq!(got, n);
        // 240 lines × 4 cycles / 6 partitions = 160 cycles of pure bus time;
        // with queueing it must take comfortably longer than that.
        assert!(now > 160, "finished impossibly fast: {now}");
    }
}

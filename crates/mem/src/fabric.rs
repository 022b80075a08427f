//! The full memory hierarchy: per-SM L1s (+ optional prefetch buffer),
//! address-interleaved L2 partitions, and per-partition DRAM.
//!
//! Clients (the SM load/store units, DAC's Address Expansion Unit, and the
//! MTA prefetcher) submit [`MemRequest`]s tagged with a [`Client`] id and an
//! opaque token; completed loads come back as [`MemResponse`]s through
//! [`MemoryFabric::drain_responses_into`]. The fabric owns all timing:
//! structural stalls are reported synchronously as
//! [`AccessOutcome::Stall`] so callers can retry (that retry *is* the
//! stall).

use crate::cache::{Cache, CacheOutcome};
use crate::config::MemConfig;
use crate::dram::{DramPartition, DramRequest};
use crate::fxhash::FxHashMap;
use crate::mshr::{MshrTable, MshrTarget};
use crate::stats::MemStats;
use simt_trace::{NullTracer, StallCause, TraceClient, TraceEvent, TraceReqKind, Tracer};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

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

#[derive(Debug)]
struct Partition {
    inq: VecDeque<(u64, MemRequest)>,
    l2: Cache,
    dram: DramPartition,
    /// Outstanding DRAM reads by id. FxHashMap: hot path, never iterated.
    inflight: FxHashMap<u64, MemRequest>,
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
    /// (ready_cycle, seq, ord, slot): fill/direct events from partitions.
    /// Payloads live in a slab (`Vec<Option<..>>` + free list) instead of a
    /// `HashMap` keyed by event id. Slab slots are reused, so the heap
    /// carries a monotone `ord` as the tiebreaker — several ready events
    /// can share one `(at, seq)` (an MSHR fill releasing merged targets)
    /// and must drain in insertion order.
    incoming: BinaryHeap<Reverse<(u64, u64, usize, usize)>>,
    incoming_slab: Vec<Option<PartEvent>>,
    incoming_free: Vec<usize>,
    next_ev: usize,
    /// Responses ready for the client to drain.
    ready: BinaryHeap<Reverse<(u64, u64, usize, usize)>>,
    ready_slab: Vec<Option<MemResponse>>,
    ready_free: Vec<usize>,
    /// Port-local sequence counter: `seq` only ever tie-breaks within this
    /// port's two heaps. Each cycle assigns it to partition events first
    /// (partitions cycle in index order and deliver as they generate),
    /// then to this SM's client accesses.
    seq: u64,
    /// Fills delivered into the prefetch buffer (port-local slice of
    /// [`MemStats::pbuf_fills`]).
    pbuf_fills: u64,
}

impl SmPort {
    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// A partition's fill or direct response, due at `at`.
    fn push_incoming(&mut self, at: u64, ev: PartEvent) {
        let seq = self.next_seq();
        let ord = self.next_ev;
        self.next_ev += 1;
        let slot = match self.incoming_free.pop() {
            Some(i) => {
                self.incoming_slab[i] = Some(ev);
                i
            }
            None => {
                self.incoming_slab.push(Some(ev));
                self.incoming_slab.len() - 1
            }
        };
        self.incoming.push(Reverse((at, seq, ord, slot)));
    }

    fn push_ready(&mut self, at: u64, seq: u64, r: MemResponse) {
        let ord = self.next_ev;
        self.next_ev += 1;
        let slot = match self.ready_free.pop() {
            Some(i) => {
                self.ready_slab[i] = Some(r);
                i
            }
            None => {
                self.ready_slab.push(Some(r));
                self.ready_slab.len() - 1
            }
        };
        self.ready.push(Reverse((at, seq, ord, slot)));
    }

    /// Process matured incoming events: MSHR releases, L1/prefetch-buffer
    /// fills, and direct responses. Entirely port-local.
    fn incoming_cycle(&mut self, sm: usize, now: u64, tracer: &mut dyn Tracer) {
        loop {
            let pop = matches!(self.incoming.peek(),
                Some(&Reverse((at, _, _, _))) if at <= now);
            if !pop {
                break;
            }
            let Reverse((_, seq, _, slot)) = self.incoming.pop().unwrap();
            let ev = self.incoming_slab[slot].take().unwrap();
            self.incoming_free.push(slot);
            match ev {
                PartEvent::Direct(resp) => {
                    self.push_ready(now, seq, resp);
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
    /// Advance this partition one cycle: service the input-queue head, run
    /// DRAM, and push each completion onto its SM port's `incoming` heap.
    /// Reads no port state, and no port looks at `incoming` until every
    /// partition has cycled, so each port numbers its events in
    /// partition-index-then-generation order.
    fn cycle(
        &mut self,
        cfg: &MemConfig,
        p: usize,
        now: u64,
        ports: &mut [SmPort],
        tracer: &mut dyn Tracer,
    ) {
        let l2_latency = cfg.l2_latency;
        let icnt = cfg.icnt_latency;
        // 1. Service the head of the input queue.
        let pop = matches!(self.inq.front(), Some(&(arrive, _)) if arrive <= now);
        if pop {
            let (_, req) = self.inq.front().copied().unwrap();
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
                            if self.dram.can_accept() {
                                let id = self.next_id;
                                self.next_id += 1;
                                self.dram.push(DramRequest {
                                    line: req.line,
                                    write: true,
                                    id,
                                });
                                true
                            } else {
                                false
                            }
                        }
                    }
                }
                _ => {
                    let is_atomic = req.kind == ReqKind::Atomic;
                    let hit = self.l2.access(req.line, is_atomic) == CacheOutcome::Hit;
                    l2_hit = hit;
                    if hit {
                        let at = now + l2_latency + icnt;
                        let ev = if is_atomic {
                            PartEvent::Direct(MemResponse {
                                sm: req.sm,
                                line: req.line,
                                client: req.client,
                                token: req.token,
                            })
                        } else {
                            PartEvent::Fill { line: req.line }
                        };
                        ports[req.sm].push_incoming(at, ev);
                        true
                    } else if self.dram.can_accept() {
                        let id = self.next_id;
                        self.next_id += 1;
                        self.inflight.insert(id, req);
                        self.dram.push(DramRequest {
                            line: req.line,
                            write: false,
                            id,
                        });
                        true
                    } else {
                        false
                    }
                }
            };
            if proceed {
                self.inq.pop_front();
                if tracer.enabled() {
                    tracer.emit(
                        now,
                        TraceEvent::L2Access {
                            partition: p as u32,
                            line: req.line,
                            hit: l2_hit,
                            client: req.client.trace(),
                        },
                    );
                }
            }
        }
        // 2. DRAM.
        self.dram.cycle_traced(now, p, tracer);
        // 3. Completed DRAM reads → fill L2, route to SM.
        while let Some(done) = self.dram.pop_done(now) {
            let req = match self.inflight.remove(&done.id) {
                Some(r) => r,
                None => continue,
            };
            // Fill L2 (atomics dirty the line).
            let dirty_evict = self.l2.fill(req.line, 0);
            if req.kind == ReqKind::Atomic {
                let _ = self.l2.access(req.line, true);
            }
            if let Some(wb_line) = dirty_evict {
                self.writebacks += 1;
                if self.dram.can_accept() {
                    let id = self.next_id;
                    self.next_id += 1;
                    self.dram.push(DramRequest {
                        line: wb_line,
                        write: true,
                        id,
                    });
                }
            }
            let at = now + l2_latency + icnt;
            let ev = if req.kind == ReqKind::Atomic {
                PartEvent::Direct(MemResponse {
                    sm: req.sm,
                    line: req.line,
                    client: req.client,
                    token: req.token,
                })
            } else {
                PartEvent::Fill { line: req.line }
            };
            ports[req.sm].push_incoming(at, ev);
        }
    }
}

/// The complete memory hierarchy for `num_sms` SMs.
#[derive(Debug)]
pub struct MemoryFabric {
    cfg: MemConfig,
    sms: Vec<SmPort>,
    parts: Vec<Partition>,
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
                incoming: BinaryHeap::new(),
                incoming_slab: Vec::new(),
                incoming_free: Vec::new(),
                next_ev: 0,
                ready: BinaryHeap::new(),
                ready_slab: Vec::new(),
                ready_free: Vec::new(),
                seq: 0,
                pbuf_fills: 0,
            })
            .collect();
        let parts = (0..cfg.num_partitions)
            .map(|_| Partition {
                inq: VecDeque::new(),
                l2: Cache::new(cfg.l2_size_per_partition, cfg.l2_ways, cfg.line_bytes),
                dram: DramPartition::new(
                    cfg.dram_banks,
                    cfg.dram_row_bytes,
                    cfg.dram_row_hit_latency,
                    cfg.dram_row_miss_latency,
                    cfg.dram_row_hit_busy,
                    cfg.dram_row_miss_busy,
                    cfg.dram_burst_cycles,
                    cfg.dram_queue,
                ),
                inflight: FxHashMap::default(),
                next_id: 0,
                writebacks: 0,
            })
            .collect();
        MemoryFabric {
            cfg,
            sms,
            parts,
            stats_extra: MemStats::default(),
            trace_t0: FxHashMap::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Submit a request at cycle `now`.
    pub fn access(&mut self, now: u64, req: MemRequest) -> AccessOutcome {
        self.access_traced(now, req, &mut NullTracer)
    }

    /// [`MemoryFabric::access`] with request/stall events emitted into
    /// `tracer`. Accepted requests with responses also record their
    /// acceptance cycle so [`MemoryFabric::drain_responses_into`] can
    /// report end-to-end latency.
    pub fn access_traced(
        &mut self,
        now: u64,
        req: MemRequest,
        tracer: &mut dyn Tracer,
    ) -> AccessOutcome {
        debug_assert_eq!(req.line % self.cfg.line_bytes, 0, "unaligned line");
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
                self.sms[req.sm].push_ready(
                    at,
                    seq,
                    MemResponse {
                        sm: req.sm,
                        line: req.line,
                        client: req.client,
                        token: req.token,
                    },
                );
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
        if self.sms[sm].l1.probe(req.line) {
            let _ = self.sms[sm].l1.access(req.line, false); // hit: count + LRU
            if lock {
                self.sms[sm].l1.lock_resident(req.line);
            }
            let at = now + self.cfg.l1_hit_latency;
            self.sms[sm].push_ready(
                at,
                seq,
                MemResponse {
                    sm,
                    line: req.line,
                    client: req.client,
                    token: req.token,
                },
            );
            self.stats_extra.loads += 1;
            return AccessOutcome::Accepted;
        }
        let pbuf_hit = self.sms[sm]
            .pbuf
            .as_ref()
            .map(|p| p.probe(req.line))
            .unwrap_or(false);
        if pbuf_hit {
            let _ = self.sms[sm].pbuf.as_mut().unwrap().access(req.line, false);
            self.stats_extra.pbuf_hits += 1;
            self.stats_extra.loads += 1;
            let at = now + self.cfg.prefetch_buffer_latency;
            self.sms[sm].push_ready(
                at,
                seq,
                MemResponse {
                    sm,
                    line: req.line,
                    client: req.client,
                    token: req.token,
                },
            );
            return AccessOutcome::Accepted;
        }
        // Miss: MSHR + lock budget + partition queue gates first...
        if !self.sms[sm].mshr.can_accept(req.line) {
            self.sms[sm].mshr.note_full_stall();
            return AccessOutcome::Stall(StallReason::MshrFull);
        }
        if lock && !self.sms[sm].l1.can_reserve_lock(req.line) {
            self.stats_extra.lock_budget_stalls += 1;
            return AccessOutcome::Stall(StallReason::LockBudget);
        }
        let will_forward = !self.sms[sm].mshr.contains(req.line);
        if will_forward {
            let p = self.cfg.partition_of(req.line);
            if self.parts[p].inq.len() >= self.cfg.l2_queue {
                self.stats_extra.queue_full_stalls += 1;
                return AccessOutcome::Stall(StallReason::QueueFull);
            }
            let arrive = now + self.cfg.icnt_latency;
            self.parts[p].inq.push_back((arrive, req));
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
        let p = self.cfg.partition_of(req.line);
        if self.parts[p].inq.len() >= self.cfg.l2_queue {
            self.stats_extra.queue_full_stalls += 1;
            return AccessOutcome::Stall(StallReason::QueueFull);
        }
        // Write-through, no-allocate at L1 (Fermi global stores).
        let _ = self.sms[req.sm].l1.access(req.line, false);
        let arrive = now + self.cfg.icnt_latency;
        self.parts[p].inq.push_back((arrive, req));
        self.stats_extra.stores += 1;
        AccessOutcome::Accepted
    }

    fn access_atomic(&mut self, now: u64, req: MemRequest) -> AccessOutcome {
        let p = self.cfg.partition_of(req.line);
        if self.parts[p].inq.len() >= self.cfg.l2_queue {
            self.stats_extra.queue_full_stalls += 1;
            return AccessOutcome::Stall(StallReason::QueueFull);
        }
        let arrive = now + self.cfg.icnt_latency;
        self.parts[p].inq.push_back((arrive, req));
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
            return AccessOutcome::Stall(StallReason::MshrFull);
        }
        let p = self.cfg.partition_of(req.line);
        // Prefetches yield to demand traffic: they enter only a
        // half-empty partition queue (keeps speculation off the critical
        // path without starving it).
        if self.parts[p].inq.len() >= self.cfg.l2_queue / 2 {
            return AccessOutcome::Stall(StallReason::QueueFull);
        }
        self.sms[sm].mshr.allocate(
            req.line,
            MshrTarget {
                client: req.client.to_u8(),
                token: req.token,
            },
        );
        let arrive = now + self.cfg.icnt_latency;
        self.parts[p].inq.push_back((arrive, req));
        AccessOutcome::Accepted
    }

    /// Advance the hierarchy one cycle.
    pub fn cycle(&mut self, now: u64) {
        self.cycle_traced(now, &mut NullTracer);
    }

    /// [`MemoryFabric::cycle`] with L2-access and SM-fill events emitted
    /// into `tracer`. Two phases: every partition cycles in index order
    /// (delivering fills and direct responses to the ports), then every
    /// port processes its matured events.
    pub fn cycle_traced(&mut self, now: u64, tracer: &mut dyn Tracer) {
        for (p, part) in self.parts.iter_mut().enumerate() {
            part.cycle(&self.cfg, p, now, &mut self.sms, tracer);
        }
        for (sm, port) in self.sms.iter_mut().enumerate() {
            port.incoming_cycle(sm, now, tracer);
        }
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
        let start = out.len();
        loop {
            let pop = matches!(port.ready.peek(),
                Some(&Reverse((at, _, _, _))) if at <= now);
            if !pop {
                break;
            }
            let Reverse((_, _, _, slot)) = port.ready.pop().unwrap();
            out.push(port.ready_slab[slot].take().unwrap());
            port.ready_free.push(slot);
        }
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
    }

    /// Is `line` resident in `sm`'s L1? (observability)
    pub fn probe_l1(&self, sm: usize, line: u64) -> bool {
        self.sms[sm].l1.probe(line)
    }

    /// Number of locked lines in `sm`'s L1 (observability).
    pub fn locked_lines(&self, sm: usize) -> usize {
        self.sms[sm].l1.locked_lines()
    }

    /// Any work still in flight anywhere in the hierarchy?
    pub fn quiescent(&self) -> bool {
        self.sms
            .iter()
            .all(|s| s.incoming.is_empty() && s.ready.is_empty() && s.mshr.outstanding() == 0)
            && self
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

    /// The two prefetch-buffer counters the MTA throttle reads
    /// (`pbuf_unused_evictions`, `pbuf_fills`), exactly as
    /// [`MemoryFabric::stats`] would report them. Both move only on the
    /// port fill path, so they hold still from the end of the fabric cycle
    /// through every SM's tick.
    pub fn pbuf_stats(&self) -> (u64, u64) {
        let mut unused = self.stats_extra.pbuf_unused_evictions;
        let mut fills = self.stats_extra.pbuf_fills;
        for port in &self.sms {
            fills += port.pbuf_fills;
            if let Some(p) = &port.pbuf {
                unused += p.unused_evictions;
            }
        }
        (unused, fills)
    }

    /// Live state for the deadlock report: the depth of every queue
    /// [`MemoryFabric::quiescent`] tests, one labelled line for the
    /// partitions and one for the SM ports.
    pub fn stall_state(&self) -> [String; 2] {
        let parts: Vec<String> = self
            .parts
            .iter()
            .map(|p| format!("{}/{}/{}", p.inq.len(), p.inflight.len(), p.dram.pending()))
            .collect();
        let ports: Vec<String> = self
            .sms
            .iter()
            .map(|s| {
                format!(
                    "{}/{}/{}",
                    s.incoming.len(),
                    s.ready.len(),
                    s.mshr.outstanding()
                )
            })
            .collect();
        [
            format!(
                "partitions (inq/dram-reads/dram-queue): {}",
                parts.join(" ")
            ),
            format!("sm-ports (incoming/ready/mshr): {}", ports.join(" ")),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_rng::Rng;

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
            f.cycle(t);
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
        assert_eq!(f.access(0, load(0, 0, 42)), AccessOutcome::Accepted);
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
        f.access(0, load(0, 0, 1));
        let (t0, _) = run_until_response(&mut f, 0, 0, 2000);
        f.access(t0 + 1, load(0, 0, 2));
        let (t1, resps) = run_until_response(&mut f, 0, t0 + 1, 100);
        assert_eq!(resps[0].token, 2);
        assert!(t1 - t0 <= 29, "L1 hit latency too long: {}", t1 - t0);
        assert_eq!(f.stats().l1_hits, 1);
    }

    #[test]
    fn mshr_merges_same_line() {
        let mut f = fabric();
        f.access(0, load(0, 0, 1));
        f.access(0, load(0, 0, 2));
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
        assert_eq!(f.access(0, req), AccessOutcome::Accepted);
        let (t, resps) = run_until_response(&mut f, 0, 0, 2000);
        assert_eq!(resps[0].client, Client::Dac);
        assert_eq!(f.locked_lines(0), 1);
        // Thrash the set: lines mapping to the same set are 96 sets apart.
        let stride = 128 * 96;
        for i in 1..=8u64 {
            f.access(t + i, load(0, i * stride, 100 + i));
        }
        for now in t + 9..t + 5009 {
            f.cycle(now);
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
            if f.access(0, req) == AccessOutcome::Accepted {
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
        assert_eq!(f.access(0, st), AccessOutcome::Accepted);
        let mut now = 1;
        while !f.quiescent() && now < 3000 {
            f.cycle(now);
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
        assert_eq!(f.access(0, at), AccessOutcome::Accepted);
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
        assert_eq!(f.access(0, pf), AccessOutcome::Accepted);
        let mut now = 1;
        while !f.quiescent() && now < 3000 {
            f.cycle(now);
            drain(&mut f, 0, now);
            now += 1;
        }
        assert_eq!(f.stats().pbuf_fills, 1);
        assert!(!f.probe_l1(0, 512));
        // Demand load now hits the prefetch buffer.
        f.access(now, load(0, 512, 9));
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
        f.access(0, pf);
        // Demand for the same line while prefetch is in flight merges and
        // upgrades the fill destination to L1.
        f.access(1, load(0, 512, 3));
        let (_, resps) = run_until_response(&mut f, 0, 1, 3000);
        assert_eq!(resps.len(), 1);
        assert_eq!(resps[0].token, 3);
        assert!(f.probe_l1(0, 512));
    }

    #[test]
    fn redundant_prefetch_dropped() {
        let mut f = MemoryFabric::new(MemConfig::gtx480_with_prefetch_buffer(), 1);
        f.access(0, load(0, 0, 1));
        let pf = MemRequest {
            sm: 0,
            line: 0,
            kind: ReqKind::Prefetch,
            client: Client::Mta,
            token: 0,
        };
        assert_eq!(f.access(0, pf), AccessOutcome::Accepted);
        assert_eq!(f.stats().redundant_prefetches, 1);
    }

    #[test]
    fn perfect_memory_is_flat_and_fast() {
        let mut f = MemoryFabric::new(MemConfig::perfect(), 1);
        f.access(0, load(0, 0, 1));
        f.access(0, load(0, 128 * 999, 2));
        f.cycle(1);
        let resps = drain(&mut f, 0, 1);
        assert_eq!(resps.len(), 2);
    }

    #[test]
    fn mshr_full_stalls_reported() {
        let mut cfg = MemConfig::gtx480();
        cfg.mshr_entries = 1;
        let mut f = MemoryFabric::new(cfg, 1);
        assert_eq!(f.access(0, load(0, 0, 1)), AccessOutcome::Accepted);
        assert_eq!(
            f.access(0, load(0, 128, 2)),
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
            f.cycle(t);
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
                        if f.access(t, req) == AccessOutcome::Accepted {
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
    /// mixed traffic from four SMs. Both digests were taken at the commit
    /// before partitions delivered straight into the port heaps and the
    /// caches went flat, and have not been edited since.
    #[test]
    fn traffic_digests_are_pinned() {
        assert_eq!(traffic_digest(MemConfig::gtx480()), 0xbd18_61f0_05fa_70a5);
        assert_eq!(
            traffic_digest(MemConfig::gtx480_with_prefetch_buffer()),
            0xb63e_a915_8889_c230
        );
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
                if f.access(now, load(0, line, issued)) == AccessOutcome::Accepted {
                    issued += 1;
                }
            }
            f.cycle(now);
            got += drain(&mut f, 0, now).len() as u64;
            now += 1;
        }
        assert_eq!(got, n);
        // 240 lines × 4 cycles / 6 partitions = 160 cycles of pure bus time;
        // with queueing it must take comfortably longer than that.
        assert!(now > 160, "finished impossibly fast: {now}");
    }
}

//! The trace event taxonomy.
//!
//! Events mirror the simulator's own enums (`Client`, `ReqKind`,
//! `StallReason`) with self-contained copies so `simt-trace` sits *below*
//! `simt-mem`/`simt-sim` in the dependency graph: every crate in the stack
//! can emit events without creating a cycle. All variants are `Copy` and
//! fixed-size, so the ring sink stores them without allocation.

/// Which unit owns a memory request (mirror of `simt_mem::Client`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceClient {
    /// The SM's load/store unit (demand traffic).
    Lsu,
    /// The DAC coprocessor (decoupled prefetch-lock traffic).
    Dac,
    /// The MTA prefetcher baseline.
    Mta,
}

impl TraceClient {
    /// Short lowercase name used by both exporters.
    pub fn name(self) -> &'static str {
        match self {
            TraceClient::Lsu => "lsu",
            TraceClient::Dac => "dac",
            TraceClient::Mta => "mta",
        }
    }
}

/// Memory request kind (mirror of `simt_mem::ReqKind`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceReqKind {
    /// Demand load.
    Load,
    /// Store (write-through; no response).
    Store,
    /// Atomic read-modify-write.
    Atomic,
    /// DAC early request that locks the L1 line until consumed.
    PrefetchLock,
    /// Plain prefetch into the prefetch buffer (MTA; no response).
    Prefetch,
}

impl TraceReqKind {
    /// Short lowercase name used by both exporters.
    pub fn name(self) -> &'static str {
        match self {
            TraceReqKind::Load => "load",
            TraceReqKind::Store => "store",
            TraceReqKind::Atomic => "atomic",
            TraceReqKind::PrefetchLock => "prefetch_lock",
            TraceReqKind::Prefetch => "prefetch",
        }
    }

    /// Whether the fabric sends a response back for this kind (only those
    /// requests get latency measured by the request/response pairing).
    pub fn has_response(self) -> bool {
        matches!(
            self,
            TraceReqKind::Load | TraceReqKind::Atomic | TraceReqKind::PrefetchLock
        )
    }
}

/// Why a warp (or a memory request) could not make progress this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// A source or destination register is still pending in the scoreboard.
    Scoreboard,
    /// The instruction is a memory op but the LSU queue is full.
    LsuFull,
    /// The warp is parked at a CTA barrier.
    Barrier,
    /// The coprocessor gated issue (DAC: decoupled record not ready).
    CoprocGate,
    /// Fabric port: no free MSHR for a new miss.
    MshrFull,
    /// Fabric port: an interconnect/partition queue is full.
    QueueFull,
    /// Fabric port: the DAC line-lock budget is exhausted.
    LockBudget,
}

impl StallCause {
    /// Short lowercase name used by both exporters.
    pub fn name(self) -> &'static str {
        match self {
            StallCause::Scoreboard => "scoreboard",
            StallCause::LsuFull => "lsu_full",
            StallCause::Barrier => "barrier",
            StallCause::CoprocGate => "coproc_gate",
            StallCause::MshrFull => "mshr_full",
            StallCause::QueueFull => "queue_full",
            StallCause::LockBudget => "lock_budget",
        }
    }
}

/// One structured trace event. The cycle number is attached by the sink
/// (every `Tracer::emit` call passes it alongside), keeping the event
/// itself context-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A warp issued an instruction from a scheduler slot.
    WarpIssue {
        /// SM index.
        sm: u32,
        /// Warp slot within the SM.
        warp: u32,
        /// Program counter of the issued instruction.
        pc: u32,
        /// Number of active lanes under the current SIMT mask.
        active: u32,
    },
    /// A scheduler considered a warp and found it blocked.
    WarpStall {
        /// SM index.
        sm: u32,
        /// Warp slot within the SM.
        warp: u32,
        /// Program counter the warp is stuck at.
        pc: u32,
        /// Why it could not issue.
        cause: StallCause,
    },
    /// The SIMT reconvergence stack changed depth (push at a divergent
    /// branch, pop at reconvergence or return).
    StackDepth {
        /// SM index.
        sm: u32,
        /// Warp slot within the SM.
        warp: u32,
        /// Program counter of the instruction that moved the stack.
        pc: u32,
        /// Stack depth after the change.
        depth: u32,
        /// `true` for a push (divergence), `false` for a pop (reconvergence).
        push: bool,
    },
    /// The coalescer collapsed a warp memory access into line transactions.
    Coalesce {
        /// SM index.
        sm: u32,
        /// Warp slot within the SM.
        warp: u32,
        /// Program counter of the memory instruction.
        pc: u32,
        /// Active lanes that contributed addresses.
        lanes: u32,
        /// Distinct 128 B line transactions produced.
        txns: u32,
        /// `true` for stores, `false` for loads/atomics.
        store: bool,
    },
    /// The memory fabric accepted a request at an SM port.
    MemReq {
        /// Requesting SM.
        sm: u32,
        /// Line address (byte address of the line base).
        line: u64,
        /// Request kind.
        kind: TraceReqKind,
        /// Owning unit.
        client: TraceClient,
        /// Client-chosen token echoed in the response.
        token: u64,
    },
    /// The memory fabric rejected a request this cycle (the client retries).
    MemStall {
        /// Requesting SM.
        sm: u32,
        /// Line address.
        line: u64,
        /// Owning unit.
        client: TraceClient,
        /// Port-level reason.
        cause: StallCause,
    },
    /// An L2 partition serviced a line out of its input queue.
    L2Access {
        /// L2 partition index.
        partition: u32,
        /// Line address.
        line: u64,
        /// `true` if the line hit in L2, `false` if it went to DRAM.
        hit: bool,
        /// Unit that issued the original request (demand vs prefetch
        /// traffic — lets profiles compute per-client L2 hit rates).
        client: TraceClient,
    },
    /// A DRAM bank scheduled one command (FR-FCFS decision).
    DramAccess {
        /// DRAM/L2 partition index.
        partition: u32,
        /// Line address.
        line: u64,
        /// `true` if the access hit the bank's open row buffer.
        row_hit: bool,
        /// `true` for write-back traffic.
        write: bool,
    },
    /// A fill (line of data) arrived back at an SM port and was installed.
    Fill {
        /// Receiving SM.
        sm: u32,
        /// Line address.
        line: u64,
    },
    /// A response was delivered to its client, closing a request lifecycle.
    MemResp {
        /// Receiving SM.
        sm: u32,
        /// Line address.
        line: u64,
        /// Owning unit.
        client: TraceClient,
        /// Token from the original request.
        token: u64,
        /// Cycles between fabric acceptance and delivery.
        latency: u64,
    },
    /// Per-cycle sample of DAC queue occupancy on one SM bound to a DAC
    /// launch (an unbound SM runs no coprocessor and emits none).
    QueueSample {
        /// SM index.
        sm: u32,
        /// Affine tuple queue entries.
        atq: u32,
        /// Expanded per-warp address records outstanding.
        pwaq: u32,
        /// Per-warp predicate bit-vectors outstanding.
        pwpq: u32,
        /// Affine-warp run-ahead distance (decoupled work items queued
        /// ahead of the main pipeline: ATQ entries + expanded records).
        runahead: u32,
    },
    /// The DAC affine warp executed one instruction of the affine stream.
    AffineIssue {
        /// SM index.
        sm: u32,
        /// CTA slot the affine context belongs to.
        slot: u32,
        /// Affine-stream program counter.
        pc: u32,
    },
    /// An AEU/PEU expansion produced one per-warp record.
    Expand {
        /// SM index.
        sm: u32,
        /// Destination warp slot.
        warp: u32,
        /// `true` for a PEU predicate expansion, `false` for an AEU
        /// address expansion.
        pred: bool,
    },
    /// The command processor placed a CTA on an SM.
    CtaLaunch {
        /// SM index.
        sm: u32,
        /// CTA slot the block occupies.
        slot: u32,
        /// Owning kernel (flattened stream-major launch index; 0 for
        /// single-kernel runs).
        kernel: u32,
        /// Linear CTA index within the owning kernel's grid.
        cta: u64,
    },
    /// A CTA finished and freed its SM resources (warps, registers,
    /// shared memory).
    CtaRetire {
        /// SM index.
        sm: u32,
        /// CTA slot freed.
        slot: u32,
        /// Owning kernel (flattened stream-major launch index).
        kernel: u32,
    },
}

impl TraceEvent {
    /// Short snake_case event-type name used by both exporters.
    pub fn kind_name(&self) -> &'static str {
        match self {
            TraceEvent::WarpIssue { .. } => "warp_issue",
            TraceEvent::WarpStall { .. } => "warp_stall",
            TraceEvent::StackDepth { .. } => "stack_depth",
            TraceEvent::Coalesce { .. } => "coalesce",
            TraceEvent::MemReq { .. } => "mem_req",
            TraceEvent::MemStall { .. } => "mem_stall",
            TraceEvent::L2Access { .. } => "l2_access",
            TraceEvent::DramAccess { .. } => "dram_access",
            TraceEvent::Fill { .. } => "fill",
            TraceEvent::MemResp { .. } => "mem_resp",
            TraceEvent::QueueSample { .. } => "queue_sample",
            TraceEvent::AffineIssue { .. } => "affine_issue",
            TraceEvent::Expand { .. } => "expand",
            TraceEvent::CtaLaunch { .. } => "cta_launch",
            TraceEvent::CtaRetire { .. } => "cta_retire",
        }
    }
}

/// An event stamped with the cycle it occurred on — the unit the sink
/// stores and the exporters consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// Simulation cycle.
    pub cycle: u64,
    /// The event.
    pub event: TraceEvent,
}

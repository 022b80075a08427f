//! One streaming multiprocessor: schedulers, scoreboard, functional
//! execution, LSU, barriers, and CTA residency.
//!
//! The issue stage is event-driven (DESIGN.md "Event-driven issue stage"):
//! every warp slot carries an `IssueClass` that is recomputed only when
//! an event touches that warp, so a scheduler hunting for a ready warp
//! reads one byte per candidate instead of re-deriving its readiness from
//! the warp's stack, instruction, scoreboard and `deq.*` queue every cycle.
//! So is the SM as a whole (DESIGN.md "One wake protocol"): after a cycle
//! that could only repeat itself it sleeps, and the run loop skips it
//! until it is due or the fabric wakes it.

use crate::coalesce::{coalesce_into, Transaction};
use crate::config::GpuConfig;
use crate::coproc::{CoCtx, CoProcessor, DeqGate, IssueCost, RecordKind};
use crate::stats::SimStats;
use crate::warp::WarpState;
use simt_ir::cfg::DefTarget;
use simt_ir::eval::{cmp_lanes, eval_lanes, Lanes};
use simt_ir::{AddrMode, AtomOp, Cfg, Instr, PredId, PredSrc, Program, RegId, Space};
use simt_mem::{
    AccessOutcome, Client, LaneAddrs, MemRequest, MemResponse, MemoryFabric, ReqKind, SparseMemory,
};
use simt_trace::{StallCause, TraceEvent, Tracer};
use std::collections::VecDeque;

/// Base of the per-thread local-memory window in the global address space.
pub const LOCAL_BASE: u64 = 1 << 40;
/// Bytes of local memory per thread.
pub const LOCAL_STRIDE: u64 = 1 << 16;

/// What the issue stage asks of one instruction, decoded once per kernel
/// so no per-cycle path re-derives it from the [`Instr`].
#[derive(Debug, Clone, Copy)]
struct IssueInfo {
    /// Scoreboard dependencies among the general registers: every source
    /// plus the destination (`regs[..nregs]`).
    regs: [RegId; 4],
    nregs: u8,
    /// Scoreboard dependencies among the predicates: guard, predicate
    /// source, destination (`preds[..npreds]`).
    preds: [PredId; 3],
    npreds: u8,
    /// Needs an LSU queue entry (ld/st/atom).
    is_mem: bool,
    /// Has a `deq.*` operand, so the coprocessor may gate it.
    has_deq: bool,
    /// Reconvergence PC if this is a branch (`usize::MAX` = thread exit).
    rpc: usize,
}

impl IssueInfo {
    fn decode(instr: &Instr, rpc: usize) -> Self {
        let mut info = IssueInfo {
            regs: [0; 4],
            nregs: 0,
            preds: [0; 3],
            npreds: 0,
            is_mem: instr.is_mem(),
            has_deq: instr.has_deq(),
            rpc,
        };
        for r in instr.src_regs().into_iter().chain(instr.def_reg()) {
            info.regs[info.nregs as usize] = r;
            info.nregs += 1;
        }
        for p in instr.src_preds().into_iter().chain(instr.def_pred()) {
            info.preds[info.npreds as usize] = p;
            info.npreds += 1;
        }
        info
    }

    /// Is any register or predicate this instruction reads or writes
    /// still awaiting a writeback on `warp`?
    #[inline]
    fn scoreboard_blocked(&self, warp: &WarpState) -> bool {
        self.regs[..self.nregs as usize]
            .iter()
            .any(|&r| warp.reg_pending(r))
            || self.preds[..self.npreds as usize]
                .iter()
                .any(|&p| warp.pred_pending(p))
    }
}

/// Immutable per-kernel context shared by all SMs during a run: the
/// program plus everything derived from it that the per-cycle paths need
/// (per-instruction issue requirements, CTA footprint).
pub struct KernelCtx<'a> {
    /// The program being executed.
    pub program: &'a Program,
    /// One entry per instruction, indexed by PC.
    issue_info: Vec<IssueInfo>,
    /// Warp slots one CTA occupies.
    warps_per_cta: usize,
    /// Register-file footprint of one CTA: every warp slot holds 32
    /// threads' worth of `regs_per_thread` registers.
    cta_regs: u32,
}

impl<'a> KernelCtx<'a> {
    /// Pre-decode `program` (runs the CFG analysis for reconvergence PCs).
    pub fn new(program: &'a Program) -> Self {
        let cfg = Cfg::build(&program.kernel);
        let issue_info = program
            .kernel
            .instrs
            .iter()
            .enumerate()
            .map(|(pc, instr)| IssueInfo::decode(instr, cfg.reconvergence[pc]))
            .collect();
        let warps = program.launch.warps_per_cta();
        KernelCtx {
            program,
            issue_info,
            warps_per_cta: warps as usize,
            cta_regs: warps * 32 * program.kernel.regs_per_thread as u32,
        }
    }
}

/// Everything one SM's cycle borrows besides the SM itself: the cycle,
/// the machine, the kernel the SM is bound to, functional memory, the
/// fabric, the coprocessor, the SM's attribution bin and the tracer. The
/// SM owns its own state; the run loop builds one of these per SM per
/// cycle, and the coprocessor sees the part it needs as a [`CoCtx`].
pub(crate) struct Tick<'a> {
    /// Current cycle.
    pub now: u64,
    /// The machine.
    pub cfg: &'a GpuConfig,
    /// The bound kernel (kernel 0's for an unbound SM, which has no warps
    /// to read it).
    pub kctx: &'a KernelCtx<'a>,
    /// Functional memory: loads, stores and atomics execute at issue.
    pub mem: &'a mut SparseMemory,
    /// The memory hierarchy.
    pub fabric: &'a mut MemoryFabric,
    /// The bound launch's coprocessor (a `NullCoProcessor` for an
    /// unbound SM).
    pub coproc: &'a mut dyn CoProcessor,
    /// The attribution bin of the SM's bound kernel (the unbound bin
    /// while it has none).
    pub stats: &'a mut SimStats,
    /// Event tracer (a `NullTracer` outside traced runs).
    pub tracer: &'a mut dyn Tracer,
}

/// A CTA resident on an SM.
#[derive(Debug, Clone)]
pub struct CtaInfo {
    /// Linear CTA index in the grid.
    pub cta_linear: u64,
    /// Warp slots owned by this CTA.
    pub warps: Vec<usize>,
    /// Per-CTA shared memory contents.
    pub shared: SparseMemory,
    /// Owning kernel (flattened stream-major launch index; 0 for
    /// single-kernel runs). Attribution tag for stats and trace events.
    pub kernel: usize,
    /// Register-file footprint (registers held while resident).
    pub regs: u32,
    /// Shared-memory footprint in bytes (held while resident).
    pub shared_bytes: u32,
}

#[derive(Debug, Clone, Copy)]
struct LoadTrack {
    warp: usize,
    dst: Option<u16>,
    unlock_line: Option<u64>,
}

#[derive(Debug, Clone, Copy)]
struct LsuTxn {
    req: MemRequest,
}

/// What stands between a warp slot and issue, as far as the warp's own
/// state and its `deq.*` queue decide it. One byte per slot on the
/// [`Sm`], recomputed by [`Sm::classify`] only when an event touches the
/// warp (own issue, scoreboard release, barrier release, CTA
/// launch/retire, a coprocessor report that its queue head changed). What
/// the class cannot capture is read live by the scheduler: LSU occupancy
/// for the memory classes, which binds before the `deq.*` gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IssueClass {
    /// Empty slot or finished warp — not schedulable, not a stall.
    Absent,
    /// Waiting at a `bar.sync`.
    Barrier,
    /// A source or destination of the next instruction awaits writeback.
    Scoreboard,
    /// Nothing in the way (a ready `deq.*` operand included).
    Plain,
    /// Memory instruction: ready iff the LSU queue has room.
    Mem,
    /// `@deq.pred` branch with an empty predicate queue.
    DeqEmpty,
    /// Memory instruction whose `deq.*` address queue is empty.
    MemDeqEmpty,
    /// `ld [deq.data]` whose head record's early lines are in flight.
    MemDeqData,
}

/// How many of one scheduler's warp slots are in each [`IssueClass`],
/// indexed by `class as usize`.
type Census = [u32; IssueClass::MemDeqData as usize + 1];

/// Can a hunt over slots counted in `census` find a warp that issues?
fn has_candidate(census: &Census, lsu_full: bool) -> bool {
    census[IssueClass::Plain as usize] > 0 || (!lsu_full && census[IssueClass::Mem as usize] > 0)
}

/// Stall causes observed while one scheduler hunted for a ready warp this
/// cycle. When the hunt comes up empty, the tally attributes the slot to
/// exactly one top-down accounting bucket.
#[derive(Debug, Default, Clone, Copy)]
struct StallTally {
    scoreboard: u64,
    lsu_full: u64,
    barrier: u64,
    deq_empty: u64,
    deq_data: u64,
}

impl StallTally {
    /// The tally of a hunt with no candidate in `census`: it visits every
    /// non-absent slot once, and each stalls for the first cause that
    /// binds (LSU room before the `deq.*` gate).
    fn of_census(census: &Census, lsu_full: bool) -> Self {
        debug_assert!(!has_candidate(census, lsu_full));
        let count = |c: IssueClass| census[c as usize] as u64;
        let past_lsu = |c: IssueClass| if lsu_full { 0 } else { count(c) };
        let mem = [
            IssueClass::Mem,
            IssueClass::MemDeqEmpty,
            IssueClass::MemDeqData,
        ];
        StallTally {
            scoreboard: count(IssueClass::Scoreboard),
            lsu_full: if lsu_full {
                mem.map(count).iter().sum()
            } else {
                0
            },
            barrier: count(IssueClass::Barrier),
            deq_empty: count(IssueClass::DeqEmpty) + past_lsu(IssueClass::MemDeqEmpty),
            deq_data: past_lsu(IssueClass::MemDeqData),
        }
    }

    /// Add `n` hunts' worth of this tally to the per-cause stall counters.
    fn charge(&self, n: u64, stats: &mut SimStats) {
        stats.stall_barrier += self.barrier * n;
        stats.stall_scoreboard += self.scoreboard * n;
        stats.stall_lsu_full += self.lsu_full * n;
        stats.deq_empty_stalls += self.deq_empty * n;
        stats.deq_data_stalls += self.deq_data * n;
    }

    /// Charge `n` empty issue slots to a bucket: majority stall cause over
    /// the warps considered, ties broken by a fixed order (back-pressure
    /// causes first) so attribution is deterministic. Slots where no warp
    /// was even considered are `enq_full` when the affine engine was
    /// blocked on a full ATQ this cycle, else `idle`.
    fn attribute(&self, n: u64, enq_pressure: bool, stats: &mut SimStats) {
        let ranked = [
            self.deq_data,
            self.deq_empty,
            self.lsu_full,
            self.scoreboard,
            self.barrier,
        ];
        if ranked.iter().sum::<u64>() == 0 {
            if enq_pressure {
                stats.slot_enq_full += n;
            } else {
                stats.slot_idle += n;
            }
            return;
        }
        let mut best = 0;
        for (i, &c) in ranked.iter().enumerate().skip(1) {
            if c > ranked[best] {
                best = i;
            }
        }
        match best {
            0 => stats.slot_deq_data += n,
            1 => stats.slot_deq_empty += n,
            2 => stats.slot_lsu_full += n,
            3 => stats.slot_scoreboard += n,
            _ => stats.slot_barrier += n,
        }
    }
}

/// How one scheduler's hunt for a ready warp ended.
enum Hunt {
    /// This warp issues.
    Issue(usize),
    /// The walk visited every owned warp and none could issue; the tally
    /// holds what stopped them.
    Stalled(StallTally),
    /// The census showed no candidate, so nothing was visited
    /// ([`Sm::dry_hunts`] counts it).
    Dry,
}

#[derive(Debug, Clone)]
struct Scheduler {
    busy_until: u64,
    /// Classes of the slots this scheduler owns (slot `w` belongs to
    /// scheduler `w % schedulers`), kept in step with `Sm::class` by
    /// [`Sm::reclassify`]. Lets a hunt with no candidate be answered
    /// without walking the slots.
    census: Census,
    /// Two-level scheduling: the active pool (warp ids); only these warps
    /// are considered first, pending warps swap in when the pool stalls.
    /// Membership is mirrored in `Sm::in_pool`.
    active: VecDeque<usize>,
    /// A pool member's class became `Absent` since the pool was last
    /// swept, so the next hunt must evict before it looks at anything
    /// (while clear, no pool member is `Absent`). The sweep stays at the
    /// hunt: a slot that empties and is re-occupied by a new CTA before
    /// this scheduler hunts again keeps its pool position.
    pool_stale: bool,
}

/// One pending scoreboard release: due cycle, warp slot, and the def target
/// (`Reg(r)` → `r`, `Pred(p)` → `PRED_BIT | p`).
type Release = (u64, u32, u32);
const PRED_BIT: u32 = 1 << 16;

/// One streaming multiprocessor.
pub struct Sm {
    /// SM index.
    pub id: usize,
    /// Warp slots. Private: `class`, `free_warps` and `resident` mirror
    /// these two vectors and are only kept in step by this module.
    warps: Vec<Option<WarpState>>,
    /// CTA slots.
    cta_slots: Vec<Option<CtaInfo>>,
    schedulers: Vec<Scheduler>,
    /// Pending register/predicate releases as a calendar: the releases due
    /// at cycle `at` sit in bucket `at & (len - 1)`. The ring is longer
    /// than the longest writeback latency and `cycle` runs for every
    /// consecutive `now`, so a bucket holds one cycle's releases at a time
    /// and `drain_writebacks(now)` empties exactly bucket `now`. Releases
    /// of one cycle commute (scoreboard counters, the `dirty` set, the
    /// self-sorting `cta_dirty`), so order within a bucket is free.
    writeback: Vec<Vec<Release>>,
    /// Releases in the calendar, so a cycle with none pending (most of a
    /// memory-bound run) never touches the buckets.
    writeback_pending: usize,
    /// No pending release is due before this cycle: lowered by every
    /// schedule, raised to the next due release when the SM goes to sleep.
    writeback_next: u64,
    lsu: VecDeque<LsuTxn>,
    /// The fabric accepted the LSU head in this cycle's `pump_lsu` (else
    /// the LSU was empty or its head was refused).
    lsu_sent: bool,
    /// First cycle of the current sleep (`None`: awake). Cycles from here
    /// on are skipped until a wake event, then credited by
    /// [`Sm::settle_sleep`].
    asleep_since: Option<u64>,
    /// The cycle the SM is next due whatever the fabric posts: 0 while
    /// awake; while asleep, the first timed event — the next writeback
    /// due, a coprocessor deadline (`u64::MAX`: until woken).
    due: u64,
    /// In-flight loads/atomics indexed by token: entry `i` tracks token
    /// `first_token + i`. Responses arrive in any order and stores take
    /// tokens untracked, so entries between the oldest and the newest
    /// live token may be holes (`None`); the front is never one.
    outstanding: VecDeque<Option<LoadTrack>>,
    /// The token of `outstanding`'s front.
    first_token: u64,
    next_token: u64,
    /// Reusable scratch buffers for the per-cycle hot path (see DESIGN.md
    /// "Simulator performance"); cleared before each use, never observed
    /// across calls.
    resp_scratch: Vec<MemResponse>,
    txn_scratch: Vec<Transaction>,
    line_scratch: Vec<u64>,
    /// Lane-array workspace of the instruction being issued: three
    /// operand splats and the result.
    lane_scratch: [Lanes; 4],
    /// Registers currently held by resident CTAs (incremental occupancy
    /// accounting; launch adds, retire subtracts).
    used_regs: u32,
    /// Shared-memory bytes currently held by resident CTAs.
    used_shared: u32,
    /// Issue class of every warp slot (see [`IssueClass`]); current for
    /// every slot not in `dirty`.
    class: Vec<IssueClass>,
    /// Is warp slot `w` in its scheduler's active pool?
    in_pool: Vec<bool>,
    /// Warp slots touched by an event since their class was last computed.
    dirty: Vec<usize>,
    /// CTA slots with a barrier arrival, a warp exit, or a scoreboard
    /// release on an exited warp this cycle — the only CTAs whose barrier
    /// or retire condition can have changed. Kept ascending and
    /// duplicate-free by `touch_cta`; read by `resolve_barriers`, consumed
    /// by `retire_ctas`.
    cta_dirty: Vec<usize>,
    /// Empty warp slots (launch subtracts, retire adds).
    free_warps: usize,
    /// Occupied CTA slots.
    resident: usize,
}

impl Sm {
    /// Create an SM per `cfg`.
    pub fn new(id: usize, cfg: &GpuConfig) -> Self {
        Sm {
            id,
            warps: (0..cfg.max_warps_per_sm).map(|_| None).collect(),
            cta_slots: (0..cfg.max_ctas_per_sm).map(|_| None).collect(),
            schedulers: (0..cfg.schedulers)
                .map(|s| {
                    let mut census = Census::default();
                    census[IssueClass::Absent as usize] =
                        (s..cfg.max_warps_per_sm).step_by(cfg.schedulers).len() as u32;
                    Scheduler {
                        busy_until: 0,
                        census,
                        active: VecDeque::new(),
                        pool_stale: false,
                    }
                })
                .collect(),
            writeback: {
                let horizon = cfg.alu_latency.max(cfg.sfu_latency).max(cfg.shared_latency);
                // At least two buckets: a zero-latency release still waits
                // for the next cycle's drain.
                vec![Vec::new(); (horizon.max(1) as usize + 1).next_power_of_two()]
            },
            writeback_pending: 0,
            writeback_next: 0,
            lsu: VecDeque::new(),
            lsu_sent: false,
            asleep_since: None,
            due: 0,
            outstanding: VecDeque::new(),
            first_token: 0,
            next_token: 0,
            resp_scratch: Vec::new(),
            txn_scratch: Vec::new(),
            line_scratch: Vec::new(),
            lane_scratch: [[0; 32]; 4],
            used_regs: 0,
            used_shared: 0,
            class: vec![IssueClass::Absent; cfg.max_warps_per_sm],
            in_pool: vec![false; cfg.max_warps_per_sm],
            dirty: Vec::new(),
            cta_dirty: Vec::new(),
            free_warps: cfg.max_warps_per_sm,
            resident: 0,
        }
    }

    /// One line of live state for the deadlock report: what the SM holds,
    /// what stands between each warp slot and issue (classes as of the
    /// last scheduler hunt), and whether it sleeps — since which cycle and
    /// until which timed event (`timer:none`: only an external event can
    /// wake it).
    pub(crate) fn stall_state(&self) -> String {
        let count =
            |c: IssueClass| -> u32 { self.schedulers.iter().map(|s| s.census[c as usize]).sum() };
        let sleep = match self.asleep_since {
            None => "awake".to_string(),
            Some(since) if self.due == u64::MAX => format!("since:{since},timer:none"),
            Some(since) => format!("since:{since},timer:{}", self.due),
        };
        format!(
            "ctas={} warps[absent={} barrier={} scoreboard={} plain={} mem={} deq_empty={} \
             mem_deq_empty={} mem_deq_data={}] writeback={} head={:?} lsu={} idle={} sleep={}",
            self.resident,
            count(IssueClass::Absent),
            count(IssueClass::Barrier),
            count(IssueClass::Scoreboard),
            count(IssueClass::Plain),
            count(IssueClass::Mem),
            count(IssueClass::DeqEmpty),
            count(IssueClass::MemDeqEmpty),
            count(IssueClass::MemDeqData),
            self.writeback_pending,
            self.writeback.iter().flatten().map(|&(at, ..)| at).min(),
            self.lsu.len(),
            self.idle(),
            sleep
        )
    }

    /// Does the SM have room for another CTA of this kernel? Checks all
    /// four static resources: CTA slots, warp slots, shared memory, and
    /// the register file.
    pub fn can_accept_cta(&self, cfg: &GpuConfig, kctx: &KernelCtx<'_>) -> bool {
        let shared_ok =
            self.used_shared + kctx.program.kernel.shared_bytes <= cfg.shared_mem_per_sm;
        let regs_ok = self.used_regs + kctx.cta_regs <= cfg.regfile_per_sm;
        self.resident < self.cta_slots.len()
            && self.free_warps >= kctx.warps_per_cta
            && shared_ok
            && regs_ok
    }

    /// Registers currently held by resident CTAs.
    pub fn used_regs(&self) -> u32 {
        self.used_regs
    }

    /// Shared-memory bytes currently held by resident CTAs.
    pub fn used_shared(&self) -> u32 {
        self.used_shared
    }

    /// Launch CTA `cta_linear` of kernel `kernel_id` onto this SM. Returns
    /// the slot used.
    ///
    /// # Panics
    ///
    /// Panics if [`Sm::can_accept_cta`] is false.
    pub fn launch_cta(
        &mut self,
        cfg: &GpuConfig,
        kctx: &KernelCtx<'_>,
        kernel_id: usize,
        cta_linear: u64,
        coproc: &mut dyn CoProcessor,
        stats: &mut SimStats,
    ) -> usize {
        let launch = &kctx.program.launch;
        let kernel = &kctx.program.kernel;
        let slot = self
            .cta_slots
            .iter()
            .position(|s| s.is_none())
            .expect("no free CTA slot");
        let warps_needed = kctx.warps_per_cta;
        let threads = launch.threads_per_cta() as u64;
        let mut warp_ids = Vec::with_capacity(warps_needed);
        for w in 0..warps_needed {
            let id = self
                .warps
                .iter()
                .position(|x| x.is_none())
                .expect("no free warp slot");
            let first = w as u64 * 32;
            let live = threads.saturating_sub(first).min(32) as u32;
            let mask = if live == 32 {
                u32::MAX
            } else {
                (1u32 << live) - 1
            };
            self.warps[id] = Some(WarpState::new(id, slot, cta_linear, w, kctx.program, mask));
            warp_ids.push(id);
        }
        self.dirty.extend_from_slice(&warp_ids);
        self.free_warps -= warps_needed;
        self.resident += 1;
        let cta_regs = kctx.cta_regs;
        self.used_regs += cta_regs;
        self.used_shared += kernel.shared_bytes;
        assert!(
            self.used_regs <= cfg.regfile_per_sm && self.used_shared <= cfg.shared_mem_per_sm,
            "CTA launch oversubscribed SM {}: regs {}/{}, shared {}/{}",
            self.id,
            self.used_regs,
            cfg.regfile_per_sm,
            self.used_shared,
            cfg.shared_mem_per_sm
        );
        self.cta_slots[slot] = Some(CtaInfo {
            cta_linear,
            warps: warp_ids,
            shared: SparseMemory::new(),
            kernel: kernel_id,
            regs: cta_regs,
            shared_bytes: kernel.shared_bytes,
        });
        stats.ctas_launched += 1;
        stats.threads_launched += threads;
        let cta = self.cta_slots[slot].as_ref().unwrap();
        coproc.on_cta_launch(self.id, slot, cta_linear, &cta.warps);
        slot
    }

    /// All warps retired and nothing in flight?
    pub fn idle(&self) -> bool {
        self.resident == 0 && self.lsu.is_empty() && self.outstanding.is_empty()
    }

    /// Number of resident CTAs.
    pub fn resident_ctas(&self) -> usize {
        self.resident
    }

    /// Release `what` on `warp` `latency` cycles after `now`. Called from
    /// the issue stage, i.e. after this cycle's drain, so a zero-latency
    /// release waits for the next cycle's.
    fn schedule_writeback(&mut self, now: u64, latency: u64, warp: usize, what: DefTarget) {
        let mask = self.writeback.len() as u64 - 1;
        let delay = latency.max(1);
        assert!(
            delay <= mask,
            "SM {}: {latency}-cycle writeback is past the {}-cycle calendar",
            self.id,
            mask + 1
        );
        let at = now + delay;
        let enc = match what {
            DefTarget::Reg(r) => r as u32,
            DefTarget::Pred(p) => PRED_BIT | p as u32,
        };
        self.writeback[(at & mask) as usize].push((at, warp as u32, enc));
        self.writeback_pending += 1;
        self.writeback_next = self.writeback_next.min(at);
    }

    /// The cycle the earliest pending release is due (`u64::MAX`: none),
    /// from `writeback_next` on. Every pending release is due within one
    /// lap of the ring after `now`, so the first non-empty bucket holds it.
    fn next_writeback(&mut self, now: u64) -> u64 {
        if self.writeback_pending == 0 {
            return u64::MAX;
        }
        let mask = self.writeback.len() as u64 - 1;
        let mut at = self.writeback_next.max(now + 1);
        while self.writeback[(at & mask) as usize].is_empty() {
            at += 1;
        }
        self.writeback_next = at;
        at
    }

    /// One SM cycle: writeback and fabric-response drains, the coprocessor
    /// step (which submits the coprocessor's one fabric request of the
    /// cycle), scheduler picks with functional execution at issue (global
    /// loads, stores and atomics go straight to `mem`), barrier
    /// resolution, then the LSU's one fabric transaction per cycle.
    /// The run loop calls this in index order for each SM [`Sm::due`] at
    /// `now`, so SM index orders every same-cycle access to `mem` and
    /// every partition-queue admission.
    ///
    /// A sleeping SM wakes first, crediting the cycles slept, then the
    /// cycle runs as usual. A cycle that issued and drained nothing ends
    /// with [`Sm::try_sleep`].
    pub(crate) fn cycle(&mut self, t: &mut Tick<'_>) {
        let (now, cfg) = (t.now, t.cfg);
        self.wake(now, cfg, t.coproc, t.stats);
        let wrote_back = self.drain_writebacks(now);
        let responded = self.drain_responses(t);

        // Coprocessor gets first crack at issue slot 0 (the affine warp
        // shares the SM's issue bandwidth, paper §4.4).
        let mut slot0_free = self.schedulers[0].busy_until <= now;
        let slot0_was_free = slot0_free;
        let enq_before = t.stats.enq_full_stalls;
        t.coproc.step(&mut CoCtx {
            now,
            sm: self.id,
            fabric: t.fabric,
            issue_slot: &mut slot0_free,
            dirty: &mut self.dirty,
            stats: t.stats,
            tracer: t.tracer,
        });
        // Everything since the last issue stage (these drains, the step's
        // queue heads, last cycle's barrier releases and retires, this
        // cycle's launches).
        self.reclassify(t.kctx, t.coproc);
        let enq_pressure = t.stats.enq_full_stalls > enq_before;
        let affine_consumed = slot0_was_free && !slot0_free;
        if affine_consumed {
            // Affine warp consumed scheduler 0 for one instruction.
            self.schedulers[0].busy_until = now + 1;
            t.stats.affine_issue_slots += 1;
        }

        let mut issued = affine_consumed;
        for s in 0..self.schedulers.len() {
            if self.schedulers[s].busy_until > now {
                // An affine-consumed slot 0 is already bucketed as
                // `affine_issue_slots`; any other busy scheduler is still
                // occupied by a prior multi-cycle issue.
                if s != 0 || !affine_consumed {
                    t.stats.slot_busy += 1;
                }
                continue;
            }
            match self.pick_warp(s, t) {
                Hunt::Issue(w) => {
                    t.stats.slot_issued += 1;
                    let cost = self.issue(w, t);
                    self.reclassify(t.kctx, t.coproc);
                    let busy = match cost {
                        IssueCost::Normal => cfg.issue_interval,
                        IssueCost::Fast => 1,
                    };
                    self.schedulers[s].busy_until = now + busy;
                    issued = true;
                }
                Hunt::Stalled(tally) => {
                    t.stats.idle_scheduler_cycles += 1;
                    tally.attribute(1, s == 0 && enq_pressure, t.stats);
                }
                Hunt::Dry => self.dry_hunts(s, 1, cfg, s == 0 && enq_pressure, t.stats),
            }
        }

        self.resolve_barriers(t.coproc);
        self.pump_lsu(t);
        if !(issued || wrote_back || responded || t.tracer.enabled()) {
            self.try_sleep(now, cfg, t.coproc);
        }
    }

    /// Charge `n` hunts of scheduler `s` that its census answers: with no
    /// candidate, a walk would visit every owned non-absent slot once and
    /// issue nothing, so the stall counters, `idle_scheduler_cycles` and
    /// the slot bucket follow from the class counts. The one place such a
    /// hunt is counted — `n` = 1 in a ticking cycle, the cycles slept on
    /// waking.
    fn dry_hunts(
        &self,
        s: usize,
        n: u64,
        cfg: &GpuConfig,
        enq_pressure: bool,
        stats: &mut SimStats,
    ) {
        let lsu_full = self.lsu.len() >= cfg.lsu_queue;
        let tally = StallTally::of_census(&self.schedulers[s].census, lsu_full);
        tally.charge(n, stats);
        stats.idle_scheduler_cycles += n;
        tally.attribute(n, enq_pressure, stats);
    }

    /// Must the SM tick at `now`? Always while awake; asleep, once its
    /// timer is due or the fabric posted a wake for it
    /// ([`MemoryFabric::wake_at`]).
    pub(crate) fn due(&self, now: u64, fabric: &MemoryFabric) -> bool {
        now >= self.due || fabric.wake_at(self.id) <= now
    }

    /// End of a cycle that issued and drained nothing, untraced: if the
    /// next cycle could only repeat this one's counters, sleep from it.
    /// That needs every scheduler free and without a candidate (and no
    /// pool sweep pending), the LSU empty or its head just refused, and
    /// the coprocessor quiet ([`CoProcessor::quiet_until`]); nothing on
    /// the SM can then change until a wake event. The timer is the next
    /// writeback due or the coprocessor's deadline, whichever comes first.
    fn try_sleep(&mut self, now: u64, cfg: &GpuConfig, coproc: &dyn CoProcessor) {
        debug_assert!(self.dirty.is_empty() && self.cta_dirty.is_empty());
        // An accepted LSU request leaves a head not yet tried, and it
        // changed the port after the coprocessor's request was refused
        // this cycle (the MSHR it took can make a refused prefetch
        // redundant).
        if self.lsu_sent {
            return;
        }
        let next = now + 1;
        let lsu_full = self.lsu.len() >= cfg.lsu_queue;
        if self
            .schedulers
            .iter()
            .any(|s| s.busy_until > next || s.pool_stale || has_candidate(&s.census, lsu_full))
        {
            return;
        }
        let Some(deadline) = coproc.quiet_until(self.id) else {
            return;
        };
        let due = deadline.min(self.next_writeback(now));
        if due > next {
            self.asleep_since = Some(next);
            self.due = due;
        }
    }

    /// Credit the cycles slept so far, up to (not including) `until`, as
    /// the ticking cycles would have counted them: the coprocessor's share
    /// ([`CoProcessor::credit_quiet`]), then every scheduler's dry hunts.
    /// The SM stays asleep; nothing it holds changed while it slept, so
    /// one cycle's counts times the cycles is exact. Called on waking,
    /// when the run ends and before a deadlock report.
    pub(crate) fn settle_sleep(
        &mut self,
        until: u64,
        cfg: &GpuConfig,
        coproc: &mut dyn CoProcessor,
        stats: &mut SimStats,
    ) {
        let Some(since) = self.asleep_since else {
            return;
        };
        if until > since {
            let n = until - since;
            let enq_pressure = coproc.credit_quiet(self.id, n, stats);
            for s in 0..self.schedulers.len() {
                self.dry_hunts(s, n, cfg, s == 0 && enq_pressure, stats);
            }
            self.asleep_since = Some(until);
        }
    }

    /// Wake at cycle `now` if asleep, crediting the cycles slept. The
    /// command processor calls this before it binds, releases or launches
    /// onto the SM.
    pub(crate) fn wake(
        &mut self,
        now: u64,
        cfg: &GpuConfig,
        coproc: &mut dyn CoProcessor,
        stats: &mut SimStats,
    ) {
        if self.asleep_since.is_some() {
            self.settle_sleep(now, cfg, coproc, stats);
            self.asleep_since = None;
            self.due = 0;
        }
    }

    /// Release the writebacks due at `now`; did any?
    fn drain_writebacks(&mut self, now: u64) -> bool {
        if self.writeback_pending == 0 {
            return false;
        }
        let bucket = (now & (self.writeback.len() as u64 - 1)) as usize;
        let mut due = std::mem::take(&mut self.writeback[bucket]);
        let released = !due.is_empty();
        self.writeback_pending -= due.len();
        for (at, warp, enc) in due.drain(..) {
            debug_assert_eq!(at, now, "SM {}: calendar bucket out of step", self.id);
            let warp = warp as usize;
            if let Some(w) = self.warps[warp].as_mut() {
                if enc & PRED_BIT != 0 {
                    w.release_pred(enc as u16);
                } else {
                    w.release_reg(enc as u16);
                }
                self.note_release(warp);
            }
        }
        // Hand the (empty) allocation back for the bucket's next lap.
        self.writeback[bucket] = due;
        released
    }

    /// A scoreboard release landed on resident warp `w`: a live warp may
    /// have become issuable; an exited one may have been the last thing
    /// holding its CTA on the SM.
    fn note_release(&mut self, w: usize) {
        let warp = self.warps[w].as_ref().unwrap();
        if warp.done() {
            let slot = warp.cta_slot;
            self.touch_cta(slot);
        } else {
            self.dirty.push(w);
        }
    }

    /// Record that CTA `slot`'s barrier or retire condition may have
    /// changed this cycle. The list stays ascending so both consumers
    /// visit slots in the order a full scan would.
    fn touch_cta(&mut self, slot: usize) {
        if let Err(pos) = self.cta_dirty.binary_search(&slot) {
            self.cta_dirty.insert(pos, slot);
        }
    }

    /// The next memory token, tracking the load or atomic `track` under
    /// it (`None`: a store, which gets no response).
    fn issue_token(&mut self, track: Option<LoadTrack>) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        if let Some(track) = track {
            if self.outstanding.is_empty() {
                self.first_token = token;
            }
            let holes = token - self.first_token - self.outstanding.len() as u64;
            self.outstanding
                .extend(std::iter::repeat_n(None, holes as usize));
            self.outstanding.push_back(Some(track));
        }
        token
    }

    /// Stop tracking `token`, whose response arrived, and drop the holes
    /// that leaves at the front.
    fn untrack(&mut self, token: u64) -> Option<LoadTrack> {
        let i = token.checked_sub(self.first_token)?;
        let track = self.outstanding.get_mut(i as usize)?.take()?;
        while self.outstanding.front().is_some_and(Option::is_none) {
            self.outstanding.pop_front();
            self.first_token += 1;
        }
        Some(track)
    }

    /// Deliver the fabric responses ready at `now`; were there any?
    fn drain_responses(&mut self, t: &mut Tick<'_>) -> bool {
        let mut resps = std::mem::take(&mut self.resp_scratch);
        resps.clear();
        t.fabric
            .drain_responses_into(self.id, t.now, t.tracer, &mut resps);
        let responded = !resps.is_empty();
        for resp in &resps {
            match resp.client {
                Client::Lsu => {
                    if let Some(track) = self.untrack(resp.token) {
                        if let Some(line) = track.unlock_line {
                            t.fabric.unlock(self.id, line);
                        }
                        if let Some(w) = self.warps[track.warp].as_mut() {
                            if let Some(r) = track.dst {
                                w.release_reg(r);
                            }
                            self.note_release(track.warp);
                        }
                    }
                }
                Client::Dac | Client::Mta => {
                    if let Some(w) = t.coproc.on_response(resp) {
                        self.dirty.push(w);
                    }
                }
            }
        }
        self.resp_scratch = resps;
        responded
    }

    /// The one classification function: what stands between warp slot `w`
    /// and issue, from the warp's own state and its `deq.*` queue (in the
    /// order the checks bind: existence, barrier, scoreboard, then what the
    /// instruction needs from the coprocessor and the LSU).
    fn classify(&self, w: usize, kctx: &KernelCtx<'_>, coproc: &dyn CoProcessor) -> IssueClass {
        let Some(warp) = self.warps[w].as_ref() else {
            return IssueClass::Absent;
        };
        if warp.done() {
            return IssueClass::Absent;
        }
        if warp.at_barrier {
            return IssueClass::Barrier;
        }
        let pc = warp.stack.pc();
        let info = &kctx.issue_info[pc];
        if info.scoreboard_blocked(warp) {
            return IssueClass::Scoreboard;
        }
        let gate = if info.has_deq {
            coproc.deq_gate(self.id, w, &kctx.program.kernel.instrs[pc])
        } else {
            DeqGate::Open
        };
        match (gate, info.is_mem) {
            (DeqGate::Open, false) => IssueClass::Plain,
            (DeqGate::Open, true) => IssueClass::Mem,
            (DeqGate::Empty, false) => IssueClass::DeqEmpty,
            (DeqGate::Empty, true) => IssueClass::MemDeqEmpty,
            (DeqGate::DataPending, true) => IssueClass::MemDeqData,
            (DeqGate::DataPending, false) => unreachable!("only loads dequeue data"),
        }
    }

    /// Bring the class of every event-touched warp slot up to date. Runs
    /// right before every scheduler hunt, so debug builds check the whole
    /// class structure here.
    fn reclassify(&mut self, kctx: &KernelCtx<'_>, coproc: &dyn CoProcessor) {
        let nsched = self.schedulers.len();
        while let Some(w) = self.dirty.pop() {
            let class = self.classify(w, kctx, coproc);
            let sched = &mut self.schedulers[w % nsched];
            sched.census[self.class[w] as usize] -= 1;
            sched.census[class as usize] += 1;
            sched.pool_stale |= class == IssueClass::Absent && self.in_pool[w];
            self.class[w] = class;
        }
        debug_assert!(
            self.classes_current(kctx, coproc),
            "SM {}: issue classes out of sync with warp state",
            self.id
        );
    }

    /// Does the incrementally maintained class structure equal a
    /// from-scratch classification of every warp slot, every scheduler's
    /// census a recount of its slots, `in_pool` the pools' membership, and
    /// does every pool holding an `Absent` member know it is stale? (Debug
    /// builds assert this before every scheduler hunt.)
    fn classes_current(&self, kctx: &KernelCtx<'_>, coproc: &dyn CoProcessor) -> bool {
        let nsched = self.schedulers.len();
        self.dirty.is_empty()
            && (0..self.class.len()).all(|w| {
                self.class[w] == self.classify(w, kctx, coproc)
                    && self.in_pool[w] == self.schedulers[w % nsched].active.contains(&w)
            })
            && self.schedulers.iter().enumerate().all(|(s, sched)| {
                let mut recount = Census::default();
                for w in (s..self.class.len()).step_by(nsched) {
                    recount[self.class[w] as usize] += 1;
                }
                let swept = sched
                    .active
                    .iter()
                    .all(|&w| self.class[w] != IssueClass::Absent);
                sched.census == recount && (sched.pool_stale || swept)
            })
    }

    /// Two-level warp pick for scheduler `s`: round-robin over the active
    /// pool's ready warps; on a dry pool, swap a ready pending warp in.
    /// Visits warps in a fixed order (rotating pool, then ascending
    /// pending slots) because every stalled warp visited before the pick
    /// is counted and traced.
    fn pick_warp(&mut self, s: usize, t: &mut Tick<'_>) -> Hunt {
        let nsched = self.schedulers.len();
        // Evict finished warps from the pool.
        let Sm {
            schedulers,
            class,
            in_pool,
            ..
        } = self;
        let sched = &mut schedulers[s];
        if sched.pool_stale {
            sched.active.retain(|&w| {
                in_pool[w] = class[w] != IssueClass::Absent;
                in_pool[w]
            });
            sched.pool_stale = false;
        }
        // No warp this scheduler owns can issue, and nobody wants per-warp
        // stall events: the walk below would visit each non-absent owned
        // slot exactly once (pool, then the pending rest) and count it by
        // class, so the caller credits the counts directly.
        let lsu_full = self.lsu.len() >= t.cfg.lsu_queue;
        if !has_candidate(&self.schedulers[s].census, lsu_full) && !t.tracer.enabled() {
            return Hunt::Dry;
        }
        let mut tally = StallTally::default();
        // 1. Ready warp already in the active pool (rotating order). The
        // pool is only mutated on a successful pick, so indexed iteration
        // sees exactly the snapshot a copy would.
        let pool_len = self.schedulers[s].active.len();
        for pos in 0..pool_len {
            let w = self.schedulers[s].active[pos];
            if self.warp_check(w, lsu_full, t, &mut tally) {
                // Rotate the pool so the warp after `w` gets priority next.
                self.schedulers[s]
                    .active
                    .rotate_left((pos + 1) % pool_len.max(1));
                return Hunt::Issue(w);
            }
        }
        // 2. Swap in a ready pending warp.
        for w in (s..self.class.len()).step_by(nsched) {
            if self.class[w] == IssueClass::Absent || self.in_pool[w] {
                continue;
            }
            if self.warp_check(w, lsu_full, t, &mut tally) {
                let pool = &mut self.schedulers[s].active;
                if pool.len() >= t.cfg.active_pool {
                    if let Some(evicted) = pool.pop_front() {
                        self.in_pool[evicted] = false;
                    }
                }
                pool.push_back(w);
                self.in_pool[w] = true;
                return Hunt::Issue(w);
            }
        }
        Hunt::Stalled(tally)
    }

    /// Can resident warp `w` issue this cycle? Reads the warp's class and,
    /// for memory instructions, LSU occupancy (which binds before the
    /// `deq.*` gate). A stalled warp is counted by cause (identically
    /// whether tracing is on or off) and gets a [`TraceEvent::WarpStall`]
    /// when a tracer is attached.
    fn warp_check(
        &self,
        w: usize,
        lsu_full: bool,
        t: &mut Tick<'_>,
        tally: &mut StallTally,
    ) -> bool {
        let stats = &mut *t.stats;
        let cause = match self.class[w] {
            IssueClass::Absent => unreachable!("scheduler visited empty warp slot {w}"),
            IssueClass::Barrier => {
                stats.stall_barrier += 1;
                tally.barrier += 1;
                StallCause::Barrier
            }
            IssueClass::Scoreboard => {
                stats.stall_scoreboard += 1;
                tally.scoreboard += 1;
                StallCause::Scoreboard
            }
            IssueClass::Mem | IssueClass::MemDeqEmpty | IssueClass::MemDeqData if lsu_full => {
                stats.stall_lsu_full += 1;
                tally.lsu_full += 1;
                StallCause::LsuFull
            }
            IssueClass::Plain | IssueClass::Mem => return true,
            IssueClass::DeqEmpty | IssueClass::MemDeqEmpty => {
                stats.deq_empty_stalls += 1;
                tally.deq_empty += 1;
                StallCause::CoprocGate
            }
            IssueClass::MemDeqData => {
                stats.deq_data_stalls += 1;
                tally.deq_data += 1;
                StallCause::CoprocGate
            }
        };
        if t.tracer.enabled() {
            let pc = self.warps[w].as_ref().unwrap().stack.pc();
            t.tracer.emit(
                t.now,
                TraceEvent::WarpStall {
                    sm: self.id as u32,
                    warp: w as u32,
                    pc: pc as u32,
                    cause,
                },
            );
        }
        false
    }

    /// Issue and functionally execute one instruction of warp `w`.
    fn issue(&mut self, w: usize, t: &mut Tick<'_>) -> IssueCost {
        let (now, cfg, kctx) = (t.now, t.cfg, t.kctx);
        let launch = &kctx.program.launch;
        let pc = self.warps[w].as_ref().unwrap().stack.pc();
        // Borrow the instruction from the shared program — kctx outlives
        // the `&mut self` uses below, so no per-issue clone is needed.
        let instr = &kctx.program.kernel.instrs[pc];
        t.stats.warp_instructions += 1;
        let active = self.warps[w].as_ref().unwrap().stack.active_mask();
        let cost = t.coproc.issue_cost(self.id, w, instr, active, t.stats);
        self.warps[w].as_mut().unwrap().last_issue = now;
        let depth_before = self.warps[w].as_ref().unwrap().stack.depth();
        if t.tracer.enabled() {
            t.tracer.emit(
                now,
                TraceEvent::WarpIssue {
                    sm: self.id as u32,
                    warp: w as u32,
                    pc: pc as u32,
                    active: active.count_ones(),
                },
            );
        }

        let eff_mask = {
            let warp = self.warps[w].as_ref().unwrap();
            match instr.guard() {
                Some(g) => {
                    let bits = warp.pred(g.pred);
                    active & if g.negate { !bits } else { bits }
                }
                None => active,
            }
        };
        let lanes = eff_mask.count_ones() as u64;
        let stats = &mut *t.stats;

        match instr {
            Instr::Alu { op, dst, srcs, .. } => {
                let warp = self.warps[w].as_mut().unwrap();
                let [sa, sb, sc, out] = &mut self.lane_scratch;
                // Operands past the op's arity are never read by `eval`.
                let a = warp.operand_lanes(srcs[0], launch, sa);
                let b = match op.arity() {
                    1 => a,
                    _ => warp.operand_lanes(srcs[1], launch, sb),
                };
                let c = match op.arity() {
                    3 => warp.operand_lanes(srcs[2], launch, sc),
                    _ => a,
                };
                eval_lanes(*op, a, b, c, out);
                warp.set_reg_lanes(*dst, out, eff_mask);
                warp.mark_reg_pending(*dst);
                let lat = if op.is_sfu() {
                    cfg.sfu_latency
                } else {
                    cfg.alu_latency
                };
                self.schedule_writeback(now, lat, w, DefTarget::Reg(*dst));
                if op.is_sfu() {
                    stats.sfu_lane_ops += lanes;
                } else {
                    stats.alu_lane_ops += lanes;
                }
                stats.regfile_accesses += lanes * (op.arity() as u64 + 1);
                self.warps[w].as_mut().unwrap().stack.advance();
            }
            Instr::SetP {
                dst,
                cmp,
                a,
                b,
                float,
                ..
            } => {
                let warp = self.warps[w].as_mut().unwrap();
                let [sa, sb, ..] = &mut self.lane_scratch;
                let a = warp.operand_lanes(*a, launch, sa);
                let b = warp.operand_lanes(*b, launch, sb);
                let bits = cmp_lanes(*cmp, *float, a, b);
                warp.set_pred_masked(*dst, bits, eff_mask);
                warp.mark_pred_pending(*dst);
                self.schedule_writeback(now, cfg.alu_latency, w, DefTarget::Pred(*dst));
                stats.alu_lane_ops += lanes;
                stats.regfile_accesses += lanes * 2;
                self.warps[w].as_mut().unwrap().stack.advance();
            }
            Instr::Sel { dst, pred, a, b } => {
                let warp = self.warps[w].as_mut().unwrap();
                let [sa, sb, _, out] = &mut self.lane_scratch;
                let pbits = warp.pred(pred.pred);
                let take_a = if pred.negate { !pbits } else { pbits };
                let a = warp.operand_lanes(*a, launch, sa);
                let b = warp.operand_lanes(*b, launch, sb);
                for (lane, v) in out.iter_mut().enumerate() {
                    *v = if take_a & (1 << lane) != 0 {
                        a[lane]
                    } else {
                        b[lane]
                    };
                }
                warp.set_reg_lanes(*dst, out, eff_mask);
                warp.mark_reg_pending(*dst);
                self.schedule_writeback(now, cfg.alu_latency, w, DefTarget::Reg(*dst));
                stats.alu_lane_ops += lanes;
                stats.regfile_accesses += lanes * 3;
                self.warps[w].as_mut().unwrap().stack.advance();
            }
            Instr::Ld { .. } => {
                self.exec_load(w, pc, eff_mask, t);
                self.warps[w].as_mut().unwrap().stack.advance();
            }
            Instr::St { .. } => {
                self.exec_store(w, pc, eff_mask, t);
                self.warps[w].as_mut().unwrap().stack.advance();
            }
            Instr::Atom { .. } => {
                self.exec_atomic(w, pc, eff_mask, t);
                self.warps[w].as_mut().unwrap().stack.advance();
            }
            Instr::Bra { target, pred } => {
                stats.branches += 1;
                let rpc = kctx.issue_info[pc].rpc;
                let taken = match pred {
                    None => active,
                    Some(PredSrc::Reg(g)) => {
                        let bits = self.warps[w].as_ref().unwrap().pred(g.pred);
                        if g.negate {
                            !bits
                        } else {
                            bits
                        }
                    }
                    Some(PredSrc::Deq { negate }) => {
                        let bits = t
                            .coproc
                            .deq_pred_bits(self.id, w)
                            .expect("deq.pred issued with empty PWPQ");
                        if *negate {
                            !bits
                        } else {
                            bits
                        }
                    }
                };
                self.warps[w]
                    .as_mut()
                    .unwrap()
                    .stack
                    .branch(taken, *target, rpc);
            }
            Instr::Bar => {
                stats.barriers += 1;
                let warp = self.warps[w].as_mut().unwrap();
                warp.at_barrier = true;
                warp.stack.advance();
            }
            Instr::Exit => {
                self.warps[w].as_mut().unwrap().stack.exit();
            }
            Instr::Enq { .. } => {
                unreachable!("enq must only appear in the affine stream");
            }
        }
        if t.tracer.enabled() {
            let depth_after = self.warps[w].as_ref().unwrap().stack.depth();
            if depth_after != depth_before {
                t.tracer.emit(
                    now,
                    TraceEvent::StackDepth {
                        sm: self.id as u32,
                        warp: w as u32,
                        pc: pc as u32,
                        depth: depth_after as u32,
                        push: depth_after > depth_before,
                    },
                );
            }
        }
        // The warp's own class changed (new PC, a pending destination, a
        // barrier, an exit); a barrier arrival or an exit is also the only
        // way its CTA's barrier/retire condition can newly hold.
        self.dirty.push(w);
        let warp = self.warps[w].as_ref().unwrap();
        if warp.at_barrier || warp.done() {
            let slot = warp.cta_slot;
            self.touch_cta(slot);
        }
        cost
    }

    /// Execute the `ld` at `pc` for warp `w` on the lanes of `eff_mask`.
    fn exec_load(&mut self, w: usize, pc: usize, eff_mask: u32, t: &mut Tick<'_>) {
        let Instr::Ld {
            dst,
            space,
            addr,
            width,
            ..
        } = t.kctx.program.kernel.instrs[pc]
        else {
            unreachable!("exec_load of a non-load at pc {pc}");
        };
        let (now, cfg, stats) = (t.now, t.cfg, &mut *t.stats);
        let (mut addrs, record) = self.resolve_addrs(w, addr, eff_mask, t.coproc);
        let lanes = addrs.mask.count_ones();
        stats.regfile_accesses += lanes as u64 * 2;
        let nbytes = width.bytes() as usize;
        match space {
            Space::Shared => {
                stats.shared_accesses += 1;
                let warp = self.warps[w].as_mut().unwrap();
                let shared = &self.cta_slots[warp.cta_slot].as_ref().unwrap().shared;
                warp.set_reg_lanes(dst, &shared.read_lanes(&addrs, nbytes), addrs.mask);
                warp.mark_reg_pending(dst);
                self.schedule_writeback(now, cfg.shared_latency, w, DefTarget::Reg(dst));
            }
            Space::Global | Space::Local => {
                stats.global_loads += 1;
                // Dequeued records already carry absolute addresses (the
                // AEU applied the local window when it issued the early
                // requests).
                if record.is_none() {
                    self.translate_local(w, space, &mut addrs, t.kctx);
                }
                let warp = self.warps[w].as_mut().unwrap();
                warp.set_reg_lanes(dst, &t.mem.read_lanes(&addrs, nbytes), addrs.mask);
                let mut txns = std::mem::take(&mut self.txn_scratch);
                coalesce_into(&addrs, cfg.mem.line_bytes, &mut txns);
                self.line_scratch.clear();
                self.line_scratch.extend(txns.iter().map(|t| t.line));
                t.coproc
                    .observe_mem(self.id, w, pc, space, false, &self.line_scratch);
                if t.tracer.enabled() {
                    t.tracer.emit(
                        now,
                        TraceEvent::Coalesce {
                            sm: self.id as u32,
                            warp: w as u32,
                            pc: pc as u32,
                            lanes,
                            txns: txns.len() as u32,
                            store: false,
                        },
                    );
                }
                let decoupled = record.is_some();
                if decoupled {
                    stats.decoupled_loads += 1;
                }
                let unlock = matches!(record, Some(RecordKind::Data));
                // An empty txn list (fully guarded off) leaves nothing
                // outstanding.
                for t in &txns {
                    let token = self.issue_token(Some(LoadTrack {
                        warp: w,
                        dst: Some(dst),
                        unlock_line: unlock.then_some(t.line),
                    }));
                    self.warps[w].as_mut().unwrap().mark_reg_pending(dst);
                    self.lsu.push_back(LsuTxn {
                        req: MemRequest {
                            sm: self.id,
                            line: t.line,
                            kind: ReqKind::Load,
                            client: Client::Lsu,
                            token,
                        },
                    });
                }
                self.txn_scratch = txns;
            }
        }
    }

    /// Execute the `st` at `pc` for warp `w` on the lanes of `eff_mask`.
    fn exec_store(&mut self, w: usize, pc: usize, eff_mask: u32, t: &mut Tick<'_>) {
        let Instr::St {
            space,
            addr,
            src,
            width,
            ..
        } = t.kctx.program.kernel.instrs[pc]
        else {
            unreachable!("exec_store of a non-store at pc {pc}");
        };
        let (now, cfg, stats) = (t.now, t.cfg, &mut *t.stats);
        let launch = &t.kctx.program.launch;
        let (mut addrs, record) = self.resolve_addrs(w, addr, eff_mask, t.coproc);
        let lanes = addrs.mask.count_ones();
        stats.regfile_accesses += lanes as u64 * 2;
        let nbytes = width.bytes() as usize;
        match space {
            Space::Shared => {
                stats.shared_accesses += 1;
                let warp = self.warps[w].as_ref().unwrap();
                let vals = warp.operand_lanes(src, launch, &mut self.lane_scratch[0]);
                let shared = &mut self.cta_slots[warp.cta_slot].as_mut().unwrap().shared;
                shared.write_lanes(&addrs, vals, nbytes);
            }
            Space::Global | Space::Local => {
                stats.global_stores += 1;
                if record.is_none() {
                    self.translate_local(w, space, &mut addrs, t.kctx);
                }
                let warp = self.warps[w].as_ref().unwrap();
                let vals = warp.operand_lanes(src, launch, &mut self.lane_scratch[0]);
                t.mem.write_lanes(&addrs, vals, nbytes);
                let mut txns = std::mem::take(&mut self.txn_scratch);
                coalesce_into(&addrs, cfg.mem.line_bytes, &mut txns);
                self.line_scratch.clear();
                self.line_scratch.extend(txns.iter().map(|t| t.line));
                t.coproc
                    .observe_mem(self.id, w, pc, space, true, &self.line_scratch);
                if t.tracer.enabled() {
                    t.tracer.emit(
                        now,
                        TraceEvent::Coalesce {
                            sm: self.id as u32,
                            warp: w as u32,
                            pc: pc as u32,
                            lanes,
                            txns: txns.len() as u32,
                            store: true,
                        },
                    );
                }
                for t in &txns {
                    let token = self.issue_token(None);
                    self.lsu.push_back(LsuTxn {
                        req: MemRequest {
                            sm: self.id,
                            line: t.line,
                            kind: ReqKind::Store,
                            client: Client::Lsu,
                            token,
                        },
                    });
                }
                self.txn_scratch = txns;
            }
        }
    }

    /// Execute the `atom` at `pc` for warp `w` on the lanes of `eff_mask`.
    fn exec_atomic(&mut self, w: usize, pc: usize, eff_mask: u32, t: &mut Tick<'_>) {
        let Instr::Atom {
            op, dst, addr, src, ..
        } = t.kctx.program.kernel.instrs[pc]
        else {
            unreachable!("exec_atomic of a non-atomic at pc {pc}");
        };
        let (cfg, mem, stats) = (t.cfg, &mut *t.mem, &mut *t.stats);
        stats.atomic_instructions += 1;
        let launch = &t.kctx.program.launch;
        let (addrs, _) = self.resolve_addrs(w, addr, eff_mask, &mut crate::coproc::NullCoProcessor);
        // Lanes serialize in ascending order against memory; the old value
        // lands in `dst` (held pending by the scoreboard until the fabric
        // response).
        let warp = self.warps[w].as_mut().unwrap();
        let [splat, _, _, out] = &mut self.lane_scratch;
        let vals = warp.operand_lanes(src, launch, splat);
        for (lane, a) in addrs.active() {
            let v = vals[lane];
            let old = mem.read_u32(a) as u64;
            let new = match op {
                AtomOp::Add => (old as u32).wrapping_add(v as u32) as u64,
                AtomOp::Min => (old as i64).min(v as i64) as u64,
                AtomOp::Max => (old as i64).max(v as i64) as u64,
                AtomOp::Exch => v,
            };
            mem.write_u32(a, new as u32);
            out[lane] = old;
        }
        warp.set_reg_lanes(dst, out, addrs.mask);
        let mut txns = std::mem::take(&mut self.txn_scratch);
        coalesce_into(&addrs, cfg.mem.line_bytes, &mut txns);
        for t in &txns {
            let token = self.issue_token(Some(LoadTrack {
                warp: w,
                dst: Some(dst),
                unlock_line: None,
            }));
            self.warps[w].as_mut().unwrap().mark_reg_pending(dst);
            self.lsu.push_back(LsuTxn {
                req: MemRequest {
                    sm: self.id,
                    line: t.line,
                    kind: ReqKind::Atomic,
                    client: Client::Lsu,
                    token,
                },
            });
        }
        self.txn_scratch = txns;
        stats.alu_lane_ops += eff_mask.count_ones() as u64;
    }

    /// Resolve per-lane addresses from the addressing mode; returns the DAC
    /// record kind when the mode was a dequeue form. Dequeued records hand
    /// over their lane addresses as they are.
    fn resolve_addrs(
        &mut self,
        w: usize,
        addr: AddrMode,
        eff_mask: u32,
        coproc: &mut dyn CoProcessor,
    ) -> (LaneAddrs, Option<RecordKind>) {
        match addr {
            AddrMode::Reg(r, disp) => {
                let mut addrs = *self.warps[w].as_ref().unwrap().reg_lanes(r);
                for a in &mut addrs {
                    *a = a.wrapping_add(disp as u64);
                }
                let lanes = LaneAddrs {
                    addrs,
                    mask: eff_mask,
                };
                (lanes, None)
            }
            AddrMode::DeqData | AddrMode::DeqAddr => {
                let rec = coproc
                    .deq_record(self.id, w)
                    .expect("deq issued with empty PWAQ");
                (rec.thread_addrs, Some(rec.kind))
            }
        }
    }

    /// Rebase local-space addresses into each thread's private window,
    /// in place.
    fn translate_local(&self, w: usize, space: Space, lanes: &mut LaneAddrs, kctx: &KernelCtx<'_>) {
        if space != Space::Local {
            return;
        }
        let warp = self.warps[w].as_ref().unwrap();
        let tpc = kctx.program.launch.threads_per_cta() as u64;
        let first = warp.cta_linear * tpc + warp.first_thread();
        for (lane, a) in lanes.addrs.iter_mut().enumerate() {
            let gtid = first + lane as u64;
            *a = LOCAL_BASE + gtid * LOCAL_STRIDE + (*a % LOCAL_STRIDE);
        }
    }

    fn pump_lsu(&mut self, t: &mut Tick<'_>) {
        self.lsu_sent = false;
        // One transaction per cycle reaches the L1 (one coalesced access
        // per cycle, as on Fermi).
        if let Some(txn) = self.lsu.front() {
            match t.fabric.access(t.now, txn.req, t.tracer) {
                AccessOutcome::Accepted => {
                    self.lsu_sent = true;
                    self.lsu.pop_front();
                }
                AccessOutcome::Stall(_) => {}
            }
        }
    }

    /// Release every CTA whose live warps have all arrived at a barrier.
    /// Only CTAs in `cta_dirty` are examined: a release condition can
    /// newly hold only in a cycle where one of the CTA's warps arrived or
    /// exited.
    fn resolve_barriers(&mut self, coproc: &mut dyn CoProcessor) {
        let sm_id = self.id;
        // Disjoint field borrows (no per-release clone of `cta.warps`).
        let Sm {
            cta_slots,
            cta_dirty,
            warps,
            dirty,
            ..
        } = self;
        for &slot in cta_dirty.iter() {
            let Some(cta) = cta_slots[slot].as_ref() else {
                continue;
            };
            let mut all_arrived = true;
            let mut any_waiting = false;
            for &wid in &cta.warps {
                if let Some(w) = warps[wid].as_ref() {
                    if w.done() {
                        continue;
                    }
                    if w.at_barrier {
                        any_waiting = true;
                    } else {
                        all_arrived = false;
                    }
                }
            }
            if any_waiting && all_arrived {
                for &wid in &cta.warps {
                    if let Some(w) = warps[wid].as_mut() {
                        w.at_barrier = false;
                    }
                }
                dirty.extend_from_slice(&cta.warps);
                coproc.on_barrier_release(sm_id, slot);
            }
        }
    }

    /// Did this cycle touch a CTA (`cta_dirty`)? Only then can
    /// [`Sm::retire_ctas`] retire anything; a sleeping SM never has.
    pub(crate) fn touched_ctas(&self) -> bool {
        !self.cta_dirty.is_empty()
    }

    /// Retire CTAs whose warps have all finished (and drained), freeing
    /// their warp slots, registers, and shared memory. Returns how many
    /// CTAs retired this cycle. Only CTAs in `cta_dirty` are examined
    /// (consuming it): the retire condition can newly hold only in a cycle
    /// where one of the CTA's warps exited or an exited warp's last
    /// writeback or memory response drained. Allocation-free: the
    /// retiring `CtaInfo` is moved out of its slot, never cloned.
    pub(crate) fn retire_ctas(&mut self, t: &mut Tick<'_>) -> usize {
        let candidates = std::mem::take(&mut self.cta_dirty);
        let mut retired = 0;
        for &slot in &candidates {
            let Some(cta) = self.cta_slots[slot].as_ref() else {
                continue;
            };
            let all_done = cta.warps.iter().all(|&wid| {
                self.warps[wid]
                    .as_ref()
                    .map(|w| w.done() && w.scoreboard_clear())
                    .unwrap_or(true)
            });
            if !all_done {
                continue;
            }
            // Every load or atomic in flight holds its `dst` pending, so a
            // clear scoreboard means no memory response is outstanding.
            debug_assert!(!self
                .outstanding
                .iter()
                .flatten()
                .any(|t| cta.warps.contains(&t.warp)));
            let cta = self.cta_slots[slot].take().unwrap();
            for &wid in &cta.warps {
                self.warps[wid] = None;
            }
            self.dirty.extend_from_slice(&cta.warps);
            self.free_warps += cta.warps.len();
            self.resident -= 1;
            debug_assert!(self.used_regs >= cta.regs && self.used_shared >= cta.shared_bytes);
            self.used_regs -= cta.regs;
            self.used_shared -= cta.shared_bytes;
            t.coproc.on_cta_retire(self.id, slot);
            if t.tracer.enabled() {
                t.tracer.emit(
                    t.now,
                    TraceEvent::CtaRetire {
                        sm: self.id as u32,
                        slot: slot as u32,
                        kernel: cta.kernel as u32,
                    },
                );
            }
            retired += 1;
        }
        self.cta_dirty = candidates;
        self.cta_dirty.clear();
        retired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coproc::NullCoProcessor;
    use crate::gpu::GpuSim;
    use simt_ir::{CmpOp, KernelBuilder, LaunchConfig, Op, Operand, Width};

    /// `B[i] = A[i] + 1` over `n` elements in 512-thread (16-warp) CTAs.
    fn add_one_wide(n: u32, a: u64, b: u64) -> Program {
        let mut k = KernelBuilder::new("add_one_wide", 3);
        let tid = k.tid_linear_x();
        let p = k.setp(CmpOp::Ge, Operand::Reg(tid), Operand::Param(2));
        k.bra_if(p, "done");
        let off = k.alu2(Op::Shl, Operand::Reg(tid), Operand::Imm(2));
        let pa = k.alu2(Op::Add, Operand::Param(0), Operand::Reg(off));
        let pb = k.alu2(Op::Add, Operand::Param(1), Operand::Reg(off));
        let v = k.ld(Space::Global, pa, 0, Width::W32);
        let v1 = k.alu2(Op::Add, Operand::Reg(v), Operand::Imm(1));
        k.st(Space::Global, pb, 0, Operand::Reg(v1), Width::W32);
        k.label("done");
        k.exit();
        let launch = LaunchConfig::linear(n.div_ceil(512), 512, vec![a, b, n as u64]);
        Program::new(k.build(), launch).unwrap()
    }

    /// SplitMix64 (this crate has no dependency to borrow one from).
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    /// The token-indexed `outstanding` ring against a map by token:
    /// responses answered in random order, stores taking tokens between
    /// loads (holes), and responses for tokens that track nothing (a
    /// store's, or one already answered) all agree, and the ring is empty
    /// exactly when nothing is in flight.
    #[test]
    fn outstanding_by_token_matches_a_map() {
        let mut sm = Sm::new(0, &GpuConfig::test_small());
        let mut model = std::collections::BTreeMap::new();
        let mut rng = Rng(0x70CE_4A11);
        for step in 0..50_000u64 {
            // Phases of issue-heavy, balanced and drain-heavy traffic.
            let issue = [70, 50, 25][(step / 2000 % 3) as usize];
            if rng.below(100) < issue {
                let load = rng.below(3) != 0;
                let track = load.then_some(LoadTrack {
                    warp: rng.below(48) as usize,
                    dst: Some(rng.below(64) as u16),
                    unlock_line: None,
                });
                let token = sm.issue_token(track);
                if let Some(track) = track {
                    model.insert(token, track);
                }
            } else if !model.is_empty() {
                let live: Vec<u64> = model.keys().copied().collect();
                let token = live[rng.below(live.len() as u64) as usize];
                let got = sm.untrack(token).map(|t| (t.warp, t.dst));
                let want = model.remove(&token).map(|t| (t.warp, t.dst));
                assert_eq!(got, want, "token {token} at step {step}");
            }
            // A token that tracks nothing answers nothing.
            let stray = rng.below(sm.next_token + 1);
            if !model.contains_key(&stray) {
                assert!(sm.untrack(stray).is_none(), "token {stray} at step {step}");
            }
            assert_eq!(sm.outstanding.is_empty(), model.is_empty(), "step {step}");
            assert!(sm.outstanding.front().is_none_or(Option::is_some));
            assert_eq!(sm.outstanding.iter().flatten().count(), model.len());
        }
    }

    /// The writeback calendar against the rule of the min-heap it
    /// replaced — a release pushed for `now + latency` leaves at the first
    /// drain with `at <= now` — kept here as a plain list. Random
    /// schedules over every latency the issue stage uses (plus 0 and 1)
    /// must leave the same scoreboard bits pending on every warp after
    /// every cycle's drain, mark the same warps dirty, and report the same
    /// depth.
    #[test]
    fn calendar_releases_what_the_heap_rule_releases() {
        let cfg = GpuConfig::test_small();
        let prog = add_one_wide(512, 0x10_000, 0x80_000);
        let kctx = KernelCtx::new(&prog);
        let mut sm = Sm::new(0, &cfg);
        sm.launch_cta(
            &cfg,
            &kctx,
            0,
            0,
            &mut NullCoProcessor,
            &mut SimStats::default(),
        );
        let warps = kctx.warps_per_cta;
        let targets: Vec<DefTarget> = (0..prog.kernel.num_regs)
            .map(DefTarget::Reg)
            .chain((0..prog.kernel.num_preds).map(DefTarget::Pred))
            .collect();
        let latencies = [0, 1, cfg.alu_latency, cfg.sfu_latency, cfg.shared_latency];
        let mut model: Vec<(u64, usize, DefTarget)> = Vec::new();
        let mut rng = Rng(0xCA1E_17DA);
        let mut released = 0;
        for now in 0..20_000u64 {
            sm.dirty.clear();
            sm.drain_writebacks(now);
            let mut dirty: Vec<usize> = Vec::new();
            model.retain(|&(at, w, _)| {
                if at <= now {
                    dirty.push(w);
                }
                at > now
            });
            released += dirty.len();
            sm.dirty.sort_unstable();
            dirty.sort_unstable();
            assert_eq!(sm.dirty, dirty, "cycle {now}");
            let depth = format!(" writeback={} ", model.len());
            assert!(sm.stall_state().contains(&depth), "cycle {now}: {depth}");
            for w in 0..warps {
                let warp = sm.warps[w].as_ref().unwrap();
                for &t in &targets {
                    let pending = match t {
                        DefTarget::Reg(r) => warp.reg_pending(r),
                        DefTarget::Pred(p) => warp.pred_pending(p),
                    };
                    let expect = model.iter().any(|&(_, mw, mt)| (mw, mt) == (w, t));
                    assert_eq!(pending, expect, "cycle {now} warp {w} {t:?}");
                }
            }
            // Bursts and lulls, so buckets both pile up and run empty.
            for _ in 0..rng.below(if now / 500 % 2 == 0 { 6 } else { 2 }) {
                let w = rng.below(warps as u64) as usize;
                let t = targets[rng.below(targets.len() as u64) as usize];
                let lat = latencies[rng.below(latencies.len() as u64) as usize];
                // One outstanding write per target, as the scoreboard
                // guarantees at issue.
                if model.iter().any(|&(_, mw, mt)| (mw, mt) == (w, t)) {
                    continue;
                }
                let warp = sm.warps[w].as_mut().unwrap();
                match t {
                    DefTarget::Reg(r) => warp.mark_reg_pending(r),
                    DefTarget::Pred(p) => warp.mark_pred_pending(p),
                }
                sm.schedule_writeback(now, lat, w, t);
                model.push((now + lat, w, t));
            }
        }
        assert!(released > 10_000, "{released}");
    }

    /// The class structure is sized from `max_warps_per_sm`, not from a
    /// machine word: an SM with 100 warp slots holds 96 resident warps of
    /// 16-warp CTAs, classifies all of them, and runs them to the right
    /// answer (debug builds cross-check every class before every pick).
    #[test]
    fn more_than_64_warps_per_sm() {
        let cfg = GpuConfig {
            num_sms: 1,
            max_warps_per_sm: 100,
            max_ctas_per_sm: 8,
            ..GpuConfig::test_small()
        };
        let (n, a, b) = (8192u32, 0x10_000u64, 0x80_000u64);
        let prog = add_one_wide(n, a, b);
        let kctx = KernelCtx::new(&prog);

        let mut sm = Sm::new(0, &cfg);
        let mut stats = SimStats::default();
        let mut launched = 0;
        while sm.can_accept_cta(&cfg, &kctx) {
            sm.launch_cta(&cfg, &kctx, 0, launched, &mut NullCoProcessor, &mut stats);
            launched += 1;
        }
        assert_eq!(
            launched, 6,
            "six 16-warp CTAs fit 100 slots, a seventh does not"
        );
        assert_eq!((sm.free_warps, sm.resident_ctas()), (4, 6));
        sm.reclassify(&kctx, &NullCoProcessor);
        assert!(sm.classes_current(&kctx, &NullCoProcessor));
        assert_eq!(sm.class.len(), 100);
        assert!(sm.class[..96].iter().all(|&c| c == IssueClass::Plain));
        assert!(sm.class[96..].iter().all(|&c| c == IssueClass::Absent));

        let mut mem = SparseMemory::new();
        mem.write_u32_slice(a, &(0..n).collect::<Vec<u32>>());
        let report = GpuSim::new(cfg.clone()).run(&prog, &mut mem);
        let out = mem.read_u32_vec(b, n as usize);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u32 + 1));
        assert_eq!(report.stats.ctas_launched, 16);
        assert_eq!(
            report.stats.issue_slots_total(),
            report.cycles * cfg.schedulers as u64
        );
    }
}

//! Core-side simulation statistics.
//!
//! These counters feed the paper's figures directly: warp-instruction counts
//! (Fig. 17), decoupled-load percentages (Fig. 19), and the event counts the
//! energy model converts into Joules (Fig. 21).

/// Counters accumulated over a kernel run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Total elapsed cycles.
    pub cycles: u64,
    /// Warp instructions issued by ordinary (non-affine) warps.
    pub warp_instructions: u64,
    /// Warp instructions issued by the DAC affine warp (via coprocessor).
    pub affine_instructions: u64,
    /// Instructions CAE executed on its affine units instead of SIMT lanes.
    pub cae_affine_instructions: u64,
    /// Per-lane ALU operations (active lanes × ALU instructions).
    pub alu_lane_ops: u64,
    /// Per-lane SFU operations.
    pub sfu_lane_ops: u64,
    /// Register-file accesses (operand reads + writebacks, per lane).
    pub regfile_accesses: u64,
    /// Global/local load warp instructions issued.
    pub global_loads: u64,
    /// Global/local load warp instructions whose addresses came from a
    /// dequeued DAC record (the decoupled loads of Fig. 19).
    pub decoupled_loads: u64,
    /// Global/local store warp instructions.
    pub global_stores: u64,
    /// Shared-memory warp instructions.
    pub shared_accesses: u64,
    /// Atomic warp instructions.
    pub atomic_instructions: u64,
    /// Branch warp instructions.
    pub branches: u64,
    /// Barrier warp instructions.
    pub barriers: u64,
    /// Cycles in which no scheduler on an SM could issue (per-SM summed).
    pub idle_scheduler_cycles: u64,
    /// Issue slots consumed by the DAC affine engine.
    pub affine_issue_slots: u64,
    /// Warp-issue attempts blocked by an empty dequeue (DAC back-pressure).
    pub deq_empty_stalls: u64,
    /// Warp-issue attempts blocked waiting for decoupled data to arrive.
    pub deq_data_stalls: u64,
    /// enq instructions blocked on a full Affine Tuple Queue.
    pub enq_full_stalls: u64,
    /// DAC expansion-unit events: warp address records produced.
    pub aeu_records: u64,
    /// DAC expansion-unit events: predicate bit vectors produced.
    pub peu_records: u64,
    /// CTAs launched.
    pub ctas_launched: u64,
    /// Threads launched.
    pub threads_launched: u64,
    /// MTA prefetch requests issued.
    pub prefetches_issued: u64,
    /// Warp-issue attempts blocked by a scoreboard hazard.
    pub stall_scoreboard: u64,
    /// Warp-issue attempts blocked by a full LSU queue.
    pub stall_lsu_full: u64,
    /// Warp-issue attempts blocked at a CTA barrier.
    pub stall_barrier: u64,
    /// Sum over (cycle, SM) of ATQ occupancy while DAC is active; divide
    /// by `cycles` for mean occupancy.
    pub atq_occupancy_sum: u64,
    /// Sum over (cycle, SM) of expanded address records outstanding.
    pub pwaq_occupancy_sum: u64,
    /// Sum over (cycle, SM) of predicate bit-vectors outstanding.
    pub pwpq_occupancy_sum: u64,
    /// Sum over (cycle, SM) of affine-warp run-ahead distance (queued
    /// decoupled work: ATQ entries + expanded records).
    pub affine_runahead_sum: u64,
    /// Issue slots that issued a warp instruction (top-down bucket).
    pub slot_issued: u64,
    /// Issue slots unavailable because a prior multi-cycle issue still
    /// occupies the scheduler (top-down bucket).
    pub slot_busy: u64,
    /// Empty issue slots attributed to scoreboard hazards (top-down bucket).
    pub slot_scoreboard: u64,
    /// Empty issue slots attributed to a full LSU queue (top-down bucket).
    pub slot_lsu_full: u64,
    /// Empty issue slots attributed to warps parked at a CTA barrier
    /// (top-down bucket).
    pub slot_barrier: u64,
    /// Empty issue slots attributed to an empty DAC dequeue (top-down
    /// bucket).
    pub slot_deq_empty: u64,
    /// Empty issue slots attributed to decoupled data not yet arrived
    /// (top-down bucket).
    pub slot_deq_data: u64,
    /// Empty issue slots where only the affine engine wanted the slot but
    /// was blocked on a full ATQ (top-down bucket).
    pub slot_enq_full: u64,
    /// Empty issue slots with no schedulable warp resident at all
    /// (top-down bucket).
    pub slot_idle: u64,
}

/// Generates the by-name field table used by the experiment harness to
/// serialize and re-hydrate counter structs without an external serde.
macro_rules! stat_fields {
    ($($field:ident),* $(,)?) => {
        /// All counters as `(name, value)` pairs, in declaration order.
        /// The harness serializes these into JSONL artifacts and cache
        /// entries; names are part of the artifact schema.
        pub fn fields(&self) -> Vec<(&'static str, u64)> {
            vec![$((stringify!($field), self.$field)),*]
        }

        /// Set one counter by its serialized name. Returns `false` for an
        /// unknown name so loaders can reject stale cache entries.
        #[must_use]
        pub fn set_field(&mut self, name: &str, value: u64) -> bool {
            match name {
                $(stringify!($field) => self.$field = value,)*
                _ => return false,
            }
            true
        }
    };
}

impl SimStats {
    stat_fields!(
        cycles,
        warp_instructions,
        affine_instructions,
        cae_affine_instructions,
        alu_lane_ops,
        sfu_lane_ops,
        regfile_accesses,
        global_loads,
        decoupled_loads,
        global_stores,
        shared_accesses,
        atomic_instructions,
        branches,
        barriers,
        idle_scheduler_cycles,
        affine_issue_slots,
        deq_empty_stalls,
        deq_data_stalls,
        enq_full_stalls,
        aeu_records,
        peu_records,
        ctas_launched,
        threads_launched,
        prefetches_issued,
        stall_scoreboard,
        stall_lsu_full,
        stall_barrier,
        atq_occupancy_sum,
        pwaq_occupancy_sum,
        pwpq_occupancy_sum,
        affine_runahead_sum,
        slot_issued,
        slot_busy,
        slot_scoreboard,
        slot_lsu_full,
        slot_barrier,
        slot_deq_empty,
        slot_deq_data,
        slot_enq_full,
        slot_idle,
    );

    /// Field-wise sum: fold `other` into `self`. Exact — every counter is
    /// a `u64` total, so summing per-kernel bins reproduces the counters a
    /// single shared sink would have collected. Used by multi-stream runs
    /// to aggregate per-kernel attribution bins into the chip-wide report.
    pub fn accumulate(&mut self, other: &SimStats) {
        for ((name, a), (_, b)) in self.fields().into_iter().zip(other.fields()) {
            if b != 0 {
                let ok = self.set_field(name, a + b);
                debug_assert!(ok, "unknown SimStats field {name}");
            }
        }
    }

    /// Top-down issue-slot buckets as `(name, value)` pairs, in reporting
    /// order. Every scheduler issue slot of every cycle lands in exactly
    /// one bucket; `affine` reuses [`SimStats::affine_issue_slots`].
    pub fn issue_slot_buckets(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("issued", self.slot_issued),
            ("affine", self.affine_issue_slots),
            ("busy", self.slot_busy),
            ("scoreboard", self.slot_scoreboard),
            ("lsu_full", self.slot_lsu_full),
            ("barrier", self.slot_barrier),
            ("deq_empty", self.slot_deq_empty),
            ("deq_data", self.slot_deq_data),
            ("enq_full", self.slot_enq_full),
            ("idle", self.slot_idle),
        ]
    }

    /// Sum of all top-down issue-slot buckets. The accounting invariant —
    /// checked after every run — is
    /// `issue_slots_total() == cycles × schedulers × SMs`.
    pub fn issue_slots_total(&self) -> u64 {
        self.issue_slot_buckets().iter().map(|&(_, v)| v).sum()
    }

    /// Total warp instructions across both streams.
    pub fn total_instructions(&self) -> u64 {
        self.warp_instructions + self.affine_instructions
    }

    /// Fraction of loads whose addresses were produced by the affine warp
    /// (Fig. 19), in [0, 1].
    pub fn decoupled_load_fraction(&self) -> f64 {
        if self.global_loads == 0 {
            0.0
        } else {
            self.decoupled_loads as f64 / self.global_loads as f64
        }
    }

    /// Fraction of all instructions that ran on the affine stream
    /// (§5.3's 4.6%), in [0, 1].
    pub fn affine_instruction_fraction(&self) -> f64 {
        let t = self.total_instructions();
        if t == 0 {
            0.0
        } else {
            self.affine_instructions as f64 / t as f64
        }
    }

    /// Instructions per cycle (all SMs).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_instructions() as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_guard_zero() {
        let s = SimStats::default();
        assert_eq!(s.decoupled_load_fraction(), 0.0);
        assert_eq!(s.affine_instruction_fraction(), 0.0);
        assert_eq!(s.ipc(), 0.0);
    }

    #[test]
    fn fractions() {
        let s = SimStats {
            warp_instructions: 95,
            affine_instructions: 5,
            global_loads: 10,
            decoupled_loads: 8,
            cycles: 50,
            ..Default::default()
        };
        assert!((s.affine_instruction_fraction() - 0.05).abs() < 1e-12);
        assert!((s.decoupled_load_fraction() - 0.8).abs() < 1e-12);
        assert!((s.ipc() - 2.0).abs() < 1e-12);
    }
}

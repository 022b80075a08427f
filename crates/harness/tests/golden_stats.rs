//! Golden-stats regression test: pins headline counters, and a digest
//! over *every* `SimStats` counter, for four small workloads under each
//! design, on a reduced 2-SM machine. Any change to these numbers means
//! simulator behaviour shifted — if the shift is intentional, update the
//! table AND bump `CACHE_VERSION` in `simt_harness::job` so stale cache
//! entries are not read as current.
//!
//! The digest is what pins the order-sensitive scheduler counters
//! (`stall_scoreboard`, `stall_lsu_full`, `stall_barrier`,
//! `idle_scheduler_cycles`, `deq_*_stalls`, the `slot_*` buckets): they
//! count one event per warp *visited* by a scheduler hunt, so they move
//! if the pick order or the stall classification changes even when the
//! cycle count does not. PF is in the table for its three `bar.sync`s.

use gpu_workloads::benchmark;
use simt_harness::{fnv1a64, suite_jobs, DesignPoint, Harness, Overrides};
use simt_sim::SimStats;

/// FNV-1a over `name=value;` for every counter, in declaration order.
fn stats_digest(s: &SimStats) -> u64 {
    let text: String = s
        .fields()
        .iter()
        .map(|(name, value)| format!("{name}={value};"))
        .collect();
    fnv1a64(text.as_bytes())
}

/// (bench, design, cycles, warp_instructions, decoupled_loads,
/// all-counter digest) at scale 1 with num_sms=2, max_warps_per_sm=16.
// All cycle counts moved +1 when `SimStats::cycles` switched to counting
// executed cycles (the main loop runs cycles 0..=now inclusive); the
// off-by-one was found by the issue-slot accounting invariant, which needs
// `cycles × schedulers × SMs` to equal the attributed slot total.
const GOLDEN: &[(&str, &str, u64, u64, u64, u64)] = &[
    ("MQ", "baseline", 66064, 131040, 0, 0x22a5edb7dff28fc4),
    ("MQ", "cae", 58076, 131040, 0, 0xc3658f5eaf30cc4d),
    ("MQ", "mta", 66064, 131040, 0, 0x22a5edb7dff28fc4),
    ("MQ", "dac", 60183, 94560, 23040, 0x3ba9e91f087ab429),
    ("LIB", "baseline", 21295, 18000, 0, 0x8e109dd9b3194440),
    ("LIB", "cae", 21009, 18000, 0, 0x74fde4f014a13cdc),
    // LIB/mta moved 21899 -> 22287 when the MTA pump latch landed: a
    // predicted prefetch now pops off the queue into a one-entry port
    // latch before the fabric admission attempt, so the queue slot frees
    // (and the duplicate check forgets the line) one cycle earlier. This
    // makes enqueue decisions independent of fabric admission timing,
    // which the deterministic intra-run parallel schedule requires.
    ("LIB", "mta", 22287, 18000, 0, 0xb0c831313a9fa011),
    ("LIB", "dac", 18186, 8520, 3360, 0x894b47150b1b782e),
    ("BFS", "baseline", 12635, 6600, 0, 0x602b3d62ab7d3b25),
    ("BFS", "cae", 12491, 6600, 0, 0xacc06ae30bd888c9),
    // BFS/mta moved 12696 -> 12670 when MTA's inter-warp prefetches were
    // line-aligned before issue (previously a mid-line address could be
    // requested as if it were a distinct line).
    ("BFS", "mta", 12671, 6600, 0, 0x4ac441f9780fe924),
    ("BFS", "dac", 12234, 6360, 120, 0x2c5ee0e32bda3fa9),
    ("PF", "baseline", 54688, 74400, 0, 0x3445f365789ad047),
    ("PF", "cae", 53883, 74400, 0, 0x49d84ec04c22eb24),
    ("PF", "mta", 49079, 74400, 0, 0xa71db3df55770f2d),
    ("PF", "dac", 45867, 60960, 3840, 0x8dfc6a3f0162bb07),
];

#[test]
fn headline_counters_match_golden_values() {
    let overrides = Overrides {
        num_sms: Some(2),
        max_warps_per_sm: Some(16),
        ..Overrides::default()
    };
    let benches = ["MQ", "LIB", "BFS", "PF"]
        .iter()
        .map(|a| benchmark(a, 1).expect("known benchmark"))
        .collect();
    let jobs = suite_jobs(benches, 1, &DesignPoint::HW_ALL, &overrides);
    let out = Harness::serial().run(&jobs);
    assert_eq!(jobs.len(), GOLDEN.len());
    for ((job, result), &(bench, design, cycles, warp_instructions, decoupled_loads, digest)) in
        jobs.iter().zip(&out.results).zip(GOLDEN)
    {
        assert_eq!(job.bench(), bench);
        assert_eq!(job.point.name(), design);
        let s = &result.report.stats;
        assert_eq!(
            (result.report.cycles, s.warp_instructions, s.decoupled_loads),
            (cycles, warp_instructions, decoupled_loads),
            "{bench}/{design}: counters drifted from golden values"
        );
        assert_eq!(
            stats_digest(s),
            digest,
            "{bench}/{design}: all-counter digest drifted (got {:#018x}); counters: {:?}",
            stats_digest(s),
            s.fields()
        );
    }
}

//! Issue-slot accounting invariant, checked across the full benchmark
//! suite: every scheduler issue slot of every cycle must land in exactly
//! one top-down bucket, so the buckets sum to `cycles × schedulers × SMs`
//! for all 29 workloads under all four designs, and each design's cycle
//! ledger against its baseline sums exactly to the cycles it saves.
//!
//! The simulator asserts the bucket identity internally at the end of
//! every run; this test additionally re-derives it from the reported
//! counters, so a silent change to either side (the bucket attribution in
//! the scheduler, or [`SimStats`]'s reporting view) fails loudly.

use gpu_workloads::{gpu_for, Design, ALL_ABBRS};
use simt_harness::{suite_jobs, DesignPoint, Harness, Overrides};
use simt_sim::SimStats;

/// Run the full suite × all designs on a 2-SM, 16-warp machine and assert
/// the issue-slot and ledger identities on every result.
#[test]
fn slot_buckets_sum_to_issue_slots_on_all_workloads_and_designs() {
    let overrides = &Overrides {
        num_sms: Some(2),
        max_warps_per_sm: Some(16),
        ..Overrides::default()
    };
    let benches = ALL_ABBRS
        .iter()
        .map(|a| gpu_workloads::benchmark(a, 1).expect("known benchmark"))
        .collect();
    let jobs = suite_jobs(benches, 1, &DesignPoint::HW_ALL, overrides);
    assert_eq!(jobs.len(), ALL_ABBRS.len() * Design::ALL.len());
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
    let out = Harness::new(workers).run(&jobs);

    let num_sms = overrides.num_sms.unwrap() as u64;
    for (job, result) in jobs.iter().zip(&out.results) {
        let design = match job.point {
            DesignPoint::Hw(d) => d,
            DesignPoint::PerfectMem => unreachable!("HW_ALL only"),
        };
        let schedulers = gpu_for(design).schedulers as u64;
        let stats = &result.report.stats;
        let expected = result.report.cycles * schedulers * num_sms;
        assert_eq!(
            stats.issue_slots_total(),
            expected,
            "{}: buckets {:?} do not sum to cycles({}) x schedulers({}) x SMs({})",
            job.label(),
            stats.issue_slot_buckets(),
            result.report.cycles,
            schedulers,
            num_sms
        );
        // Every design issues something; only DAC may wait on its queues.
        assert!(stats.slot_issued > 0, "{}: no issued slots", job.label());
        if design != Design::Dac {
            assert_eq!(
                stats.slot_deq_empty + stats.slot_deq_data + stats.slot_enq_full,
                0,
                "{}: DAC-only buckets must be empty",
                job.label()
            );
        }
    }
    for (jobs, results) in jobs
        .chunks(Design::ALL.len())
        .zip(out.results.chunks(Design::ALL.len()))
    {
        assert_eq!(jobs[0].point, DesignPoint::Hw(Design::Baseline));
        let base = &results[0].report.stats;
        for (job, result) in jobs.iter().zip(results) {
            assert_ledger_identity(&job.label(), base, &result.report.stats);
        }
    }
}

/// `Σ ledger rows == (base.cycles − d.cycles) × base slots / base.cycles`,
/// in integers.
fn assert_ledger_identity(label: &str, base: &SimStats, d: &SimStats) {
    let rows = base.ledger(d);
    let saved = (base.cycles as i64 - d.cycles as i64) * base.issue_slots_total() as i64
        / base.cycles as i64;
    assert_eq!(rows.iter().sum::<i64>(), saved, "{label}: ledger {rows:?}");
}

//! Issue-slot accounting invariant, checked across the full benchmark
//! suite: every scheduler issue slot of every cycle must land in exactly
//! one top-down bucket, so the buckets sum to `cycles × schedulers × SMs`
//! for all 29 workloads under all four designs.
//!
//! The simulator asserts the same identity internally at the end of every
//! run; this test additionally re-derives it from the reported counters
//! through [`CpiStack`], so a silent change to either side (the bucket
//! attribution in the scheduler, or the reporting view) fails loudly.

use gpu_workloads::{gpu_for, Design, ALL_ABBRS};
use simt_harness::{suite_jobs, DesignPoint, Harness, Overrides};
use simt_profile::CpiStack;

/// Run the full suite × all designs on a 2-SM, 16-warp machine and assert
/// the issue-slot identity on every result.
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
        let cpi = CpiStack::from_stats(&result.report.stats);
        let expected = result.report.cycles * schedulers * num_sms;
        assert_eq!(
            cpi.total(),
            expected,
            "{}: buckets {:?} do not sum to cycles({}) x schedulers({}) x SMs({})",
            job.label(),
            cpi.buckets(),
            result.report.cycles,
            schedulers,
            num_sms
        );
        // Every design issues something; only DAC may wait on its queues.
        assert!(cpi.get("issued") > 0, "{}: no issued slots", job.label());
        if design != Design::Dac {
            assert_eq!(
                cpi.get("deq_empty") + cpi.get("deq_data") + cpi.get("enq_full"),
                0,
                "{}: DAC-only buckets must be empty",
                job.label()
            );
        }
    }
}

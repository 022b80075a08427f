//! Transparency on the promoted divergence-stress corpus
//! (`gpu_workloads::divergence_stress`): every design computes the same
//! memory on the fuzzer-discovered control-flow and divergence patterns,
//! and each design's cycle ledger against the baseline sums exactly to
//! the cycles it saves. Their counters are pinned with the rest in
//! `tests/counters.rs`.

use gpu_workloads::divergence_stress;
use simt_harness::{suite_jobs, DesignPoint, Harness, Overrides};

/// All four designs agree bit-for-bit on every stress workload's output
/// region (per-thread words + atomic slots), and in integers
/// `Σ ledger rows == (base.cycles − d.cycles) × base slots / base.cycles`.
#[test]
fn stress_corpus_outputs_agree_across_designs() {
    let overrides = Overrides {
        num_sms: Some(2),
        max_warps_per_sm: Some(16),
        ..Overrides::default()
    };
    for w in divergence_stress() {
        let jobs = suite_jobs(vec![w.clone()], 1, &DesignPoint::HW_ALL, &overrides);
        let out = Harness::serial().run(&jobs);
        let digests: Vec<u64> = out.results.iter().map(|r| r.output_digest).collect();
        assert!(
            digests.windows(2).all(|p| p[0] == p[1]),
            "{}: designs disagree: {digests:x?}",
            w.abbr
        );
        let base = &out.results[0].report.stats;
        for (job, result) in jobs.iter().zip(&out.results) {
            let rows = base.ledger(&result.report.stats);
            let saved = (base.cycles as i64 - result.report.cycles as i64)
                * base.issue_slots_total() as i64
                / base.cycles as i64;
            assert_eq!(
                rows.iter().sum::<i64>(),
                saved,
                "{}: ledger {rows:?}",
                job.label()
            );
        }
    }
}

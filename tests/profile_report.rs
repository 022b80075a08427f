//! The shipped bottleneck report, pinned byte for byte.
//!
//! `results/profile/` is what
//!
//! ```sh
//! sweep --bench BFS,LIB,MQ,SPV --set num_sms=2 --set max_warps_per_sm=16 \
//!     --profile results/profile
//! ```
//!
//! writes. This test runs the same harness path and compares both files.
//! The report holds no wall-clock value, so the bytes are the same on every
//! machine and for any worker count. After an intentional simulator change,
//! re-pin them with `UPDATE_GOLDEN=1` (`tests/support/pin.rs`) and review
//! the diff like any other pin.

#[path = "support/pin.rs"]
mod pin;

use gpu_workloads::ALL_ABBRS;
use simt_harness::{suite_jobs, DesignPoint, Harness, Observe, Overrides};
use std::fs;

#[test]
fn sweep_profile_reproduces_the_shipped_report() {
    let overrides = Overrides {
        num_sms: Some(2),
        max_warps_per_sm: Some(16),
        ..Overrides::default()
    };
    // Table 2 order, as `sweep --bench` builds it.
    let benches = ALL_ABBRS
        .iter()
        .filter(|a| ["BFS", "LIB", "MQ", "SPV"].contains(a))
        .map(|a| gpu_workloads::benchmark(a, 1).expect("registered benchmark"))
        .collect();
    let jobs = suite_jobs(benches, 1, &DesignPoint::HW_ALL, &overrides);

    let dir = std::env::temp_dir().join(format!("dac-profile-report-{}", std::process::id()));
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
    let out = Harness::new(workers)
        .observe(Observe::Profile(dir.clone()))
        .run(&jobs);
    let written = out.profile_paths.expect("profile report written");
    for (path, name) in written.iter().zip(["report.md", "profile.json"]) {
        let got = fs::read_to_string(path).expect("read the written report");
        pin::check(&format!("results/profile/{name}"), &got);
    }
    let _ = fs::remove_dir_all(&dir);
}

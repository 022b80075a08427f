//! The differential fuzz oracle inside the tier-1 `cargo test`: generated
//! kernels through all four designs, each checked against a per-thread
//! scalar interpreter that shares no execution code with the simulator's
//! warp-wide functional core (plus the issue-slot bucket invariant). The
//! `simt-fuzz` crate's own suite and the `fuzz` binary run wider windows;
//! this one keeps an independent reference in front of every change to
//! the simulator.

use simt_fuzz::diff::case_id;
use simt_fuzz::{check_workload, gen_spec, DiffConfig};

#[test]
fn generated_kernels_match_the_per_thread_oracle() {
    const SEED: u64 = 15;
    let cfg = DiffConfig::default();
    for index in 0..25 {
        let w = gen_spec(SEED, index).build_workload();
        let runs = check_workload(&w, &cfg)
            .unwrap_or_else(|f| panic!("kernel {} ({}): {f}", case_id(SEED, index), w.abbr));
        assert_eq!(runs.len(), 4, "kernel {}", case_id(SEED, index));
    }
}

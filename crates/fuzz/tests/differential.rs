//! A broad differential window: generated kernels through all four designs
//! with every invariant checked. The CI smoke step runs a bigger window via
//! the `fuzz` binary; this keeps a meaningful slice in `cargo test`.

use simt_fuzz::diff::case_id;
use simt_fuzz::{check_workload, gen_spec, DiffConfig};

#[test]
fn differential_window_seed_1() {
    let cfg = DiffConfig::default();
    for index in 0..16u64 {
        let w = gen_spec(1, index).build_workload();
        let runs = check_workload(&w, &cfg)
            .unwrap_or_else(|f| panic!("kernel {} ({}): {f}", case_id(1, index), w.abbr));
        assert_eq!(runs.len(), 4);
        let first = &runs[0].output;
        for r in &runs[1..] {
            assert_eq!(&r.output, first, "kernel {}", case_id(1, index));
        }
    }
}

#[test]
fn differential_window_alt_seed() {
    let cfg = DiffConfig::default();
    for index in 0..10u64 {
        let w = gen_spec(0xFEED_FACE, index).build_workload();
        check_workload(&w, &cfg)
            .unwrap_or_else(|f| panic!("kernel {} ({}): {f}", case_id(0xFEED_FACE, index), w.abbr));
    }
}

/// The generated workload itself is deterministic down to the bytes the
/// harness cares about: same seed/index → same abbr, same kernel, same
/// initial memory image, same oracle digest.
#[test]
fn workload_construction_is_deterministic() {
    use simt_fuzz::diff::digest_words;
    use simt_fuzz::run_oracle;
    for index in [0u64, 3, 7] {
        let a = gen_spec(0x5EED, index).build_workload();
        let b = gen_spec(0x5EED, index).build_workload();
        assert_eq!(a.abbr, b.abbr);
        assert_eq!(a.kernel.instrs, b.kernel.instrs);
        let digest = |w: &gpu_workloads::Workload| {
            let mut m = w.fresh_memory();
            run_oracle(&w.kernel, &w.launch, &mut m).unwrap();
            digest_words(&m.read_u32_vec(w.output.0, w.output.1))
        };
        assert_eq!(digest(&a), digest(&b));
    }
}

/// `--jobs 0` is a usage error, as it is for `sweep` and `serve`: one
/// line on stderr, exit 2, nothing generated or written.
#[test]
fn zero_jobs_is_a_usage_error() {
    let out_dir = std::env::temp_dir().join(format!("dac-fuzz-jobs0-{}", std::process::id()));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_fuzz"))
        .args(["--count", "1", "--jobs", "0", "--no-cache", "--out"])
        .arg(&out_dir)
        .output()
        .expect("run fuzz");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "stderr: {stderr}");
    assert!(stderr.contains("--jobs must be at least 1"), "{stderr}");
    assert!(out.stdout.is_empty() && !out_dir.exists());
}

//! A broad differential window: generated kernels through all four designs
//! with every invariant checked. The CI smoke step runs a bigger window via
//! the `fuzz` binary; this keeps a meaningful slice in `cargo test`.

use simt_fuzz::{check_workload, gen_spec, DiffConfig};

#[test]
fn differential_window_seed_1() {
    let cfg = DiffConfig::default();
    for index in 0..16u64 {
        let w = gen_spec(1, index).build_workload();
        let runs = check_workload(&w, &cfg).unwrap_or_else(|f| panic!("kernel {}: {f}", w.abbr));
        assert_eq!(runs.len(), 4);
        let first = &runs[0].output;
        for r in &runs[1..] {
            assert_eq!(&r.output, first, "kernel {}", w.abbr);
        }
    }
}

#[test]
fn differential_window_alt_seed() {
    let cfg = DiffConfig::default();
    for index in 0..10u64 {
        let w = gen_spec(0xFEED_FACE, index).build_workload();
        check_workload(&w, &cfg).unwrap_or_else(|f| panic!("kernel {}: {f}", w.abbr));
    }
}

/// The generated workload itself is deterministic: same seed/index → same
/// abbr, same kernel, same initial memory image, same oracle digest.
#[test]
fn workload_construction_is_deterministic() {
    use simt_fuzz::run_oracle;
    use simt_harness::digest_words;
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

/// Run the `fuzz` binary in `dir` with `args`.
fn fuzz_in(dir: &std::path::Path, args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_fuzz"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("run fuzz")
}

/// A fresh, empty directory under the system temp dir, one per call.
fn fresh_dir() -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dac-fuzz-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `args` is a usage error: one line on stderr containing `expect`, exit
/// 2, nothing generated or written.
fn assert_usage_error(args: &[&str], expect: &str) {
    let dir = fresh_dir();
    let out = fuzz_in(&dir, &[&["--count", "1", "--out", "D"][..], args].concat());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.contains(expect), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}");
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "{args:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `--jobs 0` is a usage error, as it is for `sweep` and `serve`.
#[test]
fn zero_jobs_is_a_usage_error() {
    assert_usage_error(&["--jobs", "0"], "--jobs must be at least 1");
}

/// So are a `--jobs` above the ceiling (probed at ceiling + 1, so no test
/// starts a thread), a repeated or unknown design, the removed
/// result-store flags and an empty `--out`.
#[test]
fn refused_arguments_are_usage_errors() {
    let over = (simt_harness::job::MAX_JOBS + 1).to_string();
    assert_usage_error(&["--jobs", &over], "--jobs must be at most 256");
    assert_usage_error(&["--designs", "dac,dac"], "design \"dac\" given twice");
    assert_usage_error(&["--designs", "warp9"], "unknown design \"warp9\"");
    assert_usage_error(&["--no-cache"], "unexpected argument \"--no-cache\"");
    assert_usage_error(&["--cache-dir", "X"], "unexpected argument \"--cache-dir\"");
    // An empty `--out` would write the summary into the working directory.
    assert_usage_error(&["--out", ""], "--out: empty value");
}

/// A run writes its summary under `--out` and nothing else: no result
/// store appears in the working directory.
#[test]
fn a_run_writes_only_its_out_dir() {
    let dir = fresh_dir();
    let out = fuzz_in(&dir, &["--count", "2", "--out", "D"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(entries, ["D"]);
    std::fs::remove_dir_all(&dir).unwrap();
}

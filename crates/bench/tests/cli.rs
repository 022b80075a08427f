//! `sweep`'s command line, end to end through the built binary: the
//! experiments that simulate nothing print the pinned bytes of
//! `results/figures.txt`, and every option an experiment would silently
//! ignore is a one-line usage error. Only the ignored `sweep all` pin
//! simulates; the rest stays cheap in debug builds.

#[path = "../../../tests/support/pin.rs"]
mod pin;

use std::process::{Command, Output, Stdio};

const EXPERIMENTS: [&str; 13] = [
    "table1", "table2", "fig6", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "mem",
    "area", "ablate", "all",
];

fn sweep(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(args)
        .args(["--no-cache", "-q"])
        .output()
        .expect("sweep runs")
}

/// Exit 2, nothing on stdout, one stderr line that carries `needle`.
fn assert_usage_error(args: &[&str], needle: &str) {
    let out = sweep(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
}

/// The section of the pinned `sweep all` output that starts with `title`.
fn pinned_section(title: &str) -> String {
    let all = std::fs::read_to_string(pin::repo_path("results/figures.txt"))
        .expect("results/figures.txt");
    let start = all
        .find(&format!("\n=== {title}"))
        .expect("section present");
    let end = all[start + 1..]
        .find("\n=== ")
        .map_or(all.len(), |n| start + 1 + n);
    all[start..end].to_string()
}

#[test]
fn experiments_without_runs_print_the_pinned_sections() {
    for (experiment, title) in [("table1", "Table 1"), ("area", "Section 4.8")] {
        let out = sweep(&[experiment]);
        assert!(out.status.success(), "{experiment}: {:?}", out.status);
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            pinned_section(title),
            "{experiment}"
        );
    }
}

/// `results/figures.txt` is `sweep all`'s output, byte for byte.
#[test]
#[ignore = "the whole evaluation: run in release mode"]
fn sweep_all_reproduces_the_shipped_figures() {
    let out = sweep(&["all"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    pin::check(
        "results/figures.txt",
        &String::from_utf8(out.stdout).unwrap(),
    );
}

#[test]
fn experiments_reject_what_they_would_ignore() {
    // A small machine and one benchmark, so a regression that lets one of
    // these through fails fast instead of simulating the whole suite.
    let small = ["--bench", "LIB", "--set", "num_sms=2"];
    for experiment in EXPERIMENTS {
        for (extra, needle) in [
            (&["--designs", "dac"][..], "--designs"),
            (&["--set", "streams=pipeline"], "--set streams"),
            (&["--profile", "unused-dir"], "--profile"),
        ] {
            let args: Vec<&str> = [&[experiment][..], &small, extra].concat();
            assert_usage_error(&args, needle);
        }
        assert_usage_error(&[experiment, "--bench", "LIB,NOPE"], "unknown benchmark");
    }
    assert_usage_error(&["nope"], "unknown experiment \"nope\"");
    assert_usage_error(&["table1", "area"], "at most one experiment");
}

#[test]
fn knobs_that_would_change_nothing_are_refused() {
    assert_usage_error(
        &["--bench", "LIB", "--set", "cta_policy=rr"],
        "--set cta_policy: changes no point of this run",
    );
    assert_usage_error(
        &["--designs", "baseline", "--set", "atq_entries=4"],
        "--set atq_entries: changes no point of this run",
    );
    assert_usage_error(
        &["--set", "pwaq_total=0"],
        "--set pwaq_total: must be at least 1",
    );
}

#[test]
fn help_lists_every_knob_with_its_domain() {
    let out = sweep(&["--help"]);
    assert!(out.status.success());
    let help = String::from_utf8(out.stdout).unwrap();
    for knob in simt_harness::KNOBS {
        let line = format!("  {} ({}): {}\n", knob.name, knob.scope.name(), knob.domain);
        assert!(help.contains(&line), "{line:?} missing from:\n{help}");
    }
}

/// `sweep … | cmp - FILE` stops reading at the first difference: `sweep`
/// then stops printing and exits 0, without a panic.
#[test]
fn a_closed_stdout_ends_sweep_quietly() {
    let out = std::env::temp_dir().join(format!("sweep-closed-stdout-{}", std::process::id()));
    let mut child = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args("--bench LIB --designs baseline --set num_sms=2 --set max_warps_per_sm=16".split(' '))
        .args(["--no-cache", "-q", "--out"])
        .arg(&out)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("sweep runs");
    // The reader goes while the run simulates, before anything is printed.
    drop(child.stdout.take());
    let done = child.wait_with_output().expect("sweep exits");
    let stderr = String::from_utf8_lossy(&done.stderr);
    assert_eq!(done.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&out);
}

//! Flags that no longer exist are ordinary unknown flags: one error line
//! ahead of the usage text, exit 2, nothing run.

use std::process::Command;

#[test]
fn profile_rejects_the_retired_record_flags() {
    for flag in ["--bench-json", "--check-bench"] {
        let out = Command::new(env!("CARGO_BIN_EXE_profile"))
            .args([flag, "record.json"])
            .output()
            .expect("run profile");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert_eq!(
            stderr.lines().next(),
            Some(format!("profile: unknown flag {flag:?}").as_str()),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "{flag} printed a report");
    }
}

//! The one way a fixed point of the model is checked and re-pinned. A pin
//! test renders what it pins and calls [`check`] with the checked-in file
//! that must hold exactly those bytes; under `UPDATE_GOLDEN=1` it rewrites
//! the file instead. So one command re-pins every family (DESIGN.md
//! § "Fixed points"):
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --release --workspace --no-fail-fast -- --include-ignored
//! ```
//!
//! `--no-fail-fast` lets every pin test run even when another test fails,
//! as the check of the numbers the documents quote does after a re-pin.
//!
//! Test-only: each pin test includes this file with `#[path]`.

#![allow(dead_code)]

use std::path::{Path, PathBuf};

/// `rel` (e.g. `results/pins/counters.txt`) under the repository root.
pub fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .find(|dir| dir.join("Cargo.lock").exists())
        .expect("inside the repository")
        .join(rel)
}

/// A pin family's file: its rows sorted, one per line.
pub fn lines(rows: impl IntoIterator<Item = String>) -> String {
    let mut rows: Vec<String> = rows.into_iter().collect();
    rows.sort();
    rows.iter().map(|row| format!("{row}\n")).collect()
}

/// Asserts that the file `rel` holds exactly `rendered`. When
/// `UPDATE_GOLDEN` is set, a file that differs is replaced instead, by a
/// rename, so a test reading it meanwhile never sees half of it.
pub fn check(rel: &str, rendered: &str) {
    let path = repo_path(rel);
    let pinned = std::fs::read_to_string(&path).unwrap_or_default();
    if pinned == rendered {
        return;
    }
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let tmp = path.with_extension(format!("pin-{}", std::process::id()));
        std::fs::write(&tmp, rendered).expect("write the new pin");
        std::fs::rename(&tmp, &path).expect("replace the pinned file");
        return;
    }
    let (old, new): (Vec<_>, Vec<_>) = (pinned.lines().collect(), rendered.lines().collect());
    let n = old.iter().zip(&new).take_while(|(p, r)| p == r).count();
    let end = "(end of file)";
    panic!(
        "{rel} drifted at line {}:\n  pinned: {}\n  now:    {}\n\
         if intentional, re-pin with UPDATE_GOLDEN=1 and review the diff",
        n + 1,
        old.get(n).unwrap_or(&end),
        new.get(n).unwrap_or(&end)
    );
}

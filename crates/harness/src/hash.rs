//! 64-bit FNV-1a, and the hash of the source every result is computed
//! from. `build.rs` compiles this file too (by `#[path]`): `std` alone.

use std::fs;
use std::io;
use std::path::Path;

/// 64-bit FNV-1a. Stable across platforms and releases — cache file names
/// and output digests must not change under us (unlike `DefaultHasher`).
pub const fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV1A64_OFFSET, bytes)
}

/// The 64-bit FNV-1a hash of no bytes, where [`fnv1a64_extend`] starts.
pub const FNV1A64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continue the 64-bit FNV-1a hash `h` over `bytes`: hashing a message in
/// pieces gives [`fnv1a64`] of the whole.
pub const fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    let mut i = 0;
    while i < bytes.len() {
        h = (h ^ bytes[i] as u64).wrapping_mul(0x0000_0100_0000_01b3);
        i += 1;
    }
    h
}

/// [`fnv1a64`] of every file under `crates/*/src`, given the `crates`
/// directory. Each file, in sorted path order, contributes its path
/// relative to `crates` (`/`-separated), a NUL, its length and its bytes,
/// so neither mtimes nor where the tree is checked out reach the hash.
// The build script's; the library compiles it for its tests.
#[cfg_attr(not(test), allow(dead_code))]
pub fn source_hash(crates: &Path) -> io::Result<u64> {
    let (mut dirs, mut files) = (vec![(String::new(), crates.to_path_buf())], Vec::new());
    while let Some((rel, dir)) = dirs.pop() {
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let rel = format!("{rel}{}", entry.file_name().to_string_lossy());
            if entry.file_type()?.is_dir() {
                dirs.push((rel + "/", entry.path()));
            } else if rel.split('/').nth(1) == Some("src") {
                files.push((rel, entry.path()));
            }
        }
    }
    files.sort();
    let mut bytes = Vec::new();
    for (rel, path) in files {
        let data = fs::read(path)?;
        let len = (data.len() as u64).to_le_bytes();
        bytes.extend_from_slice(&[rel.as_bytes(), &[0], &len, &data].concat());
    }
    Ok(fnv1a64(&bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::time::{Duration, SystemTime};

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        assert_eq!(fnv1a64_extend(fnv1a64(b"foo"), b"bar"), fnv1a64(b"foobar"));
    }

    fn tree(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("dac-source-hash-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        for (path, text) in [
            ("ir/src/lib.rs", "pub fn f() {}\n"),
            ("ir/src/parse/mod.rs", "mod x;\n"),
            ("workloads/src/kernels/stress/a.asm", "ld.global r1, [r0]\n"),
            // Outside every `src`: not a source of any result.
            ("ir/tests/t.rs", "#[test] fn t() {}\n"),
            ("ir/Cargo.toml", "[package]\n"),
        ] {
            let path = root.join(path);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, text).unwrap();
        }
        root
    }

    #[test]
    fn source_hash_sees_bytes_and_names_only() {
        let root = tree("a");
        let h = source_hash(&root).unwrap();
        // Touching every mtime leaves it.
        let old = SystemTime::now() - Duration::from_secs(86_400);
        for file in ["ir/src/lib.rs", "workloads/src/kernels/stress/a.asm"] {
            let f = fs::File::options()
                .write(true)
                .open(root.join(file))
                .unwrap();
            f.set_modified(old).unwrap();
        }
        assert_eq!(source_hash(&root).unwrap(), h);
        // So does the same tree at another absolute path.
        let copy = tree("b");
        assert_eq!(source_hash(&copy).unwrap(), h);
        // Files outside `*/src` are not hashed.
        fs::write(copy.join("ir/tests/t.rs"), "changed").unwrap();
        assert_eq!(source_hash(&copy).unwrap(), h);
        // One changed byte, in Rust source or in an `include_str!` input,
        // moves it.
        fs::write(copy.join("ir/src/lib.rs"), "pub fn g() {}\n").unwrap();
        assert_ne!(source_hash(&copy).unwrap(), h);
        fs::write(copy.join("ir/src/lib.rs"), "pub fn f() {}\n").unwrap();
        assert_eq!(source_hash(&copy).unwrap(), h);
        fs::write(
            copy.join("workloads/src/kernels/stress/a.asm"),
            "ld.global r2, [r0]\n",
        )
        .unwrap();
        assert_ne!(source_hash(&copy).unwrap(), h);
        // So does renaming a file.
        fs::rename(
            root.join("ir/src/parse/mod.rs"),
            root.join("ir/src/parse/lex.rs"),
        )
        .unwrap();
        assert_ne!(source_hash(&root).unwrap(), h);
        let _ = fs::remove_dir_all(&root);
        let _ = fs::remove_dir_all(&copy);
    }
}

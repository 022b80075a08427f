//! Versions the result store by the source it is computed from: the hash of
//! every file under `crates/*/src` is `DAC_SOURCE_HASH`, in `CACHE_VERSION`.

#[path = "src/hash.rs"]
mod hash;

fn main() {
    let crates = std::path::Path::new(&std::env::var("CARGO_MANIFEST_DIR").unwrap()).join("..");
    for entry in std::fs::read_dir(&crates).unwrap() {
        let src = entry.unwrap().path().join("src");
        if src.is_dir() {
            println!("cargo:rerun-if-changed={}", src.display());
        }
    }
    let hash = hash::source_hash(&crates).expect("the workspace source is readable");
    println!("cargo:rustc-env=DAC_SOURCE_HASH={hash:016x}");
}

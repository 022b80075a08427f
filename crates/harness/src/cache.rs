//! Content-addressed result cache.
//!
//! Every simulation is deterministic, so a result is fully determined by
//! its job's canonical key (workload, scale, design, relevant overrides,
//! cache version — see [`Job::cache_key`]). Entries live one-per-file under
//! the cache directory, named by the FNV-1a hash of the key; the full key
//! is stored inside the entry and verified on load, so a hash collision
//! degrades to a cache miss instead of returning a wrong result.

use crate::job::{Job, JobResult};
use crate::json;
use crate::{artifact, fnv1a64};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn count(name: &'static str, help: &'static str) {
    simt_obs::metrics::global().counter_add(name, help, &[], 1);
}

/// An on-disk result cache rooted at one directory.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ResultCache { dir: dir.into() }
    }

    /// The default location, `results/cache/`, relative to the repo root
    /// (or whatever the current directory is).
    pub fn default_dir() -> PathBuf {
        PathBuf::from("results").join("cache")
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The on-disk path of the entry for `key` (whether or not it exists).
    /// File names are the FNV-1a hash of the canonical key — the same hash
    /// [`entry_path_for_hash`](ResultCache::entry_path_for_hash) addresses,
    /// which is how the sweep service serves `GET /runs/:key`.
    pub fn entry_path(&self, key: &str) -> PathBuf {
        self.entry_path_for_hash(fnv1a64(key.as_bytes()))
    }

    /// The on-disk path of the entry named by a key hash.
    pub fn entry_path_for_hash(&self, hash: u64) -> PathBuf {
        self.dir.join(format!("{hash:016x}.json"))
    }

    /// Read the raw JSON record stored under a key hash, if present and
    /// well-formed (`dac-run/v1` with a matching embedded key hash). Used
    /// by the sweep service to serve cached artifacts without re-encoding.
    pub fn load_raw_by_hash(&self, hash: u64) -> Option<String> {
        let path = self.entry_path_for_hash(hash);
        let text = fs::read_to_string(&path).ok()?;
        let parsed = json::parse(&text)
            .ok()
            .filter(|v| match artifact::from_json(v) {
                Ok((key, _)) => fnv1a64(key.as_bytes()) == hash,
                Err(_) => false,
            });
        if parsed.is_none() {
            self.evict_corrupt(&path, hash);
            return None;
        }
        Some(text)
    }

    /// Look up a job: [`ResultCache::load_by_key`] of its cache key.
    pub fn load(&self, job: &Job) -> Option<JobResult> {
        self.load_by_key(&job.cache_key())
    }

    /// Look up the result stored under a canonical cache key (see
    /// [`crate::cache_key`]). A missing file is a plain miss; a file that
    /// exists but does not parse back to exactly this key (truncated
    /// write, disk corruption, stale schema, hash collision) is
    /// **evicted** — warned about once and deleted — so the run recomputes
    /// it instead of tripping over the same bad bytes on every sweep. The
    /// cache never fails a run.
    pub fn load_by_key(&self, key: &str) -> Option<JobResult> {
        let hash = fnv1a64(key.as_bytes());
        let path = self.entry_path_for_hash(hash);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => {
                count(
                    "simt_cache_misses_total",
                    "Result-cache lookups that missed.",
                );
                return None; // plain miss: nothing stored
            }
        };
        let result = json::parse(&text)
            .ok()
            .and_then(|v| artifact::from_json(&v).ok())
            .and_then(|(stored_key, result)| (stored_key == key).then_some(result));
        match &result {
            Some(_) => count(
                "simt_cache_hits_total",
                "Result-cache lookups served from disk.",
            ),
            None => {
                // The entry exists but is unusable (a hash collision also lands
                // here — indistinguishable from corruption, and equally safe to
                // recompute). Evict it so the fresh result can take its place.
                self.evict_corrupt(&path, hash);
                count(
                    "simt_cache_misses_total",
                    "Result-cache lookups that missed.",
                );
            }
        }
        result
    }

    fn evict_corrupt(&self, path: &Path, hash: u64) {
        count(
            "simt_cache_evictions_total",
            "Corrupt result-cache entries evicted and recomputed.",
        );
        simt_obs::warn!("harness.cache", "evicting corrupt cache entry (recomputing)";
            path = path.display().to_string(), hash = format!("{hash:016x}"));
        if let Err(e) = fs::remove_file(path) {
            simt_obs::warn!("harness.cache", "could not remove corrupt cache entry";
                path = path.display().to_string(), error = e.to_string());
        }
    }

    /// Store a fresh result. Write failures are reported but non-fatal
    /// (a read-only checkout still runs, just without caching); writes go
    /// through a temp file + rename so concurrent writers — processes, or
    /// pool workers storing the same key — never observe a torn entry.
    pub fn store(&self, job: &Job, result: &JobResult) {
        // One temp file per writer: process id plus a process-wide count.
        static WRITES: AtomicU64 = AtomicU64::new(0);
        let key = job.cache_key();
        let path = self.entry_path(&key);
        let record = artifact::to_json(job, result, None, Some(&key)).to_json();
        let write = || -> std::io::Result<()> {
            fs::create_dir_all(&self.dir)?;
            let writer = WRITES.fetch_add(1, Ordering::Relaxed);
            let tmp = path.with_extension(format!("tmp.{}.{writer}", std::process::id()));
            fs::write(&tmp, record.as_bytes())?;
            fs::rename(&tmp, &path)
        };
        match write() {
            Ok(()) => count(
                "simt_cache_stores_total",
                "Fresh results written to the cache.",
            ),
            Err(e) => {
                simt_obs::warn!("harness.cache", "cache write failed";
                    path = path.display().to_string(), error = e.to_string());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::DesignPoint;
    use gpu_workloads::{benchmark, Design};
    use std::sync::Arc;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dac-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_job() -> Job {
        let mut job = Job::new(
            Arc::new(benchmark("LIB", 1).unwrap()),
            1,
            DesignPoint::Hw(Design::Baseline),
        );
        job.overrides.num_sms = Some(2);
        job.overrides.max_warps_per_sm = Some(16);
        job
    }

    #[test]
    fn store_then_load_roundtrips() {
        let dir = tmp_dir("roundtrip");
        let cache = ResultCache::new(&dir);
        let job = small_job();
        assert!(cache.load(&job).is_none(), "cold cache must miss");
        let result = job.execute();
        cache.store(&job, &result);
        let hit = cache.load(&job).expect("warm cache must hit");
        assert!(hit.cached);
        assert_eq!(hit.report.cycles, result.report.cycles);
        assert_eq!(hit.report.stats, result.report.stats);
        assert_eq!(hit.report.mem, result.report.mem);
        assert_eq!(hit.output_digest, result.output_digest);
        // A different design misses even with the store populated.
        let other = Job {
            point: DesignPoint::PerfectMem,
            ..job.clone()
        };
        assert!(cache.load(&other).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_evicted_and_recomputable() {
        let dir = tmp_dir("corrupt");
        let cache = ResultCache::new(&dir);
        let job = small_job();
        let result = job.execute();
        cache.store(&job, &result);
        let path = cache.entry_path(&job.cache_key());

        // Truncated JSON (torn write): miss, and the bad file is evicted so
        // the recomputed result can be stored cleanly.
        fs::write(&path, b"{ not json").unwrap();
        assert!(cache.load(&job).is_none());
        assert!(!path.exists(), "corrupt entry must be evicted");

        // A fresh store + load works again after eviction.
        cache.store(&job, &result);
        assert!(cache.load(&job).is_some());

        // Key mismatch (simulated collision) is also evicted.
        let record =
            artifact::to_json(&job, &result, None, Some("dac-cache-v0|bench=???")).to_json();
        fs::write(&path, record).unwrap();
        assert!(cache.load(&job).is_none());
        assert!(!path.exists());

        // A missing entry is a plain miss: nothing to evict, no warning.
        assert!(cache.load(&job).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_stores_of_one_key_never_expose_a_torn_entry() {
        let dir = tmp_dir("concurrent");
        let cache = ResultCache::new(&dir);
        let job = small_job();
        let result = job.execute();
        let key = job.cache_key();
        cache.store(&job, &result);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        cache.store(&job, &result);
                    }
                });
            }
            // Every read while the writers race sees one whole entry.
            for _ in 0..200 {
                let hit = cache.load_by_key(&key).expect("torn or missing entry");
                assert_eq!(hit.report.cycles, result.report.cycles);
            }
        });
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names.len(), 1, "one entry and no temp file: {names:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn raw_access_by_hash() {
        let dir = tmp_dir("raw");
        let cache = ResultCache::new(&dir);
        let job = small_job();
        let result = job.execute();
        cache.store(&job, &result);
        let hash = fnv1a64(job.cache_key().as_bytes());
        let text = cache.load_raw_by_hash(hash).expect("raw entry readable");
        let (key, loaded) = artifact::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(key, job.cache_key());
        assert_eq!(loaded.report.cycles, result.report.cycles);
        // Unknown hash: None. Corrupt entry: evicted + None.
        assert!(cache.load_raw_by_hash(hash ^ 1).is_none());
        fs::write(cache.entry_path_for_hash(hash), b"garbage").unwrap();
        assert!(cache.load_raw_by_hash(hash).is_none());
        assert!(!cache.entry_path_for_hash(hash).exists());
        let _ = fs::remove_dir_all(&dir);
    }
}

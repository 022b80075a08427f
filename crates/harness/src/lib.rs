//! `simt-harness` — parallel experiment orchestration for the DAC
//! reproduction.
//!
//! The paper's evaluation is 29 workloads × 4 designs (plus a
//! perfect-memory run per workload for the §5.1.2 classification) — over a
//! hundred independent cycle-level simulations. This crate owns running
//! them at scale:
//!
//! * [`Job`] — one simulation: `workload × design × config overrides`;
//! * [`pool`] — a channel-based thread pool over `std::thread` with
//!   deterministic, index-ordered result aggregation (`--jobs N` output is
//!   bit-identical to a serial run);
//! * [`ResultCache`] — a content-addressed on-disk cache keyed by a stable
//!   hash of the job, so repeated invocations skip unchanged simulations;
//! * [`artifact`] — machine-readable JSONL records (hand-rolled
//!   serializer; the build environment is offline, so no serde) written
//!   under `results/runs/`.
//!
//! ```no_run
//! use simt_harness::{DesignPoint, Harness, Overrides, ResultCache};
//!
//! let benches = gpu_workloads::all_benchmarks(1);
//! let jobs = simt_harness::suite_jobs(
//!     benches, 1, &DesignPoint::HW_ALL, &Overrides::default());
//! let harness = Harness::new(4)
//!     .with_cache(ResultCache::new("results/cache"))
//!     .with_artifacts("results/runs");
//! let out = harness.run(&jobs);
//! for (job, result) in jobs.iter().zip(&out.results) {
//!     println!("{} {} cycles", job.label(), result.report.cycles);
//! }
//! ```

#![forbid(unsafe_code)]

pub mod artifact;
pub mod cache;
pub mod job;
pub mod json;
pub mod pool;

pub use cache::{fnv1a64, ResultCache};
pub use gpu_workloads::Design;
pub use job::{DesignPoint, Job, JobResult, Overrides, Payload, CACHE_VERSION};
pub use pool::WorkerPool;

use gpu_workloads::{Scenario, Workload};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

/// The cross product `workloads × points`, all at the same overrides —
/// the shape of every figure and sweep in the paper.
pub fn suite_jobs(
    workloads: Vec<Workload>,
    scale: u32,
    points: &[DesignPoint],
    overrides: &Overrides,
) -> Vec<Job> {
    workloads
        .into_iter()
        .flat_map(|w| {
            let w = Arc::new(w);
            points
                .iter()
                .map(|&point| Job {
                    payload: Payload::Bench(w.clone()),
                    scale,
                    point,
                    overrides: overrides.clone(),
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// The cross product `scenarios × points` for multi-kernel stream runs,
/// all at the same overrides (which carry the CTA placement policy).
pub fn scenario_jobs(
    scenarios: Vec<Scenario>,
    scale: u32,
    points: &[DesignPoint],
    overrides: &Overrides,
) -> Vec<Job> {
    scenarios
        .into_iter()
        .flat_map(|sc| {
            let sc = Arc::new(sc);
            points
                .iter()
                .map(|&point| Job {
                    payload: Payload::Scenario(sc.clone()),
                    scale,
                    point,
                    overrides: overrides.clone(),
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// What one [`Harness::run`] invocation did.
#[derive(Debug)]
pub struct RunOutput {
    /// One result per job, in job order — independent of worker count.
    pub results: Vec<JobResult>,
    /// The JSONL artifact written for this run, when artifacts are on.
    pub artifact_path: Option<PathBuf>,
    /// Jobs served from the cache.
    pub cache_hits: usize,
    /// Jobs actually simulated.
    pub executed: usize,
    /// Trace events evicted from ring buffers across all traced jobs
    /// (0 when tracing is off). Non-zero means exported timelines are
    /// truncated to the newest events; CLIs surface this as a warning.
    pub trace_drops: u64,
    /// Number of traced jobs that dropped at least one event.
    pub trace_dropped_jobs: usize,
}

/// Where and how much to trace when the harness runs with tracing on.
#[derive(Debug, Clone)]
pub struct TraceSpec {
    /// Directory receiving one Chrome-JSON + one JSONL file per job.
    pub dir: PathBuf,
    /// Ring-buffer capacity: the newest `events` events are kept.
    pub events: usize,
}

/// The experiment orchestrator: a worker count plus optional cache,
/// artifact, and trace sinks.
#[derive(Debug, Clone)]
pub struct Harness {
    workers: usize,
    cache: Option<ResultCache>,
    artifact_dir: Option<PathBuf>,
    trace: Option<TraceSpec>,
    verbose: bool,
}

impl Harness {
    /// A harness running `workers` simulations concurrently, with caching
    /// and artifacts off (CLIs opt in; library callers stay side-effect
    /// free by default).
    pub fn new(workers: usize) -> Self {
        Harness {
            workers: workers.max(1),
            cache: None,
            artifact_dir: None,
            trace: None,
            verbose: false,
        }
    }

    /// A single-threaded harness — the reference ordering.
    pub fn serial() -> Self {
        Harness::new(1)
    }

    /// Attach a result cache.
    pub fn with_cache(mut self, cache: ResultCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Write a JSONL artifact per `run` call into `dir`.
    pub fn with_artifacts(mut self, dir: impl Into<PathBuf>) -> Self {
        self.artifact_dir = Some(dir.into());
        self
    }

    /// Trace every job into `dir` (one Chrome-JSON + one JSONL file per
    /// job, keeping the newest `events` events). Tracing forces execution:
    /// cache reads are skipped so each job actually simulates and emits its
    /// timeline — results are still stored back, and stay byte-identical to
    /// untraced runs.
    pub fn with_trace(mut self, dir: impl Into<PathBuf>, events: usize) -> Self {
        self.trace = Some(TraceSpec {
            dir: dir.into(),
            events,
        });
        self
    }

    /// Print per-job progress to stderr.
    pub fn verbose(mut self, on: bool) -> Self {
        self.verbose = on;
        self
    }

    /// The worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// [`Harness::try_run`] for callers whose jobs are known to be
    /// runnable.
    ///
    /// # Panics
    ///
    /// Panics with the failure lines if any job can never run, and
    /// propagates simulator panics (correctness violations, deadlock
    /// guard) from worker threads.
    pub fn run(&self, jobs: &[Job]) -> RunOutput {
        self.try_run(jobs)
            .unwrap_or_else(|failures| panic!("{}", failures.join("\n")))
    }

    /// Run every job: serve cache hits, simulate misses on the pool, store
    /// fresh results, and append one artifact line per job (in job order).
    ///
    /// Nothing is simulated unless every job passes [`Job::check`]:
    /// otherwise `Err` holds one `label: reason` line per job that can
    /// never run on its configured machine — how untrusted `--set`
    /// overrides fail, instead of a launch-validation panic on a worker.
    ///
    /// # Panics
    ///
    /// Propagates simulator panics (correctness violations, deadlock
    /// guard) from worker threads.
    pub fn try_run(&self, jobs: &[Job]) -> Result<RunOutput, Vec<String>> {
        let failures: Vec<String> = jobs
            .iter()
            .filter_map(|job| Some(format!("{}: {}", job.label(), job.check().err()?)))
            .collect();
        if !failures.is_empty() {
            return Err(failures);
        }
        let mut results: Vec<Option<JobResult>> = vec![None; jobs.len()];
        let mut misses: Vec<(usize, Job)> = Vec::new();
        for (i, job) in jobs.iter().enumerate() {
            // Tracing forces execution: a cache hit has no timeline.
            let hit = if self.trace.is_some() {
                None
            } else {
                self.cache.as_ref().and_then(|c| c.load(job))
            };
            match hit {
                Some(hit) => {
                    if self.verbose {
                        eprintln!("  {:<20} cached", job.label());
                    }
                    results[i] = Some(hit);
                }
                None => misses.push((i, job.clone())),
            }
        }
        let cache_hits = jobs.len() - misses.len();
        let executed = misses.len();

        let verbose = self.verbose;
        let trace = self.trace.clone();
        let fresh = pool::run_indexed(self.workers, misses, move |_, (i, job)| {
            let (result, dropped) = match &trace {
                None => (job.execute(), 0),
                Some(spec) => {
                    let mut sink = simt_trace::RingSink::new(spec.events);
                    let result = job.execute_traced(&mut sink);
                    if let Err(e) = write_trace(&spec.dir, &job, &sink) {
                        simt_obs::warn!("harness.run", "trace write failed";
                            job = job.label(), error = e.to_string());
                    }
                    (result, sink.dropped())
                }
            };
            if verbose {
                eprintln!("  {:<20} ok ({:.1}s)", job.label(), result.wall_ms / 1e3);
            }
            (i, job, result, dropped)
        });
        let mut trace_drops = 0u64;
        let mut trace_dropped_jobs = 0usize;
        for (i, job, result, dropped) in fresh {
            if let Some(cache) = &self.cache {
                cache.store(&job, &result);
            }
            trace_drops += dropped;
            trace_dropped_jobs += usize::from(dropped > 0);
            results[i] = Some(result);
        }
        let results: Vec<JobResult> = results
            .into_iter()
            .map(|r| r.expect("job neither cached nor executed"))
            .collect();

        let artifact_path = self
            .artifact_dir
            .as_ref()
            .map(|dir| write_artifact(dir, jobs, &results))
            .transpose()
            .unwrap_or_else(|e| {
                simt_obs::warn!("harness.run", "artifact write failed"; error = e.to_string());
                None
            });

        Ok(RunOutput {
            results,
            artifact_path,
            cache_hits,
            executed,
            trace_drops,
            trace_dropped_jobs,
        })
    }
}

/// Write one Chrome-JSON and one `dac-trace/v1` JSONL file for a traced
/// job into `dir`, returning their paths in that order. File names fold in
/// workload, scale, and design so a sweep's traces land side by side
/// without clobbering each other.
pub fn write_trace(
    dir: &Path,
    job: &Job,
    sink: &simt_trace::RingSink,
) -> std::io::Result<[PathBuf; 2]> {
    fs::create_dir_all(dir)?;
    let stem = format!(
        "{}-s{}-{}",
        job.bench().to_ascii_lowercase(),
        job.scale,
        job.point.name()
    );
    let paths = [
        dir.join(format!("{stem}.trace.json")),
        dir.join(format!("{stem}.trace.jsonl")),
    ];
    let chrome = simt_trace::chrome::export(sink.events(), sink.dropped());
    fs::write(&paths[0], chrome)?;
    let scale = job.scale.to_string();
    let meta = [
        ("bench", job.bench()),
        ("scale", scale.as_str()),
        ("design", job.point.name()),
    ];
    let jsonl = simt_trace::jsonl::export(sink.events(), &meta, sink.dropped());
    fs::write(&paths[1], jsonl)?;
    Ok(paths)
}

/// Write one JSONL line per job into a fresh file under `dir`.
fn write_artifact(dir: &PathBuf, jobs: &[Job], results: &[JobResult]) -> std::io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default();
    let path = dir.join(format!(
        "run-{}-{:03}-{}.jsonl",
        now.as_secs(),
        now.subsec_millis(),
        std::process::id()
    ));
    let mut file = fs::File::create(&path)?;
    for (i, (job, result)) in jobs.iter().zip(results).enumerate() {
        let line = artifact::to_json(job, result, Some(i), None).to_json();
        writeln!(file, "{line}")?;
    }
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_workloads::benchmark;

    fn small_overrides() -> Overrides {
        Overrides {
            num_sms: Some(2),
            max_warps_per_sm: Some(16),
            ..Overrides::default()
        }
    }

    fn small_suite() -> Vec<Job> {
        let benches = vec![benchmark("LIB", 1).unwrap(), benchmark("MQ", 1).unwrap()];
        suite_jobs(benches, 1, &DesignPoint::HW_ALL, &small_overrides())
    }

    #[test]
    fn run_without_sinks_is_pure() {
        let jobs = small_suite();
        let out = Harness::new(2).run(&jobs);
        assert_eq!(out.results.len(), 8);
        assert_eq!(out.cache_hits, 0);
        assert_eq!(out.executed, 8);
        assert!(out.artifact_path.is_none());
        for r in &out.results {
            assert!(r.report.cycles > 0);
            assert!(!r.cached);
        }
    }

    #[test]
    fn unrunnable_jobs_fail_in_one_line_each_and_simulate_nothing() {
        // LIB's 4-warp CTAs fit 4 warp slots per SM; AES's 8-warp CTAs
        // never can.
        let overrides = Overrides {
            max_warps_per_sm: Some(4),
            ..small_overrides()
        };
        let benches = vec![benchmark("LIB", 1).unwrap(), benchmark("AES", 1).unwrap()];
        let jobs = suite_jobs(benches, 1, &DesignPoint::HW_ALL, &overrides);
        let dir = std::env::temp_dir().join(format!("dac-unrunnable-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let failures = Harness::new(2)
            .with_artifacts(&dir)
            .try_run(&jobs)
            .expect_err("AES cannot be placed");
        assert_eq!(failures.len(), 4, "{failures:?}");
        for (line, design) in failures.iter().zip(["baseline", "cae", "mta", "dac"]) {
            assert!(
                line.starts_with(&format!("AES/{design}: kernel aes can never be placed")),
                "{line}"
            );
            assert!(!line.contains('\n'), "{line}");
        }
        assert!(!dir.exists(), "nothing may run or be written");
    }

    #[test]
    fn cache_serves_second_invocation() {
        let dir = std::env::temp_dir().join(format!("dac-harness-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let jobs = small_suite();
        let h = Harness::new(4).with_cache(ResultCache::new(dir.join("cache")));
        let first = h.run(&jobs);
        assert_eq!(first.executed, jobs.len());
        let second = h.run(&jobs);
        assert_eq!(second.cache_hits, jobs.len());
        assert_eq!(second.executed, 0);
        for (a, b) in first.results.iter().zip(&second.results) {
            assert_eq!(a.report.cycles, b.report.cycles);
            assert_eq!(a.report.stats, b.report.stats);
            assert_eq!(a.report.mem, b.report.mem);
            assert_eq!(a.output_digest, b.output_digest);
            assert!(b.cached);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn artifacts_have_one_line_per_job() {
        let dir = std::env::temp_dir().join(format!("dac-artifacts-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let jobs = small_suite();
        let out = Harness::new(2).with_artifacts(dir.join("runs")).run(&jobs);
        let path = out.artifact_path.expect("artifact written");
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), jobs.len());
        for (i, line) in lines.iter().enumerate() {
            let v = json::parse(line).expect("line parses");
            let (_, loaded) = artifact::from_json(&v).expect("line loads");
            assert_eq!(v.get("job").and_then(json::Value::as_u64), Some(i as u64));
            assert_eq!(loaded.report.cycles, out.results[i].report.cycles);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn suite_jobs_is_the_cross_product() {
        let jobs = small_suite();
        assert_eq!(jobs.len(), 8);
        assert_eq!(jobs[0].bench(), "LIB");
        assert_eq!(jobs[0].point, DesignPoint::Hw(Design::Baseline));
        assert_eq!(jobs[3].point, DesignPoint::Hw(Design::Dac));
        assert_eq!(jobs[4].bench(), "MQ");
    }
}

//! `simt-harness` — parallel experiment orchestration for the DAC
//! reproduction.
//!
//! The paper's evaluation is 29 workloads × 4 designs (plus a
//! perfect-memory run per workload for the §5.1.2 classification) — over a
//! hundred independent cycle-level simulations. This crate owns running
//! them at scale:
//!
//! * [`Job`] — one simulation: `workload × design × config overrides`;
//! * [`KNOBS`] — the one table of configuration knobs (`--set KEY=VALUE`);
//! * [`WorkerPool`] — the one thread pool over `std::thread`: non-blocking
//!   submission for the sweep service, and batches whose results come
//!   back in item order (`--jobs N` output is bit-identical to a serial
//!   run);
//! * [`Harness::resolve`] — the one path from a cache key to a result:
//!   a store hit, or check, execute, catch a panic, and store;
//! * [`ResultCache`] — a content-addressed on-disk cache keyed by a stable
//!   hash of the job, so repeated invocations skip unchanged simulations;
//! * [`artifact`] — machine-readable JSONL records (hand-rolled
//!   serializer; the build environment is offline, so no serde) written
//!   under `results/runs/`;
//! * [`Observe`] — the one place a run gets an event sink attached: a
//!   timeline per job, or one bottleneck report over the whole run.
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
pub mod knobs;
pub mod pool;

pub use cache::{fnv1a64, ResultCache};
pub use gpu_workloads::Design;
pub use job::{
    cache_key, DesignPoint, Job, JobResult, Overrides, Payload, PayloadKind, CACHE_VERSION,
};
pub use knobs::{refuse_idle_knobs, Knob, KNOBS};
pub use pool::{panic_message, WorkerPool};

use gpu_workloads::{Scenario, Workload};
use simt_profile::{report, DesignProfile, ProfileSink, WorkloadProfile};
use std::any::Any;
use std::fs;
use std::io::{self, Write as _};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
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
    let payloads = workloads.into_iter().map(|w| Payload::Bench(Arc::new(w)));
    cross(payloads, scale, points, overrides)
}

/// The cross product `scenarios × points` for multi-kernel stream runs,
/// all at the same overrides (which carry the CTA placement policy).
pub fn scenario_jobs(
    scenarios: Vec<Scenario>,
    scale: u32,
    points: &[DesignPoint],
    overrides: &Overrides,
) -> Vec<Job> {
    let payloads = scenarios
        .into_iter()
        .map(|s| Payload::Scenario(Arc::new(s)));
    cross(payloads, scale, points, overrides)
}

fn cross(
    payloads: impl Iterator<Item = Payload>,
    scale: u32,
    points: &[DesignPoint],
    overrides: &Overrides,
) -> Vec<Job> {
    payloads
        .flat_map(|payload| {
            points.iter().map(move |&point| Job {
                payload: payload.clone(),
                scale,
                point,
                overrides: overrides.clone(),
            })
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
    /// The bottleneck report written for this run (`report.md`,
    /// `profile.json`), when profiling is on.
    pub profile_paths: Option<[PathBuf; 2]>,
}

/// What a harness attaches to every job it executes. Observing forces
/// execution: cache reads are skipped so each job actually simulates and
/// emits its events. Results are still stored back, and stay
/// byte-identical to unobserved runs.
#[derive(Debug, Clone)]
pub enum Observe {
    /// Trace every job: one Chrome-JSON and one `dac-trace/v1` JSONL file
    /// per job into `dir`.
    Trace {
        /// Directory receiving the timelines.
        dir: PathBuf,
        /// Ring-buffer capacity: the newest `events` events are kept.
        events: usize,
    },
    /// Profile every job and write one bottleneck report over the run
    /// (`report.md` + `profile.json`) into this directory.
    Profile(PathBuf),
}

/// The experiment orchestrator: a worker count plus optional cache,
/// artifacts, and observer.
#[derive(Debug, Clone)]
pub struct Harness {
    workers: usize,
    cache: Option<ResultCache>,
    artifact_dir: Option<PathBuf>,
    observe: Option<Observe>,
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
            observe: None,
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

    /// Attach an observer to every job this harness executes.
    pub fn observe(mut self, observe: Observe) -> Self {
        self.observe = Some(observe);
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

    /// Run every job through [`Harness::resolve`] on a
    /// [`WorkerPool::batch`]: cache hits are served, misses simulated and
    /// stored, and one artifact line is appended per job (in job order).
    ///
    /// Nothing is simulated unless every job passes [`Job::check`]:
    /// otherwise `Err` holds one `label: reason` line per job that can
    /// never run on its configured machine — how untrusted `--set`
    /// overrides fail, instead of a launch-validation panic on a worker.
    ///
    /// # Panics
    ///
    /// Propagates simulator panics (correctness violations, deadlock
    /// guard) from worker threads with their original payload.
    pub fn try_run(&self, jobs: &[Job]) -> Result<RunOutput, Vec<String>> {
        let failures: Vec<String> = jobs
            .iter()
            .filter_map(|job| Some(format!("{}: {}", job.label(), job.check().err()?)))
            .collect();
        if !failures.is_empty() {
            return Err(failures);
        }
        let harness = self.clone();
        let resolved = WorkerPool::batch(self.workers, jobs.to_vec(), move |job: Job| {
            let (key, label) = (job.cache_key(), job.label());
            match harness.resolve(&key, &label, || Some(job)) {
                Resolved::Failed(payload) => resume_unwind(payload),
                resolved => resolved,
            }
        });
        let (mut cache_hits, mut trace_drops, mut trace_dropped_jobs) = (0, 0, 0);
        // Observed runs execute every job, so `profiles` is in job order.
        let mut profiles = Vec::new();
        let results: Vec<JobResult> = resolved
            .into_iter()
            .map(|r| match r {
                Resolved::Hit(result) => {
                    cache_hits += 1;
                    result
                }
                Resolved::Executed {
                    result,
                    trace_drops: dropped,
                    profile,
                } => {
                    trace_drops += dropped;
                    trace_dropped_jobs += usize::from(dropped > 0);
                    profiles.extend(profile.map(|p| *p));
                    result
                }
                Resolved::Declined | Resolved::Failed(_) => {
                    unreachable!("every job builds, and failures unwound")
                }
            })
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
        let profile_paths = match &self.observe {
            Some(Observe::Profile(dir)) => write_profile(dir, jobs, profiles)
                .map(Some)
                .unwrap_or_else(|e| {
                    simt_obs::warn!("harness.run", "profile write failed"; error = e.to_string());
                    None
                }),
            _ => None,
        };

        Ok(RunOutput {
            results,
            artifact_path,
            cache_hits,
            executed: jobs.len() - cache_hits,
            trace_drops,
            trace_dropped_jobs,
            profile_paths,
        })
    }

    /// The one path from a cache key to a result, for `sweep` and the
    /// sweep service alike. A hit is one [`ResultCache::load_by_key`] of
    /// `key` and builds nothing (observing forces execution, so an
    /// observed harness skips the lookup). On a miss `job` builds the job
    /// — `None` declines, and nothing runs — which is then checked,
    /// executed under the harness's [`Observe`] with panics caught, and
    /// stored. `key` must be the built job's [`Job::cache_key`], and
    /// `label` its [`Job::label`] (for progress lines).
    pub fn resolve(&self, key: &str, label: &str, job: impl FnOnce() -> Option<Job>) -> Resolved {
        let cache = self.cache.as_ref().filter(|_| self.observe.is_none());
        if let Some(hit) = cache.and_then(|c| c.load_by_key(key)) {
            if self.verbose {
                eprintln!("  {label:<20} cached");
            }
            return Resolved::Hit(hit);
        }
        let Some(job) = job() else {
            return Resolved::Declined;
        };
        if let Err(reason) = job.check() {
            return Resolved::Failed(Box::new(reason));
        }
        let executed = catch_unwind(AssertUnwindSafe(|| self.execute(&job)));
        let (result, trace_drops, profile) = match executed {
            Ok(executed) => executed,
            Err(payload) => return Resolved::Failed(payload),
        };
        if let Some(cache) = &self.cache {
            cache.store(&job, &result);
        }
        if self.verbose {
            eprintln!("  {label:<20} ok ({:.1}s)", result.wall_ms / 1e3);
        }
        Resolved::Executed {
            result,
            trace_drops,
            profile,
        }
    }

    /// Execute `job` under the harness's observer: the result, the trace
    /// events its ring buffer dropped, and its profile when profiling.
    fn execute(&self, job: &Job) -> (JobResult, u64, Option<Box<DesignProfile>>) {
        match &self.observe {
            None => (job.execute(), 0, None),
            Some(Observe::Trace { dir, events }) => {
                let mut sink = simt_trace::RingSink::new(*events);
                let result = job.execute_traced(&mut sink);
                if let Err(e) = write_trace(dir, job, &sink) {
                    simt_obs::warn!("harness.run", "trace write failed";
                        job = job.label(), error = e.to_string());
                }
                (result, sink.dropped(), None)
            }
            Some(Observe::Profile(_)) => {
                let mut sink = ProfileSink::new(job.profile_cutoff());
                let result = job.execute_traced(&mut sink);
                let profile = DesignProfile::new(job.point.name(), &result.report, sink);
                (result, 0, Some(Box::new(profile)))
            }
        }
    }
}

/// How [`Harness::resolve`] settled one job.
pub enum Resolved {
    /// Served from the store; nothing was built.
    Hit(JobResult),
    /// Simulated and stored.
    Executed {
        /// The fresh result.
        result: JobResult,
        /// Trace events the job's ring buffer dropped (0 untraced).
        trace_drops: u64,
        /// The job's profile, when the harness profiles.
        profile: Option<Box<DesignProfile>>,
    },
    /// The job builder declined (returned `None`); nothing ran.
    Declined,
    /// The job can never run (a `String` payload: [`Job::check`]'s reason), or the
    /// simulator panicked (its payload). [`panic_message`] reads either.
    Failed(Box<dyn Any + Send>),
}

/// Write one Chrome-JSON and one `dac-trace/v1` JSONL file for a traced
/// job into `dir`. File names fold in workload, scale, and design so a
/// sweep's traces land side by side without clobbering each other.
fn write_trace(dir: &Path, job: &Job, sink: &simt_trace::RingSink) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let stem = format!(
        "{}-s{}-{}",
        job.bench().to_ascii_lowercase(),
        job.scale,
        job.point.name()
    );
    let chrome = simt_trace::chrome::export(sink.events(), sink.dropped());
    fs::write(dir.join(format!("{stem}.trace.json")), chrome)?;
    let scale = job.scale.to_string();
    let meta = [
        ("bench", job.bench()),
        ("scale", scale.as_str()),
        ("design", job.point.name()),
    ];
    let jsonl = simt_trace::jsonl::export(sink.events(), &meta, sink.dropped());
    fs::write(dir.join(format!("{stem}.trace.jsonl")), jsonl)
}

/// Write the bottleneck report of a profiled run into `dir`: one
/// [`WorkloadProfile`] per payload (consecutive jobs on the same payload,
/// one column per design, in job order), rendered as `report.md` and as
/// the `dac-profile/v1` `profile.json`, which must parse back. Returns the
/// two paths in that order.
fn write_profile(
    dir: &Path,
    jobs: &[Job],
    profiles: Vec<DesignProfile>,
) -> io::Result<[PathBuf; 2]> {
    let mut workloads: Vec<WorkloadProfile> = Vec::new();
    for (job, profile) in jobs.iter().zip(profiles) {
        match workloads.last_mut() {
            Some(wp) if wp.bench == job.bench() && wp.scale == job.scale => {
                wp.designs.push(profile);
            }
            _ => workloads.push(WorkloadProfile {
                bench: job.bench().to_string(),
                scale: job.scale,
                designs: vec![profile],
            }),
        }
    }
    let md = report::markdown(&workloads);
    let js = report::json(&workloads);
    json::parse(&js).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("profile.json is invalid JSON: {e}"),
        )
    })?;
    fs::create_dir_all(dir)?;
    let paths = [dir.join("report.md"), dir.join("profile.json")];
    fs::write(&paths[0], md)?;
    fs::write(&paths[1], js)?;
    Ok(paths)
}

/// Write one JSONL line per job into a fresh file under `dir`.
fn write_artifact(dir: &PathBuf, jobs: &[Job], results: &[JobResult]) -> io::Result<PathBuf> {
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
    fn a_hit_builds_nothing_and_a_miss_builds_once() {
        let dir = std::env::temp_dir().join(format!("dac-resolve-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let harness = Harness::serial().with_cache(ResultCache::new(&dir));
        let job = small_suite().remove(0);
        let (key, label) = (job.cache_key(), job.label());
        let builds = std::cell::Cell::new(0);
        let build = || {
            builds.set(builds.get() + 1);
            Some(job.clone())
        };
        // A builder that declines leaves the point unresolved and unstored.
        assert!(matches!(
            harness.resolve(&key, &label, || None),
            Resolved::Declined
        ));
        assert!(matches!(
            harness.resolve(&key, &label, build),
            Resolved::Executed { .. }
        ));
        assert_eq!(builds.get(), 1, "a miss builds the job once");
        for _ in 0..3 {
            assert!(matches!(
                harness.resolve(&key, &label, build),
                Resolved::Hit(_)
            ));
        }
        assert_eq!(builds.get(), 1, "a hit builds nothing");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_unrunnable_job_fails_with_its_reason() {
        let mut job = small_suite().remove(0);
        job.overrides.max_warps_per_sm = Some(1);
        let reason = job.check().expect_err("LIB needs 4 warp slots");
        let resolved = Harness::serial().resolve(&job.cache_key(), &job.label(), || Some(job));
        let Resolved::Failed(payload) = resolved else {
            panic!("an unrunnable job must fail");
        };
        assert_eq!(panic_message(&*payload), reason);
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

//! The sweep service core: a job queue with **single-flight semantics**
//! over the shared result store.
//!
//! Every submitted grid lowers to harness jobs and canonicalizes each
//! point to its cache key. The key's hash is the point's identity in a
//! service-wide registry: the first sweep to name a point *owns* it (the
//! service enqueues it once), and every later sweep naming the same point
//! — concurrently or after the fact — **shares** the one run. Combined
//! with the on-disk content-addressed cache this gives the three regimes
//! the north star asks for:
//!
//! * cold point → simulated once, stored, served to everyone;
//! * point in flight → second submitter attaches to the running job;
//! * warm point → resolved from the store, zero execution.
//!
//! Execution happens on a [`WorkerPool`] (non-blocking submission), so
//! the daemon keeps accepting requests while earlier grids simulate.
//! Progress is durable without any progress file: a point is done iff its
//! result is in the cache, so a restarted daemon re-enqueues manifest
//! points and the finished ones resolve instantly as cache hits.

use crate::grid::GridRequest;
use crate::manifest;
use simt_harness::{json, Job, ResultCache, WorkerPool};
use simt_obs::metrics::{Registry, SeriesValue};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Schema tag on every status/metrics/receipt document the service emits.
pub const SCHEMA: &str = "dac-serve/v1";

/// Schema tag on `GET /sweeps/:id/events` documents.
pub const EVENTS_SCHEMA: &str = "dac-sweep-events/v1";

/// Per-sweep event journal capacity. The journal is a bounded window over
/// the sweep's history: when it overflows, the oldest events are dropped
/// and reported in the `dropped` count of every subsequent poll.
const EVENT_CAP: usize = 4096;

// Histogram shapes (uniform bucket width × bucket count; the last bucket
// absorbs the tail). HTTP requests: 200µs grain out to ~25ms. Point wall
// time: 250ms grain out to ~60s. Throughput: 100k cycles/s grain.
const HTTP_LAT_US: (u64, usize) = (200, 128);
const POINT_WALL_US: (u64, usize) = (250_000, 240);
const POINT_CPS: (u64, usize) = (100_000, 128);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Results root: the cache lives in `<results>/cache`, manifests in
    /// `<results>/sweeps` — the same layout the CLI tools use, so the
    /// daemon warms up from (and feeds) every prior one-shot sweep.
    pub results_dir: PathBuf,
    /// Simulation worker threads.
    pub workers: usize,
    /// Execute at most this many *fresh* simulations this session (cache
    /// hits are free). When the budget runs out, remaining points stay
    /// queued and resume on the next session — time-boxed incremental
    /// warming for CI, and a deterministic way to stop a daemon
    /// mid-sweep.
    pub execute_budget: Option<usize>,
    /// Per-point progress lines on stderr.
    pub verbose: bool,
}

impl ServeConfig {
    /// A daemon over `results/` with `workers` threads and no budget.
    pub fn new(results_dir: impl Into<PathBuf>, workers: usize) -> Self {
        ServeConfig {
            results_dir: results_dir.into(),
            workers,
            execute_budget: None,
            verbose: false,
        }
    }
}

/// How a completed point got its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Resolution {
    /// Simulated fresh by this daemon session.
    Executed,
    /// Served from the on-disk result store.
    CacheHit,
}

#[derive(Debug, Clone)]
enum PointStatus {
    Queued,
    Running,
    Done { cycles: u64, resolution: Resolution },
    Failed(String),
}

impl PointStatus {
    fn is_terminal(&self) -> bool {
        matches!(self, PointStatus::Done { .. } | PointStatus::Failed(_))
    }

    fn name(&self) -> &'static str {
        match self {
            PointStatus::Queued => "queued",
            PointStatus::Running => "running",
            PointStatus::Done { .. } => "done",
            PointStatus::Failed(_) => "failed",
        }
    }
}

/// One entry in the single-flight registry.
struct PointEntry {
    job: Job,
    label: String,
    /// The sweep that first named this point (and thus enqueued it).
    owner: String,
    status: PointStatus,
}

/// One entry in a sweep's bounded event journal (see
/// [`SweepService::sweep_events`]).
#[derive(Debug, Clone)]
struct SweepEvent {
    seq: u64,
    /// `started` | `finished` | `failed` | `complete`.
    kind: &'static str,
    label: String,
    /// Point key hash (16 hex digits); empty for sweep-level events.
    run: String,
    /// `executed` | `cache_hit`, on `finished` events.
    resolution: Option<&'static str>,
    wall_us: Option<u64>,
    cycles: Option<u64>,
    error: Option<String>,
}

impl SweepEvent {
    fn to_json(&self) -> json::Value {
        let mut fields = vec![
            ("seq".into(), json::Value::Int(self.seq)),
            ("kind".into(), json::Value::Str(self.kind.into())),
            ("label".into(), json::Value::Str(self.label.clone())),
            ("run".into(), json::Value::Str(self.run.clone())),
        ];
        if let Some(r) = self.resolution {
            fields.push(("resolution".into(), json::Value::Str(r.into())));
        }
        if let Some(w) = self.wall_us {
            fields.push(("wall_us".into(), json::Value::Int(w)));
        }
        if let Some(c) = self.cycles {
            fields.push(("cycles".into(), json::Value::Int(c)));
        }
        if let Some(e) = &self.error {
            fields.push(("error".into(), json::Value::Str(e.clone())));
        }
        json::Value::Obj(fields)
    }
}

struct SweepState {
    hashes: Vec<u64>,
    submitted: Instant,
    /// Wall seconds from submission to the last point completing.
    done_wall_s: Option<f64>,
    /// Bounded journal of point lifecycle events, seq-numbered from 0.
    events: VecDeque<SweepEvent>,
    next_seq: u64,
    /// Events pushed out of the bounded journal before anyone read them.
    dropped_events: u64,
    /// Log-correlation span id shared by this sweep's structured events.
    span: u64,
}

impl SweepState {
    fn push_event(&mut self, mut event: SweepEvent) {
        event.seq = self.next_seq;
        self.next_seq += 1;
        if self.events.len() == EVENT_CAP {
            self.events.pop_front();
            self.dropped_events += 1;
        }
        self.events.push_back(event);
    }
}

struct State {
    points: HashMap<u64, PointEntry>,
    sweeps: BTreeMap<String, SweepState>,
    /// Fresh simulations this session.
    executed: u64,
    /// Points resolved from the on-disk store this session.
    cache_hits: u64,
    /// Submitted points that attached to an existing entry (single-flight
    /// shares plus resubmissions).
    shared_submissions: u64,
    failed: u64,
    budget_left: Option<usize>,
    /// Dispatched pool tasks not yet finished (for idle detection).
    pending: usize,
    stopping: bool,
}

impl State {
    /// Append a point lifecycle event to the journal of every sweep that
    /// names `hash`. Callers must hold the state lock and notify the
    /// condvar afterwards (event polls wait on it).
    fn push_point_event(&mut self, hash: u64, event: SweepEvent) {
        for sweep in self.sweeps.values_mut() {
            if sweep.done_wall_s.is_none() && sweep.hashes.contains(&hash) {
                sweep.push_event(event.clone());
            }
        }
    }
}

/// What a submission did, point-count wise, **at submission time**.
#[derive(Debug, Clone)]
pub struct Receipt {
    /// Content-addressed sweep id.
    pub id: String,
    /// True when this exact grid was already registered (the receipt then
    /// describes the existing sweep; nothing was enqueued).
    pub resubmitted: bool,
    /// Points in the grid.
    pub total: usize,
    /// Points newly enqueued by this submission.
    pub new: usize,
    /// Points already complete when this submission arrived.
    pub already_done: usize,
    /// Points owned by another sweep and still in flight — this
    /// submission shares their (single) run.
    pub inflight_shared: usize,
}

impl Receipt {
    /// The receipt as a `dac-serve/v1` JSON document.
    pub fn to_json(&self) -> json::Value {
        json::Value::Obj(vec![
            ("schema".into(), json::Value::Str(SCHEMA.into())),
            ("id".into(), json::Value::Str(self.id.clone())),
            ("resubmitted".into(), json::Value::Bool(self.resubmitted)),
            ("total".into(), json::Value::Int(self.total as u64)),
            ("new".into(), json::Value::Int(self.new as u64)),
            (
                "already_done".into(),
                json::Value::Int(self.already_done as u64),
            ),
            (
                "inflight_shared".into(),
                json::Value::Int(self.inflight_shared as u64),
            ),
        ])
    }
}

/// The long-lived sweep service. Cheap to share: wrap it in an [`Arc`]
/// and hand clones to the HTTP layer and to tests.
pub struct SweepService {
    cfg: ServeConfig,
    cache: ResultCache,
    state: Arc<(Mutex<State>, Condvar)>,
    pool: WorkerPool,
    started: Instant,
    /// Service-local metric registry (endpoint latency, point histograms,
    /// session counters). Per-instance so concurrent in-process services —
    /// the tests run several — do not share series; `/metrics?format=prom`
    /// concatenates this with the process-global registry (cache, logger).
    registry: Arc<Registry>,
}

impl SweepService {
    /// Start a service session: workers up, nothing submitted yet. Call
    /// [`SweepService::resume`] to pick up prior sessions' manifests.
    pub fn new(cfg: ServeConfig) -> Self {
        let cache = ResultCache::new(cfg.results_dir.join("cache"));
        let state = Arc::new((
            Mutex::new(State {
                points: HashMap::new(),
                sweeps: BTreeMap::new(),
                executed: 0,
                cache_hits: 0,
                shared_submissions: 0,
                failed: 0,
                budget_left: cfg.execute_budget,
                pending: 0,
                stopping: false,
            }),
            Condvar::new(),
        ));
        let pool = WorkerPool::new(cfg.workers);
        SweepService {
            cfg,
            cache,
            state,
            pool,
            started: Instant::now(),
            registry: Arc::new(Registry::new()),
        }
    }

    /// The service-local metric registry (exposed for tests and the
    /// Prometheus endpoint).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The configuration this session runs under.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The shared result store.
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Re-register every sweep manifest under the results root. Completed
    /// points resolve as cache hits; unfinished ones execute. Returns the
    /// ids of the sweeps that resumed with simulation work left to do
    /// (fully warm sweeps re-register silently — their points resolve from
    /// the store without executing anything).
    pub fn resume(&self) -> Vec<String> {
        let mut resumed = Vec::new();
        for m in manifest::load_all(&self.cfg.results_dir) {
            // Done-ness across a restart lives on disk, not in memory: a
            // point is finished iff its cache entry exists.
            let unfinished = m
                .request
                .jobs()
                .iter()
                .filter(|j| !self.cache.entry_path_for_hash(j.cache_hash()).exists())
                .count();
            let receipt = match self.submit(m.request.clone()) {
                Ok(r) => r,
                Err(e) => {
                    simt_obs::warn!("serve.service", "cannot resume sweep";
                        sweep = m.id.clone(), error = e);
                    continue;
                }
            };
            if receipt.id != m.id {
                // Keys changed under us (e.g. a CACHE_VERSION bump): the
                // grid resumes under its new identity.
                simt_obs::warn!("serve.service",
                    "manifest re-registered under a new id (cache keys changed)";
                    old = m.id.clone(), new = receipt.id.clone());
            }
            if unfinished > 0 {
                resumed.push(receipt.id);
            }
        }
        resumed
    }

    /// Submit a grid: register its points (single-flight), persist its
    /// manifest, and enqueue whatever is not already owned. Non-blocking —
    /// poll [`SweepService::sweep_status`] or wait on
    /// [`SweepService::wait_for_sweep`] for completion.
    pub fn submit(&self, request: GridRequest) -> Result<Receipt, String> {
        let jobs = request.jobs();
        if jobs.is_empty() {
            return Err("empty grid".into());
        }
        let id = GridRequest::sweep_id(&jobs);
        let mut to_enqueue: Vec<u64> = Vec::new();
        let receipt = {
            let (lock, _) = &*self.state;
            let mut st = lock.lock().unwrap();
            if st.stopping {
                return Err("service is shutting down".into());
            }
            if st.sweeps.contains_key(&id) {
                let receipt = Self::resubmission_receipt(&st, &id);
                st.shared_submissions += receipt.total as u64;
                return Ok(receipt);
            }
            let mut receipt = Receipt {
                id: id.clone(),
                resubmitted: false,
                total: 0,
                new: 0,
                already_done: 0,
                inflight_shared: 0,
            };
            let mut hashes = Vec::with_capacity(jobs.len());
            let mut sweep = SweepState {
                hashes: Vec::new(),
                submitted: Instant::now(),
                done_wall_s: None,
                events: VecDeque::new(),
                next_seq: 0,
                dropped_events: 0,
                span: simt_obs::log::next_span(),
            };
            for job in &jobs {
                let hash = job.cache_hash();
                if hashes.contains(&hash) {
                    continue; // duplicate point inside one grid
                }
                hashes.push(hash);
                receipt.total += 1;
                match st.points.get(&hash) {
                    Some(entry) => {
                        if entry.status.is_terminal() {
                            receipt.already_done += 1;
                            // Replay the terminal outcome into the fresh
                            // journal so `sweepctl tail` of this sweep sees
                            // every point, not just the newly-enqueued ones.
                            sweep.push_event(Self::terminal_event(hash, entry));
                        } else {
                            receipt.inflight_shared += 1;
                        }
                        st.shared_submissions += 1;
                    }
                    None => {
                        st.points.insert(
                            hash,
                            PointEntry {
                                label: job.label(),
                                job: job.clone(),
                                owner: id.clone(),
                                status: PointStatus::Queued,
                            },
                        );
                        receipt.new += 1;
                        to_enqueue.push(hash);
                    }
                }
            }
            st.pending += to_enqueue.len();
            // A grid whose every point is already terminal (e.g. a subset
            // of a completed sweep) enqueues nothing, so `complete` never
            // fires for it — close it out at submission time instead.
            let already_complete =
                to_enqueue.is_empty() && hashes.iter().all(|h| st.points[h].status.is_terminal());
            sweep.hashes = hashes;
            if already_complete {
                sweep.done_wall_s = Some(0.0);
                sweep.push_event(SweepEvent {
                    seq: 0,
                    kind: "complete",
                    label: String::new(),
                    run: String::new(),
                    resolution: None,
                    wall_us: Some(0),
                    cycles: None,
                    error: None,
                });
            }
            let span = sweep.span;
            st.sweeps.insert(id.clone(), sweep);
            simt_obs::log_at!(simt_obs::log::Level::Info, Some(span), "serve.service",
                "sweep submitted";
                sweep = id.clone(), total = receipt.total, new = receipt.new,
                already_done = receipt.already_done);
            receipt
        };
        let (_, cvar) = &*self.state;
        cvar.notify_all(); // replayed events may satisfy a waiting poll
        if let Err(e) = manifest::store(&self.cfg.results_dir, &id, &request, &jobs) {
            // Non-fatal: the sweep still runs, it just won't survive a
            // restart (mirrors the cache's read-only-checkout behaviour).
            simt_obs::warn!("serve.service", "manifest write failed";
                sweep = id.clone(), error = e.to_string());
        }
        for hash in to_enqueue {
            self.dispatch(hash);
        }
        Ok(receipt)
    }

    /// The journal event describing an already-terminal point (used when a
    /// new sweep attaches to points finished under another sweep).
    fn terminal_event(hash: u64, entry: &PointEntry) -> SweepEvent {
        match &entry.status {
            PointStatus::Done { cycles, resolution } => SweepEvent {
                seq: 0,
                kind: "finished",
                label: entry.label.clone(),
                run: format!("{hash:016x}"),
                resolution: Some(match resolution {
                    Resolution::Executed => "executed",
                    Resolution::CacheHit => "cache_hit",
                }),
                wall_us: None,
                cycles: Some(*cycles),
                error: None,
            },
            PointStatus::Failed(msg) => SweepEvent {
                seq: 0,
                kind: "failed",
                label: entry.label.clone(),
                run: format!("{hash:016x}"),
                resolution: None,
                wall_us: None,
                cycles: None,
                error: Some(msg.clone()),
            },
            // Only called for terminal points.
            _ => unreachable!("terminal_event on non-terminal point"),
        }
    }

    fn resubmission_receipt(st: &State, id: &str) -> Receipt {
        let sweep = &st.sweeps[id];
        let mut receipt = Receipt {
            id: id.to_string(),
            resubmitted: true,
            total: sweep.hashes.len(),
            new: 0,
            already_done: 0,
            inflight_shared: 0,
        };
        for hash in &sweep.hashes {
            if st.points[hash].status.is_terminal() {
                receipt.already_done += 1;
            } else {
                receipt.inflight_shared += 1;
            }
        }
        receipt
    }

    /// Run one registered point on the pool: cache first, simulate on a
    /// miss (budget permitting), store, publish.
    fn dispatch(&self, hash: u64) {
        let state = Arc::clone(&self.state);
        let cache = self.cache.clone();
        let registry = Arc::clone(&self.registry);
        let verbose = self.cfg.verbose;
        self.pool.submit(move || {
            let (lock, cvar) = &*state;
            let job = {
                let mut st = lock.lock().unwrap();
                if st.stopping {
                    // Leave the point queued: the manifest resumes it next
                    // session. The task still counts down `pending`.
                    st.pending -= 1;
                    cvar.notify_all();
                    return;
                }
                st.points[&hash].job.clone()
            };
            let run = format!("{hash:016x}");

            // Store lookup outside the lock — it reads the filesystem.
            let lookup_started = Instant::now();
            if let Some(hit) = cache.load(&job) {
                let wall_us = lookup_started.elapsed().as_micros() as u64;
                registry.counter_add(
                    "simt_points_resolved_total",
                    "Sweep points resolved this session, by how.",
                    &[("resolution", "cache_hit")],
                    1,
                );
                let mut st = lock.lock().unwrap();
                st.cache_hits += 1;
                st.push_point_event(
                    hash,
                    SweepEvent {
                        seq: 0,
                        kind: "finished",
                        label: job.label(),
                        run,
                        resolution: Some("cache_hit"),
                        wall_us: Some(wall_us),
                        cycles: Some(hit.report.cycles),
                        error: None,
                    },
                );
                Self::complete(
                    &mut st,
                    hash,
                    PointStatus::Done {
                        cycles: hit.report.cycles,
                        resolution: Resolution::CacheHit,
                    },
                );
                if verbose {
                    eprintln!("  {:<24} cached", job.label());
                }
                cvar.notify_all();
                return;
            }

            {
                let mut st = lock.lock().unwrap();
                if st.stopping {
                    st.pending -= 1;
                    cvar.notify_all();
                    return;
                }
                if let Some(budget) = &mut st.budget_left {
                    if *budget == 0 {
                        // Out of budget: the point stays queued for the
                        // next session.
                        st.pending -= 1;
                        cvar.notify_all();
                        return;
                    }
                    *budget -= 1;
                }
                if let Some(entry) = st.points.get_mut(&hash) {
                    entry.status = PointStatus::Running;
                }
                st.push_point_event(
                    hash,
                    SweepEvent {
                        seq: 0,
                        kind: "started",
                        label: job.label(),
                        run: run.clone(),
                        resolution: None,
                        wall_us: None,
                        cycles: None,
                        error: None,
                    },
                );
                cvar.notify_all();
            }

            let sim_started = Instant::now();
            // A point that can never run fails with its one-line reason;
            // anything else that goes wrong inside the simulator is a panic.
            let outcome = match job.check() {
                Ok(()) => catch_unwind(AssertUnwindSafe(|| job.execute())),
                Err(reason) => Err(Box::new(reason) as Box<dyn std::any::Any + Send>),
            };
            let wall_us = sim_started.elapsed().as_micros() as u64;
            let mut st = lock.lock().unwrap();
            match outcome {
                Ok(result) => {
                    cache.store(&job, &result);
                    let cycles = result.report.cycles;
                    registry.counter_add(
                        "simt_points_resolved_total",
                        "Sweep points resolved this session, by how.",
                        &[("resolution", "executed")],
                        1,
                    );
                    registry.observe(
                        "simt_point_wall_us",
                        "Fresh-simulation wall time per point, microseconds.",
                        &[],
                        POINT_WALL_US.0,
                        POINT_WALL_US.1,
                        wall_us,
                    );
                    if wall_us > 0 {
                        registry.observe(
                            "simt_point_cycles_per_sec",
                            "Simulation throughput per executed point, cycles per second.",
                            &[],
                            POINT_CPS.0,
                            POINT_CPS.1,
                            (cycles as u128 * 1_000_000 / wall_us as u128) as u64,
                        );
                    }
                    st.executed += 1;
                    st.push_point_event(
                        hash,
                        SweepEvent {
                            seq: 0,
                            kind: "finished",
                            label: job.label(),
                            run,
                            resolution: Some("executed"),
                            wall_us: Some(wall_us),
                            cycles: Some(cycles),
                            error: None,
                        },
                    );
                    Self::complete(
                        &mut st,
                        hash,
                        PointStatus::Done {
                            cycles,
                            resolution: Resolution::Executed,
                        },
                    );
                    if verbose {
                        eprintln!("  {:<24} ok ({:.1}s)", job.label(), result.wall_ms / 1e3);
                    }
                }
                Err(p) => {
                    let msg = p
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| p.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "simulation panicked".into());
                    registry.counter_add(
                        "simt_points_resolved_total",
                        "Sweep points resolved this session, by how.",
                        &[("resolution", "failed")],
                        1,
                    );
                    st.failed += 1;
                    st.push_point_event(
                        hash,
                        SweepEvent {
                            seq: 0,
                            kind: "failed",
                            label: job.label(),
                            run,
                            resolution: None,
                            wall_us: Some(wall_us),
                            cycles: None,
                            error: Some(msg.clone()),
                        },
                    );
                    Self::complete(&mut st, hash, PointStatus::Failed(msg.clone()));
                    simt_obs::warn!("serve.service", "point failed";
                        point = job.label(), error = msg);
                }
            }
            cvar.notify_all();
        });
    }

    /// Publish a terminal status for a point and close out any sweep this
    /// completes. Called with the state lock held.
    fn complete(st: &mut State, hash: u64, status: PointStatus) {
        if let Some(entry) = st.points.get_mut(&hash) {
            entry.status = status;
        }
        st.pending -= 1;
        // Close out sweeps whose last point this was. O(sweeps × points),
        // fine at service scale and only on completions.
        let done_sweeps: Vec<(String, f64)> = st
            .sweeps
            .iter()
            .filter(|(_, sw)| sw.done_wall_s.is_none() && sw.hashes.contains(&hash))
            .filter(|(_, sw)| sw.hashes.iter().all(|h| st.points[h].status.is_terminal()))
            .map(|(id, sw)| (id.clone(), sw.submitted.elapsed().as_secs_f64()))
            .collect();
        for (id, wall_s) in done_sweeps {
            if let Some(sw) = st.sweeps.get_mut(&id) {
                sw.done_wall_s = Some(wall_s);
                sw.push_event(SweepEvent {
                    seq: 0,
                    kind: "complete",
                    label: String::new(),
                    run: String::new(),
                    resolution: None,
                    wall_us: Some((wall_s * 1e6) as u64),
                    cycles: None,
                    error: None,
                });
                simt_obs::log_at!(simt_obs::log::Level::Info, Some(sw.span),
                    "serve.service", "sweep complete";
                    sweep = id.clone(), wall_s = wall_s);
            }
        }
    }

    /// Stop accepting work and stop starting simulations; queued points
    /// stay queued (their manifests resume them next session). Running
    /// simulations finish. Dropping the service calls this implicitly.
    pub fn stop(&self) {
        let (lock, cvar) = &*self.state;
        lock.lock().unwrap().stopping = true;
        cvar.notify_all();
    }

    /// Block until the sweep has no unfinished points, the service stalls
    /// (budget exhausted / stopping), or the timeout elapses. Returns true
    /// iff the sweep completed.
    pub fn wait_for_sweep(&self, id: &str, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let (lock, cvar) = &*self.state;
        let mut st = lock.lock().unwrap();
        loop {
            let Some(sweep) = st.sweeps.get(id) else {
                return false;
            };
            if sweep.done_wall_s.is_some() {
                return true;
            }
            if st.pending == 0 {
                return false; // stalled: budget ran out or stopping
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = cvar.wait_timeout(st, deadline - now).unwrap();
            st = guard;
        }
    }

    /// Block until no dispatched work remains (completed or stalled), or
    /// the timeout elapses. Returns true iff the service went idle.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let (lock, cvar) = &*self.state;
        let mut st = lock.lock().unwrap();
        while st.pending > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = cvar.wait_timeout(st, deadline - now).unwrap();
            st = guard;
        }
        true
    }

    /// Record one served HTTP request for `/metrics` latency accounting.
    pub fn record_endpoint(&self, label: &str, micros: u64) {
        self.registry.observe(
            "simt_http_request_duration_us",
            "HTTP request service time by endpoint, microseconds.",
            &[("endpoint", label)],
            HTTP_LAT_US.0,
            HTTP_LAT_US.1,
            micros,
        );
    }

    /// The event-journal document for one sweep
    /// (`GET /sweeps/:id/events?since=N`), or `None` for an unknown id.
    ///
    /// Long-poll: blocks up to `wait` for an event with `seq >= since` to
    /// exist (returning early once the sweep is complete — there will be
    /// no further events). The reply carries `next`, the cursor to pass as
    /// the following poll's `since`, and `dropped`, the number of events
    /// that aged out of the bounded journal before being read.
    pub fn sweep_events(&self, id: &str, since: u64, wait: Duration) -> Option<json::Value> {
        let deadline = Instant::now() + wait;
        let (lock, cvar) = &*self.state;
        let mut st = lock.lock().unwrap();
        loop {
            let sweep = st.sweeps.get(id)?;
            let has_new = sweep.next_seq > since;
            if has_new || sweep.done_wall_s.is_some() {
                let events: Vec<json::Value> = sweep
                    .events
                    .iter()
                    .filter(|e| e.seq >= since)
                    .map(SweepEvent::to_json)
                    .collect();
                return Some(json::Value::Obj(vec![
                    ("schema".into(), json::Value::Str(EVENTS_SCHEMA.into())),
                    ("id".into(), json::Value::Str(id.into())),
                    ("since".into(), json::Value::Int(since)),
                    ("next".into(), json::Value::Int(sweep.next_seq)),
                    (
                        "complete".into(),
                        json::Value::Bool(sweep.done_wall_s.is_some()),
                    ),
                    ("dropped".into(), json::Value::Int(sweep.dropped_events)),
                    ("events".into(), json::Value::Arr(events)),
                ]));
            }
            let now = Instant::now();
            if now >= deadline {
                // Timed out with nothing new: an empty, well-formed reply.
                return Some(json::Value::Obj(vec![
                    ("schema".into(), json::Value::Str(EVENTS_SCHEMA.into())),
                    ("id".into(), json::Value::Str(id.into())),
                    ("since".into(), json::Value::Int(since)),
                    ("next".into(), json::Value::Int(sweep.next_seq)),
                    ("complete".into(), json::Value::Bool(false)),
                    ("dropped".into(), json::Value::Int(sweep.dropped_events)),
                    ("events".into(), json::Value::Arr(Vec::new())),
                ]));
            }
            let (guard, _) = cvar.wait_timeout(st, deadline - now).unwrap();
            st = guard;
        }
    }

    /// The status document for one sweep (`GET /sweeps/:id`), or `None`
    /// for an unknown id.
    pub fn sweep_status(&self, id: &str) -> Option<json::Value> {
        let (lock, _) = &*self.state;
        let st = lock.lock().unwrap();
        let sweep = st.sweeps.get(id)?;
        let mut by_status = BTreeMap::<&str, u64>::new();
        let (mut executed, mut cache_hits, mut shared) = (0u64, 0u64, 0u64);
        let mut points = Vec::new();
        for hash in &sweep.hashes {
            let entry = &st.points[hash];
            *by_status.entry(entry.status.name()).or_default() += 1;
            if entry.owner == id {
                if let PointStatus::Done { resolution, .. } = entry.status {
                    match resolution {
                        Resolution::Executed => executed += 1,
                        Resolution::CacheHit => cache_hits += 1,
                    }
                }
            } else {
                shared += 1;
            }
            let mut fields = vec![
                ("label".into(), json::Value::Str(entry.label.clone())),
                ("run".into(), json::Value::Str(format!("{hash:016x}"))),
                (
                    "status".into(),
                    json::Value::Str(entry.status.name().into()),
                ),
            ];
            match &entry.status {
                PointStatus::Done { cycles, .. } => {
                    fields.push(("cycles".into(), json::Value::Int(*cycles)));
                }
                PointStatus::Failed(msg) => {
                    fields.push(("error".into(), json::Value::Str(msg.clone())));
                }
                _ => {}
            }
            points.push(json::Value::Obj(fields));
        }
        let total = sweep.hashes.len() as u64;
        let done = by_status.get("done").copied().unwrap_or(0);
        let failed = by_status.get("failed").copied().unwrap_or(0);
        let complete = sweep.done_wall_s.is_some();
        let wall_s = sweep
            .done_wall_s
            .unwrap_or_else(|| sweep.submitted.elapsed().as_secs_f64());
        let mut fields = vec![
            ("schema".into(), json::Value::Str(SCHEMA.into())),
            ("id".into(), json::Value::Str(id.into())),
            ("complete".into(), json::Value::Bool(complete)),
            ("total".into(), json::Value::Int(total)),
            ("done".into(), json::Value::Int(done)),
            (
                "queued".into(),
                json::Value::Int(by_status.get("queued").copied().unwrap_or(0)),
            ),
            (
                "running".into(),
                json::Value::Int(by_status.get("running").copied().unwrap_or(0)),
            ),
            ("failed".into(), json::Value::Int(failed)),
            ("executed".into(), json::Value::Int(executed)),
            ("cache_hits".into(), json::Value::Int(cache_hits)),
            ("shared".into(), json::Value::Int(shared)),
            ("wall_s".into(), json::Value::Float(wall_s)),
        ];
        if complete && wall_s > 0.0 {
            fields.push((
                "points_per_sec".into(),
                json::Value::Float(total as f64 / wall_s),
            ));
        }
        fields.push(("points".into(), json::Value::Arr(points)));
        Some(json::Value::Obj(fields))
    }

    /// The service overview document (`GET /status`).
    pub fn status(&self) -> json::Value {
        let (lock, _) = &*self.state;
        let st = lock.lock().unwrap();
        let queued = st
            .points
            .values()
            .filter(|p| matches!(p.status, PointStatus::Queued))
            .count() as u64;
        let running = st
            .points
            .values()
            .filter(|p| matches!(p.status, PointStatus::Running))
            .count() as u64;
        let paused = st.budget_left == Some(0) && queued > 0;
        let sweeps = st
            .sweeps
            .iter()
            .map(|(id, sw)| {
                let done = sw
                    .hashes
                    .iter()
                    .filter(|h| st.points[h].status.is_terminal())
                    .count() as u64;
                json::Value::Obj(vec![
                    ("id".into(), json::Value::Str(id.clone())),
                    ("total".into(), json::Value::Int(sw.hashes.len() as u64)),
                    ("done".into(), json::Value::Int(done)),
                    (
                        "complete".into(),
                        json::Value::Bool(sw.done_wall_s.is_some()),
                    ),
                ])
            })
            .collect();
        json::Value::Obj(vec![
            ("schema".into(), json::Value::Str(SCHEMA.into())),
            (
                "uptime_s".into(),
                json::Value::Float(self.started.elapsed().as_secs_f64()),
            ),
            (
                "workers".into(),
                json::Value::Int(self.pool.workers() as u64),
            ),
            (
                "budget_left".into(),
                match st.budget_left {
                    Some(n) => json::Value::Int(n as u64),
                    None => json::Value::Null,
                },
            ),
            ("paused".into(), json::Value::Bool(paused)),
            ("queue_depth".into(), json::Value::Int(queued)),
            ("running".into(), json::Value::Int(running)),
            ("sweeps".into(), json::Value::Arr(sweeps)),
        ])
    }

    /// The service counters document (`GET /metrics`): queue depth,
    /// in-flight, cache hit rate, points/sec, per-endpoint latency.
    pub fn metrics(&self) -> json::Value {
        let (lock, _) = &*self.state;
        let st = lock.lock().unwrap();
        let queued = st
            .points
            .values()
            .filter(|p| matches!(p.status, PointStatus::Queued))
            .count() as u64;
        let running = st
            .points
            .values()
            .filter(|p| matches!(p.status, PointStatus::Running))
            .count() as u64;
        let resolved = st.executed + st.cache_hits;
        let hit_rate = if resolved > 0 {
            st.cache_hits as f64 / resolved as f64
        } else {
            0.0
        };
        let uptime = self.started.elapsed().as_secs_f64();
        // Endpoint latency now lives in the registry as histograms; the
        // JSON document reports their summary stats (count/mean/max plus
        // the percentiles the old count/total/max accounting could not).
        let endpoints = self
            .registry
            .snapshot()
            .iter()
            .filter(|f| f.name == "simt_http_request_duration_us")
            .flat_map(|f| &f.series)
            .filter_map(|series| {
                let label = series
                    .labels
                    .iter()
                    .find(|(k, _)| k == "endpoint")
                    .map(|(_, v)| v.clone())?;
                let SeriesValue::Hist(h) = &series.value else {
                    return None;
                };
                Some((
                    label,
                    json::Value::Obj(vec![
                        ("count".into(), json::Value::Int(h.count)),
                        ("mean_us".into(), json::Value::Float(h.mean)),
                        ("max_us".into(), json::Value::Int(h.max)),
                        ("p50_us".into(), json::Value::Int(h.p50)),
                        ("p90_us".into(), json::Value::Int(h.p90)),
                        ("p99_us".into(), json::Value::Int(h.p99)),
                    ]),
                ))
            })
            .collect();
        json::Value::Obj(vec![
            ("schema".into(), json::Value::Str(SCHEMA.into())),
            ("uptime_s".into(), json::Value::Float(uptime)),
            ("queue_depth".into(), json::Value::Int(queued)),
            ("in_flight".into(), json::Value::Int(running)),
            ("executed".into(), json::Value::Int(st.executed)),
            ("cache_hits".into(), json::Value::Int(st.cache_hits)),
            (
                "shared_submissions".into(),
                json::Value::Int(st.shared_submissions),
            ),
            ("failed".into(), json::Value::Int(st.failed)),
            ("cache_hit_rate".into(), json::Value::Float(hit_rate)),
            (
                "points_per_sec".into(),
                json::Value::Float(if uptime > 0.0 {
                    resolved as f64 / uptime
                } else {
                    0.0
                }),
            ),
            ("endpoints".into(), json::Value::Obj(endpoints)),
        ])
    }

    /// The Prometheus text exposition (`GET /metrics?format=prom`):
    /// the service registry (request latency, point histograms, resolution
    /// counters, freshly-set gauges) concatenated with the process-global
    /// registry (harness cache counters, logger self-counters). Family
    /// names are disjoint between the two; output is sorted by name.
    pub fn prom_metrics(&self) -> String {
        let (queued, running, shared) = {
            let (lock, _) = &*self.state;
            let st = lock.lock().unwrap();
            (
                st.points
                    .values()
                    .filter(|p| matches!(p.status, PointStatus::Queued))
                    .count(),
                st.points
                    .values()
                    .filter(|p| matches!(p.status, PointStatus::Running))
                    .count(),
                st.shared_submissions,
            )
        };
        self.registry.gauge_set(
            "simt_queue_depth",
            "Points registered but not yet resolved or running.",
            &[],
            queued as f64,
        );
        self.registry.gauge_set(
            "simt_in_flight",
            "Points currently simulating.",
            &[],
            running as f64,
        );
        self.registry.gauge_set(
            "simt_uptime_seconds",
            "Seconds since service start.",
            &[],
            self.started.elapsed().as_secs_f64(),
        );
        self.registry.gauge_set(
            "simt_shared_submissions",
            "Submitted points that attached to an existing run (single-flight shares).",
            &[],
            shared as f64,
        );
        let mut families = self.registry.snapshot();
        families.extend(simt_obs::metrics::global().snapshot());
        families.sort_by(|a, b| a.name.cmp(b.name));
        simt_obs::prom::render(&families)
    }

    /// (executed, cache_hits, shared_submissions, failed) session counters
    /// — the accounting the tests assert single-flight semantics with.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        let (lock, _) = &*self.state;
        let st = lock.lock().unwrap();
        (st.executed, st.cache_hits, st.shared_submissions, st.failed)
    }
}

impl Drop for SweepService {
    fn drop(&mut self) {
        // Stop starting new simulations; the pool's own Drop then joins
        // the workers (queued tasks see `stopping` and return instantly).
        self.stop();
    }
}

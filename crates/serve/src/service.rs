//! The sweep service core: a job queue with **single-flight semantics**
//! over the shared result store.
//!
//! Every submitted grid lowers to name-keyed points, each carrying its
//! canonical cache key; a point builds its workload only if the store
//! misses and it has to simulate. The key's hash is the point's identity in a
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
//! Each point resolves through [`Harness::resolve`], the one miss path
//! `sweep` runs too: one store lookup by key, and only on a miss the
//! execute budget is taken, the workload built, checked, simulated with
//! panics caught, and stored. The tasks run on the harness's one
//! [`WorkerPool`] (non-blocking submission), so the daemon keeps
//! accepting requests while earlier grids simulate. Progress is durable
//! without any progress file: a point is done iff its result is in the
//! cache, so a restarted daemon re-enqueues manifest points and the
//! finished ones resolve instantly as cache hits.

use crate::grid::{GridPoint, GridRequest};
use crate::manifest;
use simt_harness::{json, panic_message, Harness, Resolved, ResultCache, WorkerPool};
use simt_obs::metrics::{FamilySnapshot, Kind, Registry, SeriesSnapshot, SeriesValue};
use std::collections::{BTreeMap, HashMap, VecDeque};
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

/// Where a point is in its lifecycle. A point with a result carries its
/// cycle count and how it got it.
#[derive(Debug, Clone)]
enum PointStatus {
    Queued,
    Running,
    /// Simulated fresh by this daemon session.
    Executed(u64),
    /// Served from the on-disk result store.
    CacheHit(u64),
    Failed(String),
}

impl PointStatus {
    fn is_terminal(&self) -> bool {
        !matches!(self, PointStatus::Queued | PointStatus::Running)
    }

    fn name(&self) -> &'static str {
        match self {
            PointStatus::Queued => "queued",
            PointStatus::Running => "running",
            PointStatus::Executed(_) | PointStatus::CacheHit(_) => "done",
            PointStatus::Failed(_) => "failed",
        }
    }
}

/// Point counts by status over a set of points. A point resolves at most
/// once per session, so over every point this is also the session's
/// resolution count: the point table is the service's only record of
/// what it executed, served from the store, or failed.
#[derive(Debug, Default, PartialEq, Eq)]
struct Tally {
    queued: u64,
    running: u64,
    failed: u64,
    executed: u64,
    cache_hits: u64,
}

impl Tally {
    fn of<'a>(statuses: impl IntoIterator<Item = &'a PointStatus>) -> Tally {
        let mut tally = Tally::default();
        for status in statuses {
            match status {
                PointStatus::Queued => tally.queued += 1,
                PointStatus::Running => tally.running += 1,
                PointStatus::Executed(_) => tally.executed += 1,
                PointStatus::CacheHit(_) => tally.cache_hits += 1,
                PointStatus::Failed(_) => tally.failed += 1,
            }
        }
        tally
    }

    /// Points with a result (failed points are terminal but not done).
    fn done(&self) -> u64 {
        self.executed + self.cache_hits
    }
}

/// One entry in the single-flight registry.
struct PointEntry {
    point: GridPoint,
    /// The sweep that first named this point (and thus enqueued it).
    owner: String,
    status: PointStatus,
}

/// A journal event as served, minus the leading `seq` that
/// [`SweepState::push_event`] assigns: `kind`, `label`, `run` (the point's
/// 16-hex key; empty on `complete`), then whichever of `resolution`,
/// `wall_us`, `cycles` and `error` apply.
type EventBody = Vec<(String, json::Value)>;

fn event(kind: &str, label: &str, run: String) -> EventBody {
    vec![
        ("kind".into(), json::Value::Str(kind.into())),
        ("label".into(), json::Value::Str(label.into())),
        ("run".into(), json::Value::Str(run)),
    ]
}

fn started_event(hash: u64, label: &str) -> EventBody {
    event("started", label, format!("{hash:016x}"))
}

/// The `finished` or `failed` event of a terminal point. `wall_us` is the
/// time it took when the event is emitted live; a replay into a sweep
/// submitted after the fact has none.
fn terminal_event(hash: u64, label: &str, status: &PointStatus, wall_us: Option<u64>) -> EventBody {
    let run = format!("{hash:016x}");
    let wall_us = wall_us.map(|w| ("wall_us".into(), json::Value::Int(w)));
    match status {
        PointStatus::Executed(cycles) | PointStatus::CacheHit(cycles) => {
            let mut body = event("finished", label, run);
            let resolution = match status {
                PointStatus::Executed(_) => "executed",
                _ => "cache_hit",
            };
            body.push(("resolution".into(), json::Value::Str(resolution.into())));
            body.extend(wall_us);
            body.push(("cycles".into(), json::Value::Int(*cycles)));
            body
        }
        PointStatus::Failed(msg) => {
            let mut body = event("failed", label, run);
            body.extend(wall_us);
            body.push(("error".into(), json::Value::Str(msg.clone())));
            body
        }
        _ => unreachable!("terminal event for a point still in flight"),
    }
}

fn complete_event(wall_us: u64) -> EventBody {
    let mut body = event("complete", "", String::new());
    body.push(("wall_us".into(), json::Value::Int(wall_us)));
    body
}

struct SweepState {
    hashes: Vec<u64>,
    submitted: Instant,
    /// Wall seconds from submission to the last point completing.
    done_wall_s: Option<f64>,
    /// Bounded journal of point lifecycle events, seq-numbered from 0 and
    /// kept as served. Seqs are dense, so the event at index `i` has seq
    /// `dropped_events + i`.
    events: VecDeque<json::Value>,
    next_seq: u64,
    /// Events pushed out of the bounded journal before anyone read them.
    dropped_events: u64,
    /// Log-correlation span id shared by this sweep's structured events.
    span: u64,
}

impl SweepState {
    fn push_event(&mut self, body: &[(String, json::Value)]) {
        let mut fields = Vec::with_capacity(body.len() + 1);
        fields.push(("seq".into(), json::Value::Int(self.next_seq)));
        fields.extend_from_slice(body);
        self.next_seq += 1;
        if self.events.len() == EVENT_CAP {
            self.events.pop_front();
            self.dropped_events += 1;
        }
        self.events.push_back(json::Value::Obj(fields));
    }
}

struct State {
    points: HashMap<u64, PointEntry>,
    sweeps: BTreeMap<String, SweepState>,
    /// Submitted points that attached to an existing entry (single-flight
    /// shares plus resubmissions).
    shared_submissions: u64,
    budget_left: Option<usize>,
    /// Dispatched pool tasks not yet finished (for idle detection).
    pending: usize,
    stopping: bool,
}

impl State {
    /// The tally over every point this session knows.
    fn tally(&self) -> Tally {
        Tally::of(self.points.values().map(|p| &p.status))
    }

    /// The tally over one sweep's points.
    fn sweep_tally(&self, sweep: &SweepState) -> Tally {
        Tally::of(sweep.hashes.iter().map(|h| &self.points[h].status))
    }

    /// Append a point lifecycle event to the journal of every open sweep
    /// that names `hash`. Callers must hold the state lock and notify the
    /// condvar afterwards (event polls wait on it).
    fn push_point_event(&mut self, hash: u64, body: &[(String, json::Value)]) {
        for sweep in self.sweeps.values_mut() {
            if sweep.done_wall_s.is_none() && sweep.hashes.contains(&hash) {
                sweep.push_event(body);
            }
        }
    }

    /// Publish a point's terminal status: set it, journal it to every open
    /// sweep naming the point, count its task down, and close out the
    /// sweeps it completes — in that order, so a point's `finished` or
    /// `failed` event precedes its sweep's `complete`. Callers notify the
    /// condvar afterwards.
    fn resolve(&mut self, hash: u64, status: PointStatus, wall_us: u64) {
        let entry = self
            .points
            .get_mut(&hash)
            .expect("dispatched point is registered");
        let body = terminal_event(hash, &entry.point.label, &status, Some(wall_us));
        entry.status = status;
        self.push_point_event(hash, &body);
        self.pending -= 1;
        // Close out sweeps whose last point this was. O(sweeps × points),
        // fine at service scale and only on completions.
        let points = &self.points;
        for (id, sw) in self.sweeps.iter_mut() {
            if sw.done_wall_s.is_some()
                || !sw.hashes.contains(&hash)
                || !sw.hashes.iter().all(|h| points[h].status.is_terminal())
            {
                continue;
            }
            let wall_s = sw.submitted.elapsed().as_secs_f64();
            sw.done_wall_s = Some(wall_s);
            sw.push_event(&complete_event((wall_s * 1e6) as u64));
            simt_obs::log_at!(simt_obs::log::Level::Info, Some(sw.span),
                "serve.service", "sweep complete";
                sweep = id.clone(), wall_s = wall_s);
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
    /// Resolves every point: the one miss path `sweep` runs too.
    harness: Harness,
    state: Arc<(Mutex<State>, Condvar)>,
    pool: WorkerPool,
    started: Instant,
    /// Service-local metric registry (endpoint latency, point wall-time
    /// histograms, the gauges `prom_metrics` sets). Per-instance so
    /// concurrent in-process services — the tests run several — do not
    /// share series; `/metrics?format=prom` concatenates this with the
    /// process-global registry (cache, logger).
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
                shared_submissions: 0,
                budget_left: cfg.execute_budget,
                pending: 0,
                stopping: false,
            }),
            Condvar::new(),
        ));
        let pool = WorkerPool::new(cfg.workers);
        let harness = Harness::serial()
            .with_cache(cache.clone())
            .verbose(cfg.verbose);
        SweepService {
            cfg,
            cache,
            harness,
            state,
            pool,
            started: Instant::now(),
            registry: Arc::new(Registry::new()),
        }
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
                .points()
                .iter()
                .filter(|p| !self.cache.entry_path_for_hash(p.hash).exists())
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
                // Keys changed under us (a re-pin moved CACHE_VERSION):
                // the grid resumes under its new identity.
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
        let points = request.points();
        if points.is_empty() {
            return Err("empty grid".into());
        }
        let id = GridRequest::sweep_id(&points);
        let mut to_enqueue: Vec<u64> = Vec::new();
        let receipt = {
            let (lock, _) = &*self.state;
            let mut st = lock.lock().unwrap();
            if st.stopping {
                return Err("service is shutting down".into());
            }
            if st.sweeps.contains_key(&id) {
                let receipt = Self::receipt(&st, &id, true, 0);
                st.shared_submissions += receipt.total as u64;
                return Ok(receipt);
            }
            let mut hashes = Vec::with_capacity(points.len());
            let mut sweep = SweepState {
                hashes: Vec::new(),
                submitted: Instant::now(),
                done_wall_s: None,
                events: VecDeque::new(),
                next_seq: 0,
                dropped_events: 0,
                span: simt_obs::log::next_span(),
            };
            for point in &points {
                let hash = point.hash;
                if hashes.contains(&hash) {
                    continue; // duplicate point inside one grid
                }
                hashes.push(hash);
                match st.points.get(&hash) {
                    // Replay the terminal outcome into the fresh journal so
                    // `sweepctl tail` of this sweep sees every point, not
                    // just the newly-enqueued ones.
                    Some(entry) if entry.status.is_terminal() => {
                        let label = &entry.point.label;
                        sweep.push_event(&terminal_event(hash, label, &entry.status, None));
                    }
                    Some(_) => {}
                    None => {
                        st.points.insert(
                            hash,
                            PointEntry {
                                point: point.clone(),
                                owner: id.clone(),
                                status: PointStatus::Queued,
                            },
                        );
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
                sweep.push_event(&complete_event(0));
            }
            let span = sweep.span;
            st.sweeps.insert(id.clone(), sweep);
            let receipt = Self::receipt(&st, &id, false, to_enqueue.len());
            st.shared_submissions += (receipt.total - receipt.new) as u64;
            simt_obs::log_at!(simt_obs::log::Level::Info, Some(span), "serve.service",
                "sweep submitted";
                sweep = id.clone(), total = receipt.total, new = receipt.new,
                already_done = receipt.already_done);
            receipt
        };
        let (_, cvar) = &*self.state;
        cvar.notify_all(); // replayed events may satisfy a waiting poll
        if let Err(e) = manifest::store(&self.cfg.results_dir, &id, &request, &points) {
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

    /// The receipt for registered sweep `id`, of which this submission
    /// enqueued `new` points: every other point is either already terminal
    /// or shared with the sweep whose run is still in flight.
    fn receipt(st: &State, id: &str, resubmitted: bool, new: usize) -> Receipt {
        let sweep = &st.sweeps[id];
        let tally = st.sweep_tally(sweep);
        let total = sweep.hashes.len();
        let already_done = (tally.done() + tally.failed) as usize;
        Receipt {
            id: id.to_string(),
            resubmitted,
            total,
            new,
            already_done,
            inflight_shared: total - new - already_done,
        }
    }

    /// Run one registered point on the pool and publish its outcome.
    fn dispatch(&self, hash: u64) {
        let state = Arc::clone(&self.state);
        let harness = self.harness.clone();
        let registry = Arc::clone(&self.registry);
        self.pool.submit(move || {
            let resolved = Self::run_point(&state, &harness, &registry, hash);
            let (lock, cvar) = &*state;
            let mut st = lock.lock().unwrap();
            match resolved {
                Some((status, wall_us)) => st.resolve(hash, status, wall_us),
                // Left queued: the manifest resumes it next session. The
                // task still counts down `pending`.
                None => st.pending -= 1,
            }
            cvar.notify_all();
        });
    }

    /// Resolve one point through [`Harness::resolve`] — from the store,
    /// else by building and simulating it — and return its terminal
    /// status with the time that took. `None` leaves the point queued:
    /// the service is stopping, or the execute budget is spent.
    fn run_point(
        state: &(Mutex<State>, Condvar),
        harness: &Harness,
        registry: &Registry,
        hash: u64,
    ) -> Option<(PointStatus, u64)> {
        let (lock, cvar) = state;
        let point = {
            let st = lock.lock().unwrap();
            if st.stopping {
                return None;
            }
            st.points[&hash].point.clone()
        };
        let started = Instant::now();
        // Only a point that misses the store takes budget and builds its
        // workload.
        let resolved = harness.resolve(&point.key, &point.label, || {
            let mut st = lock.lock().unwrap();
            if st.stopping || st.budget_left == Some(0) {
                return None;
            }
            if let Some(budget) = &mut st.budget_left {
                *budget -= 1;
            }
            let entry = st
                .points
                .get_mut(&hash)
                .expect("dispatched point is registered");
            entry.status = PointStatus::Running;
            let body = started_event(hash, &entry.point.label);
            st.push_point_event(hash, &body);
            cvar.notify_all();
            drop(st);
            Some(point.job())
        });
        let wall_us = started.elapsed().as_micros() as u64;
        let status = match resolved {
            Resolved::Hit(hit) => PointStatus::CacheHit(hit.report.cycles),
            Resolved::Executed { result, .. } => {
                let cycles = result.report.cycles;
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
                PointStatus::Executed(cycles)
            }
            Resolved::Declined => return None,
            // A point that can never run fails with its one-line reason;
            // anything else that goes wrong inside the simulator panicked.
            Resolved::Failed(payload) => {
                let msg = panic_message(&*payload);
                simt_obs::warn!("serve.service", "point failed";
                    point = point.label.clone(), error = msg.clone());
                PointStatus::Failed(msg)
            }
        };
        Some((status, wall_us))
    }

    /// Stop accepting work and stop starting simulations; queued points
    /// stay queued (their manifests resume them next session). Running
    /// simulations finish. Dropping the service calls this implicitly.
    pub fn stop(&self) {
        let (lock, cvar) = &*self.state;
        lock.lock().unwrap().stopping = true;
        cvar.notify_all();
    }

    /// Hold the state lock until `settle` answers. It is asked again each
    /// time the state changes, and with `expired` set once `timeout` has
    /// elapsed, when it must answer.
    fn wait_on<T>(
        &self,
        timeout: Duration,
        mut settle: impl FnMut(&State, bool) -> Option<T>,
    ) -> T {
        let deadline = Instant::now() + timeout;
        let (lock, cvar) = &*self.state;
        let mut st = lock.lock().unwrap();
        loop {
            let now = Instant::now();
            if let Some(answer) = settle(&st, now >= deadline) {
                return answer;
            }
            st = cvar.wait_timeout(st, deadline - now).unwrap().0;
        }
    }

    /// Block until the sweep has no unfinished points, the service stalls
    /// (budget exhausted / stopping), or the timeout elapses. Returns true
    /// iff the sweep completed.
    pub fn wait_for_sweep(&self, id: &str, timeout: Duration) -> bool {
        self.wait_on(timeout, |st, expired| match st.sweeps.get(id) {
            None => Some(false),
            Some(sweep) if sweep.done_wall_s.is_some() => Some(true),
            // `pending == 0` is a stall: the budget ran out, or stopping.
            Some(_) => (st.pending == 0 || expired).then_some(false),
        })
    }

    /// Block until no dispatched work remains (completed or stalled), or
    /// the timeout elapses. Returns true iff the service went idle.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        self.wait_on(timeout, |st, expired| {
            (st.pending == 0 || expired).then_some(st.pending == 0)
        })
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
    /// that aged out of the bounded journal before being read. A poll that
    /// times out gets the same document with no events.
    pub fn sweep_events(&self, id: &str, since: u64, wait: Duration) -> Option<json::Value> {
        self.wait_on(wait, |st, expired| {
            let Some(sweep) = st.sweeps.get(id) else {
                return Some(None);
            };
            let complete = sweep.done_wall_s.is_some();
            if sweep.next_seq <= since && !complete && !expired {
                return None;
            }
            // Seqs are dense from `dropped_events`, so the events at or
            // after `since` are the journal's tail.
            let first = since.saturating_sub(sweep.dropped_events);
            let events = sweep
                .events
                .iter()
                .skip(usize::try_from(first).unwrap_or(usize::MAX))
                .cloned()
                .collect();
            Some(Some(json::Value::Obj(vec![
                ("schema".into(), json::Value::Str(EVENTS_SCHEMA.into())),
                ("id".into(), json::Value::Str(id.into())),
                ("since".into(), json::Value::Int(since)),
                ("next".into(), json::Value::Int(sweep.next_seq)),
                ("complete".into(), json::Value::Bool(complete)),
                ("dropped".into(), json::Value::Int(sweep.dropped_events)),
                ("events".into(), json::Value::Arr(events)),
            ])))
        })
    }

    /// The status document for one sweep (`GET /sweeps/:id`), or `None`
    /// for an unknown id.
    pub fn sweep_status(&self, id: &str) -> Option<json::Value> {
        let (lock, _) = &*self.state;
        let st = lock.lock().unwrap();
        let sweep = st.sweeps.get(id)?;
        let tally = st.sweep_tally(sweep);
        let entries: Vec<&PointEntry> = sweep.hashes.iter().map(|h| &st.points[h]).collect();
        // The points this sweep owns, by resolution; the rest it shares.
        let owned = Tally::of(entries.iter().filter(|e| e.owner == id).map(|e| &e.status));
        let shared = entries.iter().filter(|e| e.owner != id).count() as u64;
        let mut points = Vec::new();
        for (hash, entry) in sweep.hashes.iter().zip(entries) {
            let mut fields = vec![
                ("label".into(), json::Value::Str(entry.point.label.clone())),
                ("run".into(), json::Value::Str(format!("{hash:016x}"))),
                (
                    "status".into(),
                    json::Value::Str(entry.status.name().into()),
                ),
            ];
            match &entry.status {
                PointStatus::Executed(cycles) | PointStatus::CacheHit(cycles) => {
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
        let complete = sweep.done_wall_s.is_some();
        let wall_s = sweep
            .done_wall_s
            .unwrap_or_else(|| sweep.submitted.elapsed().as_secs_f64());
        let mut fields = vec![
            ("schema".into(), json::Value::Str(SCHEMA.into())),
            ("id".into(), json::Value::Str(id.into())),
            ("complete".into(), json::Value::Bool(complete)),
            ("total".into(), json::Value::Int(total)),
            ("done".into(), json::Value::Int(tally.done())),
            ("queued".into(), json::Value::Int(tally.queued)),
            ("running".into(), json::Value::Int(tally.running)),
            ("failed".into(), json::Value::Int(tally.failed)),
            ("executed".into(), json::Value::Int(owned.executed)),
            ("cache_hits".into(), json::Value::Int(owned.cache_hits)),
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

    /// The service overview document (`GET /status`). A sweep's `done`
    /// here counts its failed points too (every point that is finished).
    pub fn status(&self) -> json::Value {
        let (lock, _) = &*self.state;
        let st = lock.lock().unwrap();
        let tally = st.tally();
        let paused = st.budget_left == Some(0) && tally.queued > 0;
        let sweeps = st
            .sweeps
            .iter()
            .map(|(id, sw)| {
                let sweep = st.sweep_tally(sw);
                json::Value::Obj(vec![
                    ("id".into(), json::Value::Str(id.clone())),
                    ("total".into(), json::Value::Int(sw.hashes.len() as u64)),
                    ("done".into(), json::Value::Int(sweep.done() + sweep.failed)),
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
            ("queue_depth".into(), json::Value::Int(tally.queued)),
            ("running".into(), json::Value::Int(tally.running)),
            ("sweeps".into(), json::Value::Arr(sweeps)),
        ])
    }

    /// The service counters document (`GET /metrics`): queue depth,
    /// in-flight, cache hit rate, points/sec, per-endpoint latency.
    pub fn metrics(&self) -> json::Value {
        let (lock, _) = &*self.state;
        let st = lock.lock().unwrap();
        let tally = st.tally();
        let resolved = tally.done();
        let hit_rate = if resolved > 0 {
            tally.cache_hits as f64 / resolved as f64
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
            ("queue_depth".into(), json::Value::Int(tally.queued)),
            ("in_flight".into(), json::Value::Int(tally.running)),
            ("executed".into(), json::Value::Int(tally.executed)),
            ("cache_hits".into(), json::Value::Int(tally.cache_hits)),
            (
                "shared_submissions".into(),
                json::Value::Int(st.shared_submissions),
            ),
            ("failed".into(), json::Value::Int(tally.failed)),
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
    /// the service registry (request latency, point histograms, freshly-set
    /// gauges) and the resolution counters read off the point table,
    /// concatenated with the process-global registry (harness cache
    /// counters, logger self-counters). Family names are disjoint between
    /// them; output is sorted by name.
    pub fn prom_metrics(&self) -> String {
        let (tally, shared) = {
            let (lock, _) = &*self.state;
            let st = lock.lock().unwrap();
            (st.tally(), st.shared_submissions)
        };
        self.registry.gauge_set(
            "simt_queue_depth",
            "Points registered but not yet resolved or running.",
            &[],
            tally.queued as f64,
        );
        self.registry.gauge_set(
            "simt_in_flight",
            "Points currently simulating.",
            &[],
            tally.running as f64,
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
        // One series per resolution seen this session, in label order.
        let resolved: Vec<SeriesSnapshot> = [
            ("cache_hit", tally.cache_hits),
            ("executed", tally.executed),
            ("failed", tally.failed),
        ]
        .into_iter()
        .filter(|&(_, n)| n > 0)
        .map(|(how, n)| SeriesSnapshot {
            labels: vec![("resolution".into(), how.into())],
            value: SeriesValue::Counter(n),
        })
        .collect();
        if !resolved.is_empty() {
            families.push(FamilySnapshot {
                name: "simt_points_resolved_total",
                help: "Sweep points resolved this session, by how.",
                kind: Kind::Counter,
                series: resolved,
            });
        }
        families.extend(simt_obs::metrics::global().snapshot());
        families.sort_by(|a, b| a.name.cmp(b.name));
        simt_obs::prom::render(&families)
    }

    /// (executed, cache_hits, shared_submissions, failed) session counters
    /// — the accounting the tests assert single-flight semantics with.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        let (lock, _) = &*self.state;
        let st = lock.lock().unwrap();
        let tally = st.tally();
        (
            tally.executed,
            tally.cache_hits,
            st.shared_submissions,
            tally.failed,
        )
    }
}

impl Drop for SweepService {
    fn drop(&mut self) {
        // Stop starting new simulations; the pool's own Drop then joins
        // the workers (queued tasks see `stopping` and return instantly).
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_each_status_once() {
        let statuses = [
            PointStatus::Queued,
            PointStatus::Running,
            PointStatus::Running,
            PointStatus::Executed(7),
            PointStatus::CacheHit(9),
            PointStatus::CacheHit(9),
            PointStatus::CacheHit(9),
            PointStatus::Failed("can never be placed".into()),
        ];
        let tally = Tally::of(&statuses);
        assert_eq!(
            tally,
            Tally {
                queued: 1,
                running: 2,
                failed: 1,
                executed: 1,
                cache_hits: 3,
            }
        );
        assert_eq!(tally.done(), 4);
        assert_eq!(Tally::of(&[]), Tally::default());
    }
}

//! `serve_warm`: the sweep service over a warm store, where the
//! simulator does nothing and `simt_serve`, the harness's cache read path
//! and `simt_obs` do all the work.
//!
//! Set-up populates a store with [`SERVE_BENCHES`] × four designs through
//! the service. Each pass then starts a fresh daemon on `127.0.0.1:0`
//! over that store (manifests cleared), and one client thread submits
//! five overlapping grids, waits for each and reads its status, fetches
//! every run, reads the metrics and status endpoints, and shuts the
//! daemon down. One request is one slot.

use crate::bench::{Bench, Counts, ProbeReport, Sample, Work};
use crate::plan::{self, Rng, SERVE_BENCHES, SERVE_READS_PER_ROUTE};
use crate::sim_bench::result_counts;
use crate::span::Recorder;
use simt_harness::json::{self, Value};
use simt_harness::{artifact, fnv1a64, DesignPoint, JobResult};
use simt_serve::client::{ApiResponse, Client};
use simt_serve::http::{Server, ServerHandle};
use simt_serve::{GridRequest, ServeConfig, SweepService};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest the client waits for a warm sweep; it completes in milliseconds.
const WAIT: Duration = Duration::from_secs(10);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    MetricsJson,
    MetricsProm,
    Status,
}

impl Route {
    fn path(self) -> &'static str {
        match self {
            Route::MetricsJson => "/metrics",
            Route::MetricsProm => "/metrics?format=prom",
            Route::Status => "/status",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Start,
    Submit(usize),
    Wait(usize),
    Status(usize),
    Fetch(u64),
    Read(Route),
    Shutdown,
}

/// One stored run, as set-up left it: what every fetch must return.
struct StoredRun {
    result: JobResult,
    bytes: String,
    /// FNV-1a of `bytes`.
    digest: u64,
}

struct Grid {
    request: Value,
    /// Key hashes of the grid's points, in request order.
    hashes: Vec<u64>,
}

/// The daemon of the pass in progress and what the client learned so far.
struct Live {
    service: Arc<SweepService>,
    handle: ServerHandle,
    thread: JoinHandle<()>,
    client: Client,
    /// Sweep id per grid, once submitted.
    ids: Vec<Option<String>>,
}

pub struct ServeBench {
    results: PathBuf,
    twin_results: PathBuf,
    grids: Vec<Grid>,
    stored: BTreeMap<u64, StoredRun>,
    slots: Vec<Slot>,
    names: Vec<String>,
    order: Vec<usize>,
    live: Option<Live>,
    /// In decomposed passes, a second service over a copy of the store,
    /// driven through the same calls in-process.
    twin: Option<Arc<SweepService>>,
    twin_ids: Vec<Option<String>>,
    http_requests: u64,
    /// `(executed, store-served, http requests)` of the last whole pass.
    last_pass: (u64, u64, u64),
}

fn grid_request(benches: &[&str]) -> Value {
    let strs =
        |items: &[&str]| Value::Arr(items.iter().map(|s| Value::Str(s.to_string())).collect());
    let designs: Vec<&str> = DesignPoint::HW_ALL.iter().map(|p| p.name()).collect();
    Value::Obj(vec![
        ("benches".into(), strs(benches)),
        ("designs".into(), strs(&designs)),
        ("scale".into(), Value::Int(1)),
    ])
}

fn service_over(results: &Path) -> Arc<SweepService> {
    // One simulation worker, no `--threads`: with the client thread that
    // is at most two runnable threads.
    Arc::new(SweepService::new(ServeConfig::new(results, 1)))
}

impl ServeBench {
    pub fn set_up(seed: u64, dir: &Path, rec: &mut Recorder) -> ServeBench {
        let _ = fs::remove_dir_all(dir);
        let results = dir.join("results");
        fs::create_dir_all(&results).expect("create serve_warm scratch directory");

        // Populate the store the way a user would: submit the whole grid
        // to a service and wait for it.
        let whole = GridRequest::from_json(&grid_request(&SERVE_BENCHES)).expect("valid grid");
        let jobs = whole.jobs();
        rec.span("serve.populate", |_| {
            let service = service_over(&results);
            let receipt = service.submit(whole).expect("populating submit accepted");
            assert!(
                service.wait_for_sweep(&receipt.id, Duration::from_secs(600)),
                "populating sweep did not complete"
            );
        });

        let cache = simt_harness::ResultCache::new(results.join("cache"));
        let mut stored = BTreeMap::new();
        let mut hash_of: BTreeMap<(String, &'static str), u64> = BTreeMap::new();
        for job in &jobs {
            let hash = job.cache_hash();
            let result = cache.load(job).expect("populated store holds every point");
            let bytes = fs::read_to_string(cache.entry_path_for_hash(hash))
                .expect("populated store entry is readable");
            let digest = fnv1a64(bytes.as_bytes());
            stored.insert(
                hash,
                StoredRun {
                    result,
                    bytes,
                    digest,
                },
            );
            hash_of.insert((job.bench().to_string(), job.point.name()), hash);
        }

        let grids: Vec<Grid> = plan::serve_grids(seed)
            .iter()
            .map(|benches| Grid {
                request: grid_request(benches),
                hashes: benches
                    .iter()
                    .flat_map(|b| {
                        DesignPoint::HW_ALL
                            .iter()
                            .map(|p| hash_of[&(b.to_string(), p.name())])
                    })
                    .collect(),
            })
            .collect();

        // Slot order: start, the grids one after another (seeded order),
        // the fetches and the reads (each seeded), shutdown.
        let mut rng = Rng::new(seed);
        let mut grid_order: Vec<usize> = (0..grids.len()).collect();
        rng.shuffle(&mut grid_order);
        let mut slots = vec![Slot::Start];
        for g in grid_order {
            slots.extend([Slot::Submit(g), Slot::Wait(g), Slot::Status(g)]);
        }
        let mut fetches: Vec<Slot> = stored.keys().map(|&h| Slot::Fetch(h)).collect();
        rng.shuffle(&mut fetches);
        slots.extend(fetches);
        let mut reads: Vec<Slot> = [Route::MetricsJson, Route::MetricsProm, Route::Status]
            .iter()
            .flat_map(|&r| std::iter::repeat_n(Slot::Read(r), SERVE_READS_PER_ROUTE))
            .collect();
        rng.shuffle(&mut reads);
        slots.extend(reads);
        slots.push(Slot::Shutdown);

        let names = slots
            .iter()
            .enumerate()
            .map(|(i, slot)| match slot {
                Slot::Start => "start".to_string(),
                Slot::Submit(g) => format!("POST /sweeps grid{g}"),
                Slot::Wait(g) => format!("GET /sweeps/:id/events grid{g}"),
                Slot::Status(g) => format!("GET /sweeps/:id grid{g}"),
                Slot::Fetch(h) => format!("GET /runs/{h:016x}"),
                Slot::Read(r) => format!("GET {} #{i}", r.path()),
                Slot::Shutdown => "POST /shutdown".to_string(),
            })
            .collect();
        ServeBench {
            twin_results: dir.join("twin"),
            results,
            twin_ids: vec![None; grids.len()],
            grids,
            stored,
            order: (0..slots.len()).collect(),
            slots,
            names,
            live: None,
            twin: None,
            http_requests: 0,
            last_pass: (0, 0, 0),
        }
    }

    fn start(&self) -> Result<Live, String> {
        let service = service_over(&self.results);
        service.resume();
        let server = Server::bind(Arc::clone(&service), "127.0.0.1:0")
            .map_err(|e| format!("cannot bind the daemon: {e}"))?;
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.serve());
        Ok(Live {
            client: Client::new(handle.addr().to_string()),
            service,
            handle,
            thread,
            ids: vec![None; self.grids.len()],
        })
    }

    /// POST /shutdown, then wait until the accept loop and the workers
    /// have ended.
    fn shutdown(live: Live) -> Result<(), String> {
        let response = live.client.post("/shutdown", None);
        if response.is_err() {
            live.handle.shutdown(); // make sure the accept loop ends
        }
        let joined = live.thread.join();
        drop(live.service);
        expect_ok(response)?;
        joined.map_err(|_| "the daemon's accept loop panicked".to_string())
    }

    /// Simulated cycles of a grid's points, as the store holds them.
    fn grid_cycles(&self, g: usize) -> u64 {
        let cycles = |hash: &u64| self.stored[hash].result.report.cycles;
        self.grids[g].hashes.iter().map(cycles).sum()
    }

    /// The request a slot sends to the daemon of the pass in progress.
    fn request(&self, slot: Slot) -> Result<Request, String> {
        let live = self.live.as_ref().ok_or("the daemon is not running")?;
        let sweep = |g: usize| live.ids[g].as_deref().ok_or("grid was not submitted");
        let get = |path: String| Request {
            path,
            body: None,
            text: false,
        };
        Ok(match slot {
            Slot::Submit(g) => Request {
                path: "/sweeps".to_string(),
                body: Some(self.grids[g].request.clone()),
                text: false,
            },
            // The journal of a sweep of n points holds n `finished` events
            // (seq 0..n) and then `complete` (seq n): asking for seq >= n
            // blocks until the sweep is complete.
            Slot::Wait(g) => get(format!(
                "/sweeps/{}/events?since={}&timeout_ms={}",
                sweep(g)?,
                self.grids[g].hashes.len(),
                WAIT.as_millis()
            )),
            Slot::Status(g) => get(format!("/sweeps/{}", sweep(g)?)),
            Slot::Fetch(hash) => get(format!("/runs/{hash:016x}")),
            Slot::Read(route) => Request {
                path: route.path().to_string(),
                body: None,
                text: route == Route::MetricsProm,
            },
            Slot::Start | Slot::Shutdown => unreachable!("not a request slot"),
        })
    }

    /// Check a slot's reply; returns its signature and the work delivered.
    fn judge(&mut self, slot: Slot, reply: &Reply) -> Result<([u64; 3], Work), String> {
        let number =
            |body: &Value, name: &str| body.get(name).and_then(Value::as_u64).unwrap_or(u64::MAX);
        match slot {
            Slot::Submit(g) => {
                let body = reply.json()?;
                let total = number(body, "total");
                if total != self.grids[g].hashes.len() as u64 {
                    return Err(format!("receipt names {total} points"));
                }
                let id = body
                    .get("id")
                    .and_then(Value::as_str)
                    .ok_or("receipt without id")?;
                if let Some(live) = self.live.as_mut() {
                    live.ids[g] = Some(id.to_string());
                }
                let sig = [total, number(body, "new"), number(body, "already_done")];
                Ok((sig, Work::default()))
            }
            Slot::Wait(_) => {
                let body = reply.json()?;
                if body.get("complete").and_then(Value::as_bool) != Some(true) {
                    return Err("sweep did not complete".to_string());
                }
                Ok(([1, number(body, "next"), 0], Work::default()))
            }
            Slot::Status(g) => {
                let body = reply.json()?;
                let points = self.grids[g].hashes.len() as u64;
                let stored_cycles = self.grid_cycles(g);
                let cycles: u64 = body
                    .get("points")
                    .and_then(Value::as_arr)
                    .unwrap_or_default()
                    .iter()
                    .filter_map(|p| p.get("cycles").and_then(Value::as_u64))
                    .sum();
                let (done, executed, failed) = (
                    number(body, "done"),
                    number(body, "executed"),
                    number(body, "failed"),
                );
                if body.get("complete").and_then(Value::as_bool) != Some(true)
                    || executed != 0
                    || failed != 0
                    || done != points
                    || cycles != stored_cycles
                {
                    return Err(format!(
                        "status: done {done} of {points}, executed {executed}, failed {failed}, \
                         cycles {cycles} (stored {stored_cycles})"
                    ));
                }
                let sig = [cycles, number(body, "total"), number(body, "cache_hits")];
                // The client now holds the resolution of every point of the
                // grid; the results themselves arrive with the fetches.
                let work = Work {
                    points,
                    ..Work::default()
                };
                Ok((sig, work))
            }
            Slot::Fetch(hash) => {
                let stored = &self.stored[&hash];
                if reply.raw()? != stored.bytes {
                    return Err("served bytes differ from the store file".to_string());
                }
                let report = &stored.result.report;
                let sig = [report.cycles, report.stats.warp_instructions, stored.digest];
                let work = Work {
                    points: 0,
                    cycles: report.cycles,
                    warp_instructions: report.stats.warp_instructions,
                };
                Ok((sig, work))
            }
            Slot::Read(_) => {
                reply.raw()?;
                Ok(([200, 0, 0], Work::default()))
            }
            Slot::Start | Slot::Shutdown => unreachable!("not a request slot"),
        }
    }

    /// The in-process twin of a request slot, each call in its own span.
    /// Returns why the twin's answer differs from the daemon's, if it does.
    fn twin_call(&mut self, slot: Slot, rec: &mut Recorder) -> Result<(), String> {
        let twin = Arc::clone(self.twin.as_ref().ok_or("no in-process twin")?);
        match slot {
            Slot::Submit(g) => {
                let text = self.grids[g].request.to_json();
                let request = rec
                    .leaf("serve.grid_parse", || {
                        json::parse(&text).and_then(|v| GridRequest::from_json(&v))
                    })
                    .map_err(|e| format!("twin: {e}"))?;
                // `submit` lowers the grid itself; this extra call shows
                // how much of a submission is rebuilding workloads.
                let jobs = rec.leaf("serve.grid_jobs", || request.jobs());
                let receipt = rec.leaf("serve.submit", || twin.submit(request))?;
                let live_id = self.live.as_ref().and_then(|l| l.ids[g].clone());
                if Some(&receipt.id) != live_id.as_ref() || receipt.total != jobs.len() {
                    return Err(format!(
                        "twin: receipt {receipt:?} differs from the daemon's"
                    ));
                }
                self.twin_ids[g] = Some(receipt.id);
            }
            Slot::Wait(g) => {
                let id = self.twin_ids[g]
                    .as_deref()
                    .ok_or("twin: grid was not submitted")?;
                if !rec.leaf("serve.wait", || twin.wait_for_sweep(id, WAIT)) {
                    return Err("twin: sweep did not complete".to_string());
                }
            }
            Slot::Status(g) => {
                let id = self.twin_ids[g]
                    .as_deref()
                    .ok_or("twin: grid was not submitted")?;
                let text = rec.leaf("serve.status_json", || {
                    twin.sweep_status(id).map(|status| status.to_json())
                });
                if text.is_none() {
                    return Err("twin: unknown sweep".to_string());
                }
            }
            Slot::Fetch(hash) => {
                let raw = rec.leaf("harness.cache_load", || twin.cache().load_raw_by_hash(hash));
                if raw.as_deref() != Some(self.stored[&hash].bytes.as_str()) {
                    return Err("twin: store bytes differ".to_string());
                }
                // The load above parses and validates the entry before
                // returning its text; this repeats that part alone.
                rec.leaf("harness.artifact_parse", || {
                    json::parse(raw.as_deref().unwrap_or_default())
                        .and_then(|v| artifact::from_json(&v))
                })
                .map_err(|e| format!("twin: stored entry does not parse: {e}"))?;
            }
            Slot::Read(route) => {
                let text = rec.leaf("serve.metrics_json", || match route {
                    Route::MetricsJson => twin.metrics().to_json(),
                    Route::MetricsProm => twin.prom_metrics(),
                    Route::Status => twin.status().to_json(),
                });
                std::hint::black_box(text);
            }
            Slot::Start | Slot::Shutdown => {}
        }
        Ok(())
    }

    fn run(&mut self, slot_id: usize, mut rec: Option<&mut Recorder>) -> Sample {
        let slot = self.slots[slot_id];
        let outcome: Result<(u64, [u64; 3], Work), String> = match slot {
            Slot::Start => {
                let (ns, started) = timed(rec.as_deref_mut(), "serve.start", || self.start());
                started.map(|live| {
                    self.live = Some(live);
                    (ns, [0; 3], Work::default())
                })
            }
            Slot::Shutdown => match self.live.take() {
                None => Err("the daemon is not running".to_string()),
                Some(live) => {
                    let (executed, store_served, _, failed) = live.service.counters();
                    self.http_requests += 1;
                    self.last_pass = (executed, store_served, self.http_requests);
                    let (ns, stopped) = timed(rec.as_deref_mut(), "serve.shutdown", || {
                        Self::shutdown(live)
                    });
                    stopped.and_then(|()| {
                        if executed != 0 || failed != 0 {
                            Err(format!(
                                "warm pass executed {executed} points, {failed} failed"
                            ))
                        } else {
                            Ok((ns, [executed, store_served, 0], Work::default()))
                        }
                    })
                }
            },
            _ => self.request(slot).and_then(|request| {
                let client = self.live.as_ref().map(|l| l.client.clone());
                let client = client.ok_or("the daemon is not running")?;
                self.http_requests += 1;
                let span_name = match slot {
                    Slot::Fetch(_) => "serve.http_get_run",
                    _ => "serve.http",
                };
                let (ns, reply) = timed(rec.as_deref_mut(), span_name, || request.send(&client));
                let (sig, work) = self.judge(slot, &reply?)?;
                Ok((ns, sig, work))
            }),
        };
        let outcome = outcome.and_then(|done| match rec {
            Some(rec) => self.twin_call(slot, rec).map(|()| done),
            None => Ok(done),
        });
        match outcome {
            Ok((ns, sig, work)) => Sample {
                ns,
                sig,
                work,
                failure: None,
            },
            Err(reason) => Sample {
                ns: 0,
                sig: [0; 3],
                work: Work::default(),
                failure: Some(format!("{}: {reason}", self.names[slot_id])),
            },
        }
    }
}

/// Time `f`, inside a span named `span_name` when a recorder is given.
fn timed<T>(
    rec: Option<&mut Recorder>,
    span_name: &'static str,
    f: impl FnOnce() -> T,
) -> (u64, T) {
    let t0 = Instant::now();
    let out = match rec {
        Some(rec) => rec.leaf(span_name, f),
        None => f(),
    };
    (t0.elapsed().as_nanos() as u64, out)
}

/// One request to the daemon: a POST when it has a body, else a GET.
struct Request {
    path: String,
    body: Option<Value>,
    /// The reply is text (Prometheus exposition), not JSON.
    text: bool,
}

impl Request {
    fn send(&self, client: &Client) -> Result<Reply, String> {
        match (&self.body, self.text) {
            (Some(body), _) => client.post(&self.path, Some(body)).map(Reply::Json),
            (None, true) => client.get_text(&self.path).map(Reply::Text),
            (None, false) => client.get(&self.path).map(Reply::Json),
        }
    }
}

/// A response, as either client call returns it.
enum Reply {
    Json(ApiResponse),
    Text((u16, String)),
}

impl Reply {
    fn raw(&self) -> Result<&str, String> {
        let (status, raw) = match self {
            Reply::Json(r) => (r.status, r.raw.as_str()),
            Reply::Text((status, raw)) => (*status, raw.as_str()),
        };
        if status == 200 {
            Ok(raw)
        } else {
            Err(format!("HTTP {status}: {raw}"))
        }
    }

    fn json(&self) -> Result<&Value, String> {
        self.raw()?;
        match self {
            Reply::Json(r) => Ok(&r.body),
            Reply::Text(_) => Err("not a JSON endpoint".to_string()),
        }
    }
}

fn expect_ok(response: Result<ApiResponse, String>) -> Result<(), String> {
    Reply::Json(response?).raw().map(|_| ())
}

fn copy_store(from: &Path, to: &Path) -> std::io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

impl Bench for ServeBench {
    fn slot_names(&self) -> &[String] {
        &self.names
    }

    fn order(&self) -> &[usize] {
        &self.order
    }

    fn begin_pass(&mut self, decomposed: bool) {
        // Without manifests the grids get registered, and their
        // manifests written, on every pass.
        let _ = fs::remove_dir_all(simt_serve::manifest::dir(&self.results));
        self.http_requests = 0;
        self.twin = None;
        self.twin_ids.iter_mut().for_each(|id| *id = None);
        if decomposed {
            let _ = fs::remove_dir_all(simt_serve::manifest::dir(&self.twin_results));
            let twin_cache = self.twin_results.join("cache");
            if !twin_cache.is_dir() {
                copy_store(&self.results.join("cache"), &twin_cache)
                    .expect("copy the store for the in-process twin");
            }
            let twin = service_over(&self.twin_results);
            twin.resume();
            self.twin = Some(twin);
        }
    }

    fn run_slot(&mut self, slot: usize) -> Sample {
        self.run(slot, None)
    }

    fn run_slot_decomposed(&mut self, slot: usize, rec: &mut Recorder) -> Sample {
        rec.span("slot", |rec| self.run(slot, Some(rec)))
    }

    fn end_pass(&mut self) -> Vec<(usize, String)> {
        self.twin = None;
        if let Some(live) = self.live.take() {
            // The shutdown slot did not get to run; do not leave a daemon.
            let _ = Self::shutdown(live);
        }
        Vec::new()
    }

    fn counts(&self) -> Counts {
        // The results delivered in a pass are the 48 fetched runs.
        let mut counts = result_counts(self.stored.values().map(|run| &run.result));
        let (executed, store_served, requests) = self.last_pass;
        counts.insert("serve.points_executed", executed as f64);
        counts.insert("serve.points_store_served", store_served as f64);
        counts.insert("serve.http_requests", requests as f64);
        counts.insert("harness.cache_hits", store_served as f64);
        counts.insert("harness.cache_misses", executed as f64);
        counts
    }

    fn probes(&mut self, _rec: &mut Recorder) -> ProbeReport {
        ProbeReport::default()
    }
}

//! The three workloads whose slots are simulations: `chip_compute` and
//! `chip_memory` (`Job::execute` at full chip) and `sweep_suite`
//! (`Harness::run` with a cold store, the shipped evaluation).

use crate::bench::{Bench, Counts, ProbeReport, Sample, Work};
use crate::plan::{self, Workload, CHIP_SCALE};
use crate::span::Recorder;
use affine::{decouple, AffineAnalysis};
use dac_core::{Dac, DacConfig};
use gpu_baselines::{Cae, CaeConfig, Mta, MtaConfig};
use gpu_energy::{energy_of, EnergyModel};
use gpu_workloads::{gpu_for, Design, Scenario};
use simt_harness::{
    artifact, fnv1a64, scenario_jobs, suite_jobs, DesignPoint, Harness, Job, JobResult, Overrides,
    Payload, ResultCache,
};
use simt_ir::Program;
use simt_sim::{CoProcessor, GpuConfig, GpuSim, NullCoProcessor, SimReport, Stream, StreamLaunch};
use simt_trace::{NullTracer, RingSink};
use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Events the ring-sink probe keeps (the newest); the rest are counted
/// as dropped, as in `sweep --trace` with its default ring.
const RING_EVENTS: usize = 1 << 18;

pub struct SimBench {
    jobs: Vec<Job>,
    names: Vec<String>,
    order: Vec<usize>,
    /// How a slot reaches the simulator. `None`: `Job::execute`, the
    /// simulation alone. A directory: `Harness::serial().with_cache(fresh)
    /// .with_artifacts(fresh).run(&[job])` — key hash, miss, simulate,
    /// store, JSONL artifact — with the store under that directory, deleted
    /// after every pass so that every slot misses.
    cold_store: Option<PathBuf>,
    pass: usize,
    /// Results of the pass in progress, by slot.
    current: Vec<Option<JobResult>>,
    /// Results of the most recent complete pass.
    last: Vec<JobResult>,
    cache_hits: u64,
    cache_misses: u64,
    /// Per slot, the fastest `harness.job` span of its decomposed
    /// executions: the reference the probes compare against.
    job_ns_min: Vec<u64>,
}

impl SimBench {
    /// `chip_compute` / `chip_memory`: three benchmarks × four designs on
    /// the default GTX 480 machine at [`CHIP_SCALE`].
    pub fn chip(workload: Workload, seed: u64, rec: &mut Recorder) -> SimBench {
        let benches = workload
            .chip_benches()
            .iter()
            .map(|abbr| {
                rec.leaf("workloads.build", || {
                    gpu_workloads::benchmark(abbr, CHIP_SCALE).expect("Table 2 benchmark")
                })
            })
            .collect();
        let jobs = suite_jobs(
            benches,
            CHIP_SCALE,
            &DesignPoint::HW_ALL,
            &Overrides::default(),
        );
        SimBench::executing(jobs, seed)
    }

    /// Slots that call `Job::execute` on `jobs`.
    pub fn executing(jobs: Vec<Job>, seed: u64) -> SimBench {
        SimBench::new(jobs, None, seed)
    }

    /// `sweep_suite`: 29 benchmarks + 3 stream scenarios × four designs at
    /// scale 1, each through a harness with a cold store under `root`.
    pub fn sweep(seed: u64, root: &Path, rec: &mut Recorder) -> SimBench {
        let benches = rec.leaf("workloads.build", || gpu_workloads::all_benchmarks(1));
        let scenarios = rec.leaf("workloads.build", || gpu_workloads::all_scenarios(1));
        let mut jobs = suite_jobs(benches, 1, &DesignPoint::HW_ALL, &Overrides::default());
        jobs.extend(scenario_jobs(
            scenarios,
            1,
            &DesignPoint::HW_ALL,
            &Overrides::default(),
        ));
        let _ = fs::remove_dir_all(root);
        fs::create_dir_all(root).expect("create sweep_suite scratch directory");
        SimBench::new(jobs, Some(root.to_path_buf()), seed)
    }

    fn new(jobs: Vec<Job>, cold_store: Option<PathBuf>, seed: u64) -> SimBench {
        let slots = jobs.len();
        SimBench {
            names: jobs.iter().map(Job::label).collect(),
            order: plan::slot_order(slots, seed),
            jobs,
            cold_store,
            pass: 0,
            current: vec![None; slots],
            last: Vec::new(),
            cache_hits: 0,
            cache_misses: 0,
            job_ns_min: vec![u64::MAX; slots],
        }
    }

    fn pass_dir(&self) -> Option<PathBuf> {
        let root = self.cold_store.as_ref()?;
        Some(root.join(format!("pass-{}", self.pass)))
    }

    fn finish(
        &mut self,
        slot: usize,
        ns: u64,
        result: JobResult,
        mut failure: Option<String>,
    ) -> Sample {
        if failure.is_none() {
            failure = check_result(&self.jobs[slot], &result);
        }
        let sample = Sample {
            ns,
            sig: signature(&result),
            work: Work {
                points: 1,
                cycles: result.report.cycles,
                warp_instructions: result.report.stats.warp_instructions,
            },
            failure,
        };
        self.current[slot] = Some(result);
        sample
    }
}

/// `(cycles, warp_instructions, output_digest)`.
fn signature(result: &JobResult) -> [u64; 3] {
    [
        result.report.cycles,
        result.report.stats.warp_instructions,
        result.output_digest,
    ]
}

/// The GPU configuration `job` runs on, as `Job::execute` derives it.
fn gpu_config(job: &Job) -> (Design, GpuConfig) {
    let (design, base) = match job.point {
        DesignPoint::PerfectMem => (Design::Baseline, GpuConfig::gtx480_perfect_mem()),
        DesignPoint::Hw(d) => (d, gpu_for(d)),
    };
    (design, job.overrides.apply_gpu(base))
}

/// Every scheduler issue slot of every cycle is in exactly one bucket.
fn check_result(job: &Job, result: &JobResult) -> Option<String> {
    let (_, cfg) = gpu_config(job);
    let expected = result.report.cycles * (cfg.schedulers * cfg.num_sms) as u64;
    let total = result.report.stats.issue_slots_total();
    (total != expected).then(|| {
        format!(
            "{}: issue-slot buckets sum to {total}, expected cycles x schedulers x SMs = {expected}",
            job.label()
        )
    })
}

fn digest_words(words: &[u32]) -> u64 {
    let mut bytes = Vec::with_capacity(words.len() * 4);
    for word in words {
        bytes.extend_from_slice(&word.to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// A design's coprocessor for one kernel, its construction timed.
fn coprocessor(
    design: Design,
    job: &Job,
    decoupled: Option<affine::DecoupledKernel>,
    rec: &mut Recorder,
) -> Box<dyn CoProcessor> {
    rec.leaf("coproc.new", || -> Box<dyn CoProcessor> {
        match (design, decoupled) {
            (Design::Dac, Some(dk)) => {
                Box::new(Dac::new(job.overrides.apply_dac(DacConfig::paper()), dk))
            }
            (Design::Cae, _) => Box::new(Cae::new(CaeConfig::default())),
            (Design::Mta, _) => Box::new(Mta::new(MtaConfig::default())),
            _ => Box::new(NullCoProcessor),
        }
    })
}

/// The program and coprocessor of one kernel under `design`: DAC runs the
/// non-affine stream of the decoupled kernel, the others the kernel as is.
fn lower(
    design: Design,
    job: &Job,
    kernel: &simt_ir::Kernel,
    launch: &simt_ir::LaunchConfig,
    rec: &mut Recorder,
) -> (Program, Box<dyn CoProcessor>) {
    if design == Design::Dac {
        let analysis = rec.leaf("affine.analysis", || AffineAnalysis::run(kernel));
        let dk = rec.leaf("affine.decouple", || decouple(kernel, &analysis));
        let program = rec.leaf("ir.program", || {
            Program::new(dk.non_affine.clone(), launch.clone()).expect("decoupled kernel invalid")
        });
        (program, coprocessor(design, job, Some(dk), rec))
    } else {
        let program = rec.leaf("ir.program", || {
            Program::new(kernel.clone(), launch.clone()).expect("invalid workload")
        });
        (program, coprocessor(design, job, None, rec))
    }
}

/// `Job::execute`, taken apart: the same public calls in the same roles,
/// each inside a span, under one `harness.job` span whose self time is
/// the glue and the output digest.
pub fn simulate(job: &Job, rec: &mut Recorder) -> JobResult {
    rec.span("harness.job", |rec| {
        let t0 = Instant::now();
        let (design, cfg) = gpu_config(job);
        let gpu = rec.leaf("sim.new", || GpuSim::new(cfg));
        let mut result = match &job.payload {
            Payload::Bench(w) => {
                let (program, mut coproc) = lower(design, job, &w.kernel, &w.launch, rec);
                let mut memory = rec.leaf("mem.image_clone", || w.fresh_memory());
                let report = rec.leaf("sim.run", || {
                    gpu.run_traced(&program, &mut memory, coproc.as_mut(), &mut NullTracer)
                });
                let words = rec.leaf("mem.readback", || {
                    memory.read_u32_vec(w.output.0, w.output.1)
                });
                JobResult {
                    report,
                    per_kernel: Vec::new(),
                    output_digest: digest_words(&words),
                    wall_ms: 0.0,
                    cached: false,
                }
            }
            Payload::Scenario(sc) => simulate_scenario(job, sc, design, &gpu, rec),
        };
        result.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        result
    })
}

fn simulate_scenario(
    job: &Job,
    sc: &Scenario,
    design: Design,
    gpu: &GpuSim,
    rec: &mut Recorder,
) -> JobResult {
    let mut memory = rec.leaf("mem.image_clone", || sc.fresh_memory());
    let mut streams = Vec::new();
    let mut owned: Vec<Box<dyn CoProcessor>> = Vec::new();
    for stream in &sc.streams {
        let mut launches = Vec::new();
        for k in stream {
            let (program, coproc) = lower(design, job, &k.kernel, &k.launch, rec);
            launches.push(StreamLaunch::labelled(program, k.label));
            owned.push(coproc);
        }
        streams.push(Stream::of(launches));
    }
    let coprocs: Vec<&mut dyn CoProcessor> = owned
        .iter_mut()
        .map(|c| c.as_mut() as &mut dyn CoProcessor)
        .collect();
    let run = rec.leaf("sim.run", || {
        gpu.run_streams_traced(
            &streams,
            &mut memory,
            coprocs,
            job.policy(),
            &mut NullTracer,
        )
    });
    let words = rec.leaf("mem.readback", || sc.output_words(&memory));
    JobResult {
        report: SimReport {
            kernel: sc.name.to_string(),
            coproc: job.point.name().to_string(),
            cycles: run.cycles,
            stats: run.stats,
            mem: run.mem,
        },
        per_kernel: run.per_kernel,
        output_digest: digest_words(&words),
        wall_ms: 0.0,
        cached: false,
    }
}

impl Bench for SimBench {
    fn slot_names(&self) -> &[String] {
        &self.names
    }

    fn order(&self) -> &[usize] {
        &self.order
    }

    fn slot_group(&self, slot: usize) -> Option<&'static str> {
        Some(self.jobs[slot].point.name())
    }

    fn begin_pass(&mut self, _decomposed: bool) {
        self.pass += 1;
        self.current.iter_mut().for_each(|r| *r = None);
        self.cache_hits = 0;
        self.cache_misses = 0;
        if let Some(dir) = self.pass_dir() {
            let _ = fs::remove_dir_all(dir);
        }
    }

    fn run_slot(&mut self, slot: usize) -> Sample {
        let job = &self.jobs[slot];
        match self.pass_dir() {
            None => {
                let t0 = Instant::now();
                let result = job.execute();
                let ns = t0.elapsed().as_nanos() as u64;
                self.finish(slot, ns, result, None)
            }
            Some(dir) => {
                let cache = ResultCache::new(dir.join("cache"));
                let harness = Harness::serial()
                    .with_cache(cache.clone())
                    .with_artifacts(dir.join("runs"));
                let t0 = Instant::now();
                let mut out = harness.run(std::slice::from_ref(job));
                let ns = t0.elapsed().as_nanos() as u64;
                self.cache_hits += out.cache_hits as u64;
                self.cache_misses += out.executed as u64;
                let stored = cache.entry_path_for_hash(job.cache_hash()).is_file();
                let artifact = out.artifact_path.as_deref().is_some_and(Path::is_file);
                let failure = (out.executed != 1 || !stored || !artifact).then(|| {
                    format!(
                        "{}: executed {} (expected 1), cache entry written: {stored}, \
                         artifact written: {artifact}",
                        job.label(),
                        out.executed
                    )
                });
                let result = out.results.pop().expect("one result per job");
                self.finish(slot, ns, result, failure)
            }
        }
    }

    fn run_slot_decomposed(&mut self, slot: usize, rec: &mut Recorder) -> Sample {
        let job = self.jobs[slot].clone();
        let dir = self.pass_dir();
        let t0 = Instant::now();
        let (result, failure) = rec.span("slot", |rec| match dir {
            None => (simulate(&job, rec), None),
            Some(dir) => harness_run(&job, &dir, rec),
        });
        let ns = t0.elapsed().as_nanos() as u64;
        if let Some(job_ns) = rec.last_duration_ns("harness.job") {
            self.job_ns_min[slot] = self.job_ns_min[slot].min(job_ns);
        }
        if self.cold_store.is_some() {
            self.cache_misses += 1;
        }
        self.finish(slot, ns, result, failure)
    }

    fn end_pass(&mut self) -> Vec<(usize, String)> {
        if let Some(dir) = self.pass_dir() {
            let _ = fs::remove_dir_all(dir);
        }
        if self.current.iter().any(Option::is_none) {
            return Vec::new(); // an interrupted pass has nothing to compare
        }
        self.last = self.current.iter_mut().filter_map(Option::take).collect();
        // Every design must leave the same output memory behind.
        let mut by_bench: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (slot, job) in self.jobs.iter().enumerate() {
            by_bench.entry(job.bench()).or_default().push(slot);
        }
        let mut failures = Vec::new();
        for (bench, slots) in by_bench {
            let digest = self.last[slots[0]].output_digest;
            if slots.iter().any(|&s| self.last[s].output_digest != digest) {
                for &s in &slots {
                    failures.push((s, format!("{bench}: output digests differ across designs")));
                }
            }
        }
        failures
    }

    fn counts(&self) -> Counts {
        let mut counts = result_counts(self.last.iter());
        counts.insert("harness.cache_hits", self.cache_hits as f64);
        counts.insert("harness.cache_misses", self.cache_misses as f64);
        counts
    }

    fn probes(&mut self, rec: &mut Recorder) -> ProbeReport {
        let mut report = ProbeReport::default();
        if self.last.is_empty() || self.job_ns_min.contains(&u64::MAX) {
            return report; // no decomposed pass to compare against
        }
        let perfect_cycles = self.probe_perfect_memory(rec, &mut report);
        self.probe_fast_forward_off(rec, &mut report);
        self.probe_sinks(rec, &mut report);
        if self.cold_store.is_some() {
            // `sweep_suite`: the whole evaluation, so its headline numbers.
            self.model_speedups(&perfect_cycles, &mut report);
        }
        report
    }
}

impl SimBench {
    /// Every benchmark once on `GpuConfig::gtx480_perfect_mem()`. Perfect
    /// memory leaves (almost) only the SMs to simulate, so host cost per
    /// cycle there approximates the SM-side cost. Returns each
    /// benchmark's perfect-memory cycles.
    fn probe_perfect_memory<'a>(
        &'a self,
        rec: &mut Recorder,
        report: &mut ProbeReport,
    ) -> BTreeMap<&'a str, u64> {
        let mut cycles: BTreeMap<&str, u64> = BTreeMap::new();
        let (mut run_ns, mut total) = (0u64, 0u64);
        for (slot, job) in self.jobs.iter().enumerate() {
            if job.workload().is_none() || cycles.contains_key(job.bench()) {
                continue;
            }
            let mut probe = job.clone();
            probe.point = DesignPoint::PerfectMem;
            let result = rec.span("probe.perfect", |rec| simulate(&probe, rec));
            run_ns += rec.last_duration_ns("sim.run").unwrap_or(0);
            total += result.report.cycles;
            cycles.insert(job.bench(), result.report.cycles);
            report.attempted += 1;
            if result.output_digest != self.last[slot].output_digest {
                report
                    .failures
                    .push(format!("{}: perfect-memory output differs", job.bench()));
            }
        }
        if total > 0 {
            report
                .metrics
                .insert("sim.ns_per_cycle.perfect", run_ns as f64 / total as f64);
        }
        cycles
    }

    /// Every slot again without idle-cycle fast-forward.
    fn probe_fast_forward_off(&self, rec: &mut Recorder, report: &mut ProbeReport) {
        let (mut off_ns, mut on_ns) = (0u64, 0u64);
        for &slot in &self.order {
            let mut probe = self.jobs[slot].clone();
            probe.overrides.no_fast_forward = true;
            let result = rec.span("probe.ff_off", |rec| simulate(&probe, rec));
            off_ns += rec.last_duration_ns("harness.job").unwrap_or(0);
            on_ns += self.job_ns_min[slot];
            report.attempted += 1;
            if signature(&result) != signature(&self.last[slot]) {
                report.failures.push(format!(
                    "{}: result changes without fast-forward",
                    self.names[slot]
                ));
            }
        }
        report
            .metrics
            .insert("sim.ff_off_ratio", off_ns as f64 / on_ns as f64);
    }

    /// The cheapest slot again with an event sink attached.
    fn probe_sinks(&self, rec: &mut Recorder, report: &mut ProbeReport) {
        let cheapest = (0..self.jobs.len())
            .min_by_key(|&s| self.job_ns_min[s])
            .expect("at least one slot");
        let job = &self.jobs[cheapest];
        let reference = self.job_ns_min[cheapest] as f64;

        let mut ring = RingSink::new(RING_EVENTS);
        let ringed = rec.leaf("probe.ring_sink", || job.execute_traced(&mut ring));
        let ring_ns = rec.last_duration_ns("probe.ring_sink").unwrap_or(0);
        report
            .metrics
            .insert("trace.ring_run_ratio", ring_ns as f64 / reference);

        let (_, cfg) = gpu_config(job);
        let cutoff = cfg.mem.l1_hit_latency.max(cfg.mem.prefetch_buffer_latency);
        let mut sink = simt_profile::ProfileSink::new(cutoff);
        let profiled = rec.leaf("probe.profile_sink", || job.execute_traced(&mut sink));
        let profile_ns = rec.last_duration_ns("probe.profile_sink").unwrap_or(0);
        report
            .metrics
            .insert("profile.sink_run_ratio", profile_ns as f64 / reference);

        for (what, result) in [("RingSink", ringed), ("ProfileSink", profiled)] {
            report.attempted += 1;
            if signature(&result) != signature(&self.last[cheapest]) {
                report.failures.push(format!(
                    "{}: result changes with a {what} attached",
                    self.names[cheapest]
                ));
            }
        }
    }

    /// The model's own headline numbers (simulated time), printed beside
    /// every host-speed number: DAC's geomean speed-up over all
    /// benchmarks, MTA's over the memory-intensive ones.
    fn model_speedups(&self, perfect_cycles: &BTreeMap<&str, u64>, report: &mut ProbeReport) {
        let cycles = |bench: &str, point: DesignPoint| -> Option<f64> {
            let slot = self
                .jobs
                .iter()
                .position(|j| j.bench() == bench && j.point == point)?;
            Some(self.last[slot].report.cycles as f64)
        };
        let baseline = |bench: &str| cycles(bench, DesignPoint::Hw(Design::Baseline));
        let speedup = |bench: &str, design: Design| -> Option<f64> {
            Some(baseline(bench)? / cycles(bench, DesignPoint::Hw(design))?)
        };
        let dac: Vec<f64> = perfect_cycles
            .keys()
            .filter_map(|b| speedup(b, Design::Dac))
            .collect();
        // Memory-intensive as the paper defines it (§5.1.2): perfect
        // memory speeds the baseline up at least 1.5x.
        let mta_mem: Vec<f64> = perfect_cycles
            .iter()
            .filter(|(b, &perfect)| baseline(b).is_some_and(|base| base / perfect as f64 >= 1.5))
            .filter_map(|(b, _)| speedup(b, Design::Mta))
            .collect();
        report
            .metrics
            .insert("model.dac_speedup_geomean", geomean(&dac));
        report
            .metrics
            .insert("model.mta_mem_speedup_geomean", geomean(&mta_mem));
    }
}

fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `Harness::run` on one job with a cold store, taken apart: key hash,
/// store lookup (a miss), the simulation, store write, artifact line.
fn harness_run(job: &Job, dir: &Path, rec: &mut Recorder) -> (JobResult, Option<String>) {
    let cache = ResultCache::new(dir.join("cache"));
    let hash = rec.leaf("harness.cache_key", || job.cache_hash());
    let hit = rec.leaf("harness.cache_load", || cache.load(job));
    let result = simulate(job, rec);
    // `artifact::to_json` evaluates the energy model inside both calls
    // below; this extra call makes its cost visible on its own.
    rec.leaf("energy.model", || {
        std::hint::black_box(energy_of(&result.report, &EnergyModel::gtx480()))
    });
    rec.leaf("harness.cache_store", || cache.store(job, &result));
    let line = rec.leaf("harness.artifact_json", || {
        artifact::to_json(job, &result, Some(0), None).to_json()
    });
    let runs = dir.join("runs");
    let written = rec.leaf("harness.artifact_write", || -> std::io::Result<()> {
        fs::create_dir_all(&runs)?;
        let mut file = fs::File::create(runs.join(format!("run-{hash:016x}.jsonl")))?;
        writeln!(file, "{line}")
    });
    let stored = cache.entry_path_for_hash(hash).is_file();
    let failure = (hit.is_some() || !stored || written.is_err()).then(|| {
        format!(
            "{}: cold store hit: {}, cache entry written: {stored}, artifact: {written:?}",
            job.label(),
            hit.is_some()
        )
    });
    (result, failure)
}

/// The counts every workload reports, summed over the results of a pass.
pub fn result_counts<'a>(results: impl Iterator<Item = &'a JobResult>) -> Counts {
    let mut c = Counts::new();
    for r in results {
        let (s, m) = (&r.report.stats, &r.report.mem);
        for (name, value) in [
            ("sim.cycles", r.report.cycles),
            ("sim.warp_instructions", s.warp_instructions),
            ("sim.slot_issued", s.slot_issued),
            ("sim.slot_idle", s.slot_idle),
            ("sim.slot_scoreboard", s.slot_scoreboard),
            ("sim.slot_lsu_full", s.slot_lsu_full),
            ("mem.l1_hits", m.l1_hits),
            ("mem.l1_misses", m.l1_misses),
            ("mem.l2_hits", m.l2_hits),
            ("mem.l2_misses", m.l2_misses),
            ("mem.dram_row_hits", m.dram_row_hits),
            ("mem.dram_serviced", m.dram_serviced),
            ("core.decoupled_loads", s.decoupled_loads),
            ("core.affine_instructions", s.affine_instructions),
            (
                "baselines.cae_affine_instructions",
                s.cae_affine_instructions,
            ),
            ("baselines.mta_prefetches_issued", s.prefetches_issued),
        ] {
            *c.entry(name).or_insert(0.0) += value as f64;
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn small(abbr: &str, point: DesignPoint) -> Job {
        let w = Arc::new(gpu_workloads::benchmark(abbr, 1).unwrap());
        let mut job = Job::new(w, 1, point);
        job.overrides.num_sms = Some(2);
        job.overrides.max_warps_per_sm = Some(16);
        job
    }

    #[test]
    fn decomposed_simulation_reproduces_job_execute() {
        let mut rec = Recorder::new();
        for point in DesignPoint::HW_ALL
            .into_iter()
            .chain([DesignPoint::PerfectMem])
        {
            let job = small("LIB", point);
            let whole = job.execute();
            let parts = simulate(&job, &mut rec);
            assert_eq!(signature(&whole), signature(&parts), "{}", job.label());
            assert_eq!(whole.report.stats, parts.report.stats);
            assert_eq!(whole.report.mem, parts.report.mem);
            assert_eq!(check_result(&job, &parts), None);
        }
    }

    #[test]
    fn decomposed_scenario_reproduces_job_execute() {
        let sc = Arc::new(gpu_workloads::scenario("pipeline", 1).unwrap());
        let mut rec = Recorder::new();
        for point in [
            DesignPoint::Hw(Design::Baseline),
            DesignPoint::Hw(Design::Dac),
        ] {
            let mut job = Job::for_scenario(sc.clone(), 1, point);
            job.overrides.num_sms = Some(2);
            job.overrides.max_warps_per_sm = Some(16);
            let whole = job.execute();
            let parts = simulate(&job, &mut rec);
            assert_eq!(signature(&whole), signature(&parts), "{}", job.label());
            assert_eq!(whole.per_kernel.len(), parts.per_kernel.len());
        }
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}

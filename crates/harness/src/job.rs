//! The job abstraction: one cycle-level simulation of `workload × design ×
//! configuration overrides`, plus everything needed to key it in the result
//! cache and serialize it into artifacts.

use crate::cache::fnv1a64;
use dac_core::DacConfig;
use gpu_workloads::{gpu_for, run_design, run_scenario_design, Design, Scenario, Workload};
use simt_sim::{GpuConfig, GpuSim, KernelReport, PlacementPolicy, SimReport};
use simt_trace::{NullTracer, Tracer};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Version tag folded into every cache key. Bump whenever simulator
/// behaviour changes in a way that invalidates cached results (the
/// golden-stats test catches unintended shifts). v5: MTA prefetches pop
/// into a one-entry port latch before the fabric admission attempt, so
/// enqueue decisions no longer depend on admission timing (required by
/// the deterministic intra-run parallel schedule; shifts MTA cycle
/// counts slightly).
pub const CACHE_VERSION: &str = "dac-cache-v5";

/// A point in the design space: one of the paper's four hardware designs,
/// or the perfect-memory machine used for the §5.1.2 compute/memory
/// classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignPoint {
    /// Baseline / CAE / MTA / DAC.
    Hw(Design),
    /// Baseline cores with a zero-latency, infinite-bandwidth memory.
    PerfectMem,
}

impl DesignPoint {
    /// The four hardware designs, in [`Design::ALL`] order.
    pub const HW_ALL: [DesignPoint; 4] = [
        DesignPoint::Hw(Design::Baseline),
        DesignPoint::Hw(Design::Cae),
        DesignPoint::Hw(Design::Mta),
        DesignPoint::Hw(Design::Dac),
    ];

    /// Stable name used in cache keys, artifacts, and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            DesignPoint::Hw(d) => d.name(),
            DesignPoint::PerfectMem => "perfect",
        }
    }

    /// Inverse of [`DesignPoint::name`] (case-insensitive).
    pub fn parse(s: &str) -> Option<DesignPoint> {
        let s = s.to_ascii_lowercase();
        for p in Self::HW_ALL {
            if p.name() == s {
                return Some(p);
            }
        }
        (s == "perfect").then_some(DesignPoint::PerfectMem)
    }
}

/// Largest `num_sms` / `max_warps_per_sm` (the machine knobs' ceiling):
/// several times any shipped GPU (the paper's GTX 480 is 15 × 48), small
/// enough that the largest accepted machine allocates tens of MiB.
pub const MAX_MACHINE_DIM: usize = 256;

/// Largest workload `scale` the CLIs and the sweep service accept. Memory
/// images grow linearly with it (≈ 3.7 MiB per unit over the 29-benchmark
/// suite, so ≈ 250 MB at this ceiling; nothing shipped runs above 4), and
/// a failed allocation aborts the process — it is not a panic a worker
/// could contain.
pub const MAX_SCALE: u32 = 64;

/// Configuration overrides applied on top of the paper's defaults. `None`
/// means "leave the paper value". Every field but `no_fast_forward` is a
/// [`crate::knobs::KNOBS`] row, which says what the knob changes, which
/// values it takes, and how it keys a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Overrides {
    /// Affine Tuple Queue entries per SM (DAC only; paper: 24).
    pub atq_entries: Option<usize>,
    /// Per-Warp Address Queue entries per SM (DAC only; paper: 192).
    pub pwaq_total: Option<usize>,
    /// Per-Warp Predicate Queue entries per SM (DAC only; paper: 192).
    pub pwpq_total: Option<usize>,
    /// L1 line locking (DAC only; paper: on).
    pub lock_lines: Option<bool>,
    /// Number of SMs (all designs; paper: 15).
    pub num_sms: Option<usize>,
    /// Resident warps per SM (all designs; paper: 48).
    pub max_warps_per_sm: Option<usize>,
    /// No-op: nothing reads it and no knob sets it. `benchmark/`'s frozen
    /// `sim.ff_off_ratio` probe assigns it; it leaves with the probe
    /// (ROADMAP, "The `[benchmark]` PR").
    pub no_fast_forward: bool,
    /// Multi-kernel scenario (`--set streams=NAME`): the CLIs build scenario
    /// jobs from it, whose payload keys the name.
    pub streams: Option<String>,
    /// CTA placement policy of scenario jobs (`--set cta_policy=greedy|rr`).
    pub cta_policy: Option<PlacementPolicy>,
}

impl Overrides {
    /// Apply the GPU-wide knobs to a core configuration.
    pub fn apply_gpu(&self, mut cfg: GpuConfig) -> GpuConfig {
        if let Some(n) = self.num_sms {
            cfg.num_sms = n;
        }
        if let Some(n) = self.max_warps_per_sm {
            cfg.max_warps_per_sm = n;
        }
        cfg
    }

    /// Apply the DAC knobs to a DAC hardware configuration.
    pub fn apply_dac(&self, mut cfg: DacConfig) -> DacConfig {
        if let Some(n) = self.atq_entries {
            cfg.atq_entries = n;
        }
        if let Some(n) = self.pwaq_total {
            cfg.pwaq_total = n;
        }
        if let Some(n) = self.pwpq_total {
            cfg.pwpq_total = n;
        }
        if let Some(b) = self.lock_lines {
            cfg.lock_lines = b;
        }
        cfg
    }
}

/// What a job simulates: one of the 29 single-kernel benchmarks, or a
/// multi-kernel stream scenario dispatched by the command processor.
#[derive(Clone)]
pub enum Payload {
    /// A single-kernel benchmark (shared across jobs; each run clones the
    /// memory image).
    Bench(Arc<Workload>),
    /// A multi-kernel stream scenario.
    Scenario(Arc<Scenario>),
}

impl Payload {
    /// Which registry the payload comes from.
    pub fn kind(&self) -> PayloadKind {
        match self {
            Payload::Bench(_) => PayloadKind::Bench,
            Payload::Scenario(_) => PayloadKind::Scenario,
        }
    }
}

/// Which registry a payload name refers to: the benchmarks
/// (`gpu_workloads::benchmark`) or the stream scenarios
/// (`gpu_workloads::scenario`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadKind {
    Bench,
    Scenario,
}

/// The canonical cache key of a run of the payload `name` of `kind` at
/// `scale`, under `point` and `overrides`: every input that determines the
/// result, spelled from names alone, so a run can be looked up before its
/// workload is built. [`Job::cache_key`] is this function of the job.
pub fn cache_key(
    kind: PayloadKind,
    name: &str,
    scale: u32,
    point: DesignPoint,
    overrides: &Overrides,
) -> String {
    let mut key = match kind {
        PayloadKind::Bench => format!(
            "{CACHE_VERSION}|bench={name}|scale={scale}|design={}",
            point.name()
        ),
        PayloadKind::Scenario => {
            let mut key = format!("{CACHE_VERSION}|scenario={name}");
            for (k, v) in overrides.scenario_values() {
                let _ = write!(key, "|{k}={v}");
            }
            let _ = write!(key, "|scale={scale}|design={}", point.name());
            key
        }
    };
    for (k, v) in overrides.relevant(point) {
        key.push('|');
        key.push_str(k);
        key.push('=');
        v.write(&mut key);
    }
    key
}

/// One schedulable simulation.
#[derive(Clone)]
pub struct Job {
    /// What to simulate.
    pub payload: Payload,
    /// The scale the payload was built at — part of the cache key, since
    /// both registries parameterize inputs by scale.
    pub scale: u32,
    /// Which design to run.
    pub point: DesignPoint,
    /// Configuration overrides.
    pub overrides: Overrides,
}

impl Job {
    /// A benchmark job at paper-default configuration.
    pub fn new(workload: Arc<Workload>, scale: u32, point: DesignPoint) -> Self {
        Job {
            payload: Payload::Bench(workload),
            scale,
            point,
            overrides: Overrides::default(),
        }
    }

    /// A multi-kernel scenario job at paper-default configuration.
    pub fn for_scenario(scenario: Arc<Scenario>, scale: u32, point: DesignPoint) -> Self {
        Job {
            payload: Payload::Scenario(scenario),
            scale,
            point,
            overrides: Overrides::default(),
        }
    }

    /// The benchmark workload, when this is a benchmark job.
    pub fn workload(&self) -> Option<&Arc<Workload>> {
        match &self.payload {
            Payload::Bench(w) => Some(w),
            Payload::Scenario(_) => None,
        }
    }

    /// The scenario, when this is a scenario job.
    pub fn scenario(&self) -> Option<&Arc<Scenario>> {
        match &self.payload {
            Payload::Bench(_) => None,
            Payload::Scenario(sc) => Some(sc),
        }
    }

    /// Stable short name keying the payload: the benchmark abbreviation
    /// or the scenario name.
    pub fn bench(&self) -> &str {
        match &self.payload {
            Payload::Bench(w) => w.abbr,
            Payload::Scenario(sc) => sc.name,
        }
    }

    /// Human-readable payload name for artifacts.
    pub fn display_name(&self) -> &str {
        match &self.payload {
            Payload::Bench(w) => w.name,
            Payload::Scenario(sc) => sc.description,
        }
    }

    /// Suite tag: the Table 2 suite letter, or `S` for scenarios.
    pub fn suite_tag(&self) -> char {
        match &self.payload {
            Payload::Bench(w) => w.suite.tag(),
            Payload::Scenario(_) => 'S',
        }
    }

    /// The CTA placement policy this job runs under (scenario jobs only;
    /// single-kernel dispatch is always greedy).
    pub fn policy(&self) -> PlacementPolicy {
        self.overrides.cta_policy.unwrap_or_default()
    }

    /// The canonical cache key ([`cache_key`]): every input that
    /// determines the result. Hash this (the cache does) rather than
    /// parsing it.
    pub fn cache_key(&self) -> String {
        cache_key(
            self.payload.kind(),
            self.bench(),
            self.scale,
            self.point,
            &self.overrides,
        )
    }

    /// The FNV-1a hash of the canonical cache key — the stable short id a
    /// result is addressed by on disk (`results/cache/<hash>.json`) and
    /// over the sweep-service API (`GET /runs/<hash>`).
    pub fn cache_hash(&self) -> u64 {
        fnv1a64(self.cache_key().as_bytes())
    }

    /// Short human label for progress lines.
    pub fn label(&self) -> String {
        format!("{}/{}", self.bench(), self.point.name())
    }

    /// The machine this job runs on: the design point's base
    /// configuration with the job's overrides applied.
    fn gpu(&self) -> GpuSim {
        let base = match self.point {
            DesignPoint::PerfectMem => GpuConfig::gtx480_perfect_mem(),
            DesignPoint::Hw(d) => gpu_for(d),
        };
        GpuSim::new(self.overrides.apply_gpu(base))
    }

    /// The response latency at or below which a memory access on this
    /// job's machine was an L1 or prefetch-buffer hit: the cutoff a
    /// `simt_profile::ProfileSink` keeps hits out of its miss histograms
    /// with.
    pub(crate) fn profile_cutoff(&self) -> u64 {
        let gpu = self.gpu();
        let mem = &gpu.config().mem;
        mem.l1_hit_latency.max(mem.prefetch_buffer_latency)
    }

    /// Can this job run at all? `Err` is the one-line reason when a CTA of
    /// one of its kernels can never be placed on the configured machine
    /// (e.g. `max_warps_per_sm` overridden below the kernel's warps per
    /// CTA) — the condition [`Job::execute`] panics on at launch. DAC's
    /// non-affine stream keeps the original kernel's launch geometry and
    /// static footprint, so checking the original covers every design.
    pub fn check(&self) -> Result<(), String> {
        let gpu = self.gpu();
        match &self.payload {
            Payload::Bench(w) => gpu.check_launch(&w.kernel, &w.launch),
            Payload::Scenario(sc) => sc
                .kernels()
                .iter()
                .try_for_each(|k| gpu.check_launch(&k.kernel, &k.launch)),
        }
    }

    /// Run the simulation. Deterministic: equal jobs produce equal results
    /// on every invocation, which is what makes the cache sound.
    ///
    /// # Panics
    ///
    /// Panics if [`Job::check`] fails, or on a simulator correctness
    /// violation (deadlock guard, accounting invariants).
    pub fn execute(&self) -> JobResult {
        self.execute_traced(&mut NullTracer)
    }

    /// Run the simulation with an event tracer attached. Tracing is pure
    /// observation: the [`JobResult`] is byte-identical to [`Job::execute`]
    /// (the determinism test pins this across workloads × designs).
    pub fn execute_traced(&self, tracer: &mut dyn Tracer) -> JobResult {
        match &self.payload {
            Payload::Bench(w) => self.execute_bench(w, tracer),
            Payload::Scenario(sc) => self.execute_scenario(sc, tracer),
        }
    }

    /// The design whose coprocessor the job runs: perfect memory is the
    /// baseline design on a perfect-memory machine ([`Job::gpu`]).
    fn design(&self) -> Design {
        match self.point {
            DesignPoint::PerfectMem => Design::Baseline,
            DesignPoint::Hw(d) => d,
        }
    }

    fn execute_bench(&self, w: &Workload, tracer: &mut dyn Tracer) -> JobResult {
        let t0 = Instant::now();
        let dac = self.overrides.apply_dac(DacConfig::paper());
        let run = run_design(w, self.design(), &self.gpu(), dac, tracer);
        let words = run.memory.read_u32_vec(w.output.0, w.output.1);
        JobResult {
            report: run.report,
            per_kernel: Vec::new(),
            output_digest: digest_words(&words),
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            cached: false,
        }
    }

    fn execute_scenario(&self, sc: &Scenario, tracer: &mut dyn Tracer) -> JobResult {
        let t0 = Instant::now();
        let dac = self.overrides.apply_dac(DacConfig::paper());
        let run = run_scenario_design(sc, self.design(), &self.gpu(), self.policy(), dac, tracer);
        let words = sc.output_words(&run.memory);
        JobResult {
            report: SimReport {
                kernel: sc.name.to_string(),
                coproc: self.point.name().to_string(),
                cycles: run.report.cycles,
                stats: run.report.stats,
                mem: run.report.mem,
            },
            per_kernel: run.report.per_kernel,
            output_digest: digest_words(&words),
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            cached: false,
        }
    }
}

/// FNV-1a digest of a word vector, little-endian.
fn digest_words(words: &[u32]) -> u64 {
    let mut bytes = Vec::with_capacity(words.len() * 4);
    for word in words {
        bytes.extend_from_slice(&word.to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// What a job produced. Everything here round-trips through the cache and
/// the JSONL artifacts except `wall_ms`/`cached`, which describe *this*
/// invocation rather than the simulation.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The simulator report (cycles + core stats + memory stats). For
    /// scenario jobs, `kernel` is the scenario name, `coproc` the design
    /// name, and `stats` the exact field-wise sum over `per_kernel` bins.
    pub report: SimReport,
    /// Per-kernel attribution, stream-major — one entry per launch for
    /// scenario jobs, empty for single-kernel benchmark jobs.
    pub per_kernel: Vec<KernelReport>,
    /// FNV-1a digest of the output memory region, for cross-design
    /// correctness checks without holding the memory image.
    pub output_digest: u64,
    /// Wall-clock milliseconds spent simulating (0 for cache hits).
    pub wall_ms: f64,
    /// Whether this result came from the cache.
    pub cached: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_workloads::benchmark;

    fn small() -> Overrides {
        Overrides {
            num_sms: Some(2),
            max_warps_per_sm: Some(16),
            ..Overrides::default()
        }
    }

    #[test]
    fn cache_key_canonicalizes_dac_knobs() {
        let w = Arc::new(benchmark("LIB", 1).unwrap());
        let mut base = Job::new(w.clone(), 1, DesignPoint::Hw(Design::Baseline));
        base.overrides.atq_entries = Some(4);
        // ATQ size is a DAC knob: the baseline key must not change.
        assert_eq!(
            base.cache_key(),
            Job::new(w.clone(), 1, DesignPoint::Hw(Design::Baseline)).cache_key()
        );
        let mut dac = Job::new(w.clone(), 1, DesignPoint::Hw(Design::Dac));
        dac.overrides.atq_entries = Some(4);
        assert_ne!(
            dac.cache_key(),
            Job::new(w, 1, DesignPoint::Hw(Design::Dac)).cache_key()
        );
    }

    #[test]
    fn scale_and_design_separate_keys() {
        let w = Arc::new(benchmark("LIB", 1).unwrap());
        let keys: Vec<String> = DesignPoint::HW_ALL
            .iter()
            .map(|&p| Job::new(w.clone(), 1, p).cache_key())
            .collect();
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_ne!(
            Job::new(w.clone(), 1, DesignPoint::PerfectMem).cache_key(),
            Job::new(w, 2, DesignPoint::PerfectMem).cache_key()
        );
    }

    #[test]
    fn execute_is_deterministic() {
        let w = Arc::new(benchmark("LIB", 1).unwrap());
        let mut job = Job::new(w, 1, DesignPoint::Hw(Design::Dac));
        job.overrides = small();
        let a = job.execute();
        let b = job.execute();
        assert_eq!(a.report.cycles, b.report.cycles);
        assert_eq!(a.report.stats, b.report.stats);
        assert_eq!(a.report.mem, b.report.mem);
        assert_eq!(a.output_digest, b.output_digest);
    }

    #[test]
    fn overrides_set_rejects_garbage() {
        // Each knob may be set once, so every probe gets fresh overrides.
        let set = |key: &str, value: &str| Overrides::default().set(key, value);
        let mut o = Overrides::default();
        assert!(o.set("atq_entries", "12").is_ok());
        assert!(o.set("lock_lines", "off").is_ok());
        assert!(set("atq_entries", "many").is_err());
        assert!(set("lock_lines", "2").is_err());
        assert!(set("warp_speed", "9").is_err());
        // Nothing in the simulator ever read `divergent_tuples`, so it is not
        // a knob: an "ablation" through it would change nothing.
        let err = set("divergent_tuples", "off").unwrap_err();
        assert!(
            err.starts_with("unknown config knob \"divergent_tuples\"") && !err.contains('\n'),
            "{err}"
        );
        // A machine with no SMs or no warp slots is a `--set` error, not a
        // simulation that dies at the deadlock guard.
        for key in ["num_sms", "max_warps_per_sm"] {
            let err = set(key, "0").unwrap_err();
            assert!(err.contains(key) && !err.contains('\n'), "{err}");
            assert!(set(key, "1").is_ok());
            // Nor is one whose allocation would abort the process.
            for huge in ["257", "40000000000", "18446744073709551615"] {
                assert_eq!(
                    set(key, huge).unwrap_err(),
                    format!("--set {key}: must be at most 256")
                );
            }
            assert!(set(key, "256").is_ok());
        }
        // So is a DAC with no ATQ entry (the run would deadlock), and queue
        // totals of 0, which the one-entry-per-warp floor would override.
        assert_eq!(
            set("atq_entries", "0").unwrap_err(),
            "--set atq_entries: must be at least 1"
        );
        assert!(set("pwaq_total", "0").is_err() && set("pwpq_total", "0").is_err());
        assert_eq!(o.atq_entries, Some(12));
        assert_eq!(o.lock_lines, Some(false));
    }

    #[test]
    fn check_reports_unplaceable_ctas_in_one_line() {
        // LIB launches 4-warp CTAs: 3 warp slots per SM can never hold one.
        let w = Arc::new(benchmark("LIB", 1).unwrap());
        for point in DesignPoint::HW_ALL
            .into_iter()
            .chain([DesignPoint::PerfectMem])
        {
            let mut job = Job::new(w.clone(), 1, point);
            assert_eq!(job.check(), Ok(()));
            job.overrides.max_warps_per_sm = Some(3);
            let err = job.check().unwrap_err();
            assert!(
                err.contains("can never be placed") && err.contains("4 warps"),
                "{err}"
            );
            assert!(!err.contains('\n'), "{err}");
            // Programmatic overrides bypass `Overrides::set`.
            job.overrides = Overrides {
                num_sms: Some(0),
                ..Overrides::default()
            };
            assert!(job.check().unwrap_err().contains("0 SMs"));
        }
        let sc = Arc::new(gpu_workloads::scenario("pipeline", 1).unwrap());
        let mut job = Job::for_scenario(sc, 1, DesignPoint::Hw(Design::Dac));
        assert_eq!(job.check(), Ok(()));
        job.overrides.max_warps_per_sm = Some(1);
        assert!(job.check().unwrap_err().contains("can never be placed"));
    }

    #[test]
    fn design_point_parse_roundtrip() {
        for p in DesignPoint::HW_ALL
            .into_iter()
            .chain([DesignPoint::PerfectMem])
        {
            assert_eq!(DesignPoint::parse(p.name()), Some(p));
            assert_eq!(DesignPoint::parse(&p.name().to_uppercase()), Some(p));
        }
        assert_eq!(DesignPoint::parse("warp9"), None);
    }
}

//! Shared command-line parsing for the `figures` and `sweep` binaries.
//!
//! Parsing never panics: errors come back as `Err(message)` so binaries can
//! print the message plus their usage text and exit non-zero, instead of
//! dumping a backtrace at the user.

use gpu_workloads::ALL_ABBRS;
use simt_harness::job::MAX_SCALE;
use simt_harness::{DesignPoint, Harness, Job, Overrides, ResultCache};
use std::path::PathBuf;

/// Default per-job ring-buffer capacity for `--trace` (newest events kept).
pub const DEFAULT_TRACE_EVENTS: usize = 1_000_000;

/// Options shared by every experiment binary.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// `--scale N` — workload scale factor (default 1).
    pub scale: u32,
    /// `--bench A,B,...` — restrict to these abbreviations (default: all).
    pub bench_filter: Option<Vec<String>>,
    /// `--jobs N` — worker threads (default: available parallelism).
    pub jobs: usize,
    /// `--no-cache` clears this; `--cache-dir DIR` moves the cache root.
    pub cache: bool,
    /// Cache directory (default `results/cache`).
    pub cache_dir: PathBuf,
    /// `--out DIR` — write JSONL run artifacts here (sweep defaults to
    /// `results/runs`; figures defaults to off).
    pub out: Option<PathBuf>,
    /// `--designs a,b,...` — design points to run (default: sweep runs
    /// baseline/cae/mta/dac).
    pub designs: Option<Vec<DesignPoint>>,
    /// `--set key=value` (repeatable) — configuration overrides.
    pub overrides: Overrides,
    /// `--full-chip` — pin the full GTX 480 chip (15 SMs, 48 warps/SM)
    /// as explicit overrides, so artifacts record the machine size.
    pub full_chip: bool,
    /// `--trace` / `--trace-dir DIR` — write per-job event traces here
    /// (`None` = tracing off).
    pub trace_dir: Option<PathBuf>,
    /// `--trace-events N` — ring-buffer capacity per traced job.
    pub trace_events: usize,
    /// `--quiet` — suppress per-job progress lines.
    pub quiet: bool,
    /// Positional arguments (the experiment name for `figures`).
    pub positional: Vec<String>,
}

impl Default for CommonArgs {
    fn default() -> Self {
        CommonArgs {
            scale: 1,
            bench_filter: None,
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cache: true,
            cache_dir: ResultCache::default_dir(),
            out: None,
            designs: None,
            overrides: Overrides::default(),
            full_chip: false,
            trace_dir: None,
            trace_events: DEFAULT_TRACE_EVENTS,
            quiet: false,
            positional: Vec::new(),
        }
    }
}

impl CommonArgs {
    /// Parse an argument list (without the program name). `Err` is a
    /// one-line message suitable for printing above the usage text; the
    /// special message `"help"` means `-h`/`--help` was given.
    pub fn parse(args: &[String]) -> Result<CommonArgs, String> {
        let mut out = CommonArgs::default();
        let mut set_keys: Vec<String> = Vec::new();
        let mut it = args.iter();
        let value = |flag: &str, it: &mut std::slice::Iter<String>| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "-h" | "--help" => return Err("help".into()),
                "--scale" => {
                    let v = value("--scale", &mut it)?;
                    out.scale = v
                        .parse()
                        .map_err(|_| format!("--scale: expected a positive number, got {v:?}"))?;
                    if out.scale == 0 {
                        return Err("--scale must be at least 1".into());
                    }
                    if out.scale > MAX_SCALE {
                        return Err(format!("--scale: must be at most {MAX_SCALE}"));
                    }
                }
                "--bench" => {
                    let names: Vec<String> = value("--bench", &mut it)?
                        .split(',')
                        .map(|s| s.trim().to_uppercase())
                        .filter(|s| !s.is_empty())
                        .collect();
                    if names.is_empty() {
                        return Err("--bench requires at least one benchmark".into());
                    }
                    out.bench_filter = Some(names);
                }
                "--jobs" | "-j" => {
                    let v = value("--jobs", &mut it)?;
                    out.jobs = v
                        .parse()
                        .map_err(|_| format!("--jobs: expected a positive number, got {v:?}"))?;
                    if out.jobs == 0 {
                        return Err("--jobs must be at least 1".into());
                    }
                }
                "--no-cache" => out.cache = false,
                "--cache-dir" => out.cache_dir = PathBuf::from(value("--cache-dir", &mut it)?),
                "--out" => out.out = Some(PathBuf::from(value("--out", &mut it)?)),
                "--designs" => {
                    let v = value("--designs", &mut it)?;
                    let mut points = Vec::new();
                    for name in v.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                        points.push(DesignPoint::parse(name).ok_or_else(|| {
                            format!(
                                "--designs: unknown design {name:?} \
                                 (expected baseline, cae, mta, dac, or perfect)"
                            )
                        })?);
                    }
                    if points.is_empty() {
                        return Err("--designs requires at least one design".into());
                    }
                    out.designs = Some(points);
                }
                "--set" => {
                    let v = value("--set", &mut it)?;
                    let (key, val) = v
                        .split_once('=')
                        .ok_or_else(|| format!("--set: expected key=value, got {v:?}"))?;
                    let key = key.trim();
                    if set_keys.iter().any(|k| k == key) {
                        return Err(format!(
                            "--set: duplicate knob {key:?} (each knob may be set once)"
                        ));
                    }
                    out.overrides.set(key, val.trim())?;
                    set_keys.push(key.to_string());
                }
                "--full-chip" => {
                    // The preset is spelled as ordinary overrides so the
                    // machine size lands in cache keys and artifacts, and
                    // the duplicate-knob check catches conflicting --set.
                    for (k, v) in [("num_sms", "15"), ("max_warps_per_sm", "48")] {
                        if set_keys.iter().any(|s| s == k) {
                            return Err(format!("--full-chip conflicts with --set {k}"));
                        }
                        out.overrides.set(k, v)?;
                        set_keys.push(k.to_string());
                    }
                    out.full_chip = true;
                }
                "--trace" => {
                    out.trace_dir
                        .get_or_insert_with(|| PathBuf::from("results/traces"));
                }
                "--trace-dir" => {
                    out.trace_dir = Some(PathBuf::from(value("--trace-dir", &mut it)?));
                }
                "--trace-events" => {
                    let v = value("--trace-events", &mut it)?;
                    out.trace_events = v
                        .parse()
                        .map_err(|_| format!("--trace-events: expected a number, got {v:?}"))?;
                }
                "--quiet" | "-q" => out.quiet = true,
                flag if flag.starts_with('-') => {
                    return Err(format!("unknown flag {flag:?}"));
                }
                _ => out.positional.push(arg.clone()),
            }
        }
        Ok(out)
    }

    /// Build the harness these arguments describe. `artifacts_default`
    /// supplies the binary's default artifact directory when `--out` was
    /// not given (`None` = artifacts off unless requested).
    pub fn harness(&self, artifacts_default: Option<&str>) -> Harness {
        let mut h = Harness::new(self.jobs).verbose(!self.quiet);
        if self.cache {
            h = h.with_cache(ResultCache::new(&self.cache_dir));
        }
        let artifacts = self
            .out
            .clone()
            .or_else(|| artifacts_default.map(PathBuf::from));
        if let Some(dir) = artifacts {
            h = h.with_artifacts(dir);
        }
        if let Some(dir) = &self.trace_dir {
            h = h.with_trace(dir, self.trace_events);
        }
        h
    }

    /// The benchmark list after `--scale` and `--bench`, in Table 2 order;
    /// only the benchmarks the filter names are built. `Err` when the
    /// filter names an unknown benchmark (catching typos up front, instead
    /// of silently running an empty suite).
    pub fn benchmarks(&self) -> Result<Vec<gpu_workloads::Workload>, String> {
        let Some(filter) = &self.bench_filter else {
            return Ok(gpu_workloads::all_benchmarks(self.scale));
        };
        let known = |f: &String| ALL_ABBRS.iter().any(|a| a.eq_ignore_ascii_case(f));
        if let Some(abbr) = filter.iter().find(|f| !known(f)) {
            return Err(format!(
                "--bench: unknown benchmark {abbr:?} (see Table 2 for abbreviations)"
            ));
        }
        Ok(ALL_ABBRS
            .iter()
            .filter(|a| filter.iter().any(|f| f.eq_ignore_ascii_case(a)))
            .map(|a| gpu_workloads::benchmark(a, self.scale).expect("registered benchmark"))
            .collect())
    }
}

/// Report jobs that can never run (see [`Harness::try_run`]) — one
/// `tool: label: reason` line each on stderr — and exit 1. Distinct from
/// usage errors (exit 2): the command line parsed, the machine it
/// describes just cannot hold these kernels.
pub fn exit_unrunnable(tool: &str, failures: &[String]) -> ! {
    for line in failures {
        eprintln!("{tool}: {line}");
    }
    std::process::exit(1);
}

/// [`exit_unrunnable`] unless `job` can run on its configured machine.
pub fn require_runnable(tool: &str, job: &Job) {
    if let Err(e) = job.check() {
        exit_unrunnable(tool, &[format!("{}: {e}", job.label())]);
    }
}

/// The flag reference shared by both binaries' usage text.
pub const COMMON_USAGE: &str = "\
common options:
  --scale N          workload scale factor (default 1)
  --bench A,B,...    only these benchmarks (Table 2 abbreviations)
  --jobs N, -j N     worker threads (default: all cores)
  --no-cache         ignore and do not update results/cache
  --cache-dir DIR    result cache location (default results/cache)
  --out DIR          write JSONL run artifacts to DIR
  --designs a,b,...  design points: baseline, cae, mta, dac, perfect
  --set KEY=VALUE    config override (repeatable, each knob once); knobs:
                     atq_entries, pwaq_total, pwpq_total, lock_lines,
                     divergent_tuples, num_sms, max_warps_per_sm,
                     streams (multi-kernel scenario: smem_pressure,
                     reg_pressure, pipeline), cta_policy (greedy|rr)
  --full-chip        full GTX 480 preset: 15 SMs, 48 warps/SM, recorded as
                     explicit num_sms/max_warps_per_sm overrides
  --trace            write per-job event traces to results/traces
  --trace-dir DIR    write per-job event traces to DIR (implies --trace)
  --trace-events N   trace ring-buffer capacity (default 1000000)
  --quiet, -q        no per-job progress on stderr
  --help, -h         this text";

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_workloads::Design;

    fn parse(args: &[&str]) -> Result<CommonArgs, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        CommonArgs::parse(&owned)
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.scale, 1);
        assert!(a.cache);
        assert!(a.jobs >= 1);
        assert!(a.positional.is_empty());
    }

    #[test]
    fn full_flag_set() {
        let a = parse(&[
            "fig16",
            "--scale",
            "2",
            "--bench",
            "lib,mq",
            "--jobs",
            "4",
            "--no-cache",
            "--out",
            "/tmp/runs",
            "--designs",
            "baseline,dac",
            "--set",
            "atq_entries=12",
            "-q",
        ])
        .unwrap();
        assert_eq!(a.positional, vec!["fig16"]);
        assert_eq!(a.scale, 2);
        assert_eq!(a.bench_filter, Some(vec!["LIB".into(), "MQ".into()]));
        assert_eq!(a.jobs, 4);
        assert!(!a.cache);
        assert_eq!(a.out.as_deref(), Some(std::path::Path::new("/tmp/runs")));
        assert_eq!(
            a.designs,
            Some(vec![
                DesignPoint::Hw(Design::Baseline),
                DesignPoint::Hw(Design::Dac)
            ])
        );
        assert_eq!(a.overrides.atq_entries, Some(12));
        assert!(a.quiet);
    }

    #[test]
    fn errors_do_not_panic() {
        for bad in [
            vec!["--scale"],
            vec!["--scale", "zero"],
            vec!["--scale", "0"],
            vec!["--scale", "65"],
            vec!["--scale", "4294967295"],
            vec!["--scale", "4294967296"],
            vec!["--bench", ","],
            vec!["--bench", ""],
            vec!["--designs", ","],
            vec!["--no-fast-forward"],
            vec!["--jobs", "-3"],
            vec!["--designs", "warp9"],
            vec!["--set", "atq_entries"],
            vec!["--set", "warp_speed=9"],
            vec!["--set", "atq_entries=0"],
            vec!["--set", "max_warps_per_sm=40000000000"],
            vec!["--set", "num_sms=40000000000"],
            vec!["--frobnicate"],
            vec!["--threads", "2"],
        ] {
            assert!(parse(&bad).is_err(), "{bad:?} should be rejected");
        }
        assert_eq!(parse(&["--help"]).unwrap_err(), "help");
        assert_eq!(
            parse(&["--scale", "65"]).unwrap_err(),
            "--scale: must be at most 64"
        );
        assert_eq!(parse(&["--scale", "64"]).unwrap().scale, MAX_SCALE);
        assert_eq!(
            parse(&["--bench", ","]).unwrap_err(),
            "--bench requires at least one benchmark"
        );
        assert_eq!(
            parse(&["--no-fast-forward"]).unwrap_err(),
            "unknown flag \"--no-fast-forward\""
        );
    }

    #[test]
    fn duplicate_set_key_is_rejected() {
        let err = parse(&["--set", "atq_entries=12", "--set", "atq_entries=24"]).unwrap_err();
        assert!(err.contains("duplicate"), "got: {err}");
        // Distinct knobs remain composable.
        let ok = parse(&["--set", "atq_entries=12", "--set", "pwaq_total=64"]).unwrap();
        assert_eq!(ok.overrides.atq_entries, Some(12));
        assert_eq!(ok.overrides.pwaq_total, Some(64));
    }

    #[test]
    fn trace_flags() {
        let off = parse(&[]).unwrap();
        assert!(off.trace_dir.is_none());
        assert_eq!(off.trace_events, DEFAULT_TRACE_EVENTS);
        let on = parse(&["--trace"]).unwrap();
        assert_eq!(
            on.trace_dir.as_deref(),
            Some(std::path::Path::new("results/traces"))
        );
        let custom = parse(&["--trace-dir", "/tmp/tr", "--trace-events", "512"]).unwrap();
        assert_eq!(
            custom.trace_dir.as_deref(),
            Some(std::path::Path::new("/tmp/tr"))
        );
        assert_eq!(custom.trace_events, 512);
        // --trace after --trace-dir must not clobber the explicit dir.
        let both = parse(&["--trace-dir", "/tmp/tr", "--trace"]).unwrap();
        assert_eq!(
            both.trace_dir.as_deref(),
            Some(std::path::Path::new("/tmp/tr"))
        );
        assert!(parse(&["--trace-events", "lots"]).is_err());
    }

    #[test]
    fn full_chip_preset() {
        let a = parse(&["--full-chip"]).unwrap();
        assert!(a.full_chip);
        assert_eq!(a.overrides.num_sms, Some(15));
        assert_eq!(a.overrides.max_warps_per_sm, Some(48));
        // Conflicting machine-size overrides are rejected in either order.
        assert!(parse(&["--full-chip", "--set", "num_sms=2"]).is_err());
        assert!(parse(&["--set", "num_sms=2", "--full-chip"]).is_err());
    }

    #[test]
    fn streams_knob() {
        let a = parse(&["--set", "streams=PIPELINE", "--set", "cta_policy=rr"]).unwrap();
        assert_eq!(a.overrides.streams.as_deref(), Some("pipeline"));
        assert_eq!(
            a.overrides.cta_policy,
            Some(simt_sim::PlacementPolicy::RoundRobin)
        );
        assert!(parse(&["--set", "streams=warp9"]).is_err());
        assert!(parse(&["--set", "cta_policy=random"]).is_err());
    }

    #[test]
    fn unknown_bench_is_caught() {
        let a = parse(&["--bench", "LIB,NOPE"]).unwrap();
        assert!(a.benchmarks().is_err());
        let ok = parse(&["--bench", "lib"]).unwrap();
        assert_eq!(ok.benchmarks().unwrap().len(), 1);
        // Table 2 order, each benchmark once, however the filter spells it.
        let some = parse(&["--bench", "lib,mq,LIB"]).unwrap();
        let abbrs: Vec<&str> = some.benchmarks().unwrap().iter().map(|w| w.abbr).collect();
        assert_eq!(abbrs, ["MQ", "LIB"]);
    }
}

//! Differential kernel fuzzing CLI.
//!
//! Generates `--count` kernels from `--seed`, runs each through the oracle
//! and every selected design, and exits non-zero if any check fails. Fully
//! deterministic: the same seed/count/designs produce the same kernels, the
//! same verdicts, and a byte-identical summary file for any `--jobs N`.
//!
//! Wired into the harness result cache: each (kernel, design) pair is a
//! regular cache entry keyed by a content-addressed workload abbreviation,
//! so re-running a seed window verifies cached digests/statistics against
//! the oracle without re-simulating.

use simt_fuzz::diff::{check_workload, digest_words, DiffConfig, DiffFailure};
use simt_fuzz::gen::gen_spec;
use simt_fuzz::oracle::run_oracle;
use simt_fuzz::reduce::{reduce, repro_asm};
use simt_harness::json::Value;
use simt_harness::{DesignPoint, Job, JobResult, ResultCache, WorkerPool};
use simt_profile::CpiStack;
use std::path::PathBuf;
use std::sync::Arc;

use gpu_workloads::{gpu_for, Design};

const USAGE: &str = "\
usage: fuzz [options]

Differential kernel fuzzing: seeded random kernels through a functional
oracle and all four designs (baseline/cae/mta/dac), checking bit-identical
memory and issue-slot bucket sums.

options:
  --seed N          generator seed (default 1)
  --count N         kernels to generate (default 100)
  --designs LIST    comma-separated subset of baseline,cae,mta,dac
  --jobs N          worker threads, one kernel each (default 1; verdicts
                    are order-stable)
  --reduce          shrink failing kernels to minimal repros
  --cache-dir DIR   harness result cache (default results/cache)
  --no-cache        disable the result cache
  --out DIR         repro + summary directory (default results/fuzz)";

fn fail_usage(msg: &str) -> ! {
    eprintln!("fuzz: {msg} (run `fuzz --help` for usage)");
    std::process::exit(2);
}

struct Args {
    seed: u64,
    count: u64,
    designs: Vec<Design>,
    jobs: usize,
    reduce: bool,
    cache_dir: Option<PathBuf>,
    out: PathBuf,
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 1,
        count: 100,
        designs: Design::ALL.to_vec(),
        jobs: 1,
        reduce: false,
        cache_dir: Some(PathBuf::from("results/cache")),
        out: PathBuf::from("results/fuzz"),
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        raw.get(*i)
            .unwrap_or_else(|| fail_usage(&format!("{} needs a value", raw[*i - 1])))
            .clone()
    };
    while i < raw.len() {
        match raw[i].as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            "--seed" => {
                args.seed = parse_u64(&value(&mut i), "--seed");
            }
            "--count" => {
                args.count = parse_u64(&value(&mut i), "--count");
            }
            "--designs" => {
                let v = value(&mut i);
                args.designs = v
                    .split(',')
                    .map(|d| match d.trim().to_ascii_lowercase().as_str() {
                        "baseline" => Design::Baseline,
                        "cae" => Design::Cae,
                        "mta" => Design::Mta,
                        "dac" => Design::Dac,
                        other => fail_usage(&format!("unknown design {other:?}")),
                    })
                    .collect();
                if args.designs.is_empty() {
                    fail_usage("--designs: empty list");
                }
            }
            "--jobs" => {
                args.jobs = parse_u64(&value(&mut i), "--jobs") as usize;
                if args.jobs == 0 {
                    fail_usage("--jobs must be at least 1");
                }
            }
            "--reduce" => args.reduce = true,
            "--cache-dir" => args.cache_dir = Some(PathBuf::from(value(&mut i))),
            "--no-cache" => args.cache_dir = None,
            "--out" => args.out = PathBuf::from(value(&mut i)),
            other => fail_usage(&format!("unexpected argument {other:?}")),
        }
        i += 1;
    }
    args
}

fn parse_u64(v: &str, flag: &str) -> u64 {
    v.parse()
        .unwrap_or_else(|_| fail_usage(&format!("{flag}: expected a number, got {v:?}")))
}

/// One kernel's verdict, in generation order.
struct Outcome {
    index: u64,
    abbr: String,
    /// (design name, cycles) for every design that ran or was cached.
    cycles: Vec<(&'static str, u64)>,
    oracle_digest: u64,
    failure: Option<DiffFailure>,
}

fn main() {
    let args = parse_args();
    let diff_cfg = DiffConfig {
        designs: args.designs.clone(),
        ..DiffConfig::default()
    };
    let cache = args.cache_dir.as_ref().map(|d| ResultCache::new(d.clone()));

    eprintln!(
        "fuzz: seed {:#x}, {} kernels x {} designs on {} workers{}",
        args.seed,
        args.count,
        args.designs.len(),
        args.jobs,
        if cache.is_some() { " (cached)" } else { "" }
    );
    let t0 = std::time::Instant::now();

    let indices: Vec<u64> = (0..args.count).collect();
    let (seed, cfg) = (args.seed, diff_cfg.clone());
    let outcomes: Vec<Outcome> = WorkerPool::batch(args.jobs, indices, move |index| {
        run_case(seed, index, &cfg, cache.as_ref())
    });

    // Deterministic summary: one JSONL line per kernel, index order, no
    // wall-clock — byte-identical across --jobs and cache temperature.
    std::fs::create_dir_all(&args.out).ok();
    let summary_path = args.out.join(format!("summary-{:x}.jsonl", args.seed));
    let mut summary = String::new();
    for o in &outcomes {
        let mut fields = vec![
            ("index".to_string(), Value::Int(o.index)),
            ("abbr".to_string(), Value::Str(o.abbr.clone())),
            (
                "verdict".to_string(),
                Value::Str(if o.failure.is_none() { "pass" } else { "fail" }.into()),
            ),
            (
                "oracle_digest".to_string(),
                Value::Str(format!("{:016x}", o.oracle_digest)),
            ),
            (
                "cycles".to_string(),
                Value::Obj(
                    o.cycles
                        .iter()
                        .map(|&(d, c)| (d.to_string(), Value::Int(c)))
                        .collect(),
                ),
            ),
        ];
        if let Some(f) = &o.failure {
            fields.push(("failure".to_string(), Value::Str(f.to_string())));
        }
        summary.push_str(&Value::Obj(fields).to_json());
        summary.push('\n');
    }
    if let Err(e) = std::fs::write(&summary_path, &summary) {
        eprintln!("fuzz: cannot write {}: {e}", summary_path.display());
    }

    let failures: Vec<&Outcome> = outcomes.iter().filter(|o| o.failure.is_some()).collect();
    for o in &failures {
        let failure = o.failure.as_ref().unwrap();
        eprintln!("fuzz: FAIL kernel {} ({}): {failure}", o.index, o.abbr);
        let spec = gen_spec(args.seed, o.index);
        let (repro, note) = if args.reduce {
            match reduce(&spec, &diff_cfg) {
                Some((red, red_failure, edits)) => (
                    repro_asm(&red, &red_failure),
                    format!("minimized ({edits} edits)"),
                ),
                None => (repro_asm(&spec, failure), "unminimized".to_string()),
            }
        } else {
            (repro_asm(&spec, failure), "unminimized".to_string())
        };
        let path = args
            .out
            .join(format!("repro-{:x}-{}.asm", args.seed, o.index));
        match std::fs::write(&path, repro) {
            Ok(()) => eprintln!("fuzz: {note} repro -> {}", path.display()),
            Err(e) => eprintln!("fuzz: cannot write {}: {e}", path.display()),
        }
    }

    eprintln!(
        "fuzz: {}/{} kernels passed in {:.1}s; summary -> {}",
        outcomes.len() - failures.len(),
        outcomes.len(),
        t0.elapsed().as_secs_f64(),
        summary_path.display()
    );
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

/// Generate, check, and (if caching) verify-or-populate one kernel.
fn run_case(seed: u64, index: u64, cfg: &DiffConfig, cache: Option<&ResultCache>) -> Outcome {
    let spec = gen_spec(seed, index);
    let workload = Arc::new(spec.build_workload());
    let abbr = workload.abbr.to_string();

    // The oracle is cheap (one pass per thread) and is the ground truth for
    // both the fresh and the cached path.
    let mut omem = workload.fresh_memory();
    if let Err(e) = run_oracle(&workload.kernel, &workload.launch, &mut omem) {
        return Outcome {
            index,
            abbr,
            cycles: Vec::new(),
            oracle_digest: 0,
            failure: Some(DiffFailure::Oracle(e)),
        };
    }
    let oracle_digest = digest_words(&omem.read_u32_vec(workload.output.0, workload.output.1));

    let jobs: Vec<Job> = cfg
        .designs
        .iter()
        .map(|&d| {
            let mut j = Job::new(workload.clone(), 1, DesignPoint::Hw(d));
            j.overrides = cfg.overrides.clone();
            j
        })
        .collect();

    // Cached fast path: if every design is cached, verify digests and the
    // bucket-sum invariant against the stored reports without simulating.
    if let Some(cache) = cache {
        let hits: Vec<Option<JobResult>> = jobs.iter().map(|j| cache.load(j)).collect();
        if hits.iter().all(|h| h.is_some()) {
            let mut cycles = Vec::new();
            for (&design, hit) in cfg.designs.iter().zip(&hits) {
                let r = hit.as_ref().unwrap();
                if r.output_digest != oracle_digest {
                    return Outcome {
                        index,
                        abbr,
                        cycles,
                        oracle_digest,
                        failure: Some(DiffFailure::DigestMismatch {
                            design,
                            got: r.output_digest,
                            want: oracle_digest,
                        }),
                    };
                }
                let gcfg = cfg.overrides.apply_gpu(gpu_for(design));
                let cpi = CpiStack::from_stats(&r.report.stats);
                if !cpi.check(r.report.stats.cycles, gcfg.schedulers, gcfg.num_sms) {
                    return Outcome {
                        index,
                        abbr,
                        cycles,
                        oracle_digest,
                        failure: Some(DiffFailure::BucketSum {
                            design,
                            total: cpi.total(),
                            want: r.report.stats.cycles * (gcfg.schedulers * gcfg.num_sms) as u64,
                        }),
                    };
                }
                cycles.push((design.name(), r.report.cycles));
            }
            return Outcome {
                index,
                abbr,
                cycles,
                oracle_digest,
                failure: None,
            };
        }
    }

    match check_workload(&workload, cfg) {
        Ok(runs) => {
            let cycles = runs
                .iter()
                .map(|r| (r.design.name(), r.report.cycles))
                .collect();
            if let Some(cache) = cache {
                for (job, run) in jobs.iter().zip(&runs) {
                    let result = JobResult {
                        report: run.report.clone(),
                        per_kernel: Vec::new(),
                        output_digest: digest_words(&run.output),
                        wall_ms: 0.0,
                        cached: false,
                    };
                    cache.store(job, &result);
                }
            }
            Outcome {
                index,
                abbr,
                cycles,
                oracle_digest,
                failure: None,
            }
        }
        Err(f) => Outcome {
            index,
            abbr,
            cycles: Vec::new(),
            oracle_digest,
            failure: Some(f),
        },
    }
}

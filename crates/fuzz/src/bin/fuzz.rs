//! Differential kernel fuzzing CLI.
//!
//! Generates `--count` kernels from `--seed`, runs each through the oracle
//! and every selected design, and exits non-zero if any check fails. Fully
//! deterministic: the same seed/count/designs produce the same kernels, the
//! same verdicts, and a byte-identical summary file for any `--jobs N`.
//!
//! Every run simulates every kernel on every selected design: a verdict is
//! always about the simulator this binary was built from.

use simt_fuzz::diff::{check_designs, oracle_memory, DiffConfig, DiffFailure};
use simt_fuzz::gen::gen_spec;
use simt_fuzz::reduce::{reduce, repro_asm};
use simt_harness::job::MAX_JOBS;
use simt_harness::json::Value;
use simt_harness::{digest_words, WorkerPool};
use std::path::PathBuf;

use gpu_workloads::Design;

const USAGE: &str = "\
usage: fuzz [options]

Differential kernel fuzzing: seeded random kernels through a functional
oracle and all four designs (baseline/cae/mta/dac), checking bit-identical
memory and issue-slot bucket sums.

options:
  --seed N          generator seed (default 1)
  --count N         kernels to generate (default 100)
  --designs LIST    comma-separated subset of baseline,cae,mta,dac
  --jobs N          worker threads, one kernel each, at most 256 (default
                    1; verdicts are order-stable)
  --reduce          shrink failing kernels to minimal repros
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
    out: PathBuf,
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 1,
        count: 100,
        designs: Design::ALL.to_vec(),
        jobs: 1,
        reduce: false,
        out: PathBuf::from("results/fuzz"),
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        match raw.get(*i) {
            None => fail_usage(&format!("{} needs a value", raw[*i - 1])),
            Some(v) if v.is_empty() => fail_usage(&format!("{}: empty value", raw[*i - 1])),
            Some(v) => v.clone(),
        }
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
                args.designs.clear();
                for d in value(&mut i).split(',') {
                    let design = match d.trim().to_ascii_lowercase().as_str() {
                        "baseline" => Design::Baseline,
                        "cae" => Design::Cae,
                        "mta" => Design::Mta,
                        "dac" => Design::Dac,
                        other => fail_usage(&format!("unknown design {other:?}")),
                    };
                    if args.designs.contains(&design) {
                        fail_usage(&format!("design {:?} given twice", design.name()));
                    }
                    args.designs.push(design);
                }
            }
            "--jobs" => {
                args.jobs = parse_u64(&value(&mut i), "--jobs") as usize;
                if args.jobs == 0 {
                    fail_usage("--jobs must be at least 1");
                }
                if args.jobs > MAX_JOBS {
                    fail_usage(&format!("--jobs must be at most {MAX_JOBS}"));
                }
            }
            "--reduce" => args.reduce = true,
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
    /// (design name, cycles) for every design, once all passed.
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

    eprintln!(
        "fuzz: seed {:#x}, {} kernels x {} designs on {} workers",
        args.seed,
        args.count,
        args.designs.len(),
        args.jobs
    );
    let t0 = std::time::Instant::now();

    let indices: Vec<u64> = (0..args.count).collect();
    let (seed, cfg) = (args.seed, diff_cfg.clone());
    let outcomes: Vec<Outcome> =
        WorkerPool::batch(args.jobs, indices, move |index| run_case(seed, index, &cfg));

    // Deterministic summary: one JSONL line per kernel, index order, no
    // wall-clock — byte-identical across --jobs.
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

/// Generate one kernel, run the oracle once, and check every design
/// against it.
fn run_case(seed: u64, index: u64, cfg: &DiffConfig) -> Outcome {
    let w = gen_spec(seed, index).build_workload();
    let (oracle_digest, checked) = match oracle_memory(&w) {
        Ok(omem) => (
            digest_words(&omem.read_u32_vec(w.output.0, w.output.1)),
            check_designs(&w, &omem, cfg),
        ),
        Err(f) => (0, Err(f)),
    };
    let cycles = checked.as_ref().map_or(Vec::new(), |runs| {
        runs.iter()
            .map(|r| (r.design.name(), r.report.cycles))
            .collect()
    });
    Outcome {
        index,
        abbr: w.abbr.to_string(),
        cycles,
        oracle_digest,
        failure: checked.err(),
    }
}

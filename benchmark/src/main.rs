//! `dac-benchmark`: host-time benchmark of the DAC simulator stack.
//!
//! ```text
//! dac-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! dac-benchmark --check DIR_A DIR_B
//! ```
//!
//! See `benchmark/README.md` for what is measured and why.

mod bench;
mod check;
mod estimate;
mod plan;
mod report;
mod run;
mod serve_bench;
mod sim_bench;
mod span;

use plan::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: dac-benchmark --workload chip_compute|chip_memory|sweep_suite|serve_warm \
[--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n       dac-benchmark --check DIR_A DIR_B";

enum Command {
    Run {
        args: run::RunArgs,
        out: Option<PathBuf>,
    },
    Check {
        a: PathBuf,
        b: PathBuf,
    },
}

fn parse_args(argv: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = plan::NOMINAL_SECONDS;
    let mut trace = false;
    let mut out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag}: missing value"));
        match flag.as_str() {
            "--check" => {
                let (a, b) = (value()?.into(), value()?.into());
                return Ok(Command::Check { a, b });
            }
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                let text = value()?;
                seed = text
                    .parse()
                    .map_err(|_| format!("--seed: expected a whole number, got {text:?}"))?;
            }
            "--seconds" => {
                let text = value()?;
                seconds = text
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("--seconds: expected 1..=600, got {text:?}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                };
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run {
        args: run::RunArgs {
            workload,
            seed,
            seconds,
            trace,
        },
        out,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match command {
        Command::Check { a, b } => match check::check_dirs(&a, &b) {
            Ok(report) => {
                print!("{}", report.text);
                if report.breaches == 0 {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        },
        Command::Run { args, out } => {
            // The daemon's per-sweep info lines would only add terminal
            // I/O to the timed path; warnings and errors still show.
            simt_obs::log::set_level(simt_obs::log::Level::Warn);
            let outcome = run::run(&args);
            if let Some(dir) = out {
                let file = dir.join(format!(
                    "{}.seed{}.trace{}.json",
                    args.workload.name(),
                    args.seed,
                    u8::from(args.trace)
                ));
                let written = std::fs::create_dir_all(&dir)
                    .and_then(|()| std::fs::write(&file, outcome.result_json() + "\n"));
                if let Err(e) = written {
                    eprintln!("error: cannot write {}: {e}", file.display());
                    return ExitCode::from(2);
                }
            }
            outcome.print();
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

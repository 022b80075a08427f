//! The sweep daemon: owns a results root and serves the design-space
//! sweep API over HTTP.
//!
//! On startup it re-registers every sweep manifest under the results root,
//! so a daemon restarted over an interrupted sweep finishes it — already
//! completed points resolve from the cache, nothing re-executes.

use simt_serve::http::Server;
use simt_serve::{ServeConfig, SweepService};
use std::sync::Arc;

const USAGE: &str = "\
usage: serve [options]

Starts the sweep service daemon: a job queue with single-flight dedup over
the shared result store in --results. Submit grids with `sweepctl`.

options:
  --addr HOST          bind address (default 127.0.0.1)
  --port N             bind port; 0 picks an ephemeral port (default 7878)
  --port-file PATH     write the bound port to PATH once listening
  --results DIR        results root (default results)
  --jobs N             simulation worker threads, one point each
                       (default: available cores)
  --execute-budget N   simulate at most N fresh points this session, then
                       leave the rest queued for the next session
  --log-level LEVEL    error|warn|info|debug|off (default info; env SIMT_LOG)
  --log-format FORMAT  text|json dac-log/v1 lines (default text;
                       env SIMT_LOG_FORMAT)
  -q, --quiet          no per-point progress lines
  -h, --help           this message";

fn usage_exit(error: &str) -> ! {
    if error == "help" {
        println!("{USAGE}");
        std::process::exit(0);
    }
    eprintln!("serve: {error} (run `serve --help` for usage)");
    std::process::exit(2);
}

struct Args {
    addr: String,
    port: u16,
    port_file: Option<String>,
    results: String,
    jobs: usize,
    execute_budget: Option<usize>,
    quiet: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1".into(),
        port: 7878,
        port_file: None,
        results: "results".into(),
        jobs: std::thread::available_parallelism().map_or(2, |n| n.get()),
        execute_budget: None,
        quiet: false,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage_exit(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr"),
            "--port" => {
                args.port = value("--port")
                    .parse()
                    .unwrap_or_else(|_| usage_exit("--port: expected a port number"))
            }
            "--port-file" => args.port_file = Some(value("--port-file")),
            "--results" => args.results = value("--results"),
            "--jobs" => {
                args.jobs = value("--jobs")
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n >= 1)
                    .unwrap_or_else(|| usage_exit("--jobs: expected a positive integer"))
            }
            "--execute-budget" => {
                args.execute_budget = Some(
                    value("--execute-budget")
                        .parse()
                        .unwrap_or_else(|_| usage_exit("--execute-budget: expected an integer")),
                )
            }
            "--log-level" => simt_obs::log::set_level_str(&value("--log-level"))
                .unwrap_or_else(|e| usage_exit(&format!("--log-level: {e}"))),
            "--log-format" => simt_obs::log::set_format_str(&value("--log-format"))
                .unwrap_or_else(|e| usage_exit(&format!("--log-format: {e}"))),
            "-q" | "--quiet" => args.quiet = true,
            "-h" | "--help" => usage_exit("help"),
            other => usage_exit(&format!("unknown option {other:?}")),
        }
    }
    args
}

fn main() {
    simt_obs::log::init_from_env();
    let args = parse_args();
    let service = Arc::new(SweepService::new(ServeConfig {
        results_dir: args.results.clone().into(),
        workers: args.jobs,
        execute_budget: args.execute_budget,
        verbose: !args.quiet,
    }));

    let resumed = service.resume();
    if !resumed.is_empty() {
        simt_obs::info!("serve.daemon", "resumed unfinished sweeps";
            count = resumed.len(), sweeps = resumed.join(", "));
    }

    let server = Server::bind(
        Arc::clone(&service),
        &format!("{}:{}", args.addr, args.port),
    )
    .unwrap_or_else(|e| usage_exit(&format!("cannot bind {}:{}: {e}", args.addr, args.port)));
    let bound = server.handle().addr();
    simt_obs::info!("serve.daemon", format!("listening on http://{bound}");
        results = args.results.clone(), workers = args.jobs);
    if let Some(path) = &args.port_file {
        // Written only after bind succeeds, so pollers that wait for this
        // file never race a half-started daemon.
        if let Err(e) = std::fs::write(path, format!("{}\n", bound.port())) {
            usage_exit(&format!("cannot write port file {path}: {e}"));
        }
    }

    server.serve();
    service.stop();
    let (executed, cache_hits, shared, failed) = service.counters();
    // CI greps serve.log for "shutting down"; the message must keep that
    // substring in both text and json log formats.
    simt_obs::info!(
        "serve.daemon",
        format!(
            "shutting down ({executed} simulated, {cache_hits} from cache, \
                 {shared} shared, {failed} failed)"
        )
    );
}

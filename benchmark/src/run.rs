//! One run: set-up (several times), passes, checks, metrics.

use crate::bench::{Bench, Sample, Work};
use crate::estimate::{median, SlotTable};
use crate::plan::{self, Workload};
use crate::report::{self, Outcome, END_TO_END, PER_LAYER};
use crate::serve_bench::ServeBench;
use crate::sim_bench::SimBench;
use crate::span::{self, Recorder};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u32,
    pub trace: bool,
}

/// Where runs keep their temporary files: inside the build directory,
/// which is inside the checkout and ignored by git.
pub fn scratch_root() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("benchmark/target"))
        .join("tmp")
}

fn set_up(workload: Workload, seed: u64, dir: &Path, rec: &mut Recorder) -> Box<dyn Bench> {
    match workload {
        Workload::ChipCompute | Workload::ChipMemory => {
            Box::new(SimBench::chip(workload, seed, rec))
        }
        Workload::SweepSuite => Box::new(SimBench::sweep(seed, dir, rec)),
        Workload::ServeWarm => Box::new(ServeBench::set_up(seed, dir, rec)),
    }
}

/// Tallies slot executions and the checks they fail.
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Every slot's signature on the first pass; later passes, traced or
    /// not, must reproduce it exactly.
    first: Vec<Option<[u64; 3]>>,
}

impl Tally {
    fn new(slots: usize) -> Self {
        Tally {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            first: vec![None; slots],
        }
    }

    fn fail(&mut self, reason: String) {
        self.failed += 1;
        self.failures.push(reason);
    }

    fn sample(&mut self, name: &str, slot: usize, sample: &Sample) {
        self.attempted += 1;
        let reference = *self.first[slot].get_or_insert(sample.sig);
        if let Some(reason) = &sample.failure {
            self.fail(reason.clone());
        } else if reference != sample.sig {
            self.fail(format!(
                "{name}: result {:?} differs from the first pass's {reference:?}",
                sample.sig
            ));
        }
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    let ticks_before = report::machine_cpu_ticks();
    let name = args.workload.name();
    let dir = scratch_root().join(if args.trace {
        format!("{name}-traced")
    } else {
        name.to_string()
    });
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create the run's scratch directory");

    // Set-up, from scratch each time; the fastest repetition is reported
    // and the last one is measured.
    let mut setup_s = f64::INFINITY;
    let mut built: Option<(Box<dyn Bench>, Recorder)> = None;
    for _ in 0..args.workload.setup_repeats() {
        drop(built.take()); // release the previous repetition before the next
        let mut rec = Recorder::new();
        let t0 = Instant::now();
        let bench = set_up(args.workload, args.seed, &dir.join("work"), &mut rec);
        setup_s = setup_s.min(t0.elapsed().as_secs_f64());
        built = Some((bench, rec));
    }
    let (mut bench, setup_rec) = built.expect("at least one set-up repetition");

    let slots = bench.slot_names().len();
    let order = bench.order().to_vec();
    let passes = if args.trace {
        plan::scaled_passes(args.workload.nominal_traced_passes(), args.seconds, 1)
    } else {
        plan::scaled_passes(args.workload.nominal_passes(), args.seconds, 2)
    };
    let mut tally = Tally::new(slots);

    // Passes through the entry points users call.
    let mut table = SlotTable::new(slots, passes);
    let mut work = Work::default();
    for _ in 0..passes {
        bench.begin_pass(false);
        work = Work::default();
        for &slot in &order {
            let sample = bench.run_slot(slot);
            table.record(slot, sample.ns);
            work.add(sample.work);
            tally.sample(&bench.slot_names()[slot], slot, &sample);
        }
        for (slot, reason) in bench.end_pass() {
            tally.fail(format!("{}: {reason}", bench.slot_names()[slot]));
        }
    }
    let wall_s = table.sum_of_minima_s();
    let noise_ratio = median(&table.pass_walls_s()) / wall_s;
    // Share of the machine's CPU time the hypervisor withheld since the
    // run began: near 0 on a quiet host.
    let steal_share = match (ticks_before, report::machine_cpu_ticks()) {
        (Some((steal0, total0)), Some((steal1, total1))) if total1 > total0 => {
            (steal1 - steal0) as f64 / (total1 - total0) as f64
        }
        _ => 0.0,
    };

    let mut info = report::host_info();
    info.extend([
        ("workload", name.to_string()),
        ("seed", args.seed.to_string()),
        ("passes", passes.to_string()),
        ("slots", slots.to_string()),
        ("slot_ms_p50_samples", slots.to_string()),
        ("host.noise_ratio", format!("{noise_ratio:.4}")),
        ("host.steal_share", format!("{steal_share:.4}")),
    ]);

    let metrics = if args.trace {
        let trace_file = dir.join(format!("{name}.trace.json"));
        let mut values = traced(
            &mut *bench,
            &order,
            passes,
            &table,
            &setup_rec,
            &trace_file,
            &mut tally,
        );
        let slowest_ns = table.minima().into_iter().max().unwrap_or(0);
        values.insert("slot_ms_max".to_string(), slowest_ns as f64 / 1e6);
        values.insert("host.noise_ratio".to_string(), noise_ratio);
        values.insert("host.steal_share".to_string(), steal_share);
        info.push(("trace_file", trace_file.display().to_string()));
        report::in_table_order(&PER_LAYER, &values)
    } else {
        let minima_ms: Vec<f64> = table.minima().iter().map(|&ns| ns as f64 / 1e6).collect();
        let values = BTreeMap::from([
            ("setup_s".to_string(), setup_s),
            ("wall_s".to_string(), wall_s),
            ("points_per_s".to_string(), work.points as f64 / wall_s),
            (
                "sim_kcycles_per_s".to_string(),
                work.cycles as f64 / 1e3 / wall_s,
            ),
            (
                "warp_kinstr_per_s".to_string(),
                work.warp_instructions as f64 / 1e3 / wall_s,
            ),
            ("slot_ms_p50".to_string(), median(&minima_ms)),
            ("peak_rss_mib".to_string(), report::peak_rss_mib()),
        ]);
        report::in_table_order(&END_TO_END, &values)
    };

    drop(bench);
    let _ = fs::remove_dir_all(dir.join("work"));
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        info,
        failures: tally.failures,
    }
}

/// A slot's fastest decomposed execution.
#[derive(Debug, Clone, Copy)]
struct Fastest {
    /// Time of the calls that mirror the reference slot.
    mirrored_ns: u64,
    /// Time of the whole execution, measured outside the recorder.
    whole_ns: u64,
    /// The id its spans carry.
    execution: u32,
    /// Cycles it simulated.
    cycles: u64,
}

/// The traced half of a `--trace 1` run: decomposed passes with a span
/// around every layer call, then the probes. Returns the per-layer values
/// by metric name.
fn traced(
    bench: &mut dyn Bench,
    order: &[usize],
    passes: usize,
    reference: &SlotTable,
    setup_rec: &Recorder,
    trace_file: &Path,
    tally: &mut Tally,
) -> BTreeMap<String, f64> {
    let slots = order.len();
    // A decomposed slot opens at most a few dozen spans (a scenario under
    // DAC: six per kernel).
    let mut rec = Recorder::with_capacity(passes * slots * 32);
    let mut fastest: Vec<Option<Fastest>> = vec![None; slots];
    for pass in 0..passes {
        bench.begin_pass(true);
        for &slot in order {
            let execution = (pass * slots + slot) as u32;
            rec.set_slot(execution);
            let t0 = Instant::now();
            let sample = bench.run_slot_decomposed(slot, &mut rec);
            let whole_ns = t0.elapsed().as_nanos() as u64;
            tally.sample(&bench.slot_names()[slot], slot, &sample);
            if fastest[slot].is_none_or(|f| sample.ns < f.mirrored_ns) {
                fastest[slot] = Some(Fastest {
                    mirrored_ns: sample.ns,
                    whole_ns,
                    execution,
                    cycles: sample.work.cycles,
                });
            }
        }
        for (slot, reason) in bench.end_pass() {
            tally.fail(format!("{}: {reason}", bench.slot_names()[slot]));
        }
    }
    let fastest: Vec<Fastest> = fastest
        .into_iter()
        .map(|f| f.expect("every slot ran on every pass"))
        .collect();

    let mut values = layer_values(&*bench, rec.spans(), &fastest, tally);
    let build_ns = span::self_time_by_name(setup_rec.spans())
        .get("workloads.build")
        .copied()
        .unwrap_or(0);
    values.insert("workloads.build_s".to_string(), build_ns as f64 / 1e9);
    let mirrored_ns: u64 = fastest.iter().map(|f| f.mirrored_ns).sum();
    values.insert(
        "bench.trace_overhead_ratio".to_string(),
        mirrored_ns as f64 / 1e9 / reference.sum_of_minima_s(),
    );
    values.extend(bench.counts().into_iter().map(|(k, v)| (k.to_string(), v)));

    let mut probe_rec = Recorder::new();
    let probes = bench.probes(&mut probe_rec);
    tally.attempted += probes.attempted;
    for reason in probes.failures {
        tally.fail(reason);
    }
    values.extend(probes.metrics.into_iter().map(|(k, v)| (k.to_string(), v)));

    let trace = span::chrome_json(&[
        ("set-up", setup_rec.spans()),
        ("decomposed passes", rec.spans()),
        ("probes", probe_rec.spans()),
    ]);
    if let Err(e) = fs::write(trace_file, trace) {
        tally.fail(format!("cannot write the span file: {e}"));
    }
    values
}

/// The layer numbers of the decomposed passes: summed self time per span
/// name over each slot's fastest execution, and what derives from them.
fn layer_values(
    bench: &dyn Bench,
    spans: &[span::Span],
    fastest: &[Fastest],
    tally: &mut Tally,
) -> BTreeMap<String, f64> {
    let chosen: BTreeSet<u32> = fastest.iter().map(|f| f.execution).collect();
    let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
    let (mut slot_ns, mut job_ns) = (0u64, 0u64);
    let mut run_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for (s, own_ns) in spans.iter().zip(span::self_times_ns(spans)) {
        if !chosen.contains(&s.slot) {
            continue;
        }
        *self_ns.entry(s.name).or_insert(0) += own_ns;
        match s.name {
            "slot" => slot_ns += s.duration_ns(),
            "harness.job" => job_ns += s.duration_ns(),
            "sim.run" => *run_ns.entry(s.slot).or_insert(0) += s.duration_ns(),
            _ => {}
        }
    }
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for (span_name, ns) in &self_ns {
        let metric = report::span_metric(span_name);
        if !PER_LAYER.iter().any(|d| d.name == metric) {
            tally.fail(format!("span {span_name:?} has no per-layer metric"));
        }
        values.insert(metric, *ns as f64 / 1e9);
    }
    let layer_ns: u64 = self_ns.values().sum();
    let whole_ns: u64 = fastest.iter().map(|f| f.whole_ns).sum();
    values.insert(
        "bench.layer_sum_ratio".to_string(),
        layer_ns as f64 / whole_ns as f64,
    );

    // What `Harness::run` adds around the simulation.
    if job_ns > 0 {
        values.insert(
            "harness.run_overhead_s".to_string(),
            slot_ns.saturating_sub(job_ns) as f64 / 1e9,
        );
    }

    // What the socket adds to the calls the daemon makes for a request.
    let seconds = |name: &str| values.get(name).copied().unwrap_or(0.0);
    let over_http = seconds("serve.http_s") + seconds("serve.http_get_run_s");
    if over_http > 0.0 {
        let in_process: f64 = [
            "serve.grid_parse_s",
            "serve.submit_s",
            "serve.wait_s",
            "serve.status_json_s",
            "serve.metrics_json_s",
            "harness.cache_load_s",
        ]
        .iter()
        .map(|name| seconds(name))
        .sum();
        values.insert(
            "serve.http_overhead_s".to_string(),
            (over_http - in_process).max(0.0),
        );
    }

    // Host cost per simulated cycle, by design.
    let mut per_design: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (slot, f) in fastest.iter().enumerate() {
        if let Some(design) = bench.slot_group(slot) {
            let entry = per_design.entry(design).or_insert((0, 0));
            entry.0 += run_ns.get(&f.execution).copied().unwrap_or(0);
            entry.1 += f.cycles;
        }
    }
    for (design, (ns, cycles)) in per_design {
        if cycles > 0 {
            values.insert(
                format!("sim.ns_per_cycle.{design}"),
                ns as f64 / cycles as f64,
            );
        }
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_harness::{DesignPoint, Job};
    use std::sync::Arc;

    /// A traced run of two small simulations: the layer self times add up
    /// to the traced wall time, every decomposed slot reproduces the
    /// reference pass, and the span file is written.
    #[test]
    fn layer_self_times_add_up_to_the_traced_wall_time() {
        let dir = std::env::temp_dir().join(format!("dac-benchmark-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let w = Arc::new(gpu_workloads::benchmark("LIB", 1).unwrap());
        let jobs: Vec<Job> = ["baseline", "dac"]
            .iter()
            .map(|design| {
                let mut job = Job::new(w.clone(), 1, DesignPoint::parse(design).unwrap());
                job.overrides.num_sms = Some(2);
                job.overrides.max_warps_per_sm = Some(16);
                job
            })
            .collect();
        let mut bench = SimBench::executing(jobs, 1);
        let order = bench.order().to_vec();
        let mut tally = Tally::new(order.len());
        let mut table = SlotTable::new(order.len(), 1);
        bench.begin_pass(false);
        for &slot in &order {
            let sample = bench.run_slot(slot);
            table.record(slot, sample.ns);
            tally.sample("reference", slot, &sample);
        }
        assert!(bench.end_pass().is_empty());

        let setup_rec = Recorder::new();
        let trace_file = dir.join("lib.trace.json");
        let values = traced(
            &mut bench,
            &order,
            1,
            &table,
            &setup_rec,
            &trace_file,
            &mut tally,
        );
        assert_eq!(tally.failed, 0, "{:?}", tally.failures);
        // 2 reference + 2 decomposed slots, 1 perfect-memory probe,
        // 2 fast-forward probes, 2 sink probes.
        assert_eq!(tally.attempted, 9);
        let sum = values["bench.layer_sum_ratio"];
        assert!((0.98..=1.0).contains(&sum), "layer sum ratio {sum}");
        assert!(values["bench.trace_overhead_ratio"] > 0.0);
        assert!(values["sim.run_s"] > 0.0 && values["affine.decouple_s"] > 0.0);
        assert!(values["sim.ns_per_cycle.dac"] > 0.0 && values["sim.ns_per_cycle.perfect"] > 0.0);
        // LIB at this size: the golden cycle counts of the repository.
        assert_eq!(values["sim.cycles"], (21295 + 18186) as f64);
        for name in values.keys() {
            assert!(
                PER_LAYER.iter().any(|d| d.name == name),
                "{name} is not in the table"
            );
        }
        let trace = fs::read_to_string(&trace_file).unwrap();
        assert!(simt_harness::json::parse(&trace).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }
}

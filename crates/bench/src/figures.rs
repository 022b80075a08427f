//! The paper's evaluation (§5): every table and figure `sweep EXPERIMENT`
//! prints, derived from [`evaluate_all`]'s rows (see EXPERIMENTS.md for
//! the index).

use crate::cli::{exit_unrunnable, CommonArgs};
use crate::{evaluate_all, geomean, FullRow};
use dac_core::DacConfig;
use gpu_energy::EnergyModel;
use gpu_workloads::{gpu_for, Design, Workload};
use simt_harness::{refuse_idle_knobs, DesignPoint, Harness, Job, Overrides, Payload};
use simt_sim::GpuConfig;
use std::sync::Arc;

/// Print experiment `name` over the benchmarks `args` selects. Experiments
/// cache by default (`results/cache`) so a re-run only simulates what
/// changed; artifacts are written only under `--out`. `Err` is a usage
/// error: an unknown experiment or benchmark, or a matrix option an
/// experiment would silently ignore (it picks its own design points and
/// runs several batches, each of which would overwrite a `--profile`
/// report).
pub fn run(name: &str, args: &CommonArgs) -> Result<(), String> {
    for (given, flag) in [
        (args.designs.is_some(), "--designs"),
        (args.profile.is_some(), "--profile"),
    ] {
        if given {
            return Err(format!("{flag} is a matrix option, not an experiment one"));
        }
    }
    refuse_idle_knobs(&args.overrides, &DesignPoint::HW_ALL, false)?;
    let benches = args.benchmarks()?;
    let harness = args.harness(None);
    let rows = |benches: Vec<Workload>| -> Vec<FullRow> {
        eprintln!(
            "running {} benchmarks at scale {} on {} workers...",
            benches.len(),
            args.scale,
            harness.workers()
        );
        evaluate_all(&harness, benches, args.scale, &args.overrides)
            .unwrap_or_else(|f| exit_unrunnable(&f))
    };
    match name {
        "table1" => table1(),
        "table2" => table2(&rows(benches)),
        "fig6" => fig6(&rows(benches)),
        "fig16" => fig16(&rows(benches)),
        "fig17" => fig17(&rows(benches)),
        "fig18" => fig18(&rows(benches)),
        "fig19" => fig19(&rows(benches)),
        "fig20" => fig20(&rows(benches)),
        "fig21" => fig21(&rows(benches)),
        "mem" => mem_rates(&rows(benches)),
        "area" => area(),
        "ablate" => ablate(&harness, args, benches),
        "all" => {
            let rows = rows(benches.clone());
            table1();
            table2(&rows);
            fig6(&rows);
            fig16(&rows);
            fig17(&rows);
            fig18(&rows);
            fig19(&rows);
            fig20(&rows);
            fig21(&rows);
            mem_rates(&rows);
            area();
            ablate(&harness, args, benches);
        }
        other => return Err(format!("unknown experiment {other:?}")),
    }
    Ok(())
}

fn hdr(title: &str) {
    println!("\n=== {title} ===");
}

fn table1() {
    hdr("Table 1: Simulation Parameters");
    let g = GpuConfig::gtx480();
    println!("Baseline GPU");
    println!(
        "  GPU        Fermi (GTX480), {} SMs, {} warps/SM",
        g.num_sms, g.max_warps_per_sm
    );
    println!(
        "  SM         {} SIMT lanes, {} schedulers (two-level active)",
        g.lanes, g.schedulers
    );
    println!(
        "  L1         {} KB/SM, {} ways, {} MSHRs",
        g.mem.l1_size / 1024,
        g.mem.l1_ways,
        g.mem.mshr_entries
    );
    println!(
        "  L2         {} KB total, {} partitions, {} ways",
        g.mem.l2_size_per_partition * g.mem.num_partitions as u64 / 1024,
        g.mem.num_partitions,
        g.mem.l2_ways
    );
    println!("GPU Prefetcher (MTA)");
    println!(
        "  Buffer     {} KB/SM (in addition to L1)",
        gpu_for(Design::Mta).mem.prefetch_buffer_size / 1024
    );
    println!("Compact Affine Execution (CAE)");
    println!("  Units      2 affine units per SM (one per scheduler)");
    let d = DacConfig::paper();
    println!("Decoupled Affine Computation (DAC)");
    println!("  ATQ        {} entries/SM", d.atq_entries);
    println!(
        "  PWAQ       {} entries/SM, partitioned among resident warps ({}/warp at max occupancy)",
        d.pwaq_total,
        d.pwaq_total / g.max_warps_per_sm
    );
    println!(
        "  PWPQ       {} entries/SM, partitioned among resident warps ({}/warp at max occupancy)",
        d.pwpq_total,
        d.pwpq_total / g.max_warps_per_sm
    );
}

fn table2(rows: &[FullRow]) {
    hdr("Table 2: Benchmarks and measured classification (perfect-mem speedup ≥ 1.5 ⇒ memory-intensive)");
    println!(
        "{:<6} {:<18} {:<6} {:>9} {:<10}",
        "Abbr", "Name", "Suite", "PerfSpd", "Class"
    );
    for r in rows {
        println!(
            "{:<6} {:<18} {:<6} {:>8.2}x {:<10}",
            r.abbr,
            r.name,
            r.suite,
            r.perfect_speedup,
            if r.memory_intensive {
                "memory"
            } else {
                "compute"
            }
        );
    }
    let mem = rows.iter().filter(|r| r.memory_intensive).count();
    println!(
        "-> {} memory-intensive, {} compute-intensive (paper: 18 / 11)",
        mem,
        rows.len() - mem
    );
}

fn fig6(rows: &[FullRow]) {
    hdr("Figure 6: % of static instructions that are potentially affine");
    println!(
        "{:<6} {:>7} {:>7} {:>7} {:>8}",
        "Bench", "Arith", "Mem", "Branch", "Total%"
    );
    let mut fracs = Vec::new();
    for r in rows {
        let t = r.mix.total as f64;
        println!(
            "{:<6} {:>6.1}% {:>6.1}% {:>6.1}% {:>7.1}%",
            r.abbr,
            100.0 * r.mix.affine_arithmetic as f64 / t,
            100.0 * r.mix.affine_memory as f64 / t,
            100.0 * r.mix.affine_branch as f64 / t,
            100.0 * r.mix.potential_affine_fraction()
        );
        fracs.push(r.mix.potential_affine_fraction());
    }
    let mean = fracs.iter().sum::<f64>() / fracs.len().max(1) as f64;
    println!(
        "MEAN   potential affine = {:.1}% (paper: ~50%)",
        100.0 * mean
    );
}

fn fig16(rows: &[FullRow]) {
    hdr("Figure 16: Speedup of CAE, MTA, and DAC over the baseline GTX 480");
    println!(
        "{:<6} {:<8} {:>7} {:>7} {:>7}",
        "Bench", "Class", "CAE", "MTA", "DAC"
    );
    let (mut mem_rows, mut cmp_rows) = (Vec::new(), Vec::new());
    for r in rows {
        println!(
            "{:<6} {:<8} {:>6.2}x {:>6.2}x {:>6.2}x",
            r.abbr,
            if r.memory_intensive {
                "memory"
            } else {
                "compute"
            },
            r.speedup(Design::Cae),
            r.speedup(Design::Mta),
            r.speedup(Design::Dac)
        );
        if r.memory_intensive {
            mem_rows.push(r);
        } else {
            cmp_rows.push(r);
        }
    }
    for (label, set, paper) in [
        ("memory-intensive", &mem_rows, "MTA 1.16x / DAC 1.44x"),
        ("compute-intensive", &cmp_rows, "CAE 1.15x / DAC 1.34x"),
    ] {
        if set.is_empty() {
            continue;
        }
        println!(
            "GEOMEAN {label:<18} CAE {:.2}x  MTA {:.2}x  DAC {:.2}x   (paper: {paper})",
            geomean(set.iter().map(|r| r.speedup(Design::Cae))),
            geomean(set.iter().map(|r| r.speedup(Design::Mta))),
            geomean(set.iter().map(|r| r.speedup(Design::Dac))),
        );
    }
    println!(
        "GEOMEAN all                DAC {:.2}x   (paper: 1.40x)",
        geomean(rows.iter().map(|r| r.speedup(Design::Dac)))
    );
}

fn fig17(rows: &[FullRow]) {
    hdr("Figure 17: DAC warp instructions normalized to baseline (non-affine + affine streams)");
    println!(
        "{:<6} {:>10} {:>9} {:>8}",
        "Bench", "NonAffine", "Affine", "Total"
    );
    let mut totals = Vec::new();
    let mut aff_fracs = Vec::new();
    for r in rows {
        let (na, aff) = r.instr_ratio();
        println!("{:<6} {:>9.3} {:>9.3} {:>8.3}", r.abbr, na, aff, na + aff);
        totals.push(na + aff);
        let s = &r.report(Design::Dac).stats;
        aff_fracs.push(s.affine_instruction_fraction());
    }
    let mean = totals.iter().sum::<f64>() / totals.len().max(1) as f64;
    let afrac = aff_fracs.iter().sum::<f64>() / aff_fracs.len().max(1) as f64;
    println!(
        "MEAN   total ratio = {mean:.3} (paper: 0.74), affine share = {:.1}% (paper: 4.6%)",
        100.0 * afrac
    );
}

fn fig18(rows: &[FullRow]) {
    hdr("Figure 18: Affine instruction coverage, DAC vs CAE (compute-intensive set)");
    println!("{:<6} {:>7} {:>7}", "Bench", "CAE", "DAC");
    let set: Vec<&FullRow> = rows.iter().filter(|r| !r.memory_intensive).collect();
    for r in &set {
        println!(
            "{:<6} {:>6.1}% {:>6.1}%",
            r.abbr,
            100.0 * r.cae_coverage(),
            100.0 * r.dac_coverage()
        );
    }
    if !set.is_empty() {
        println!(
            "GEOMEAN  CAE {:.1}%  DAC {:.1}%   (paper: CAE 25% / DAC 34%)",
            100.0 * geomean(set.iter().map(|r| r.cae_coverage().max(1e-6))),
            100.0 * geomean(set.iter().map(|r| r.dac_coverage().max(1e-6)))
        );
    }
}

fn fig19(rows: &[FullRow]) {
    hdr("Figure 19: % of global/local load requests issued by the affine warp (memory-intensive set)");
    println!("{:<6} {:>8}", "Bench", "Affine%");
    let set: Vec<&FullRow> = rows.iter().filter(|r| r.memory_intensive).collect();
    let mut fr = Vec::new();
    for r in &set {
        println!(
            "{:<6} {:>7.1}%",
            r.abbr,
            100.0 * r.decoupled_load_fraction()
        );
        fr.push(r.decoupled_load_fraction());
    }
    let mean = fr.iter().sum::<f64>() / fr.len().max(1) as f64;
    println!("MEAN   {:.1}% (paper: 79.8%)", 100.0 * mean);
}

fn fig20(rows: &[FullRow]) {
    hdr("Figure 20: MTA prefetcher coverage (memory-intensive set)");
    println!("{:<6} {:>9}", "Bench", "Coverage");
    let set: Vec<&FullRow> = rows.iter().filter(|r| r.memory_intensive).collect();
    let mut cov = Vec::new();
    for r in &set {
        println!("{:<6} {:>8.1}%", r.abbr, 100.0 * r.mta_coverage());
        cov.push(r.mta_coverage());
    }
    let mean = cov.iter().sum::<f64>() / cov.len().max(1) as f64;
    println!("MEAN   {:.1}%", 100.0 * mean);
}

fn fig21(rows: &[FullRow]) {
    hdr("Figure 21: DAC energy normalized to baseline");
    let model = EnergyModel::gtx480();
    println!(
        "{:<6} {:>7} {:>7} {:>7} {:>9} {:>8} {:>7}",
        "Bench", "ALU", "RF", "OtherD", "DACovhd", "Static", "Total"
    );
    let mut totals = Vec::new();
    for r in rows {
        let base = r.energy(Design::Baseline, &model);
        let dac = r.energy(Design::Dac, &model);
        let bt = base.total();
        println!(
            "{:<6} {:>7.3} {:>7.3} {:>7.3} {:>9.4} {:>8.3} {:>7.3}",
            r.abbr,
            dac.alu / bt,
            dac.regfile / bt,
            dac.other_dynamic / bt,
            dac.dac_overhead / bt,
            dac.static_ / bt,
            dac.total() / bt
        );
        totals.push(dac.total() / bt);
    }
    println!(
        "GEOMEAN total = {:.3} (paper: 0.798)",
        geomean(totals.iter().copied())
    );
}

/// Memory-system hit rates per design — the quantitative backdrop for the
/// Figure 16 speedups (e.g. why MTA under-delivers when its prefetches
/// miss L2, or how DAC's line locking holds L1 hits up).
fn mem_rates(rows: &[FullRow]) {
    hdr("Memory hit rates per design (L1 / L2 / DRAM row-buffer)");
    println!(
        "{:<6} {:<9} {:>6} {:>6} {:>6}",
        "Bench", "Design", "L1", "L2", "Row"
    );
    for r in rows {
        for d in Design::ALL {
            let m = &r.report(d).mem;
            println!(
                "{:<6} {:<9} {:>5.1}% {:>5.1}% {:>5.1}%",
                r.abbr,
                d.name(),
                100.0 * m.l1_hit_rate(),
                100.0 * m.l2_hit_rate(),
                100.0 * m.row_hit_rate()
            );
        }
    }
}

fn area() {
    hdr("Section 4.8: DAC area overhead");
    let sms = GpuConfig::gtx480().num_sms;
    println!(
        "SRAM {} B/SM ≈ {:.2} mm²/SM; 2 ALUs ≈ {:.2} mm²/SM",
        gpu_energy::area::SRAM_BYTES_PER_SM,
        gpu_energy::area::SRAM_MM2_PER_SM,
        gpu_energy::area::ALU_MM2_PER_SM
    );
    println!(
        "total {:.2} mm² on a {:.0} mm² die = {:.2}% (paper: 1.06%)",
        gpu_energy::area::dac_area_mm2(sms),
        gpu_energy::area::GTX480_DIE_MM2,
        100.0 * gpu_energy::area::dac_area_overhead(sms)
    );
}

/// Design-space ablations beyond the paper: queue depth, ATQ size and
/// line locking. Every configuration is an [`Overrides`] delta,
/// so the whole sweep is one harness batch and the baseline runs (which no
/// DAC knob affects) are shared through the cache.
fn ablate(harness: &Harness, args: &CommonArgs, benches: Vec<Workload>) {
    hdr("Ablations (beyond the paper): DAC speedup vs design knobs");
    // A representative memory-bound subset keeps this affordable.
    let subset: Vec<Arc<Workload>> = benches
        .into_iter()
        .filter(|w| ["LIB", "ST", "CS", "SR2", "LBM"].contains(&w.abbr))
        .map(Arc::new)
        .collect();
    if subset.is_empty() {
        println!("(no matching benchmarks in filter)");
        return;
    }
    let with = |edit: fn(&mut Overrides)| {
        let mut o = args.overrides.clone();
        edit(&mut o);
        o
    };
    let configs = [
        ("paper (ATQ24, PWQ192, lock)", with(|_| {})),
        (
            "shallow queues (PWQ48)",
            with(|o| (o.pwaq_total, o.pwpq_total) = (Some(48), Some(48))),
        ),
        (
            "deep queues (PWQ768)",
            with(|o| (o.pwaq_total, o.pwpq_total) = (Some(768), Some(768))),
        ),
        ("no line locking", with(|o| o.lock_lines = Some(false))),
        ("tiny ATQ (4)", with(|o| o.atq_entries = Some(4))),
    ];

    // One batch: a baseline job per benchmark, then each DAC variant.
    let jobs_at = |design, overrides: &Overrides| -> Vec<Job> {
        subset
            .iter()
            .map(|w| Job {
                payload: Payload::Bench(w.clone()),
                scale: args.scale,
                point: DesignPoint::Hw(design),
                overrides: overrides.clone(),
            })
            .collect()
    };
    let mut jobs = jobs_at(Design::Baseline, &args.overrides);
    for (_, overrides) in &configs {
        jobs.extend(jobs_at(Design::Dac, overrides));
    }
    let out = harness
        .try_run(&jobs)
        .unwrap_or_else(|f| exit_unrunnable(&f));

    let base_cycles: Vec<f64> = out.results[..subset.len()]
        .iter()
        .map(|r| r.report.cycles as f64)
        .collect();
    println!("{:<28} geomean speedup over baseline", "config");
    for (c, (label, _)) in configs.iter().enumerate() {
        let start = subset.len() * (c + 1);
        let speedups = out.results[start..start + subset.len()]
            .iter()
            .zip(&base_cycles)
            .map(|(r, bc)| bc / r.report.cycles as f64);
        println!("{:<28} {:.3}x", label, geomean(speedups));
    }
}

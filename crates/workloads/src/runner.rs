//! Run benchmarks and multi-kernel scenarios under each design (baseline /
//! CAE / MTA / DAC).

use crate::scenarios::Scenario;
use crate::Workload;
use affine::{decouple, AffineAnalysis};
use dac_core::{Dac, DacConfig};
use gpu_baselines::{Cae, CaeConfig, Mta, MtaConfig};
use simt_ir::{Kernel, LaunchConfig, Program};
use simt_mem::{MemConfig, SparseMemory};
use simt_sim::{
    CoProcessor, GpuConfig, GpuSim, NullCoProcessor, PlacementPolicy, SimReport, Stream,
    StreamLaunch, StreamReport,
};
use simt_trace::Tracer;

/// The four hardware designs of Figure 16.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Design {
    /// Unmodified GTX 480.
    Baseline,
    /// Compact Affine Execution (2 affine units / SM).
    Cae,
    /// Many-Thread Aware prefetching (+16 KB buffer / SM).
    Mta,
    /// Decoupled Affine Computation.
    Dac,
}

impl Design {
    /// All designs in report order.
    pub const ALL: [Design; 4] = [Design::Baseline, Design::Cae, Design::Mta, Design::Dac];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Design::Baseline => "baseline",
            Design::Cae => "cae",
            Design::Mta => "mta",
            Design::Dac => "dac",
        }
    }
}

/// The GPU configuration a design runs on: identical except MTA's extra
/// prefetch buffer (the paper's generous provisioning).
pub fn gpu_for(design: Design) -> GpuConfig {
    match design {
        Design::Mta => GpuConfig {
            mem: MemConfig::gtx480_with_prefetch_buffer(),
            ..GpuConfig::gtx480()
        },
        _ => GpuConfig::gtx480(),
    }
}

/// One benchmark run: report plus the memory image it produced.
pub struct BenchRun {
    /// The simulator report.
    pub report: SimReport,
    /// Final memory (for cross-design output checks).
    pub memory: SparseMemory,
}

/// One scenario run: the stream report (chip-wide + per-kernel stats)
/// plus the memory image it produced.
pub struct ScenarioRun {
    /// The simulator report, including one [`simt_sim::KernelReport`] per
    /// launch (stream-major).
    pub report: StreamReport,
    /// Final memory (for per-kernel cross-design output checks).
    pub memory: SparseMemory,
}

/// The program and coprocessor of one kernel launch under `design`: DAC
/// runs the non-affine stream of the decoupled kernel on a `dac`-configured
/// engine, the other designs the kernel as is.
fn lower(
    kernel: &Kernel,
    launch: &LaunchConfig,
    design: Design,
    dac: &DacConfig,
) -> (Program, Box<dyn CoProcessor>) {
    let program = |k: &Kernel| Program::new(k.clone(), launch.clone()).expect("invalid kernel");
    match design {
        Design::Baseline => (program(kernel), Box::new(NullCoProcessor)),
        Design::Cae => (program(kernel), Box::new(Cae::new(CaeConfig::default()))),
        Design::Mta => (program(kernel), Box::new(Mta::new(MtaConfig::default()))),
        Design::Dac => {
            let analysis = AffineAnalysis::run(kernel);
            let dk = decouple(kernel, &analysis);
            (program(&dk.non_affine), Box::new(Dac::new(dac.clone(), dk)))
        }
    }
}

/// Run `w` under `design` on `gpu` (pass [`gpu_for`]'s result, or a custom
/// configuration for ablations). `dac` configures the DAC engine and is
/// read only when `design` is [`Design::Dac`]; events go to `tracer` (a
/// [`simt_trace::NullTracer`] for an untraced run). Tracing is pure
/// observation: the report is identical to the untraced run.
pub fn run_design(
    w: &Workload,
    design: Design,
    gpu: &GpuSim,
    dac: DacConfig,
    tracer: &mut dyn Tracer,
) -> BenchRun {
    let (program, mut co) = lower(&w.kernel, &w.launch, design, &dac);
    let mut memory = w.fresh_memory();
    let report = gpu.run_traced(&program, &mut memory, co.as_mut(), tracer);
    BenchRun { report, memory }
}

/// Run a multi-kernel scenario under `design`, as [`run_design`] runs one
/// benchmark. Each launch gets its own coprocessor instance (for DAC, its
/// own decoupled kernel); streams run concurrently under `policy`.
pub fn run_scenario_design(
    sc: &Scenario,
    design: Design,
    gpu: &GpuSim,
    policy: PlacementPolicy,
    dac: DacConfig,
    tracer: &mut dyn Tracer,
) -> ScenarioRun {
    let mut memory = sc.fresh_memory();
    let mut streams: Vec<Stream> = Vec::new();
    let mut owned: Vec<Box<dyn CoProcessor>> = Vec::new();
    for s in &sc.streams {
        let mut launches = Vec::new();
        for k in s {
            let (program, co) = lower(&k.kernel, &k.launch, design, &dac);
            launches.push(StreamLaunch::labelled(program, k.label));
            owned.push(co);
        }
        streams.push(Stream::of(launches));
    }
    let coprocs: Vec<&mut dyn CoProcessor> = owned.iter_mut().map(|c| c.as_mut() as _).collect();
    let report = gpu.run_streams_traced(&streams, &mut memory, coprocs, policy, tracer);
    ScenarioRun { report, memory }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_trace::NullTracer;

    #[test]
    fn designs_have_names() {
        for d in Design::ALL {
            assert!(!d.name().is_empty());
        }
        assert!(gpu_for(Design::Mta).mem.prefetch_buffer_size > 0);
        assert_eq!(gpu_for(Design::Dac).mem.prefetch_buffer_size, 0);
    }

    /// Every design must produce bit-identical per-kernel outputs on every
    /// multi-stream scenario, and report per-kernel stats for every launch.
    #[test]
    fn scenarios_agree_on_outputs_across_designs() {
        for sc in crate::all_scenarios(1) {
            let base = run_scenario_design(
                &sc,
                Design::Baseline,
                &GpuSim::new(simt_sim::GpuConfig::test_small()),
                PlacementPolicy::Greedy,
                DacConfig::paper(),
                &mut NullTracer,
            );
            let golden = sc.output_words(&base.memory);
            assert_eq!(base.report.per_kernel.len(), sc.kernels().len());
            for (k, sk) in base.report.per_kernel.iter().zip(sc.kernels()) {
                assert_eq!(k.label, sk.label, "{}: per-kernel order", sc.name);
                assert_eq!(k.ctas, sk.launch.num_ctas(), "{}: CTA count", sc.name);
                assert!(k.stats.ctas_launched == k.ctas, "{}: all CTAs ran", sc.name);
            }
            for d in [Design::Cae, Design::Mta, Design::Dac] {
                for policy in [PlacementPolicy::Greedy, PlacementPolicy::RoundRobin] {
                    let gpu = GpuSim::new(simt_sim::GpuConfig {
                        mem: gpu_for(d).mem,
                        ..simt_sim::GpuConfig::test_small()
                    });
                    let run = run_scenario_design(
                        &sc,
                        d,
                        &gpu,
                        policy,
                        DacConfig::paper(),
                        &mut NullTracer,
                    );
                    assert_eq!(
                        sc.output_words(&run.memory),
                        golden,
                        "design {:?}/{:?} diverged on {}",
                        d,
                        policy,
                        sc.name
                    );
                }
            }
        }
    }

    /// Every design must produce bit-identical outputs on a workload with
    /// atomics, shared memory, and divergence.
    #[test]
    fn designs_agree_on_outputs() {
        let w = crate::benchmark("HI", 1).unwrap();
        let base = run_design(
            &w,
            Design::Baseline,
            &GpuSim::new(simt_sim::GpuConfig::test_small()),
            DacConfig::paper(),
            &mut NullTracer,
        );
        let golden = base.memory.read_u32_vec(w.output.0, w.output.1);
        for d in [Design::Cae, Design::Mta, Design::Dac] {
            let gpu = GpuSim::new(simt_sim::GpuConfig {
                mem: gpu_for(d).mem,
                ..simt_sim::GpuConfig::test_small()
            });
            let run = run_design(&w, d, &gpu, DacConfig::paper(), &mut NullTracer);
            assert_eq!(
                run.memory.read_u32_vec(w.output.0, w.output.1),
                golden,
                "design {:?} diverged on {}",
                d,
                w.abbr
            );
        }
    }
}

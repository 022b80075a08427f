//! Cross-crate integration tests: assemble → analyze → decouple → simulate
//! under every design, checking functional equivalence and the paper's
//! qualitative claims on a small GPU.

use dac_gpu::affine::{decouple, AffineAnalysis};
use dac_gpu::baselines::{Cae, CaeConfig, Mta, MtaConfig};
use dac_gpu::dac::{Dac, DacConfig};
use dac_gpu::ir::{asm, Kernel, LaunchConfig, Program};
use dac_gpu::mem::{MemConfig, SparseMemory};
use dac_gpu::sim::{GpuConfig, GpuSim};
use simt_trace::NullTracer;

fn small_gpu() -> GpuSim {
    GpuSim::new(GpuConfig::test_small())
}

fn small_gpu_with_pbuf() -> GpuSim {
    GpuSim::new(GpuConfig {
        mem: MemConfig::gtx480_with_prefetch_buffer(),
        ..GpuConfig::test_small()
    })
}

/// Run `kernel` under all four designs and assert the output region is
/// bit-identical; returns (baseline cycles, dac cycles, dac stats).
fn race_all_designs(
    kernel: &Kernel,
    launch: &LaunchConfig,
    init: impl Fn(&mut SparseMemory),
    out: (u64, usize),
) -> (u64, u64, dac_gpu::sim::SimStats) {
    let program = Program::new(kernel.clone(), launch.clone()).unwrap();
    let mut mem_base = SparseMemory::new();
    init(&mut mem_base);
    let base = small_gpu().run(&program, &mut mem_base);
    let golden = mem_base.read_u32_vec(out.0, out.1);

    let mut mem_cae = SparseMemory::new();
    init(&mut mem_cae);
    let mut cae = Cae::new(CaeConfig::default());
    small_gpu().run_traced(&program, &mut mem_cae, &mut cae, &mut NullTracer);
    assert_eq!(mem_cae.read_u32_vec(out.0, out.1), golden, "CAE diverged");

    let mut mem_mta = SparseMemory::new();
    init(&mut mem_mta);
    let mut mta = Mta::new(MtaConfig::default());
    small_gpu_with_pbuf().run_traced(&program, &mut mem_mta, &mut mta, &mut NullTracer);
    assert_eq!(mem_mta.read_u32_vec(out.0, out.1), golden, "MTA diverged");

    let analysis = AffineAnalysis::run(kernel);
    let dk = decouple(kernel, &analysis);
    let dac_prog = Program::new(dk.non_affine.clone(), launch.clone()).unwrap();
    let mut dac = Dac::new(DacConfig::paper(), dk);
    let mut mem_dac = SparseMemory::new();
    init(&mut mem_dac);
    let rep = small_gpu().run_traced(&dac_prog, &mut mem_dac, &mut dac, &mut NullTracer);
    assert_eq!(mem_dac.read_u32_vec(out.0, out.1), golden, "DAC diverged");

    (base.cycles, rep.cycles, rep.stats)
}

#[test]
fn paper_figure4_kernel_all_designs_agree() {
    let kernel = asm::parse_kernel(
        r#"
.kernel example
.params 4
    mul r0, %ctaid.x, %ntid.x;
    add r1, r0, %tid.x;
    shl r2, r1, 2;
    add r3, %p0, r2;
    add r4, %p1, r2;
    mov r5, 0;
LOOP:
    ld.global r6, [r3];
    add r7, r6, 1;
    st.global [r4], r7;
    add r5, r5, 1;
    mul r8, %p3, 4;
    add r3, r8, r3;
    add r4, r8, r4;
    setp.ne p0, %p2, r5;
    @p0 bra LOOP;
    exit;
"#,
    )
    .unwrap();
    let (dim, num) = (6u64, 512u64);
    let launch = LaunchConfig::linear(4, 128, vec![0x10_0000, 0x80_0000, dim, num]);
    let n = (dim * num) as usize;
    let (base, dac, stats) = race_all_designs(
        &kernel,
        &launch,
        |m| m.write_u32_slice(0x10_0000, &(0..n as u32).collect::<Vec<_>>()),
        (0x80_0000, n),
    );
    assert!(dac < base, "DAC {dac} !< baseline {base}");
    assert!(stats.decoupled_load_fraction() > 0.9);
    // §5.3: DAC executes fewer warp instructions; the affine stream is a
    // small share of the total.
    assert!(stats.affine_instruction_fraction() < 0.5);
}

#[test]
fn mod_addressed_kernel_is_decoupled_and_correct() {
    let kernel = asm::parse_kernel(
        r#"
.kernel modk
.params 3
    mul r0, %ctaid.x, %ntid.x;
    add r1, r0, %tid.x;
    add r2, r1, 397;
    rem r3, r2, %p2;
    shl r4, r3, 2;
    add r5, %p0, r4;
    ld.global r6, [r5];
    shl r7, r1, 2;
    add r8, %p1, r7;
    st.global [r8], r6;
    exit;
"#,
    )
    .unwrap();
    let n = 512u64;
    let launch = LaunchConfig::linear(4, 128, vec![0x10_0000, 0x80_0000, n]);
    let analysis = AffineAnalysis::run(&kernel);
    assert!(
        analysis
            .candidates
            .iter()
            .any(|c| c.kind == dac_gpu::affine::CandidateKind::LoadData),
        "mod-typed address must be a candidate (§4.4)"
    );
    let (_, _, stats) = race_all_designs(
        &kernel,
        &launch,
        |m| m.write_u32_slice(0x10_0000, &(0..n as u32).map(|i| i * 7).collect::<Vec<_>>()),
        (0x80_0000, n as usize),
    );
    assert!(stats.decoupled_loads > 0);
}

#[test]
fn divergent_boundary_kernel_all_designs_agree() {
    let kernel = asm::parse_kernel(
        r#"
.kernel bound
.params 3
    mul r0, %ctaid.x, %ntid.x;
    add r1, r0, %tid.x;
    setp.ge p0, r1, %p2;
    @p0 bra DONE;
    shl r2, r1, 2;
    add r3, %p0, r2;
    ld.global r4, [r3];
    add r5, r4, 100;
    add r6, %p1, r2;
    st.global [r6], r5;
DONE:
    exit;
"#,
    )
    .unwrap();
    let bound = 300u64; // not warp-aligned: real intra-warp divergence
    let launch = LaunchConfig::linear(4, 128, vec![0x10_0000, 0x80_0000, bound]);
    let (_, _, stats) = race_all_designs(
        &kernel,
        &launch,
        |m| m.write_u32_slice(0x10_0000, &vec![5u32; 512]),
        (0x80_0000, 512),
    );
    assert!(stats.decoupled_loads > 0, "boundary kernel should decouple");
}

#[test]
fn barrier_kernel_all_designs_agree() {
    // Shared-memory neighbour exchange with a barrier, then a decoupled
    // streaming store (exercises the AEU's barrier-epoch gating, §4.2).
    let kernel = asm::parse_kernel(
        r#"
.kernel barrier
.params 2
    mul r0, %ctaid.x, %ntid.x;
    add r1, r0, %tid.x;
    shl r2, r1, 2;
    add r3, %p0, r2;
    ld.global r4, [r3];
    shl r5, %tid.x, 2;
    st.shared [r5], r4;
    bar.sync;
    add r6, %tid.x, 1;
    rem r7, r6, 128;
    shl r8, r7, 2;
    ld.shared r9, [r8];
    add r10, %p1, r2;
    st.global [r10], r9;
    exit;
"#,
    )
    .unwrap();
    let mut kernel = kernel;
    kernel.shared_bytes = 128 * 4;
    let launch = LaunchConfig::linear(4, 128, vec![0x10_0000, 0x80_0000]);
    let n = 512usize;
    let (_, _, _stats) = race_all_designs(
        &kernel,
        &launch,
        |m| m.write_u32_slice(0x10_0000, &(0..n as u32).collect::<Vec<_>>()),
        (0x80_0000, n),
    );
}

#[test]
fn indirect_kernel_is_untouched_but_correct() {
    // Pointer-chasing: nothing decoupleable; DAC must degrade gracefully.
    let kernel = asm::parse_kernel(
        r#"
.kernel chase
.params 2
    mul r0, %ctaid.x, %ntid.x;
    add r1, r0, %tid.x;
    shl r2, r1, 2;
    add r3, %p0, r2;
    ld.global r4, [r3];
    shl r5, r4, 2;
    add r6, %p0, r5;
    ld.global r7, [r6];
    add r8, %p1, r2;
    st.global [r8], r7;
    exit;
"#,
    )
    .unwrap();
    let n = 256u32;
    let launch = LaunchConfig::linear(2, 128, vec![0x10_0000, 0x80_0000]);
    let (_, _, stats) = race_all_designs(
        &kernel,
        &launch,
        |m| {
            let idx: Vec<u32> = (0..n).map(|i| (i * 37 + 5) % n).collect();
            m.write_u32_slice(0x10_0000, &idx);
        },
        (0x80_0000, n as usize),
    );
    // The second load is indirect — only the first decouples.
    assert!(stats.decoupled_load_fraction() <= 0.51);
}

#[test]
fn whole_suite_smoke_at_tiny_scale() {
    // Every one of the 29 benchmarks runs baseline + DAC on the small GPU
    // with identical outputs. (The full-GPU versions run in the harness.)
    for w in dac_gpu::workloads::all_benchmarks(1) {
        let gpu = small_gpu();
        let base = {
            let mut m = w.fresh_memory();
            let r = gpu.run(&w.program(), &mut m);
            (m, r)
        };
        let analysis = AffineAnalysis::run(&w.kernel);
        let dk = decouple(&w.kernel, &analysis);
        let prog = Program::new(dk.non_affine.clone(), w.launch.clone()).unwrap();
        let mut dac = Dac::new(DacConfig::paper(), dk);
        let mut m2 = w.fresh_memory();
        gpu.run_traced(&prog, &mut m2, &mut dac, &mut NullTracer);
        assert_eq!(
            base.0.read_u32_vec(w.output.0, w.output.1),
            m2.read_u32_vec(w.output.0, w.output.1),
            "{}: DAC output mismatch",
            w.abbr
        );
    }
}

#[test]
fn dac_is_deterministic() {
    let w = dac_gpu::workloads::benchmark("LIB", 1).unwrap();
    let analysis = AffineAnalysis::run(&w.kernel);
    let run = |gpu: &GpuSim| {
        let dk = decouple(&w.kernel, &analysis);
        let prog = Program::new(dk.non_affine.clone(), w.launch.clone()).unwrap();
        let mut dac = Dac::new(DacConfig::paper(), dk);
        let mut m = w.fresh_memory();
        gpu.run_traced(&prog, &mut m, &mut dac, &mut NullTracer)
            .cycles
    };
    let gpu = small_gpu();
    assert_eq!(run(&gpu), run(&gpu));
}

//! DAC hardware-mechanism integration tests: barrier-epoch gating of the
//! expansion units (§4.2), divergent affine tuples through real control
//! flow (§4.6), and queue back-pressure under adversarial sizing.

use affine::{decouple, AffineAnalysis};
use dac_core::{Dac, DacConfig};
use simt_ir::{asm, LaunchConfig, Program};
use simt_mem::SparseMemory;
use simt_sim::{GpuConfig, GpuSim};
use simt_trace::{jsonl, NullTracer, RingSink};

fn run_both(
    text: &str,
    launch: LaunchConfig,
    init: impl Fn(&mut SparseMemory),
    out: (u64, usize),
    cfg: DacConfig,
) -> (Vec<u32>, Vec<u32>, simt_sim::SimStats, Dac) {
    let kernel = asm::parse_kernel(text).unwrap();
    let gpu = GpuSim::new(GpuConfig::test_small());
    let program = Program::new(kernel.clone(), launch.clone()).unwrap();
    let mut m1 = SparseMemory::new();
    init(&mut m1);
    gpu.run(&program, &mut m1);

    let analysis = AffineAnalysis::run(&kernel);
    let dk = decouple(&kernel, &analysis);
    assert!(dk.any_decoupled, "kernel must decouple");
    let dprog = Program::new(dk.non_affine.clone(), launch).unwrap();
    let mut dac = Dac::new(cfg, dk);
    let mut m2 = SparseMemory::new();
    init(&mut m2);
    let rep = gpu.run_traced(&dprog, &mut m2, &mut dac, &mut NullTracer);
    (
        m1.read_u32_vec(out.0, out.1),
        m2.read_u32_vec(out.0, out.1),
        rep.stats,
        dac,
    )
}

/// Producer/consumer across a barrier: thread t writes X[t], barrier, then
/// every thread reads its neighbour's slot and stores it — the decoupled
/// post-barrier loads must not be expanded (and certainly not issued)
/// before the CTA passes the barrier, or they would read stale data.
#[test]
fn barrier_epoch_gates_early_requests() {
    let text = r#"
.kernel prodcons
.params 2
    mul r0, %ctaid.x, %ntid.x;
    add r1, r0, %tid.x;
    shl r2, r1, 2;
    add r3, %p0, r2;
    mul r4, r1, 3;
    st.global [r3], r4;
    bar.sync;
    add r5, %tid.x, 1;
    rem r6, r5, 128;
    add r7, r0, r6;
    shl r8, r7, 2;
    add r9, %p0, r8;
    ld.global r10, [r9];
    add r11, %p1, r2;
    st.global [r11], r10;
    exit;
"#;
    let launch = LaunchConfig::linear(4, 128, vec![0x10_0000, 0x80_0000]);
    let (base, dacv, stats, dac) =
        run_both(text, launch, |_| {}, (0x80_0000, 512), DacConfig::paper());
    assert_eq!(base, dacv, "barrier ordering violated");
    // The neighbour load value is thread-dependent: out[t] = 3*(neighbour).
    assert_eq!(dacv[0], 3);
    assert_eq!(dacv[127], 0, "wraps to tid 0 of the CTA, so 3*0");
    assert!(stats.decoupled_loads > 0, "post-barrier load must decouple");
    assert_eq!(dac.dropped_at_retire, 0);
}

/// Figure 14 (right): a boundary condition selects between two affine
/// tuples for the same register; the expansion unit must pick per thread.
#[test]
fn divergent_affine_tuples_expand_per_thread() {
    let text = r#"
.kernel fig14
.params 3
    mul r0, %ctaid.x, %ntid.x;
    add r1, r0, %tid.x;
    setp.lt p0, r1, %p2;
    mov r2, 0;
    @p0 bra JOIN;
    shl r2, r1, 2;
JOIN:
    add r3, %p0, r2;
    ld.global r4, [r3];
    shl r5, r1, 2;
    add r6, %p1, r5;
    st.global [r6], r4;
    exit;
"#;
    // Threads below 40 read element 0; the rest read element tid.
    let launch = LaunchConfig::linear(2, 64, vec![0x10_0000, 0x80_0000, 40]);
    let input: Vec<u32> = (0..128).map(|i| 1000 + i).collect();
    let (base, dacv, stats, _dac) = run_both(
        text,
        launch,
        |m| m.write_u32_slice(0x10_0000, &input),
        (0x80_0000, 128),
        DacConfig::paper(),
    );
    assert_eq!(base, dacv);
    assert_eq!(dacv[10], 1000, "below-bound thread reads element 0");
    assert_eq!(dacv[77], 1077, "above-bound thread reads its own element");
    assert!(
        stats.decoupled_loads > 0,
        "divergent-tuple load must decouple"
    );
}

/// Adversarial queue sizing: 1-entry everything still completes correctly
/// (back-pressure, not deadlock).
#[test]
fn minimal_queues_never_deadlock() {
    let text = r#"
.kernel tiny
.params 3
    mul r0, %ctaid.x, %ntid.x;
    add r1, r0, %tid.x;
    shl r2, r1, 2;
    add r3, %p0, r2;
    add r4, %p1, r2;
    mov r5, 0;
L:
    ld.global r6, [r3];
    add r7, r6, 2;
    st.global [r4], r7;
    add r3, r3, 2048;
    add r4, r4, 2048;
    add r5, r5, 1;
    setp.lt p0, r5, %p2;
    @p0 bra L;
    exit;
"#;
    let launch = LaunchConfig::linear(4, 128, vec![0x10_0000, 0x80_0000, 4]);
    let cfg = DacConfig {
        atq_entries: 1,
        pwaq_total: 1,
        pwpq_total: 1,
        ..DacConfig::paper()
    };
    let n = 4 * 512;
    let input: Vec<u32> = (0..n as u32).collect();
    let (base, dacv, stats, _d) = run_both(
        text,
        launch,
        |m| m.write_u32_slice(0x10_0000, &input),
        (0x80_0000, n),
        cfg,
    );
    assert_eq!(base, dacv);
    assert!(stats.enq_full_stalls > 0, "1-entry ATQ must back-pressure");
}

/// Disabling line locking (ablation) stays functionally correct even under
/// cache thrash that evicts the early-requested lines.
#[test]
fn no_locking_ablation_is_correct() {
    let text = r#"
.kernel thrash
.params 3
    mul r0, %ctaid.x, %ntid.x;
    add r1, r0, %tid.x;
    mul r2, r1, 49152;
    add r3, %p0, r2;
    ld.global r4, [r3];
    shl r5, r1, 2;
    add r6, %p1, r5;
    st.global [r6], r4;
    exit;
"#;
    // 48 KB-strided loads: every access maps to the same L1 set family and
    // thrashes; without locking the early lines may be evicted before use.
    let launch = LaunchConfig::linear(2, 64, vec![0x10_0000, 0x8000_0000, 0]);
    let cfg = DacConfig {
        lock_lines: false,
        ..DacConfig::paper()
    };
    let (base, dacv, _stats, _d) = run_both(
        text,
        launch,
        |m| {
            for t in 0..128u64 {
                m.write_u32(0x10_0000 + t * 49152, 7000 + t as u32);
            }
        },
        (0x8000_0000, 128),
        cfg,
    );
    assert_eq!(base, dacv);
    assert_eq!(dacv[5], 7005);
}

/// The affine-instruction share stays small (§5.3's "only 4.6%... showing
/// that DAC does not require a dedicated affine functional unit") — our
/// per-CTA model runs higher but must stay well under half.
#[test]
fn affine_stream_is_minor_share() {
    let text = r#"
.kernel share
.params 3
    mul r0, %ctaid.x, %ntid.x;
    add r1, r0, %tid.x;
    shl r2, r1, 2;
    add r3, %p0, r2;
    add r4, %p1, r2;
    mov r5, 0;
L:
    ld.global r6, [r3];
    mul.f32 r7, r6, r6;
    add.f32 r8, r7, r6;
    mul.f32 r9, r8, r8;
    add.f32 r10, r9, r8;
    st.global [r4], r10;
    add r3, r3, 4096;
    add r4, r4, 4096;
    add r5, r5, 1;
    setp.lt p0, r5, %p2;
    @p0 bra L;
    exit;
"#;
    let launch = LaunchConfig::linear(4, 128, vec![0x10_0000, 0x80_0000, 8]);
    let (_b, _d, stats, _) = run_both(
        text,
        launch,
        |m| m.write_u32_slice(0x10_0000, &vec![0x3f80_0000u32; 8 * 1024]),
        (0x80_0000, 512),
        DacConfig::paper(),
    );
    let share = stats.affine_instruction_fraction();
    assert!(share > 0.0 && share < 0.5, "affine share {share}");
}

/// An SM the command processor never binds runs no coprocessor: one CTA
/// on the two-SM machine leaves SM 1 without a kernel for the whole run,
/// so a traced DAC run emits no event for it (not even DAC's per-cycle
/// `queue_sample`), and the counters equal the untraced run's.
#[test]
fn an_unbound_sm_runs_no_coprocessor() {
    let kernel = asm::parse_kernel(
        r#"
.kernel inc
.params 2
    mul r0, %ctaid.x, %ntid.x;
    add r1, r0, %tid.x;
    shl r2, r1, 2;
    add r3, %p0, r2;
    ld.global r4, [r3];
    add r5, r4, 1;
    add r6, %p1, r2;
    st.global [r6], r5;
    exit;
"#,
    )
    .unwrap();
    let dk = decouple(&kernel, &AffineAnalysis::run(&kernel));
    assert!(dk.any_decoupled, "kernel must decouple");
    let launch = LaunchConfig::linear(1, 64, vec![0x1_0000, 0x2_0000]);
    let program = Program::new(dk.non_affine.clone(), launch).unwrap();
    let gpu = GpuSim::new(GpuConfig::test_small());
    assert_eq!(gpu.config().num_sms, 2);
    let run = |tracer: &mut dyn simt_trace::Tracer| {
        let mut dac = Dac::new(DacConfig::paper(), dk.clone());
        gpu.run_traced(&program, &mut SparseMemory::new(), &mut dac, tracer)
    };

    let mut sink = RingSink::new(1 << 16);
    let traced = run(&mut sink);
    assert_eq!(sink.dropped(), 0);
    let text = jsonl::export(sink.events(), &[], 0);
    let on_sm = |sm: u32| {
        let field = format!("\"sm\": {sm}, ");
        text.lines().filter(|l| l.contains(&field)).count()
    };
    assert!(on_sm(0) > 0, "SM 0 runs the CTA");
    assert_eq!(on_sm(1), 0, "SM 1 never holds a CTA, so nothing runs on it");
    assert!(traced.stats.decoupled_loads > 0);

    let plain = run(&mut NullTracer);
    assert_eq!(traced.cycles, plain.cycles);
    assert_eq!(traced.stats, plain.stats);
    assert_eq!(traced.mem, plain.mem);
}

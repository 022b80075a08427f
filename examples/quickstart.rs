//! Quickstart: write a kernel in the paper's pseudo-assembly, decouple it
//! with the DAC compiler, and race DAC against the baseline GPU.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dac_gpu::affine::{decouple, AffineAnalysis};
use dac_gpu::dac::{Dac, DacConfig};
use dac_gpu::ir::{asm, LaunchConfig, Program};
use dac_gpu::mem::SparseMemory;
use dac_gpu::sim::{GpuConfig, GpuSim};
use simt_trace::NullTracer;

pub fn main() {
    for line in run() {
        println!("{line}");
    }
}

/// Prints the decoupled streams and returns the race's result lines, the
/// block README's quickstart quotes.
pub fn run() -> Vec<String> {
    // The kernel from the paper's Figure 4: B[i*num+tid] = A[i*num+tid] + 1.
    let kernel = asm::parse_kernel(
        r#"
.kernel example
.params 4
    mul r0, %ctaid.x, %ntid.x;
    add r1, r0, %tid.x;
    shl r2, r1, 2;
    add r3, %p0, r2;        // addrA
    add r4, %p1, r2;        // addrB
    mov r5, 0;              // i
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
    .expect("kernel parses");

    let (dim, num) = (12u64, 3840u64);
    let (a, b) = (0x100_0000u64, 0x200_0000u64);
    let launch = LaunchConfig::linear(30, 128, vec![a, b, dim, num]);
    let n = (dim * num) as usize;
    let input: Vec<u32> = (0..n as u32).collect();

    // Compile: classify operands, find candidates, split the streams.
    let analysis = AffineAnalysis::run(&kernel);
    let dk = decouple(&kernel, &analysis);
    println!("affine stream (runs once per CTA on the affine warp):");
    println!("{}", dk.affine.disassemble());
    println!("non-affine stream (what the SIMT warps now execute):");
    println!("{}", dk.non_affine.disassemble());

    // Baseline GTX 480.
    let gpu = GpuSim::new(GpuConfig::gtx480());
    let program = Program::new(kernel, launch.clone()).unwrap();
    let mut mem = SparseMemory::new();
    mem.write_u32_slice(a, &input);
    let base = gpu.run(&program, &mut mem);

    // Run with the DAC hardware attached.
    let dac_prog = Program::new(dk.non_affine.clone(), launch).unwrap();
    let mut dac = Dac::new(DacConfig::paper(), dk);
    let mut mem2 = SparseMemory::new();
    mem2.write_u32_slice(a, &input);
    let rep = gpu.run_traced(&dac_prog, &mut mem2, &mut dac, &mut NullTracer);

    assert_eq!(
        mem.read_u32_vec(b, n),
        mem2.read_u32_vec(b, n),
        "DAC must preserve program semantics"
    );
    vec![
        format!("baseline: {} cycles", base.cycles),
        format!(
            "DAC:      {} cycles  ({:.2}x speedup)",
            rep.cycles,
            base.cycles as f64 / rep.cycles as f64
        ),
        format!(
            "          {:.1}% of loads decoupled, warp instructions {:.2}x of baseline",
            100.0 * rep.stats.decoupled_load_fraction(),
            rep.stats.warp_instructions as f64 / base.stats.warp_instructions as f64,
        ),
        "          outputs verified bit-identical".to_string(),
    ]
}

//! Multi-kernel scenarios: hand-authored stream workloads for the command
//! processor (occupancy-limited CTA scheduling, concurrent kernel
//! streams).
//!
//! Unlike the 29 single-kernel benchmarks, a scenario describes **several
//! kernels sharing one GPU**: an ordered queue of launches per stream
//! (CUDA stream semantics — launch `i + 1` waits for launch `i`), with
//! distinct streams competing for SMs concurrently. Scenarios are
//! hand-authored rather than composed from arbitrary benchmarks because
//! all kernels of a run share one flat address space — every scenario
//! assigns each kernel a **disjoint address map**, and each kernel carries
//! its own output region so the cross-design correctness checks still
//! hold per kernel.
//!
//! The three stress patterns mirror the occupancy terms the command
//! processor arbitrates:
//!
//! * [`smem_pressure`] — a 20 KB-per-CTA shared-memory hog co-runs with a
//!   lean streaming kernel (shared-memory term);
//! * [`reg_pressure`] — a kernel declaring a fat register footprint via
//!   `.regs` co-runs with a lean one (register-file term);
//! * [`pipeline`] — a producer→consumer pair on one in-order stream plus
//!   an independent bystander stream (stream ordering + concurrency).

use crate::kernels::{init_u32, tid_elem_addr};
use simt_ir::{CmpOp, Kernel, KernelBuilder, LaunchConfig, Op, Operand, Space, SpecialReg, Width};
use simt_mem::SparseMemory;

/// One kernel launch inside a scenario.
#[derive(Clone)]
pub struct ScenarioKernel {
    /// Attribution label (unique within the scenario); flows into
    /// per-kernel stats, trace events, and artifacts.
    pub label: &'static str,
    /// The kernel.
    pub kernel: Kernel,
    /// Launch geometry and parameters.
    pub launch: LaunchConfig,
    /// Output region `(base, words)` compared across designs.
    pub output: (u64, usize),
}

/// A multi-kernel workload: streams of kernels over one shared (but
/// disjointly partitioned) memory image.
#[derive(Clone)]
pub struct Scenario {
    /// Stable name (CLI `--set streams=<name>`, cache keys, artifacts).
    pub name: &'static str,
    /// One-line description for listings.
    pub description: &'static str,
    /// Streams in declaration order; kernels within a stream run in
    /// order, streams run concurrently.
    pub streams: Vec<Vec<ScenarioKernel>>,
    /// Combined initial memory image (disjoint regions per kernel).
    pub memory: SparseMemory,
}

impl Scenario {
    /// A fresh copy of the initial memory image.
    pub fn fresh_memory(&self) -> SparseMemory {
        self.memory.clone()
    }

    /// All kernels flattened stream-major (the launch-id order the
    /// simulator reports in).
    pub fn kernels(&self) -> Vec<&ScenarioKernel> {
        self.streams.iter().flatten().collect()
    }

    /// Concatenated output words of every kernel, stream-major — the
    /// scenario-wide correctness signature compared across designs.
    pub fn output_words(&self, memory: &SparseMemory) -> Vec<u32> {
        let mut out = Vec::new();
        for k in self.kernels() {
            out.extend(memory.read_u32_vec(k.output.0, k.output.1));
        }
        out
    }
}

/// Names of all scenarios, in registry order.
pub const ALL_SCENARIOS: [&str; 3] = ["smem_pressure", "reg_pressure", "pipeline"];

/// Look up a scenario by name (case-insensitive).
pub fn scenario(name: &str, scale: u32) -> Option<Scenario> {
    let n = name.to_ascii_lowercase();
    match n.as_str() {
        "smem_pressure" => Some(smem_pressure(scale)),
        "reg_pressure" => Some(reg_pressure(scale)),
        "pipeline" => Some(pipeline(scale)),
        _ => None,
    }
}

/// Build every scenario at `scale`.
pub fn all_scenarios(scale: u32) -> Vec<Scenario> {
    ALL_SCENARIOS
        .iter()
        .map(|n| scenario(n, scale).unwrap())
        .collect()
}

// Scenario address maps: 16 MiB-aligned regions well away from the
// single-benchmark bases, two per kernel (input, output).
const SC_A_IN: u64 = 0x1000_0000;
const SC_A_OUT: u64 = 0x1100_0000;
const SC_B_IN: u64 = 0x1200_0000;
const SC_B_OUT: u64 = 0x1300_0000;
const SC_C_IN: u64 = 0x1400_0000;
const SC_C_MID: u64 = 0x1500_0000;
const SC_C_OUT: u64 = 0x1600_0000;

/// `out[i] = 3*in[i] + 7` — one element per thread, pure affine
/// streaming. The lean co-runner of the pressure scenarios.
fn streaming_kernel(name: &'static str) -> Kernel {
    let mut b = KernelBuilder::new(name, 2);
    let (_tid, addr) = tid_elem_addr(&mut b, 0, 2);
    let v = b.ld(Space::Global, addr, 0, Width::W32);
    let r = b.alu3(Op::Mad, Operand::Reg(v), Operand::Imm(3), Operand::Imm(7));
    let tid2 = b.tid_linear_x();
    let off = b.alu2(Op::Shl, Operand::Reg(tid2), Operand::Imm(2));
    let out = b.alu2(Op::Add, Operand::Param(1), Operand::Reg(off));
    b.st(Space::Global, out, 0, Operand::Reg(r), Width::W32);
    b.exit();
    b.build()
}

/// Cooperative shared-memory staging with a fat per-CTA footprint:
/// each thread loads `words_per_thread` words into shared memory, then
/// after a barrier reads its neighbour's slot and stores a combination.
fn staging_kernel(name: &'static str, block: u32, words_per_thread: u32) -> Kernel {
    let total_words = block * words_per_thread;
    let mut b = KernelBuilder::new(name, 2);
    b.shared(total_words * 4);
    let tx = b.mov(Operand::Special(SpecialReg::TidX));
    let (_tid, gaddr) = tid_elem_addr(&mut b, 0, 2);
    let v = b.ld(Space::Global, gaddr, 0, Width::W32);
    // shared[tid.x * words_per_thread + j] = v + j for each slot.
    let sbase = b.alu2(
        Op::Mul,
        Operand::Reg(tx),
        Operand::Imm(words_per_thread as i64 * 4),
    );
    let j = b.mov(Operand::Imm(0));
    let saddr = b.mov(Operand::Reg(sbase));
    b.label("fill");
    let vj = b.alu2(Op::Add, Operand::Reg(v), Operand::Reg(j));
    b.st(Space::Shared, saddr, 0, Operand::Reg(vj), Width::W32);
    b.alu_into(saddr, Op::Add, &[Operand::Reg(saddr), Operand::Imm(4)]);
    b.alu_into(j, Op::Add, &[Operand::Reg(j), Operand::Imm(1)]);
    let p = b.setp(
        CmpOp::Lt,
        Operand::Reg(j),
        Operand::Imm(words_per_thread as i64),
    );
    b.bra_if(p, "fill");
    b.bar();
    // Read the next thread's first slot (wrapping within the block).
    let succ = b.alu2(Op::Add, Operand::Reg(tx), Operand::Imm(1));
    let wrapped = b.alu2(Op::Rem, Operand::Reg(succ), Operand::Imm(block as i64));
    let naddr = b.alu2(
        Op::Mul,
        Operand::Reg(wrapped),
        Operand::Imm(words_per_thread as i64 * 4),
    );
    let nv = b.ld(Space::Shared, naddr, 0, Width::W32);
    let mixed = b.alu2(Op::Add, Operand::Reg(nv), Operand::Reg(v));
    let tid2 = b.tid_linear_x();
    let off = b.alu2(Op::Shl, Operand::Reg(tid2), Operand::Imm(2));
    let out = b.alu2(Op::Add, Operand::Param(1), Operand::Reg(off));
    b.st(Space::Global, out, 0, Operand::Reg(mixed), Width::W32);
    b.exit();
    b.build()
}

/// An integer-mixing loop that *declares* a fat architectural register
/// footprint via `.regs` (modelling register pressure the synthetic body
/// does not literally spell out).
fn fat_reg_kernel(name: &'static str, regs_per_thread: u16, rounds: i64) -> Kernel {
    let mut b = KernelBuilder::new(name, 2);
    b.regs_per_thread(regs_per_thread);
    let (_tid, addr) = tid_elem_addr(&mut b, 0, 2);
    let v = b.ld(Space::Global, addr, 0, Width::W32);
    let h = b.mov(Operand::Reg(v));
    let r = b.mov(Operand::Imm(0));
    b.label("mix");
    let t1 = b.alu2(Op::Shl, Operand::Reg(h), Operand::Imm(3));
    let t2 = b.alu2(Op::Xor, Operand::Reg(t1), Operand::Reg(h));
    b.alu_into(
        h,
        Op::Mad,
        &[Operand::Reg(t2), Operand::Imm(17), Operand::Imm(29)],
    );
    b.alu_into(r, Op::Add, &[Operand::Reg(r), Operand::Imm(1)]);
    let p = b.setp(CmpOp::Lt, Operand::Reg(r), Operand::Imm(rounds));
    b.bra_if(p, "mix");
    let tid2 = b.tid_linear_x();
    let off = b.alu2(Op::Shl, Operand::Reg(tid2), Operand::Imm(2));
    let out = b.alu2(Op::Add, Operand::Param(1), Operand::Reg(off));
    b.st(Space::Global, out, 0, Operand::Reg(h), Width::W32);
    b.exit();
    b.build()
}

/// `mid[i] = in[i]*5 + 1` — the producer half of the pipeline.
fn producer_kernel(name: &'static str) -> Kernel {
    let mut b = KernelBuilder::new(name, 2);
    let (_tid, addr) = tid_elem_addr(&mut b, 0, 2);
    let v = b.ld(Space::Global, addr, 0, Width::W32);
    let r = b.alu3(Op::Mad, Operand::Reg(v), Operand::Imm(5), Operand::Imm(1));
    let tid2 = b.tid_linear_x();
    let off = b.alu2(Op::Shl, Operand::Reg(tid2), Operand::Imm(2));
    let out = b.alu2(Op::Add, Operand::Param(1), Operand::Reg(off));
    b.st(Space::Global, out, 0, Operand::Reg(r), Width::W32);
    b.exit();
    b.build()
}

/// `out[i] = mid[i] + mid[(i+1) mod n]` — the consumer reads what the
/// producer wrote (stream ordering is what makes this correct).
fn consumer_kernel(name: &'static str) -> Kernel {
    let mut b = KernelBuilder::new(name, 3);
    let tid = b.tid_linear_x();
    let off = b.alu2(Op::Shl, Operand::Reg(tid), Operand::Imm(2));
    let a0 = b.alu2(Op::Add, Operand::Param(0), Operand::Reg(off));
    let v0 = b.ld(Space::Global, a0, 0, Width::W32);
    let succ = b.alu2(Op::Add, Operand::Reg(tid), Operand::Imm(1));
    let wrapped = b.alu2(Op::Rem, Operand::Reg(succ), Operand::Param(2));
    let off1 = b.alu2(Op::Shl, Operand::Reg(wrapped), Operand::Imm(2));
    let a1 = b.alu2(Op::Add, Operand::Param(0), Operand::Reg(off1));
    let v1 = b.ld(Space::Global, a1, 0, Width::W32);
    let sum = b.alu2(Op::Add, Operand::Reg(v0), Operand::Reg(v1));
    let out = b.alu2(Op::Add, Operand::Param(1), Operand::Reg(off));
    b.st(Space::Global, out, 0, Operand::Reg(sum), Width::W32);
    b.exit();
    b.build()
}

/// Shared-memory pressure: a 20 KB-per-CTA staging kernel (2 CTAs/SM on
/// the GTX 480's 48 KB) co-runs with a lean streaming kernel on its own
/// stream. The command processor must partition SMs between them — the
/// staging kernel cannot fill an SM's warp slots, so giving it every SM
/// wastes throughput the lean kernel could use.
pub fn smem_pressure(scale: u32) -> Scenario {
    let block = 64u32;
    let words_per_thread = 80u32; // 64 × 80 × 4 B = 20 KB of shared per CTA
    let ctas_a = 12 * scale;
    let ctas_b = 24 * scale;
    let na = (ctas_a * block) as usize;
    let nb = (ctas_b * block) as usize;
    let mut memory = SparseMemory::new();
    init_u32(&mut memory, SC_A_IN, na, 301, u32::MAX);
    init_u32(&mut memory, SC_B_IN, nb, 302, u32::MAX);
    Scenario {
        name: "smem_pressure",
        description: "20 KB/CTA shared-memory hog + lean streaming kernel on 2 streams",
        streams: vec![
            vec![ScenarioKernel {
                label: "stage",
                kernel: staging_kernel("stage", block, words_per_thread),
                launch: LaunchConfig::linear(ctas_a, block, vec![SC_A_IN, SC_A_OUT]),
                output: (SC_A_OUT, na),
            }],
            vec![ScenarioKernel {
                label: "stream",
                kernel: streaming_kernel("stream"),
                launch: LaunchConfig::linear(ctas_b, block, vec![SC_B_IN, SC_B_OUT]),
                output: (SC_B_OUT, nb),
            }],
        ],
        memory,
    }
}

/// Register-file pressure: a kernel declaring 40 architectural registers
/// per thread (256-thread CTAs → 10 240 registers per CTA, 3 CTAs/SM on
/// the GTX 480's 32 K file) co-runs with a lean streaming kernel. Before
/// the register-file occupancy term existed, the fat kernel would
/// oversubscribe every SM it landed on.
pub fn reg_pressure(scale: u32) -> Scenario {
    let fat_block = 256u32;
    let lean_block = 128u32;
    let ctas_a = 8 * scale;
    let ctas_b = 16 * scale;
    let na = (ctas_a * fat_block) as usize;
    let nb = (ctas_b * lean_block) as usize;
    let mut memory = SparseMemory::new();
    init_u32(&mut memory, SC_A_IN, na, 311, u32::MAX);
    init_u32(&mut memory, SC_B_IN, nb, 312, u32::MAX);
    Scenario {
        name: "reg_pressure",
        description: "40-regs/thread kernel (3 CTAs/SM by regfile) + lean streaming kernel",
        streams: vec![
            vec![ScenarioKernel {
                label: "fat",
                kernel: fat_reg_kernel("fat", 40, 24),
                launch: LaunchConfig::linear(ctas_a, fat_block, vec![SC_A_IN, SC_A_OUT]),
                output: (SC_A_OUT, na),
            }],
            vec![ScenarioKernel {
                label: "lean",
                kernel: streaming_kernel("lean"),
                launch: LaunchConfig::linear(ctas_b, lean_block, vec![SC_B_IN, SC_B_OUT]),
                output: (SC_B_OUT, nb),
            }],
        ],
        memory,
    }
}

/// Stream ordering: stream 0 queues a producer followed by a consumer
/// that reads the producer's output (the consumer must not start until
/// every producer CTA retired); stream 1 runs an independent bystander
/// concurrently with both.
pub fn pipeline(scale: u32) -> Scenario {
    let block = 128u32;
    let ctas = 16 * scale;
    let n = (ctas * block) as usize;
    let ctas_b = 12 * scale;
    let nb = (ctas_b * block) as usize;
    let mut memory = SparseMemory::new();
    init_u32(&mut memory, SC_C_IN, n, 321, u32::MAX);
    init_u32(&mut memory, SC_B_IN, nb, 322, u32::MAX);
    Scenario {
        name: "pipeline",
        description: "producer -> consumer on one in-order stream + concurrent bystander",
        streams: vec![
            vec![
                ScenarioKernel {
                    label: "produce",
                    kernel: producer_kernel("produce"),
                    launch: LaunchConfig::linear(ctas, block, vec![SC_C_IN, SC_C_MID]),
                    output: (SC_C_MID, n),
                },
                ScenarioKernel {
                    label: "consume",
                    kernel: consumer_kernel("consume"),
                    launch: LaunchConfig::linear(ctas, block, vec![SC_C_MID, SC_C_OUT, n as u64]),
                    output: (SC_C_OUT, n),
                },
            ],
            vec![ScenarioKernel {
                label: "bystander",
                kernel: streaming_kernel("bystander"),
                launch: LaunchConfig::linear(ctas_b, block, vec![SC_B_IN, SC_B_OUT]),
                output: (SC_B_OUT, nb),
            }],
        ],
        memory,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_valid() {
        let all = all_scenarios(1);
        assert_eq!(all.len(), ALL_SCENARIOS.len());
        for sc in &all {
            assert!(sc.streams.len() >= 2, "{}: needs >= 2 streams", sc.name);
            let kernels = sc.kernels();
            assert!(kernels.len() >= 2, "{}: needs >= 2 kernels", sc.name);
            for k in &kernels {
                k.kernel
                    .validate()
                    .unwrap_or_else(|e| panic!("{}/{}: {e}", sc.name, k.label));
                assert_eq!(
                    k.launch.params.len(),
                    k.kernel.num_params as usize,
                    "{}/{}: param count",
                    sc.name,
                    k.label
                );
                assert!(k.output.1 > 0, "{}/{}: empty output", sc.name, k.label);
            }
            // Labels unique within a scenario (they key per-kernel stats).
            let mut labels: Vec<&str> = kernels.iter().map(|k| k.label).collect();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(labels.len(), kernels.len(), "{}: duplicate labels", sc.name);
        }
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(scenario("SMEM_PRESSURE", 1).is_some());
        assert!(scenario("pipeline", 1).is_some());
        assert!(scenario("nope", 1).is_none());
    }

    #[test]
    fn output_regions_are_disjoint() {
        for sc in all_scenarios(1) {
            let kernels = sc.kernels();
            for (i, a) in kernels.iter().enumerate() {
                for b in &kernels[i + 1..] {
                    let (a0, a1) = (a.output.0, a.output.0 + a.output.1 as u64 * 4);
                    let (b0, b1) = (b.output.0, b.output.0 + b.output.1 as u64 * 4);
                    assert!(
                        a1 <= b0 || b1 <= a0,
                        "{}: outputs of {} and {} overlap",
                        sc.name,
                        a.label,
                        b.label
                    );
                }
            }
        }
    }

    #[test]
    fn reg_pressure_declares_fat_registers() {
        let sc = reg_pressure(1);
        let fat = &sc.streams[0][0];
        assert_eq!(fat.kernel.regs_per_thread, 40);
        // 256 threads × 40 regs = 10 240 per CTA → 3 CTAs in a 32 K file.
        assert_eq!(32 * 1024 / (256 * 40), 3);
    }

    #[test]
    fn smem_pressure_declares_fat_shared() {
        let sc = smem_pressure(1);
        assert_eq!(sc.streams[0][0].kernel.shared_bytes, 20 * 1024);
    }
}

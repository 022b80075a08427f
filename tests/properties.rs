//! Randomized tests (deterministic, std-only) on the reproduction's core
//! invariants. A seeded SplitMix64 stream replaces proptest so the suite
//! runs in the offline build environment with reproducible cases.

use dac_gpu::affine::tuple::tuple_op;
use dac_gpu::affine::{decouple, AffineAnalysis, AffineTuple};
use dac_gpu::dac::{Dac, DacConfig};
use dac_gpu::ir::{
    asm, eval, CmpOp, KernelBuilder, LaunchConfig, Op, Operand, Program, Space, Width,
};
use dac_gpu::mem::{LaneAddrs, SparseMemory};
use dac_gpu::sim::{GpuConfig, GpuSim};
use dac_gpu::workloads::kernels::SplitMix64;
use simt_trace::NullTracer;

// ---------- affine tuple algebra vs. per-thread scalar evaluation ----------

/// A random affine expression: leaves are tid dimensions or immediates;
/// inner nodes are the affine-supported ops.
#[derive(Debug, Clone)]
enum Expr {
    Tid(usize),
    Imm(i64),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    MulScalar(Box<Expr>, i64),
    Shl(Box<Expr>, i64),
    Rem(Box<Expr>, i64),
}

impl Expr {
    /// Per-thread ground truth via the shared functional ALU semantics.
    fn eval_thread(&self, t: (u32, u32, u32)) -> u64 {
        match self {
            Expr::Tid(d) => [t.0, t.1, t.2][*d] as u64,
            Expr::Imm(i) => *i as u64,
            Expr::Add(a, b) => eval::eval(Op::Add, a.eval_thread(t), b.eval_thread(t), 0),
            Expr::Sub(a, b) => eval::eval(Op::Sub, a.eval_thread(t), b.eval_thread(t), 0),
            Expr::MulScalar(a, s) => eval::eval(Op::Mul, a.eval_thread(t), *s as u64, 0),
            Expr::Shl(a, s) => eval::eval(Op::Shl, a.eval_thread(t), *s as u64, 0),
            Expr::Rem(a, s) => eval::eval(Op::Rem, a.eval_thread(t), *s as u64, 0),
        }
    }

    /// Tuple-algebra evaluation; `None` when a combination is outside the
    /// affine domain (e.g. rem of a mod-tuple).
    fn eval_tuple(&self) -> Option<AffineTuple> {
        match self {
            Expr::Tid(d) => Some(AffineTuple::tid(*d)),
            Expr::Imm(i) => Some(AffineTuple::scalar(*i as u64)),
            Expr::Add(a, b) => tuple_op(Op::Add, &[a.eval_tuple()?, b.eval_tuple()?]),
            Expr::Sub(a, b) => tuple_op(Op::Sub, &[a.eval_tuple()?, b.eval_tuple()?]),
            Expr::MulScalar(a, s) => {
                tuple_op(Op::Mul, &[a.eval_tuple()?, AffineTuple::scalar(*s as u64)])
            }
            Expr::Shl(a, s) => {
                tuple_op(Op::Shl, &[a.eval_tuple()?, AffineTuple::scalar(*s as u64)])
            }
            Expr::Rem(a, s) => {
                tuple_op(Op::Rem, &[a.eval_tuple()?, AffineTuple::scalar(*s as u64)])
            }
        }
    }
}

/// A random expression tree of the given depth.
fn gen_expr(rng: &mut SplitMix64, depth: usize) -> Expr {
    if depth == 0 || rng.below(4) == 0 {
        return if rng.below(2) == 0 {
            Expr::Tid(rng.below(3) as usize)
        } else {
            Expr::Imm(rng.below(2000) as i64 - 1000)
        };
    }
    let a = Box::new(gen_expr(rng, depth - 1));
    match rng.below(5) {
        0 => Expr::Add(a, Box::new(gen_expr(rng, depth - 1))),
        1 => Expr::Sub(a, Box::new(gen_expr(rng, depth - 1))),
        2 => Expr::MulScalar(a, rng.below(128) as i64 - 64),
        3 => Expr::Shl(a, rng.below(8) as i64),
        _ => Expr::Rem(a, 1 + rng.below(511) as i64),
    }
}

/// The headline invariant: whenever the affine algebra can represent an
/// expression, evaluating the tuple per thread equals the scalar per-thread
/// computation, bit for bit. (Decoupling is an optimization, never an
/// approximation.)
#[test]
fn tuple_algebra_matches_per_thread_eval() {
    let mut rng = SplitMix64::new(0xA1_6EB2A);
    for _ in 0..2048 {
        let e = gen_expr(&mut rng, 4);
        if let Some(t) = e.eval_tuple() {
            for &(x, y, z) in &[
                (0u32, 0u32, 0u32),
                (1, 0, 0),
                (31, 0, 0),
                (5, 3, 1),
                (127, 7, 2),
            ] {
                let got = t.eval((x, y, z));
                let expect = e.eval_thread((x, y, z));
                assert_eq!(got, expect, "thread ({x}, {y}, {z}) of {e:?}");
            }
        }
    }
}

/// Scalar subsumption: any op over uniform inputs stays uniform and matches
/// the functional ALU exactly.
#[test]
fn scalar_subsumption_matches_alu() {
    const OPS: [Op; 12] = [
        Op::Add,
        Op::Sub,
        Op::Mul,
        Op::And,
        Op::Or,
        Op::Xor,
        Op::Shr,
        Op::Min,
        Op::Max,
        Op::Div,
        Op::FAdd,
        Op::FMul,
    ];
    let mut rng = SplitMix64::new(0x5CA1A6);
    for i in 0..2048 {
        let a = rng.next_u64();
        let b = rng.next_u64();
        let op = OPS[i % OPS.len()];
        let r = tuple_op(op, &[AffineTuple::scalar(a), AffineTuple::scalar(b)])
            .expect("scalar inputs always evaluate");
        assert_eq!(
            r.as_scalar().unwrap(),
            eval::eval(op, a, b, 0),
            "{op:?}({a}, {b})"
        );
    }
}

// ---------- decoupling preserves semantics on random streaming kernels ----------

/// Random strided-loop kernels: the decoupled program writes exactly the
/// bytes the original wrote.
#[test]
fn decoupling_preserves_streaming_semantics() {
    let mut rng = SplitMix64::new(0xDECC_0091);
    for _ in 0..6 {
        let iters = 1 + rng.below(4) as u64;
        let stride_elems = 1 + rng.below(599) as u64;
        let addend = rng.below(1000);
        let ctas = 1 + rng.below(3);

        let mut b = KernelBuilder::new("prop", 4);
        let tid = b.tid_linear_x();
        let off = b.alu2(Op::Shl, Operand::Reg(tid), Operand::Imm(2));
        let a0 = b.alu2(Op::Add, Operand::Param(0), Operand::Reg(off));
        let o0 = b.alu2(Op::Add, Operand::Param(1), Operand::Reg(off));
        let step = b.alu2(Op::Shl, Operand::Param(3), Operand::Imm(2));
        let i = b.mov(Operand::Imm(0));
        b.label("loop");
        let v = b.ld(Space::Global, a0, 0, Width::W32);
        let r = b.alu2(Op::Add, Operand::Reg(v), Operand::Imm(addend as i64));
        b.st(Space::Global, o0, 0, Operand::Reg(r), Width::W32);
        b.alu_into(a0, Op::Add, &[Operand::Reg(a0), Operand::Reg(step)]);
        b.alu_into(o0, Op::Add, &[Operand::Reg(o0), Operand::Reg(step)]);
        b.alu_into(i, Op::Add, &[Operand::Reg(i), Operand::Imm(1)]);
        let p = b.setp(CmpOp::Lt, Operand::Reg(i), Operand::Param(2));
        b.bra_if(p, "loop");
        b.exit();
        let kernel = b.build();
        let launch =
            LaunchConfig::linear(ctas, 64, vec![0x10_0000, 0x200_0000, iters, stride_elems]);
        let span = (stride_elems * iters) as usize + 64 * ctas as usize;
        let input: Vec<u32> = (0..span as u32).map(|i| i ^ 0xA5A5).collect();

        let gpu = GpuSim::new(GpuConfig::test_small());
        let program = Program::new(kernel.clone(), launch.clone()).unwrap();
        let mut m1 = SparseMemory::new();
        m1.write_u32_slice(0x10_0000, &input);
        gpu.run(&program, &mut m1);

        let analysis = AffineAnalysis::run(&kernel);
        let dk = decouple(&kernel, &analysis);
        assert!(dk.any_decoupled);
        let dprog = Program::new(dk.non_affine.clone(), launch).unwrap();
        let mut dac = Dac::new(DacConfig::paper(), dk);
        let mut m2 = SparseMemory::new();
        m2.write_u32_slice(0x10_0000, &input);
        gpu.run_traced(&dprog, &mut m2, &mut dac, &mut NullTracer);

        assert_eq!(
            m1.read_u32_vec(0x200_0000, span),
            m2.read_u32_vec(0x200_0000, span),
            "iters={iters} stride={stride_elems} addend={addend} ctas={ctas}"
        );
    }
}

// ---------- builder output always validates ----------

/// The builder can only produce kernels that validate, for a simple
/// ALU/branch subset, and CFG construction succeeds on all of them.
#[test]
fn builder_kernels_always_validate() {
    let mut rng = SplitMix64::new(0xBD_1DE2);
    for _ in 0..64 {
        let nops = 1 + rng.below(39) as usize;
        let nloops = rng.below(3) as usize;
        let mut b = KernelBuilder::new("gen", 1);
        let mut last = b.mov(Operand::Imm(1));
        for k in 0..nloops {
            let i = b.mov(Operand::Imm(0));
            b.label(format!("l{k}"));
            last = b.alu2(Op::Add, Operand::Reg(last), Operand::Reg(i));
            b.alu_into(i, Op::Add, &[Operand::Reg(i), Operand::Imm(1)]);
            let p = b.setp(CmpOp::Lt, Operand::Reg(i), Operand::Imm(3));
            b.bra_if(p, &format!("l{k}"));
        }
        for _ in 0..nops {
            last = b.alu2(Op::Xor, Operand::Reg(last), Operand::Imm(3));
        }
        b.exit();
        let k = b.build();
        assert!(k.validate().is_ok());
        // CFG + reconvergence analysis must succeed on anything valid.
        let cfg = dac_gpu::ir::Cfg::build(&k);
        assert!(!cfg.is_empty());
    }
}

// ---------- the assembler rejects garbage without panicking ----------

#[test]
fn assembler_never_panics() {
    let mut rng = SplitMix64::new(0xA53B_1E55);
    for _ in 0..2048 {
        let len = rng.below(200) as usize;
        let s: String = (0..len)
            .map(|_| {
                // Printable ASCII plus newline, as the proptest regex had.
                let c = rng.below(96);
                if c == 95 {
                    '\n'
                } else {
                    (b' ' + c as u8) as char
                }
            })
            .collect();
        let _ = asm::parse_kernel(&s);
    }
    // Directed garbage the fuzz loop may miss.
    for s in [
        "ld.global",
        ".kernel",
        "bra l999\nexit",
        "r1 = add r2,",
        "\u{0}",
    ] {
        let _ = asm::parse_kernel(s);
    }
}

// ---------- functional memory: every access width, byte by byte ----------

/// Seeded round trips at every access width the machine uses, through the
/// scalar and the warp-wide paths. Every expected byte is computed here
/// with shifts and read back one at a time, so a width-specialised load or
/// store that reorders or drops bytes fails: a load and a store checked
/// only against each other agree on the same mistake.
#[test]
fn access_widths_round_trip_little_endian() {
    let mut rng = SplitMix64::new(0x5EED_B17E);
    let byte = |v: u64, i: usize| (v >> (8 * i)) as u8;
    for n in [1usize, 2, 4, 8] {
        let low = |v: u64| if n == 8 { v } else { v & ((1 << (8 * n)) - 1) };
        for round in 0..64 {
            // The first access straddles the page boundary at 0x2000.
            let addr = match round {
                0 => 0x2000 - (n / 2) as u64,
                _ => 0x1000 + rng.below(0x3000) as u64,
            };
            let mut mem = SparseMemory::new();
            let v = rng.next_u64();
            mem.write_bytes(addr, v, n);
            for i in 0..n {
                assert_eq!(
                    mem.read_u8(addr + i as u64),
                    byte(v, i),
                    "store n={n} @{addr:#x}"
                );
            }
            assert_eq!(mem.read_u8(addr + n as u64), 0, "store n={n} spilled");
            let w = rng.next_u64();
            for i in 0..n {
                mem.write_u8(addr + i as u64, byte(w, i));
            }
            assert_eq!(mem.read_bytes(addr, n), low(w), "load n={n} @{addr:#x}");
        }

        // A warp over two pages, with lane 15 straddling the boundary.
        let mut lanes = LaneAddrs {
            mask: rng.next_u64() as u32 | 1 << 15,
            ..LaneAddrs::default()
        };
        for (lane, addr) in lanes.addrs.iter_mut().enumerate() {
            *addr = (0x3000 - 16 * n + n / 2 + lane * n) as u64;
        }
        let vals: [u64; 32] = std::array::from_fn(|_| rng.next_u64());
        let (mut stored, mut loaded) = (SparseMemory::new(), SparseMemory::new());
        stored.write_lanes(&lanes, &vals, n);
        for (lane, &addr) in lanes.addrs.iter().enumerate() {
            let on = lanes.get(lane).is_some();
            for i in 0..n {
                let want = if on { byte(vals[lane], i) } else { 0 };
                assert_eq!(
                    stored.read_u8(addr + i as u64),
                    want,
                    "lane store n={n} lane {lane}"
                );
                loaded.write_u8(addr + i as u64, byte(vals[lane], i));
            }
        }
        let got = loaded.read_lanes(&lanes, n);
        for lane in 0..32 {
            let want = if lanes.get(lane).is_some() {
                low(vals[lane])
            } else {
                0
            };
            assert_eq!(got[lane], want, "lane load n={n} lane {lane}");
        }
    }
}

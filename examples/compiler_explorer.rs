//! Compiler explorer: feed any kernel (a file in the pseudo-assembly
//! syntax, or the built-in demos) through the affine analysis and print the
//! classification, the decoupling candidates, and both output streams.
//!
//! ```sh
//! cargo run --release --example compiler_explorer             # demos
//! cargo run --release --example compiler_explorer my.asm     # your kernel
//! ```

use dac_gpu::affine::{decouple, AffClass, AffineAnalysis, CandidateKind};
use dac_gpu::ir::asm;

const DEMOS: [(&str, &str); 3] = [
    (
        "boundary-guarded load (divergent affine, §4.6)",
        r#"
.kernel boundary
.params 3
    mul r0, %ctaid.x, %ntid.x;
    add r1, r0, %tid.x;
    setp.ge p0, r1, %p2;
    @p0 bra DONE;
    shl r2, r1, 2;
    add r3, %p0, r2;
    ld.global r4, [r3];
    add r5, r4, 10;
    add r6, %p1, r2;
    st.global [r6], r5;
DONE:
    exit;
"#,
    ),
    (
        "modulo-mapped butterfly (mod-type tuples, §4.4)",
        r#"
.kernel butterfly
.params 2
    mul r0, %ctaid.x, %ntid.x;
    add r1, r0, %tid.x;
    rem r2, r1, 16;
    sub r3, r1, r2;
    shl r4, r3, 1;
    add r5, r4, r2;
    shl r6, r5, 2;
    add r7, %p0, r6;
    ld.global r8, [r7];
    add r9, r8, 1;
    add r10, %p1, r6;
    st.global [r10], r9;
    exit;
"#,
    ),
    (
        "indirect access (not decoupleable — BFS-like)",
        r#"
.kernel indirect
.params 2
    mul r0, %ctaid.x, %ntid.x;
    add r1, r0, %tid.x;
    shl r2, r1, 2;
    add r3, %p0, r2;
    ld.global r4, [r3];
    shl r5, r4, 2;
    add r6, %p1, r5;
    ld.global r7, [r6];
    exit;
"#,
    ),
];

fn explore(title: &str, text: &str) {
    println!("==================== {title} ====================");
    let kernel = match asm::parse_kernel(text) {
        Ok(k) => k,
        Err(e) => {
            eprintln!("parse error: {e}");
            return;
        }
    };
    let a = AffineAnalysis::run(&kernel);

    println!("\nper-instruction classification:");
    for (pc, i) in kernel.instrs.iter().enumerate() {
        let class = match a.def_class[pc] {
            AffClass::Scalar => "scalar",
            AffClass::Affine => "affine",
            AffClass::AffineMod => "affine+mod",
            AffClass::NonAffine => "-",
        };
        let taint = if a.tainted[pc] {
            "  [data-dependent CF]"
        } else {
            ""
        };
        println!("  {pc:3}: {:<38} {class}{taint}", i.to_string());
    }

    println!("\ndecoupling candidates:");
    if a.candidates.is_empty() {
        println!("  (none — DAC leaves this kernel untouched)");
    }
    for c in &a.candidates {
        let kind = match c.kind {
            CandidateKind::LoadData => "load  → enq.data",
            CandidateKind::StoreAddr => "store → enq.addr",
            CandidateKind::Pred => "pred  → enq.pred",
        };
        println!(
            "  pc {:3}: {kind}  (slice {:?}, {} divergent condition(s))",
            c.pc, c.slice, c.div_conditions
        );
    }

    let mix = a.static_mix(&kernel);
    println!(
        "\nFigure-6 mix: {:.0}% of {} static instructions potentially affine",
        100.0 * mix.potential_affine_fraction(),
        mix.total
    );

    let dk = decouple(&kernel, &a);
    if dk.any_decoupled {
        println!("\naffine stream:\n{}", dk.affine.disassemble());
        println!("non-affine stream:\n{}", dk.non_affine.disassemble());
    } else {
        println!("\n(nothing decoupled)");
    }
    println!();
}

pub fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    run(&paths);
}

/// Explore each kernel file in `paths`, or the built-in demos if none.
pub fn run(paths: &[String]) {
    if paths.is_empty() {
        for (title, text) in DEMOS {
            explore(title, text);
        }
    } else {
        for path in paths {
            match std::fs::read_to_string(path) {
                Ok(text) => explore(path, &text),
                Err(e) => eprintln!("{path}: {e}"),
            }
        }
    }
}

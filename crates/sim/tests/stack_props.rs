//! Randomized tests (deterministic, std-only): the SIMT reconvergence stack
//! against a reference per-thread executor, and coalescer partition
//! invariants. A seeded SplitMix64 stream replaces proptest so the suite
//! runs in the offline build environment with reproducible cases.

use simt_mem::LaneAddrs;
use simt_sim::coalesce::coalesce_into;
use simt_sim::SimtStack;

/// Deterministic SplitMix64 generator (same construction as
/// `gpu_workloads::kernels::SplitMix64`, duplicated to keep this crate's
/// dev-dependency graph empty).
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A tiny structured program: a list of nested if/else diamonds encoded as
/// branch-taken masks, executed over a straight-line PC space.
///
/// Reference semantics: each thread independently walks the program; the
/// stack must visit every (pc, lane) pair exactly once, with lanes grouped
/// arbitrarily.
fn check_diamonds(taken_masks: &[u32], init: u32) {
    // PC layout per diamond d (relative): 0 = branch, 1 = else-body,
    // 2 = then-body, 3 = join. Diamonds are sequential.
    let n = taken_masks.len();
    let mut visits = vec![[0u64; 32]; 4 * n + 1];
    let mut s = SimtStack::new(init);
    let mut fuel = 10_000;
    while !s.done() {
        fuel -= 1;
        assert!(fuel > 0, "stack did not terminate");
        let pc = s.pc();
        let active = s.active_mask();
        for (lane, count) in visits[pc].iter_mut().enumerate() {
            if active & (1 << lane) != 0 {
                *count += 1;
            }
        }
        let d = pc / 4;
        match pc % 4 {
            0 => {
                // Branch to then-body (pc+2), else falls to pc+1;
                // reconverge at pc+3.
                s.branch(taken_masks[d], pc + 2, pc + 3);
            }
            1 => {
                // else-body: skip over then-body to the join.
                s.branch(u32::MAX, pc + 2, pc + 2);
            }
            2 => s.advance(), // then-body → join
            3 => {
                // join: all initial lanes must be back together.
                assert_eq!(s.active_mask(), init, "lost lanes at join {pc}");
                if d + 1 == n {
                    s.exit();
                } else {
                    s.advance();
                }
            }
            _ => unreachable!(),
        }
    }
    // Reference: each live thread visits branch + exactly one body + join of
    // every diamond, exactly once.
    for (d, &taken_mask) in taken_masks.iter().enumerate() {
        #[allow(clippy::needless_range_loop)] // lane indexes four visit rows
        for lane in 0..32 {
            let live = (init >> lane) & 1 == 1;
            let taken = (taken_mask >> lane) & 1 == 1;
            let expect = |on: bool| u64::from(live && on);
            assert_eq!(visits[4 * d][lane], expect(true), "branch d{d} lane{lane}");
            assert_eq!(
                visits[4 * d + 1][lane],
                expect(!taken),
                "else d{d} lane{lane}"
            );
            assert_eq!(
                visits[4 * d + 2][lane],
                expect(taken),
                "then d{d} lane{lane}"
            );
            assert_eq!(
                visits[4 * d + 3][lane],
                expect(true),
                "join d{d} lane{lane}"
            );
        }
    }
}

/// Executing nested diamonds through the SIMT stack touches each (pc, lane)
/// exactly as often as the per-thread reference does, and always reconverges
/// to the full mask.
#[test]
fn simt_stack_matches_per_thread_reference() {
    let mut rng = Rng(0xDAC_51A7);
    for _ in 0..256 {
        let n = 1 + rng.below(4) as usize;
        let masks: Vec<u32> = (0..n).map(|_| rng.next_u32()).collect();
        let mut init = rng.next_u32();
        if init == 0 {
            init = 1;
        }
        check_diamonds(&masks, init);
    }
    // Directed corners: full warp, single lane, alternating lanes.
    check_diamonds(&[0, u32::MAX, 0xAAAA_AAAA], u32::MAX);
    check_diamonds(&[1], 1);
    check_diamonds(&[0x5555_5555, 0xAAAA_AAAA], 0x5555_5555);
}

/// Coalescing partitions the active lanes: every active lane appears in
/// exactly one transaction, lines are unique and aligned, and each lane's
/// address falls inside its transaction's line.
#[test]
fn coalesce_partitions_lanes() {
    let mut rng = Rng(0xC0A1_E5CE);
    for case in 0..512 {
        // Inactive lanes carry addresses too; they must never coalesce.
        let mut lanes = LaneAddrs::default();
        for lane in 0..32 {
            lanes.addrs[lane] = rng.below(0x10000);
            if rng.below(4) != 0 {
                lanes.mask |= 1 << lane;
            }
        }
        let mut txns = Vec::new();
        coalesce_into(&lanes, 128, &mut txns);
        let mut seen = 0u32;
        let mut lines = std::collections::HashSet::new();
        for t in &txns {
            assert_eq!(t.line % 128, 0, "case {case}: unaligned line");
            assert!(lines.insert(t.line), "case {case}: duplicate line");
            assert_ne!(t.lanes, 0, "case {case}: empty transaction");
            assert_eq!(seen & t.lanes, 0, "case {case}: lane in two transactions");
            seen |= t.lanes;
            for lane in 0..32 {
                if t.lanes & (1 << lane) != 0 {
                    let a = lanes.get(lane).expect("inactive lane in transaction");
                    assert_eq!(a & !127, t.line);
                }
            }
        }
        assert_eq!(
            seen, lanes.mask,
            "case {case}: coalescing lost or invented lanes"
        );
    }
}

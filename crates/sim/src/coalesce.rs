//! The memory-access coalescer: per-lane addresses → unique line
//! transactions.

use simt_mem::LaneAddrs;

/// One coalesced transaction: a cache line and the lanes it serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transaction {
    /// Line-aligned address.
    pub line: u64,
    /// Lanes whose accesses fall in this line.
    pub lanes: u32,
}

/// Coalesce the participating lanes' byte addresses into unique line
/// transactions, in first-appearance order (deterministic), into a
/// caller-owned buffer (cleared first) so the hot path reuses one
/// allocation across instructions.
pub fn coalesce_into(lanes: &LaneAddrs, line_bytes: u64, out: &mut Vec<Transaction>) {
    debug_assert!(line_bytes.is_power_of_two());
    out.clear();
    for (lane, a) in lanes.active() {
        let line = a & !(line_bytes - 1);
        match out.iter_mut().find(|t| t.line == line) {
            Some(t) => t.lanes |= 1 << lane,
            None => out.push(Transaction {
                line,
                lanes: 1 << lane,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All 32 lanes active, lane `i` at `addr(i)`.
    fn full(addr: impl Fn(u64) -> u64) -> LaneAddrs {
        LaneAddrs {
            addrs: std::array::from_fn(|i| addr(i as u64)),
            mask: u32::MAX,
        }
    }

    fn coalesce(lanes: &LaneAddrs) -> Vec<Transaction> {
        let mut out = vec![Transaction { line: 0, lanes: 0 }]; // stale: must be cleared
        coalesce_into(lanes, 128, &mut out);
        out
    }

    #[test]
    fn unit_stride_coalesces_to_one_line() {
        let t = coalesce(&full(|i| 0x1000 + 4 * i));
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].line, 0x1000);
        assert_eq!(t[0].lanes, u32::MAX);
    }

    #[test]
    fn stride_two_touches_two_lines() {
        let t = coalesce(&full(|i| 0x1000 + 8 * i));
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].line, 0x1000);
        assert_eq!(t[1].line, 0x1080);
        assert_eq!(t[0].lanes, 0x0000_FFFF);
        assert_eq!(t[1].lanes, 0xFFFF_0000);
    }

    #[test]
    fn scattered_accesses_one_line_each() {
        assert_eq!(coalesce(&full(|i| 0x10_0000 * i)).len(), 32);
    }

    #[test]
    fn inactive_lanes_skipped() {
        // Inactive lanes hold addresses in other lines; none may show up.
        let mut lanes = full(|i| 0x4000 * (i + 1));
        lanes.addrs[3] = 0x80;
        lanes.addrs[9] = 0x84;
        lanes.mask = (1 << 3) | (1 << 9);
        let t = coalesce(&lanes);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].line, 0x80);
        assert_eq!(t[0].lanes, (1 << 3) | (1 << 9));
    }

    #[test]
    fn empty_when_all_inactive() {
        let mut lanes = full(|i| 0x1000 + 4 * i);
        lanes.mask = 0;
        assert!(coalesce(&lanes).is_empty());
    }

    #[test]
    fn misaligned_same_line_merges() {
        let mut lanes = LaneAddrs::default();
        lanes.addrs[..3].copy_from_slice(&[0x100, 0x17F, 0x180]);
        lanes.mask = 0b111;
        let t = coalesce(&lanes);
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].line, 0x100);
        assert_eq!(t[0].lanes, 0b011);
        assert_eq!(t[1].line, 0x180);
    }
}

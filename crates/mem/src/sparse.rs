//! Functional (value-carrying) memory, sparsely allocated in 4 KiB pages.

use crate::fxhash::FxHashMap;

const PAGE_BITS: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_BITS;
const PAGE_MASK: u64 = PAGE_SIZE as u64 - 1;

/// Per-lane byte addresses of one warp memory instruction. Only lanes in
/// `mask` take part in the access: the other `addrs` entries are
/// unspecified and are never loaded from, stored to or coalesced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LaneAddrs {
    /// Effective byte address of each lane.
    pub addrs: [u64; 32],
    /// Lanes taking part in the access.
    pub mask: u32,
}

impl LaneAddrs {
    /// Address of `lane` if it participates.
    pub fn get(&self, lane: usize) -> Option<u64> {
        (self.mask & (1 << lane) != 0).then(|| self.addrs[lane])
    }

    /// `(lane, address)` of every participating lane, in ascending lane
    /// order.
    pub fn active(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let mut rest = self.mask;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let lane = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                (lane, self.addrs[lane])
            })
        })
    }
}

/// Little-endian load of `n ≤ 8` bytes at `off` within one page. The
/// machine's access widths get fixed-size loads; any other `n` goes byte
/// by byte.
#[inline]
fn load_le(page: &[u8; PAGE_SIZE], off: usize, n: usize) -> u64 {
    let at = &page[off..off + n];
    match n {
        1 => at[0] as u64,
        2 => u16::from_le_bytes(at.try_into().expect("n bytes")) as u64,
        4 => u32::from_le_bytes(at.try_into().expect("n bytes")) as u64,
        8 => u64::from_le_bytes(at.try_into().expect("n bytes")),
        _ => at.iter().rev().fold(0, |v, &byte| (v << 8) | byte as u64),
    }
}

/// Little-endian store of the low `n ≤ 8` bytes of `v` at `off` within
/// one page (fixed-size stores for the machine's access widths, as in
/// [`load_le`]).
#[inline]
fn store_le(page: &mut [u8; PAGE_SIZE], off: usize, v: u64, n: usize) {
    let at = &mut page[off..off + n];
    match n {
        1 => at[0] = v as u8,
        2 => at.copy_from_slice(&(v as u16).to_le_bytes()),
        4 => at.copy_from_slice(&(v as u32).to_le_bytes()),
        8 => at.copy_from_slice(&v.to_le_bytes()),
        _ => at.copy_from_slice(&v.to_le_bytes()[..n]),
    }
}

/// Does an `n`-byte access at `addr` lie wholly inside page `number`?
#[inline]
fn within(addr: u64, n: usize, number: u64) -> bool {
    addr >> PAGE_BITS == number && (addr & PAGE_MASK) as usize + n <= PAGE_SIZE
}

/// Byte-addressable sparse memory. Unwritten bytes read as zero.
///
/// This carries the *values* of global/local memory; the timing model in
/// [`crate::fabric`] is separate (tag-only caches), so functional execution
/// can run at instruction-issue time while timing unfolds over many cycles.
///
/// The page table is an [`FxHashMap`] (never iterated — lookups only, so
/// the hasher swap cannot perturb results), and all multi-byte accessors
/// resolve their page once per access, not once per byte: functional
/// loads/stores sit on the per-issue hot path, and workload construction
/// writes whole input arrays through the slice paths.
///
/// Equality is structural: a resident all-zero page and an absent one read
/// the same but compare unequal.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SparseMemory {
    pages: FxHashMap<u64, Box<[u8; PAGE_SIZE]>>,
}

impl SparseMemory {
    /// New empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(addr >> PAGE_BITS)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Read one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_BITS)) {
            Some(p) => p[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Write one byte.
    pub fn write_u8(&mut self, addr: u64, v: u8) {
        let off = (addr & PAGE_MASK) as usize;
        self.page_mut(addr)[off] = v;
    }

    /// Read `n ≤ 8` bytes little-endian.
    pub fn read_bytes(&self, addr: u64, n: usize) -> u64 {
        debug_assert!(n <= 8);
        let off = (addr & PAGE_MASK) as usize;
        if off + n <= PAGE_SIZE {
            // Common case: the access stays within one page.
            match self.pages.get(&(addr >> PAGE_BITS)) {
                Some(p) => load_le(p, off, n),
                None => 0,
            }
        } else {
            let mut v = 0u64;
            for i in 0..n {
                v |= (self.read_u8(addr + i as u64) as u64) << (8 * i);
            }
            v
        }
    }

    /// Write `n ≤ 8` bytes little-endian.
    pub fn write_bytes(&mut self, addr: u64, v: u64, n: usize) {
        debug_assert!(n <= 8);
        let off = (addr & PAGE_MASK) as usize;
        if off + n <= PAGE_SIZE {
            store_le(self.page_mut(addr), off, v, n);
        } else {
            for i in 0..n {
                self.write_u8(addr + i as u64, (v >> (8 * i)) as u8);
            }
        }
    }

    /// Warp-wide [`SparseMemory::read_bytes`]: lane `i` of the result is the
    /// `n`-byte value at `lanes.addrs[i]` for every participating lane (0
    /// for the others). The page is resolved once per run of consecutive
    /// lanes that fall in the same page.
    pub fn read_lanes(&self, lanes: &LaneAddrs, n: usize) -> [u64; 32] {
        debug_assert!(n <= 8);
        let mut out = [0u64; 32];
        let mut todo = lanes.active().peekable();
        while let Some((lane, addr)) = todo.next() {
            let number = addr >> PAGE_BITS;
            if !within(addr, n, number) {
                out[lane] = self.read_bytes(addr, n);
                continue;
            }
            let page = self.pages.get(&number);
            let mut run = Some((lane, addr));
            while let Some((lane, addr)) = run {
                if let Some(page) = page {
                    out[lane] = load_le(page, (addr & PAGE_MASK) as usize, n);
                }
                run = todo.next_if(|&(_, a)| within(a, n, number));
            }
        }
        out
    }

    /// Warp-wide [`SparseMemory::write_bytes`]: every participating lane
    /// stores the low `n` bytes of `vals[lane]` at `lanes.addrs[lane]`, in
    /// ascending lane order (on overlap the highest lane wins). The page is
    /// resolved once per run of consecutive lanes that fall in the same
    /// page.
    pub fn write_lanes(&mut self, lanes: &LaneAddrs, vals: &[u64; 32], n: usize) {
        debug_assert!(n <= 8);
        let mut todo = lanes.active().peekable();
        while let Some((lane, addr)) = todo.next() {
            let number = addr >> PAGE_BITS;
            if !within(addr, n, number) {
                self.write_bytes(addr, vals[lane], n);
                continue;
            }
            let page = self.page_mut(addr);
            let mut run = Some((lane, addr));
            while let Some((lane, addr)) = run {
                store_le(page, (addr & PAGE_MASK) as usize, vals[lane], n);
                run = todo.next_if(|&(_, a)| within(a, n, number));
            }
        }
    }

    /// Read a 32-bit word.
    pub fn read_u32(&self, addr: u64) -> u32 {
        self.read_bytes(addr, 4) as u32
    }

    /// Write a 32-bit word.
    pub fn write_u32(&mut self, addr: u64, v: u32) {
        self.write_bytes(addr, v as u64, 4);
    }

    /// Write a run of 32-bit words page-by-page: one page-table lookup per
    /// touched page instead of one per byte.
    fn write_word_run(&mut self, base: u64, words: impl Fn(usize) -> u32, len: usize) {
        let mut i = 0;
        while i < len {
            let addr = base + 4 * i as u64;
            let off = (addr & PAGE_MASK) as usize;
            let in_page = ((PAGE_SIZE - off) / 4).min(len - i);
            if in_page == 0 {
                // A word straddling the page boundary (unaligned base).
                self.write_bytes(addr, words(i) as u64, 4);
                i += 1;
                continue;
            }
            let p = self.page_mut(addr);
            for j in 0..in_page {
                let o = off + 4 * j;
                p[o..o + 4].copy_from_slice(&words(i + j).to_le_bytes());
            }
            i += in_page;
        }
    }

    /// Bulk-initialize a region with 32-bit words.
    pub fn write_u32_slice(&mut self, base: u64, data: &[u32]) {
        self.write_word_run(base, |i| data[i], data.len());
    }

    /// Bulk-initialize a region with `f32` values.
    pub fn write_f32_slice(&mut self, base: u64, data: &[f32]) {
        self.write_word_run(base, |i| data[i].to_bits(), data.len());
    }

    /// Read `len` 32-bit words starting at `base`.
    pub fn read_u32_vec(&self, base: u64, len: usize) -> Vec<u32> {
        (0..len)
            .map(|i| self.read_u32(base + 4 * i as u64))
            .collect()
    }

    /// Number of resident 4 KiB pages (observability for tests).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_default() {
        let m = SparseMemory::new();
        assert_eq!(m.read_u32(0xdead_beef), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn rw_roundtrip_across_page_boundary() {
        let mut m = SparseMemory::new();
        let addr = (1 << PAGE_BITS) - 2; // straddles pages
        m.write_bytes(addr, 0xAABB_CCDD, 4);
        assert_eq!(m.read_bytes(addr, 4), 0xAABB_CCDD);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn f32_slices() {
        let mut m = SparseMemory::new();
        let data = [1.0f32, -2.5, 3.75];
        m.write_f32_slice(0x1000, &data);
        assert_eq!(m.read_u32_vec(0x1000, 3), data.map(f32::to_bits));
    }

    #[test]
    fn slice_write_across_page_boundary() {
        let mut m = SparseMemory::new();
        let base = (1 << PAGE_BITS) - 6; // 6 bytes in page 0, rest in page 1
        let data: Vec<u32> = (0..1024u32).map(|i| i.wrapping_mul(2654435761)).collect();
        m.write_u32_slice(base, &data);
        assert_eq!(m.read_u32_vec(base, 1024), data);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn partial_widths() {
        let mut m = SparseMemory::new();
        m.write_u32(0x100, 0x1122_3344);
        assert_eq!(m.read_u8(0x100), 0x44);
        assert_eq!(m.read_bytes(0x101, 2), 0x2233);
        m.write_u8(0x103, 0xFF);
        assert_eq!(m.read_u32(0x100), 0xFF22_3344);
    }

    /// Deterministic SplitMix64 stream.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// Lane addresses over a handful of pages (some never mapped), many of
    /// them within a few bytes of a page boundary so accesses straddle it,
    /// with runs of same-page lanes and overlapping lanes.
    fn random_lanes(rng: &mut Rng) -> LaneAddrs {
        let mut lanes = LaneAddrs {
            mask: match rng.next() % 4 {
                0 => u32::MAX,
                1 => 0,
                _ => rng.next() as u32,
            },
            ..LaneAddrs::default()
        };
        let mut prev = 0;
        for a in &mut lanes.addrs {
            let page = rng.next() % 6;
            *a = match rng.next() % 4 {
                0 => (page << PAGE_BITS) + PAGE_SIZE as u64 - 1 - rng.next() % 8,
                1 => prev + rng.next() % 8, // same page as the last lane, may overlap it
                _ => (page << PAGE_BITS) + rng.next() % PAGE_SIZE as u64,
            };
            prev = *a;
        }
        lanes
    }

    /// A memory with pages 0, 1 and 3 mapped to random bytes; 2, 4, 5, 6
    /// unmapped.
    fn random_memory(rng: &mut Rng) -> SparseMemory {
        let mut m = SparseMemory::new();
        for page in [0u64, 1, 3] {
            for i in 0..PAGE_SIZE as u64 / 8 {
                m.write_bytes((page << PAGE_BITS) + 8 * i, rng.next(), 8);
            }
        }
        m
    }

    /// `read_lanes` is `read_bytes` per participating lane (0 elsewhere),
    /// for every width, partial masks, unmapped pages and lanes straddling
    /// a page boundary — and never maps a page.
    #[test]
    fn read_lanes_matches_per_lane_reads() {
        let mut rng = Rng(0x5EED);
        let m = random_memory(&mut rng);
        for case in 0..400 {
            let lanes = random_lanes(&mut rng);
            for n in [1usize, 2, 4, 8] {
                let got = m.read_lanes(&lanes, n);
                for (lane, &got) in got.iter().enumerate() {
                    let want = lanes.get(lane).map_or(0, |a| m.read_bytes(a, n));
                    assert_eq!(got, want, "case {case} width {n} lane {lane}");
                }
            }
        }
        assert_eq!(m.resident_pages(), 3);
    }

    /// `write_lanes` leaves memory exactly as per-lane `write_bytes` in
    /// ascending lane order does (highest lane wins an overlap; a store to
    /// an unmapped page maps it; inactive lanes store nothing).
    #[test]
    fn write_lanes_matches_per_lane_writes() {
        let mut rng = Rng(0xF00D);
        let base = random_memory(&mut rng);
        for case in 0..150 {
            let lanes = random_lanes(&mut rng);
            let vals: [u64; 32] = std::array::from_fn(|_| rng.next());
            for n in [1usize, 2, 4, 8] {
                let (mut wide, mut scalar) = (base.clone(), base.clone());
                wide.write_lanes(&lanes, &vals, n);
                for (lane, a) in lanes.active() {
                    scalar.write_bytes(a, vals[lane], n);
                }
                assert_eq!(
                    wide.resident_pages(),
                    scalar.resident_pages(),
                    "case {case} width {n}"
                );
                for page in 0..8u64 {
                    for i in 0..PAGE_SIZE as u64 / 8 {
                        let a = (page << PAGE_BITS) + 8 * i;
                        assert_eq!(
                            wide.read_bytes(a, 8),
                            scalar.read_bytes(a, 8),
                            "case {case} width {n} addr {a:#x}"
                        );
                    }
                }
            }
        }
    }
}

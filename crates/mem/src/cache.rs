//! Set-associative tag-array cache with LRU replacement and DAC lock
//! counters.
//!
//! The cache is *timing-only*: it tracks which lines are resident, not their
//! contents (values live in [`crate::sparse::SparseMemory`]). DAC's Address
//! Expansion Unit locks lines it requested early so they cannot be evicted
//! before the non-affine warp's demand access (paper §4.2); locks are
//! counted, and a set never holds more than `ways - 1` locked lines, which
//! is what makes the locking deadlock-free.

use crate::fxhash::FxHashMap;

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Line resident.
    Hit,
    /// Line absent; caller should fetch it.
    Miss,
}

#[derive(Debug, Clone, Copy)]
struct LineState {
    tag: u64,
    valid: bool,
    dirty: bool,
    last_use: u64,
    /// DAC lock counter: number of outstanding early requests pinning the
    /// line. A locked line is never chosen as an eviction victim.
    locks: u32,
    /// Set on any demand hit; lines evicted with `used == false` count as
    /// wasted fills (used for MTA prefetch-buffer throttling).
    used: bool,
}

impl LineState {
    fn empty() -> Self {
        LineState {
            tag: 0,
            valid: false,
            dirty: false,
            last_use: 0,
            locks: 0,
            used: false,
        }
    }
}

/// A set-associative cache tag array.
#[derive(Debug, Clone)]
pub struct Cache {
    /// `num_sets × ways` line states, set-major: set `s` is
    /// `lines[s * ways..(s + 1) * ways]`.
    lines: Vec<LineState>,
    num_sets: usize,
    ways: usize,
    /// `log2(line_bytes)`.
    line_shift: u32,
    tick: u64,
    /// Locks reserved for lines still in flight (missed, fill pending),
    /// keyed by line address. Counted against the per-set lock budget so
    /// the AEU's `ways - 1` invariant holds across outstanding fills.
    /// Looked up and counted, never visited in order, so the hasher cannot
    /// reach a result.
    pending_locks: FxHashMap<u64, u32>,
    /// Keys of `pending_locks` per set, so the lock budget reads one count
    /// instead of scanning every key.
    pending_lines: Vec<u32>,
    // Statistics.
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Lines evicted before any demand hit (prefetched-but-unused).
    pub unused_evictions: u64,
    /// Total evictions.
    pub evictions: u64,
}

impl Cache {
    /// Create a cache of `size` bytes with `ways` ways and `line_bytes`
    /// lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    pub fn new(size: u64, ways: usize, line_bytes: u64) -> Self {
        assert!(ways >= 1 && line_bytes.is_power_of_two());
        let lines = size / line_bytes;
        assert_eq!(lines % ways as u64, 0, "cache geometry mismatch");
        let num_sets = (lines / ways as u64) as usize;
        assert!(num_sets >= 1);
        Cache {
            lines: vec![LineState::empty(); num_sets * ways],
            num_sets,
            ways,
            line_shift: line_bytes.trailing_zeros(),
            tick: 0,
            pending_locks: FxHashMap::default(),
            pending_lines: vec![0; num_sets],
            hits: 0,
            misses: 0,
            unused_evictions: 0,
            evictions: 0,
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    fn set_index(&self, line: u64) -> usize {
        ((line >> self.line_shift) % self.num_sets as u64) as usize
    }

    /// The ways of set `s`, as a range of `lines`.
    fn set_range(&self, s: usize) -> std::ops::Range<usize> {
        s * self.ways..(s + 1) * self.ways
    }

    /// Index into `lines` of the resident line, if any.
    fn find(&self, line: u64) -> Option<usize> {
        let set = self.set_range(self.set_index(line));
        let base = set.start;
        self.lines[set]
            .iter()
            .position(|l| l.valid && l.tag == line)
            .map(|w| base + w)
    }

    /// Is the line resident?
    pub fn probe(&self, line: u64) -> bool {
        self.find(line).is_some()
    }

    /// Demand access. Updates LRU and hit/miss statistics; on a hit to a
    /// line with `write == true`, marks it dirty.
    pub fn access(&mut self, line: u64, write: bool) -> CacheOutcome {
        self.tick += 1;
        match self.find(line) {
            Some(i) => {
                let l = &mut self.lines[i];
                l.last_use = self.tick;
                l.used = true;
                if write {
                    l.dirty = true;
                }
                self.hits += 1;
                CacheOutcome::Hit
            }
            None => {
                self.misses += 1;
                CacheOutcome::Miss
            }
        }
    }

    /// Count `n` demand misses of a line that stays absent: what `n`
    /// [`Cache::access`] calls would change (the miss count and the LRU
    /// clock), without the lookups.
    pub fn count_misses(&mut self, n: u64) {
        self.tick += n;
        self.misses += n;
    }

    /// Install a line, evicting the LRU *unlocked* way if needed (the
    /// first such way among equally old ones).
    ///
    /// Returns the evicted line's address if a dirty line was displaced
    /// (for write-back traffic accounting). If every way of the set is
    /// locked (possible only through misuse of the lock budget), the fill
    /// is dropped — callers uphold the `ways - 1` invariant via
    /// [`Cache::can_reserve_lock`].
    pub fn fill(&mut self, line: u64, locks: u32) -> Option<u64> {
        self.tick += 1;
        let s = self.set_index(line);
        if self.pending_locks.remove(&line).is_some() {
            self.pending_lines[s] -= 1;
        }
        if let Some(i) = self.find(line) {
            // Already resident (e.g. raced with another fill): merge locks.
            self.lines[i].locks += locks;
            return None;
        }
        let set = self.set_range(s);
        let base = set.start;
        let victim = self.lines[set]
            .iter()
            .enumerate()
            .filter(|(_, l)| l.locks == 0)
            .min_by_key(|(_, l)| if l.valid { l.last_use } else { 0 })
            .map(|(w, _)| base + w);
        let Some(i) = victim else {
            return None; // all ways locked — drop fill (see doc comment)
        };
        let old = self.lines[i];
        let mut dirty_evict = None;
        if old.valid {
            self.evictions += 1;
            if !old.used {
                self.unused_evictions += 1;
            }
            if old.dirty {
                dirty_evict = Some(old.tag);
            }
        }
        self.lines[i] = LineState {
            tag: line,
            valid: true,
            dirty: false,
            last_use: self.tick,
            locks,
            used: false,
        };
        dirty_evict
    }

    /// Would reserving one more lock for `line` keep the set within the
    /// `ways - 1` locked-lines budget (counting in-flight locked fills)?
    pub fn can_reserve_lock(&self, line: u64) -> bool {
        let s = self.set_index(line);
        // A lock on an already-locked (or already-pending) line never
        // increases the number of distinct locked lines.
        if let Some(i) = self.find(line) {
            if self.lines[i].locks > 0 {
                return true;
            }
        }
        if self.pending_locks.contains_key(&line) {
            return true;
        }
        let resident_locked = self.lines[self.set_range(s)]
            .iter()
            .filter(|l| l.valid && l.locks > 0)
            .count();
        resident_locked + (self.pending_lines[s] as usize) < self.ways - 1
    }

    /// Reserve a lock for an in-flight fill of `line`.
    pub fn reserve_pending_lock(&mut self, line: u64) {
        let s = self.set_index(line);
        let locks = self.pending_locks.entry(line).or_insert(0);
        if *locks == 0 {
            self.pending_lines[s] += 1;
        }
        *locks += 1;
    }

    /// Pending lock count for `line` (consumed by [`Cache::fill`]).
    pub fn pending_locks_for(&self, line: u64) -> u32 {
        self.pending_locks.get(&line).copied().unwrap_or(0)
    }

    /// Increment the lock counter of a resident line (AEU early request hit
    /// in cache).
    pub fn lock_resident(&mut self, line: u64) -> bool {
        if let Some(i) = self.find(line) {
            self.lines[i].locks += 1;
            true
        } else {
            false
        }
    }

    /// Decrement a line's lock counter (non-affine warp demand access).
    /// Missing lines are ignored (the lock may have been dropped with the
    /// line in an all-locked-set corner case).
    pub fn unlock(&mut self, line: u64) {
        if let Some(i) = self.find(line) {
            let l = &mut self.lines[i];
            l.locks = l.locks.saturating_sub(1);
        }
    }

    /// Number of resident locked lines (observability).
    pub fn locked_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid && l.locks > 0).count()
    }

    /// Invalidate everything (between kernel launches).
    pub fn flush(&mut self) {
        self.lines.fill(LineState::empty());
        self.pending_locks.clear();
        self.pending_lines.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_rng::Rng;
    use std::collections::HashMap;

    type Set = Vec<LineState>;

    /// The tag array as it was before it went flat: one `Vec` per set,
    /// set index by `/` and `%`, `(set, way)` lookups, pending locks in a
    /// SipHash map. Kept as the reference [`flat_array_matches_nested_model`]
    /// checks the real cache against.
    struct Nested {
        sets: Vec<Set>,
        line_bytes: u64,
        tick: u64,
        pending: HashMap<u64, u32>,
        counters: [u64; 4], // hits, misses, evictions, unused_evictions
    }

    impl Nested {
        fn set_index(&self, line: u64) -> usize {
            ((line / self.line_bytes) % self.sets.len() as u64) as usize
        }

        fn find(&mut self, line: u64) -> Option<&mut LineState> {
            let s = self.set_index(line);
            self.sets[s].iter_mut().find(|l| l.valid && l.tag == line)
        }

        fn access(&mut self, line: u64, write: bool) -> CacheOutcome {
            self.tick += 1;
            let tick = self.tick;
            let hit = self.find(line).map(|l| {
                l.last_use = tick;
                l.used = true;
                l.dirty |= write;
            });
            self.counters[hit.is_none() as usize] += 1;
            if hit.is_some() {
                CacheOutcome::Hit
            } else {
                CacheOutcome::Miss
            }
        }

        fn fill(&mut self, line: u64, locks: u32) -> Option<u64> {
            self.tick += 1;
            self.pending.remove(&line);
            if let Some(l) = self.find(line) {
                l.locks += locks;
                return None;
            }
            let s = self.set_index(line);
            let mut victim: Option<usize> = None;
            for (w, l) in self.sets[s].iter().enumerate() {
                let age = |l: &LineState| if l.valid { l.last_use } else { 0 };
                if l.locks == 0 && victim.is_none_or(|v| age(l) < age(&self.sets[s][v])) {
                    victim = Some(w);
                }
            }
            let old = std::mem::replace(
                &mut self.sets[s][victim?],
                LineState {
                    tag: line,
                    valid: true,
                    dirty: false,
                    last_use: self.tick,
                    locks,
                    used: false,
                },
            );
            self.counters[2] += old.valid as u64;
            self.counters[3] += (old.valid && !old.used) as u64;
            (old.valid && old.dirty).then_some(old.tag)
        }

        fn can_reserve_lock(&mut self, line: u64) -> bool {
            if self.find(line).is_some_and(|l| l.locks > 0) || self.pending.contains_key(&line) {
                return true;
            }
            let s = self.set_index(line);
            let resident = self.sets[s].iter().filter(|l| l.valid && l.locks > 0);
            let pending = self.pending.keys().filter(|&&l| self.set_index(l) == s);
            resident.count() + pending.count() < self.sets[s].len() - 1
        }
    }

    /// Every operation the fabric uses, in a seeded 50 k-op stream over the
    /// L1's geometry (96 sets — not a power of two — × 4 ways) and a tiny
    /// one where every fill evicts: the flat array and the nested model
    /// agree on every return value and every counter.
    #[test]
    fn flat_array_matches_nested_model() {
        for (seed, sets, ways) in [(0xCAC4E_u64, 96u64, 4usize), (0xF1A7, 4, 2)] {
            let mut rng = Rng(seed);
            let mut c = Cache::new(sets * ways as u64 * 128, ways, 128);
            let mut m = Nested {
                sets: vec![vec![LineState::empty(); ways]; sets as usize],
                line_bytes: 128,
                tick: 0,
                pending: HashMap::new(),
                counters: [0; 4],
            };
            for op in 0..50_000 {
                // Half the lines from six sets' worth of conflicts, half
                // from a range a few times the capacity.
                let line = 128
                    * match rng.below(2) {
                        0 => rng.below(6) + sets * rng.below(2 * ways as u64 + 1),
                        _ => rng.below(4 * sets * ways as u64),
                    };
                let at = format!("op {op} line {line:#x} ({sets}x{ways})");
                match rng.below(100) {
                    0..=19 => assert_eq!(c.probe(line), m.find(line).is_some(), "{at}"),
                    20..=44 => {
                        let write = rng.below(3) == 0;
                        assert_eq!(c.access(line, write), m.access(line, write), "{at}");
                    }
                    45..=64 => {
                        let locks = c.pending_locks_for(line);
                        assert_eq!(locks, m.pending.get(&line).copied().unwrap_or(0), "{at}");
                        assert_eq!(c.fill(line, locks), m.fill(line, locks), "{at}");
                    }
                    65..=74 => {
                        let locked = m.find(line).map(|l| l.locks += 1).is_some();
                        assert_eq!(c.lock_resident(line), locked, "{at}");
                    }
                    75..=86 => {
                        c.unlock(line);
                        if let Some(l) = m.find(line) {
                            l.locks = l.locks.saturating_sub(1);
                        }
                    }
                    87..=98 => {
                        let ok = m.can_reserve_lock(line);
                        assert_eq!(c.can_reserve_lock(line), ok, "{at}");
                        if ok {
                            c.reserve_pending_lock(line);
                            *m.pending.entry(line).or_insert(0) += 1;
                        }
                    }
                    _ if rng.below(50) == 0 => {
                        c.flush();
                        m.sets
                            .iter_mut()
                            .flatten()
                            .for_each(|l| *l = LineState::empty());
                        m.pending.clear();
                    }
                    _ => {}
                }
                let counters = [c.hits, c.misses, c.evictions, c.unused_evictions];
                assert_eq!(counters, m.counters, "{at}");
            }
            let locked = m.sets.iter().flatten().filter(|l| l.valid && l.locks > 0);
            assert_eq!(c.locked_lines(), locked.count());
            assert!(m.counters.iter().all(|&n| n > 100), "{:?}", m.counters);
        }
    }

    /// `can_reserve_lock` as it was before the per-set counts: the
    /// in-flight locked lines of the set found by scanning every
    /// `pending_locks` key.
    fn can_reserve_lock_by_scan(c: &Cache, line: u64) -> bool {
        let s = c.set_index(line);
        if c.find(line).is_some_and(|i| c.lines[i].locks > 0) || c.pending_locks.contains_key(&line)
        {
            return true;
        }
        let resident = c.lines[c.set_range(s)]
            .iter()
            .filter(|l| l.valid && l.locks > 0)
            .count();
        let pending = c.pending_locks.keys().filter(|&&l| c.set_index(l) == s);
        resident + pending.count() < c.ways - 1
    }

    /// A seeded reserve / fill / lock / unlock / flush stream over
    /// conflict-heavy geometries (one set, eight, the L1's 96): after every
    /// operation each set's pending-line count equals a scan of the keys,
    /// and the budget answers as the scan did for the operation's line.
    #[test]
    fn pending_line_counts_match_the_key_scan() {
        for (seed, sets, ways) in [(0x10C4_u64, 1u64, 2usize), (0xB0D6, 8, 4), (0x5CA7, 96, 4)] {
            let mut rng = Rng(seed);
            let mut c = Cache::new(sets * ways as u64 * 128, ways, 128);
            let (mut reserved, mut refused) = (0, 0);
            for op in 0..20_000 {
                let line = 128 * rng.below(3 * sets * ways as u64);
                let ok = can_reserve_lock_by_scan(&c, line);
                assert_eq!(c.can_reserve_lock(line), ok, "op {op} line {line:#x}");
                match rng.below(20) {
                    0..=7 if ok => {
                        c.reserve_pending_lock(line);
                        reserved += 1;
                    }
                    0..=7 => refused += 1,
                    8..=11 => {
                        let locks = c.pending_locks_for(line);
                        c.fill(line, locks);
                    }
                    12..=13 => {
                        c.lock_resident(line);
                    }
                    14..=18 => c.unlock(line),
                    _ if rng.below(40) == 0 => c.flush(),
                    _ => {}
                }
                for s in 0..c.num_sets() {
                    let keys = c.pending_locks.keys().filter(|&&l| c.set_index(l) == s);
                    assert_eq!(c.pending_lines[s] as usize, keys.count(), "op {op} set {s}");
                }
            }
            assert!(reserved > 1000 && refused > 100, "{reserved} {refused}");
        }
    }

    fn small() -> Cache {
        // 4 sets × 2 ways × 128 B.
        Cache::new(1024, 2, 128)
    }

    #[test]
    fn geometry() {
        let c = small();
        assert_eq!(c.num_sets(), 4);
        assert_eq!(c.ways(), 2);
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small();
        assert_eq!(c.access(0, false), CacheOutcome::Miss);
        c.fill(0, 0);
        assert_eq!(c.access(0, false), CacheOutcome::Hit);
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn lru_eviction() {
        let mut c = small();
        // Three lines mapping to set 0: line/128 % 4 == 0 → 0, 512, 1024.
        c.fill(0, 0);
        c.fill(512, 0);
        c.access(0, false); // 0 more recent than 512
        c.fill(1024, 0); // evicts 512
        assert!(c.probe(0));
        assert!(!c.probe(512));
        assert!(c.probe(1024));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = small();
        c.fill(0, 0);
        c.access(0, true); // dirty
        c.fill(512, 0);
        let evicted = c.fill(1024, 0);
        assert_eq!(evicted, Some(0));
    }

    #[test]
    fn locked_lines_survive_eviction() {
        let mut c = small();
        c.fill(0, 1); // locked
        c.fill(512, 0);
        c.fill(1024, 0); // must evict 512, not locked 0
        assert!(c.probe(0));
        assert!(!c.probe(512));
        c.unlock(0);
        c.fill(1536, 0); // now 0 is evictable (LRU)
        assert!(!c.probe(0));
    }

    #[test]
    fn lock_budget_is_ways_minus_one() {
        let mut c = small(); // 2 ways → at most 1 locked line per set
        assert!(c.can_reserve_lock(0));
        c.reserve_pending_lock(0);
        // A second distinct line in the same set cannot be locked...
        assert!(!c.can_reserve_lock(512));
        // ...but re-locking the same in-flight line is fine.
        assert!(c.can_reserve_lock(0));
        // Other sets are unaffected.
        assert!(c.can_reserve_lock(128));
    }

    #[test]
    fn pending_locks_transfer_to_fill() {
        let mut c = small();
        c.reserve_pending_lock(0);
        c.reserve_pending_lock(0);
        assert_eq!(c.pending_locks_for(0), 2);
        let locks = c.pending_locks_for(0);
        c.fill(0, locks);
        assert_eq!(c.locked_lines(), 1);
        c.unlock(0);
        assert_eq!(c.locked_lines(), 1); // counter 2 → 1, still locked
        c.unlock(0);
        assert_eq!(c.locked_lines(), 0);
    }

    #[test]
    fn unused_eviction_counted() {
        let mut c = small();
        c.fill(0, 0); // never touched
        c.fill(512, 0);
        c.fill(1024, 0); // evicts LRU = 0 (unused)
        assert_eq!(c.unused_evictions, 1);
        assert_eq!(c.evictions, 1);
    }

    #[test]
    fn flush_clears() {
        let mut c = small();
        c.fill(0, 1);
        c.flush();
        assert!(!c.probe(0));
        assert_eq!(c.locked_lines(), 0);
    }
}

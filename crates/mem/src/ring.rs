//! [`IdRing`]: a map from dense, rising ids to values, kept as a ring.

use std::collections::VecDeque;

/// Values keyed by ids that are handed out in rising order and removed in
/// any order: a ring indexed by `id - first`, in place of a hash map. An
/// id that was never inserted (a store's memory token, a DRAM writeback's
/// id) or was removed is a hole. Holes at the front are dropped, so the
/// front is always live and the ring is empty exactly when no id is.
#[derive(Debug, Clone)]
pub struct IdRing<T> {
    slots: VecDeque<Option<T>>,
    /// The id of `slots`' front.
    first: u64,
}

impl<T> Default for IdRing<T> {
    fn default() -> Self {
        IdRing {
            slots: VecDeque::new(),
            first: 0,
        }
    }
}

impl<T> IdRing<T> {
    /// Track `v` under `id`, which is above every id inserted before.
    pub fn insert(&mut self, id: u64, v: T) {
        if self.slots.is_empty() {
            self.first = id;
        }
        let at = id - self.first;
        debug_assert!(at >= self.slots.len() as u64, "ids must rise");
        self.slots.resize_with(at as usize, || None);
        self.slots.push_back(Some(v));
    }

    /// The value under `id`, if it is tracked.
    pub fn get(&self, id: u64) -> Option<&T> {
        let i = id.checked_sub(self.first)?;
        self.slots.get(i as usize)?.as_ref()
    }

    /// The value under `id`, if it is tracked, mutably.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let i = id.checked_sub(self.first)?;
        self.slots.get_mut(i as usize)?.as_mut()
    }

    /// Stop tracking `id`, and drop the holes that leaves at the front.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let i = id.checked_sub(self.first)?;
        let v = self.slots.get_mut(i as usize)?.take()?;
        while self.slots.front().is_some_and(Option::is_none) {
            self.slots.pop_front();
            self.first += 1;
        }
        Some(v)
    }

    /// Is no id tracked?
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Every tracked value, in id order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_rng::Rng;
    use std::collections::BTreeMap;

    /// The ring against a map by id: ids taken without an insert (holes),
    /// removals in random order, lookups and removals of ids that track
    /// nothing (a hole's, one already removed, one not yet handed out) all
    /// agree, the front is always live, and the ring is empty exactly when
    /// the map is.
    #[test]
    fn id_ring_matches_a_map() {
        for seed in 1..=8u64 {
            let mut rng = Rng(seed);
            let mut ring = IdRing::default();
            let mut model = BTreeMap::new();
            let mut next = 0u64;
            for step in 0..20_000u64 {
                // Phases of insert-heavy, balanced and drain-heavy traffic.
                let insert = [70, 50, 25][(step / 1000 % 3) as usize];
                if rng.below(100) < insert {
                    let id = next;
                    next += 1;
                    if rng.below(3) != 0 {
                        ring.insert(id, step);
                        model.insert(id, step);
                    }
                } else if !model.is_empty() {
                    let live: Vec<u64> = model.keys().copied().collect();
                    let id = live[rng.below(live.len() as u64) as usize];
                    if rng.below(2) == 0 {
                        *ring.get_mut(id).unwrap() += 1;
                        *model.get_mut(&id).unwrap() += 1;
                    }
                    assert_eq!(
                        ring.remove(id),
                        model.remove(&id),
                        "seed {seed} step {step}"
                    );
                }
                let stray = rng.below(next + 2);
                assert_eq!(ring.get(stray), model.get(&stray), "seed {seed} id {stray}");
                if !model.contains_key(&stray) {
                    assert_eq!(ring.remove(stray), None, "seed {seed} id {stray}");
                }
                assert_eq!(ring.is_empty(), model.is_empty(), "seed {seed} step {step}");
                assert!(ring.slots.front().is_none_or(Option::is_some));
                assert!(ring.values().eq(model.values()), "seed {seed} step {step}");
            }
        }
    }
}

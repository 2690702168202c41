//! [`BoundedFifoMap`]: the workspace's one bounded-buffer type.
//!
//! Everything an untrusted peer can grow must be bounded, and the policy is the
//! same everywhere: keep at most `cap` entries and evict the one inserted longest
//! ago. This map is that policy, written (and property-tested) once — the
//! signature cache, the known-invalid block set, the orphan and pending-block
//! buffers, per-peer inventory bookkeeping, compact-block reconstructions, lazy
//! overlay pulls and equivocation sightings are all instances of it.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// A map holding at most `cap` entries with oldest-first (insertion order)
/// eviction and deterministic insertion-order iteration.
///
/// Every entry is tagged with its insertion sequence number; the order queue
/// holds `(sequence, key)` pairs. Removing an entry leaves its queue slot behind
/// as a *stale* slot, recognised because the map no longer holds that key under
/// that sequence — so a key that is removed and inserted again is evicted in its
/// new position, never through its old slot. Stale slots are skipped by eviction
/// and iteration and compacted away once they outnumber the live entries, which
/// keeps every operation O(1) amortized.
#[derive(Clone, Debug)]
pub struct BoundedFifoMap<K, V> {
    entries: HashMap<K, (u64, V)>,
    order: VecDeque<(u64, K)>,
    next_seq: u64,
    cap: usize,
}

impl<K: Hash + Eq + Clone, V> BoundedFifoMap<K, V> {
    /// A map holding at most `cap` entries (at least one).
    pub fn new(cap: usize) -> Self {
        BoundedFifoMap {
            entries: HashMap::new(),
            order: VecDeque::new(),
            next_seq: 0,
            cap: cap.max(1),
        }
    }

    /// Changes the bound (tests use tiny caps), evicting oldest-first down to it.
    pub fn set_cap(&mut self, cap: usize) {
        self.cap = cap.max(1);
        while self.entries.len() > self.cap {
            self.evict_oldest();
        }
    }

    /// Number of entries held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if the key is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.entries.contains_key(key)
    }

    /// The value stored under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.entries.get(key).map(|(_, value)| value)
    }

    /// Mutable access to the value stored under `key` (its position is unchanged).
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.entries.get_mut(key).map(|(_, value)| value)
    }

    /// Inserts `key → value` as the newest entry and returns the entry evicted to
    /// make room, if the map was full. A key already present keeps its position
    /// and only has its value replaced (nothing is evicted).
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some((_, slot)) = self.entries.get_mut(&key) {
            *slot = value;
            return None;
        }
        let evicted = if self.entries.len() >= self.cap {
            self.evict_oldest()
        } else {
            None
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.order.push_back((seq, key.clone()));
        self.entries.insert(key, (seq, value));
        evicted
    }

    /// Removes and returns the value stored under `key`.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (_, value) = self.entries.remove(key)?;
        // The queue slot is now stale. Compact once stale slots outnumber live
        // entries: each pass is paid for by the removals that preceded it.
        if self.order.len() > 2 * self.entries.len() + 16 {
            let entries = &self.entries;
            self.order
                .retain(|(seq, key)| entries.get(key).is_some_and(|(live, _)| live == seq));
        }
        Some(value)
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }

    /// Removes every entry and returns them, oldest first.
    pub fn drain(&mut self) -> Vec<(K, V)> {
        std::iter::from_fn(|| self.evict_oldest()).collect()
    }

    /// The entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.order.iter().filter_map(|(seq, key)| {
            let (live, value) = self.entries.get(key)?;
            (live == seq).then_some((key, value))
        })
    }

    /// The keys, oldest first.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(key, _)| key)
    }

    /// The values, oldest first.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, value)| value)
    }

    /// Pops queue slots until a live one is found and removes that entry.
    fn evict_oldest(&mut self) -> Option<(K, V)> {
        while let Some((seq, key)) = self.order.pop_front() {
            if self.entries.get(&key).is_some_and(|(live, _)| *live == seq) {
                let (_, value) = self.entries.remove(&key)?;
                return Some((key, value));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_oldest_first_and_iterates_in_insertion_order() {
        let mut map = BoundedFifoMap::new(3);
        assert!(map.is_empty());
        for key in [5u32, 1, 9] {
            assert_eq!(map.insert(key, key * 10), None);
        }
        assert_eq!(map.keys().copied().collect::<Vec<_>>(), vec![5, 1, 9]);
        assert_eq!(map.insert(2, 20), Some((5, 50)), "oldest entry makes room");
        assert_eq!(map.len(), 3);
        assert!(!map.contains_key(&5));
        assert_eq!(map.values().copied().collect::<Vec<_>>(), vec![10, 90, 20]);
    }

    #[test]
    fn replacing_a_value_keeps_the_position() {
        let mut map = BoundedFifoMap::new(2);
        map.insert("a", 1);
        map.insert("b", 2);
        assert_eq!(map.insert("a", 3), None, "replacement evicts nothing");
        assert_eq!(map.get(&"a"), Some(&3));
        *map.get_mut(&"b").unwrap() += 5;
        assert_eq!(map.insert("c", 4), Some(("a", 3)), "`a` is still the oldest");
        assert_eq!(map.get(&"b"), Some(&7));
    }

    #[test]
    fn reinserted_key_is_evicted_in_its_new_position() {
        // remove → re-insert → fill to cap: the stale queue slot of the first
        // insertion must not evict the re-inserted (now newest) key.
        let mut map = BoundedFifoMap::new(3);
        map.insert(1u8, ());
        map.insert(2, ());
        assert_eq!(map.remove(&1), Some(()));
        map.insert(3, ());
        map.insert(1, ()); // newest now; its first slot is stale
        assert_eq!(map.insert(4, ()), Some((2, ())), "2 is the oldest live entry");
        assert_eq!(map.insert(5, ()), Some((3, ())));
        assert!(map.contains_key(&1), "re-inserted key outlives older entries");
        assert_eq!(map.insert(6, ()), Some((1, ())));
    }

    #[test]
    fn stale_slots_are_compacted() {
        let mut map = BoundedFifoMap::new(4);
        for round in 0..10_000u32 {
            map.insert(round, ());
            map.remove(&round);
        }
        assert!(map.is_empty());
        assert!(map.order.len() <= 17, "queue stays proportional to the live set");
    }

    #[test]
    fn shrinking_the_cap_evicts_down_to_it() {
        let mut map = BoundedFifoMap::new(8);
        for key in 0..8u32 {
            map.insert(key, ());
        }
        map.set_cap(2);
        assert_eq!(map.keys().copied().collect::<Vec<_>>(), vec![6, 7]);
        map.clear();
        assert!(map.is_empty() && map.iter().next().is_none());
    }

    #[test]
    fn drain_empties_the_map_oldest_first_past_stale_slots() {
        let mut map = BoundedFifoMap::new(4);
        for key in [3u8, 1, 2] {
            map.insert(key, u32::from(key) * 10);
        }
        map.remove(&3);
        map.insert(3, 31); // its first slot is stale
        assert_eq!(map.drain(), vec![(1, 10), (2, 20), (3, 31)]);
        assert!(map.is_empty() && map.order.is_empty());
        assert_eq!(map.insert(7, 70), None, "still usable, at its cap");
    }
}

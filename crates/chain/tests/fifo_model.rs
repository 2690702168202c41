//! [`BoundedFifoMap`] against a naive model: a `Vec` of `(key, value)` pairs in
//! insertion order, evicting index 0 at capacity. Every bounded buffer in the
//! workspace is an instance of the map, so this is the one place the eviction
//! policy is property-tested.

use ng_chain::fifo::BoundedFifoMap;
use proptest::prelude::*;

/// Decodes one generated word into an operation over a 24-key space: two thirds
/// inserts (so the map actually fills), one third removals.
fn decode(word: u32) -> (bool, u8, u32) {
    (!word.is_multiple_of(3), (word / 3 % 24) as u8, word / 72)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Same contents, same order, same evictions as the model after every step.
    #[test]
    fn matches_the_naive_model(cap in 1usize..12, ops in proptest::collection::vec(any::<u32>(), 0..400)) {
        let mut map = BoundedFifoMap::new(cap);
        let mut model: Vec<(u8, u32)> = Vec::new();
        for word in ops {
            let (insert, key, value) = decode(word);
            if insert {
                let evicted = map.insert(key, value);
                let expected = match model.iter_mut().find(|(k, _)| *k == key) {
                    Some(slot) => {
                        slot.1 = value;
                        None
                    }
                    None => {
                        let gone = (model.len() >= cap).then(|| model.remove(0));
                        model.push((key, value));
                        gone
                    }
                };
                prop_assert_eq!(evicted, expected);
            } else {
                let expected = model
                    .iter()
                    .position(|(k, _)| *k == key)
                    .map(|at| model.remove(at).1);
                prop_assert_eq!(map.remove(&key), expected);
            }
            prop_assert!(map.len() <= cap);
            prop_assert_eq!(map.len(), model.len());
            let listed: Vec<(u8, u32)> = map.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(&listed, &model);
            for (key, value) in &model {
                prop_assert_eq!(map.get(key), Some(value));
            }
        }
    }

    /// remove → re-insert → fill to cap: the re-inserted key is the newest entry
    /// and must be evicted in that position, not through the stale queue slot its
    /// first insertion left behind (the bug the hand-rolled map + order-deque
    /// buffers this type replaced all shared).
    #[test]
    fn reinserted_key_is_evicted_in_its_new_position(cap in 2usize..40, older in 0usize..40) {
        let older = older.min(cap - 1);
        let mut map = BoundedFifoMap::new(cap);
        let victim = u32::MAX;
        map.insert(victim, ());
        for key in 0..older as u32 {
            map.insert(key, ());
        }
        prop_assert_eq!(map.remove(&victim), Some(()));
        map.insert(victim, ());
        // Fill to the cap and push out everything older than the re-insertion.
        for key in 1_000..(1_000 + cap as u32 - 1) {
            let evicted = map.insert(key, ());
            prop_assert!(evicted.is_none_or(|(gone, ())| gone != victim));
        }
        prop_assert!(map.contains_key(&victim));
        prop_assert_eq!(map.keys().next(), Some(&victim), "now the oldest entry");
        prop_assert_eq!(map.insert(9_999, ()), Some((victim, ())));
    }
}

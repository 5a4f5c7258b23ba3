//! The one least-recently-used map of the serving layer.
//!
//! The registry's compiled-plan cache (the only model cache there is) and
//! the session table are the same structure — a hash map whose entries
//! carry a logical-clock timestamp, bounded by evicting the smallest
//! timestamp — so they share this one definition.  Capacities here are tens
//! to a thousand entries and eviction runs only on an insert past capacity,
//! so the victim is found by a linear scan rather than an intrusive list.

use std::collections::HashMap;
use std::hash::Hash;

/// A capacity-bounded map that evicts its least-recently-used entry.
pub(crate) struct Lru<K, V> {
    /// Each value beside the clock reading of its last use.
    map: HashMap<K, (u64, V)>,
    /// Logical clock; bumped by every [`Lru::get`] and [`Lru::insert`].
    clock: u64,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    /// An empty map holding at most `capacity` entries (clamped to ≥ 1).
    pub(crate) fn new(capacity: usize) -> Self {
        Lru {
            map: HashMap::new(),
            clock: 0,
            capacity: capacity.max(1),
        }
    }

    /// Number of entries held.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Looks up `key` and marks it most recently used.
    pub(crate) fn get(&mut self, key: &K) -> Option<&mut V> {
        self.clock += 1;
        let (used, value) = self.map.get_mut(key)?;
        *used = self.clock;
        Some(value)
    }

    /// Looks up `key` without touching its recency.
    pub(crate) fn peek(&mut self, key: &K) -> Option<&mut V> {
        self.map.get_mut(key).map(|(_, value)| value)
    }

    /// Inserts (or replaces) `key` as the most recently used entry and
    /// returns whatever had to be evicted to stay within capacity, least
    /// recently used first.  The entry just inserted is never among them:
    /// it holds the newest clock reading and the capacity is at least one.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Vec<(K, V)> {
        self.clock += 1;
        self.map.insert(key, (self.clock, value));
        let mut evicted = Vec::new();
        while self.map.len() > self.capacity {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, (used, _))| *used)
                .map(|(key, _)| key.clone())
                .expect("a map over capacity is non-empty");
            let (key, (_, value)) = self.map.remove_entry(&victim).expect("victim is present");
            evicted.push((key, value));
        }
        evicted
    }

    /// Removes `key`, returning its value.
    pub(crate) fn remove(&mut self, key: &K) -> Option<V> {
        self.map.remove(key).map(|(_, value)| value)
    }

    /// Removes every entry whose key matches `pred`, returning the values.
    pub(crate) fn remove_where(&mut self, pred: impl Fn(&K) -> bool) -> Vec<V> {
        let keys: Vec<K> = self.map.keys().filter(|key| pred(key)).cloned().collect();
        keys.iter().filter_map(|key| self.remove(key)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_in_least_recently_used_order() {
        let mut lru = Lru::new(2);
        assert!(lru.insert("a", 1).is_empty());
        assert!(lru.insert("b", 2).is_empty());
        assert_eq!(lru.insert("c", 3), vec![("a", 1)]);
        assert_eq!(lru.insert("d", 4), vec![("b", 2)]);
        assert_eq!(lru.len(), 2);
        assert!(lru.peek(&"a").is_none());
    }

    #[test]
    fn get_touches_but_peek_does_not() {
        let mut lru = Lru::new(2);
        lru.insert("a", 1);
        lru.insert("b", 2);
        // Touching "a" makes "b" the victim of the next insert...
        assert_eq!(lru.get(&"a"), Some(&mut 1));
        assert_eq!(lru.insert("c", 3), vec![("b", 2)]);
        // ...while peeking at "a" leaves it the coldest.
        assert_eq!(lru.peek(&"a"), Some(&mut 1));
        assert_eq!(lru.insert("d", 4), vec![("a", 1)]);
        // A miss is a miss either way.
        assert!(lru.get(&"a").is_none());
    }

    #[test]
    fn the_inserted_key_is_never_the_victim() {
        let mut lru = Lru::new(1);
        assert!(lru.insert("a", 1).is_empty());
        assert_eq!(lru.insert("b", 2), vec![("a", 1)]);
        assert_eq!(lru.peek(&"b"), Some(&mut 2));
        // Replacing a key in place evicts nothing and refreshes it.
        let mut lru = Lru::new(2);
        lru.insert("a", 1);
        lru.insert("b", 2);
        assert!(lru.insert("a", 10).is_empty());
        assert_eq!(lru.insert("c", 3), vec![("b", 2)]);
        assert_eq!(lru.peek(&"a"), Some(&mut 10));
    }

    #[test]
    fn capacity_clamps_to_at_least_one() {
        let mut lru = Lru::new(0);
        assert!(lru.insert("a", 1).is_empty());
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.insert("b", 2), vec![("a", 1)]);
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn remove_and_remove_where_take_entries_out() {
        let mut lru = Lru::new(8);
        for (key, value) in [((1, 'x'), 10), ((1, 'y'), 11), ((2, 'x'), 20)] {
            lru.insert(key, value);
        }
        assert_eq!(lru.remove(&(2, 'x')), Some(20));
        assert_eq!(lru.remove(&(2, 'x')), None);
        let mut taken = lru.remove_where(|key| key.0 == 1);
        taken.sort_unstable();
        assert_eq!(taken, vec![10, 11]);
        assert_eq!(lru.len(), 0);
    }
}

//! A small bounded least-recently-used map: the codec's one program
//! table (decode, column and row-subset programs).
//!
//! Compiling a program runs the whole optimization pipeline, so the
//! table matters — but the pattern space is `C(n+p, ≤p)`, far too large
//! to hold unboundedly for wide codes. This LRU keeps the hot requests
//! (the erasure patterns a cluster is repairing, the columns it is
//! updating) and recompiles cold ones on demand.
//!
//! Eviction scans for the oldest stamp, which is O(len); the capacity is
//! small, so a linked order list would be more code for no measurable win.

use std::collections::HashMap;
use std::hash::Hash;

pub(crate) struct LruCache<K, V> {
    cap: usize,
    tick: u64,
    map: HashMap<K, (u64, V)>,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// Create a cache holding at most `cap` entries (clamped to ≥ 1).
    pub fn new(cap: usize) -> LruCache<K, V> {
        LruCache {
            cap: cap.max(1),
            tick: 0,
            map: HashMap::new(),
        }
    }

    /// Look up `k`, marking it most-recently used.
    pub fn get(&mut self, k: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(k).map(|(stamp, v)| {
            *stamp = tick;
            v.clone()
        })
    }

    /// Insert `k → v`, evicting the least-recently-used entry if full.
    pub fn insert(&mut self, k: K, v: V) {
        self.tick += 1;
        if !self.map.contains_key(&k) && self.map.len() >= self.cap {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(key, _)| key.clone())
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(k, (self.tick, v));
    }

    /// True iff `k` is cached, *without* touching recency (a peek, not a
    /// use — eviction tests and introspection must not perturb the order
    /// they are observing).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn contains(&self, k: &K) -> bool {
        self.map.contains_key(k)
    }

    /// Every cached value, without touching recency.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.map.values().map(|(_, v)| v)
    }

    /// Number of cached entries.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// The configured capacity.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn cap(&self) -> usize {
        self.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut c: LruCache<u32, u32> = LruCache::new(4);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get(&3), None);
        assert_eq!(c.len(), 2);
        assert_eq!(c.cap(), 4);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.get(&1), Some(10)); // 1 is now fresher than 2
        c.insert(3, 30); // evicts 2
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get(&3), Some(30));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_not_evicts() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(1, 11); // update in place; nothing evicted
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&1), Some(11));
        assert_eq!(c.get(&2), Some(20));
    }

    #[test]
    fn contains_does_not_refresh_recency() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        // Peeking at 1 must NOT save it from eviction.
        assert!(c.contains(&1));
        c.insert(3, 30); // evicts 1 (oldest by *use*, not by peek)
        assert!(!c.contains(&1));
        assert!(c.contains(&2));
        assert!(c.contains(&3));
    }

    #[test]
    fn zero_cap_clamps_to_one() {
        let mut c: LruCache<u32, u32> = LruCache::new(0);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&2), Some(20));
    }
}

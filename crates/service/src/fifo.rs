//! The capacity-bounded FIFO map behind the service's two caches
//! ([`crate::cache::FormationCache`] and [`crate::shape::ShapeCache`]).

use chf_ir::fxhash::FxHashMap;
use std::collections::VecDeque;
use std::hash::Hash;

/// A map holding at most `capacity` entries, evicting the oldest insertion
/// first. Capacity 0 disables it: every insert is dropped.
pub(crate) struct FifoMap<K, V> {
    capacity: usize,
    map: FxHashMap<K, V>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<K>,
}

impl<K: Copy + Eq + Hash, V> FifoMap<K, V> {
    /// An empty map holding at most `capacity` entries.
    pub(crate) fn new(capacity: usize) -> Self {
        FifoMap {
            capacity,
            map: FxHashMap::default(),
            order: VecDeque::new(),
        }
    }

    /// Entries currently stored.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    pub(crate) fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.map.get_mut(key)
    }

    /// Store `value` under `key`. Refreshing a present key keeps its place
    /// in the eviction order; a new key at capacity evicts the oldest.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if self.map.insert(key, value).is_none() {
            self.order.push_back(key);
            if self.order.len() > self.capacity {
                if let Some(oldest) = self.order.pop_front() {
                    self.map.remove(&oldest);
                }
            }
        }
    }

    pub(crate) fn remove(&mut self, key: &K) {
        if self.map.remove(key).is_some() {
            self.order.retain(|k| k != key);
        }
    }
}

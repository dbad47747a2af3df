//! CFG-shape → tournament-winner cache.
//!
//! The content-addressed [`crate::cache::FormationCache`] memoizes *exact*
//! `(function, config, profile)` submissions. Policy tournaments need a
//! second, much coarser layer: functions with the same CFG *shape*
//! ([`chf_ir::fingerprint::CfgShape`] — loop-nest depth histogram, branch
//! fan-out, block-count bucket, profile-skew bucket) tend to be won by the
//! same block-selection policy, so a recurring shape can skip the portfolio
//! and compile once with the cached winner.
//!
//! The cached entry carries the winner's *normalized* score (improvement
//! over the uncompiled baseline, in permille) so the hot path can validate
//! the decision cheaply: compile with the cached policy, score it, and if
//! the improvement regresses more than the configured guard band below the
//! cached value, distrust the entry and fall back to a full tournament
//! (updating the entry with the fresh winner). A stale or adversarial
//! entry therefore costs one extra compile, never a worse artifact.
//!
//! Same discipline as the formation cache: bounded, FIFO-evicted,
//! poison-safe (entries are only written from fully scored tournaments).

use crate::fifo::FifoMap;
use chf_core::PolicyKind;
use std::sync::Mutex;

/// One cached winner: the policy/budget that won the last full tournament
/// for this shape, and how well it did.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ShapeEntry {
    /// Winning policy.
    pub policy: PolicyKind,
    /// Winning trial budget (`None` = unbounded).
    pub budget: Option<usize>,
    /// The winner's improvement over the uncompiled baseline, in permille
    /// (signed: a pathological portfolio can lose to the baseline).
    pub improvement_permille: i64,
}

/// Bounded shape→winner cache (FIFO eviction, capacity 0 disables it).
pub struct ShapeCache {
    store: Mutex<FifoMap<u64, ShapeEntry>>,
}

impl ShapeCache {
    /// An empty cache holding at most `capacity` shapes.
    pub fn new(capacity: usize) -> ShapeCache {
        ShapeCache {
            store: Mutex::new(FifoMap::new(capacity)),
        }
    }

    /// The cached winner for `shape`, if any.
    pub fn get(&self, shape: u64) -> Option<ShapeEntry> {
        self.store
            .lock()
            .expect("shape cache lock")
            .get(&shape)
            .copied()
    }

    /// Record (or refresh) the winner for `shape`.
    pub fn insert(&self, shape: u64, entry: ShapeEntry) {
        self.store
            .lock()
            .expect("shape cache lock")
            .insert(shape, entry);
    }

    /// Shapes currently cached.
    pub fn len(&self) -> usize {
        self.store.lock().expect("shape cache lock").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(imp: i64) -> ShapeEntry {
        ShapeEntry {
            policy: PolicyKind::HotFirst,
            budget: Some(16),
            improvement_permille: imp,
        }
    }

    #[test]
    fn insert_get_and_refresh() {
        let c = ShapeCache::new(4);
        assert!(c.get(1).is_none());
        c.insert(1, entry(500));
        assert_eq!(c.get(1).unwrap().improvement_permille, 500);
        c.insert(1, entry(600)); // refresh, not a second slot
        assert_eq!(c.get(1).unwrap().improvement_permille, 600);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn fifo_eviction_at_capacity() {
        let c = ShapeCache::new(2);
        c.insert(1, entry(1));
        c.insert(2, entry(2));
        c.insert(3, entry(3));
        assert_eq!(c.len(), 2);
        assert!(c.get(1).is_none(), "oldest shape must be evicted");
        assert!(c.get(2).is_some() && c.get(3).is_some());
    }

    #[test]
    fn zero_capacity_disables() {
        let c = ShapeCache::new(0);
        c.insert(1, entry(1));
        assert!(c.is_empty());
    }
}

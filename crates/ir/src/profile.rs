//! Execution profiles: block/edge frequencies and loop trip-count histograms.
//!
//! Block selection policies (paper §5) consult edge frequencies; the peeling
//! policy additionally consults trip-count histograms ("the compiler can use
//! loop trip count histograms to augment an edge frequency profile").
//! Profiles are gathered by running the functional simulator (`chf-sim`) on
//! the basic-block form of a program — self-profiling, matching the paper's
//! use of training inputs.

use crate::function::Function;
use crate::ids::BlockId;
use std::collections::BTreeMap;

/// Histogram of loop trip counts for a single loop header.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TripHistogram {
    /// `trip count → number of loop entries that iterated exactly that many
    /// times`.
    pub counts: BTreeMap<u64, u64>,
}

impl TripHistogram {
    /// Record one loop visit that performed `trips` iterations.
    pub fn record(&mut self, trips: u64) {
        *self.counts.entry(trips).or_insert(0) += 1;
    }

    /// Total number of loop visits recorded (saturating: a corrupted or
    /// adversarial profile with near-`u64::MAX` counts must not abort the
    /// compiler, merely skew the statistics it already cannot trust).
    pub fn visits(&self) -> u64 {
        self.counts
            .values()
            .fold(0u64, |acc, n| acc.saturating_add(*n))
    }

    /// The most common trip count, if any visits were recorded.
    pub fn mode(&self) -> Option<u64> {
        self.counts
            .iter()
            .max_by_key(|(trips, n)| (**n, std::cmp::Reverse(**trips)))
            .map(|(t, _)| *t)
    }

    /// Mean trip count (0.0 if empty).
    pub fn mean(&self) -> f64 {
        let visits = self.visits();
        if visits == 0 {
            return 0.0;
        }
        // Saturating accumulation: trip counts injected by the fault
        // harness (and, in principle, merged multi-run profiles) can
        // overflow `u64` multiplication, which panics in debug builds.
        let total = self
            .counts
            .iter()
            .fold(0u64, |acc, (t, n)| acc.saturating_add(t.saturating_mul(*n)));
        total as f64 / visits as f64
    }

    /// Fraction of visits with trip count ≥ `k`.
    pub fn fraction_at_least(&self, k: u64) -> f64 {
        let visits = self.visits();
        if visits == 0 {
            return 0.0;
        }
        let at_least = self
            .counts
            .iter()
            .filter(|(t, _)| **t >= k)
            .fold(0u64, |acc, (_, n)| acc.saturating_add(*n));
        at_least as f64 / visits as f64
    }
}

/// Raw profile data measured on one program run (or merged over runs).
///
/// The maps are ordered, so iterating one visits its keys in the same
/// order in every process: code that walks a profile (the fault injector
/// drops and scrambles entries by position) builds the same result from
/// the same seed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileData {
    /// Dynamic execution count per block.
    pub block_counts: BTreeMap<BlockId, u64>,
    /// Dynamic taken count per `(block, exit index)`.
    pub exit_counts: BTreeMap<(BlockId, usize), u64>,
    /// Trip-count histogram per loop header.
    pub trip_histograms: BTreeMap<BlockId, TripHistogram>,
}

impl ProfileData {
    /// Merge another profile into this one (summing counts; saturating so
    /// adversarial profiles cannot overflow-panic the compiler).
    pub fn merge(&mut self, other: &ProfileData) {
        for (b, n) in &other.block_counts {
            let e = self.block_counts.entry(*b).or_insert(0);
            *e = e.saturating_add(*n);
        }
        for (k, n) in &other.exit_counts {
            let e = self.exit_counts.entry(*k).or_insert(0);
            *e = e.saturating_add(*n);
        }
        for (b, h) in &other.trip_histograms {
            let dst = self.trip_histograms.entry(*b).or_default();
            for (t, n) in &h.counts {
                let e = dst.counts.entry(*t).or_insert(0);
                *e = e.saturating_add(*n);
            }
        }
    }

    /// Stamp frequencies onto the function: block `freq` and exit `count`
    /// fields. Blocks and exits absent from the profile get 0.
    pub fn apply(&self, f: &mut Function) {
        let ids: Vec<BlockId> = f.block_ids().collect();
        for b in ids {
            let freq = self.block_counts.get(&b).copied().unwrap_or(0) as f64;
            let blk = f.block_mut(b);
            blk.freq = freq;
            for (i, e) in blk.exits.iter_mut().enumerate() {
                e.count = self.exit_counts.get(&(b, i)).copied().unwrap_or(0) as f64;
            }
        }
    }

    /// Trip histogram for `header`, if one was recorded.
    pub fn trip_histogram(&self, header: BlockId) -> Option<&TripHistogram> {
        self.trip_histograms.get(&header)
    }

    /// Profiled execution count of `b` (0 when unprofiled).
    pub fn block_count(&self, b: BlockId) -> u64 {
        self.block_counts.get(&b).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;

    #[test]
    fn histogram_statistics() {
        let mut h = TripHistogram::default();
        for _ in 0..7 {
            h.record(3);
        }
        for _ in 0..2 {
            h.record(10);
        }
        h.record(1);
        assert_eq!(h.visits(), 10);
        assert_eq!(h.mode(), Some(3));
        assert!((h.mean() - (7 * 3 + 2 * 10 + 1) as f64 / 10.0).abs() < 1e-9);
        assert!((h.fraction_at_least(3) - 0.9).abs() < 1e-9);
        assert!((h.fraction_at_least(11) - 0.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram() {
        let h = TripHistogram::default();
        assert_eq!(h.mode(), None);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.fraction_at_least(1), 0.0);
    }

    #[test]
    fn apply_stamps_blocks_and_exits() {
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        let a = fb.create_block();
        let b = fb.create_block();
        fb.switch_to(e);
        fb.branch(fb.param(0), a, b);
        fb.switch_to(a);
        fb.ret(None);
        fb.switch_to(b);
        fb.ret(None);
        let mut f = fb.build().unwrap();

        let mut p = ProfileData::default();
        p.block_counts.insert(e, 100);
        p.block_counts.insert(a, 80);
        p.exit_counts.insert((e, 0), 80);
        p.exit_counts.insert((e, 1), 20);
        p.apply(&mut f);
        assert_eq!(f.block(e).freq, 100.0);
        assert_eq!(f.block(a).freq, 80.0);
        assert_eq!(f.block(b).freq, 0.0);
        assert!((f.block(e).exit_probability(0) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn raw_count_accessors() {
        let mut p = ProfileData::default();
        p.block_counts.insert(BlockId(3), 44);
        assert_eq!(p.block_count(BlockId(3)), 44);
        assert_eq!(p.block_count(BlockId(9)), 0);
    }

    #[test]
    fn merge_sums_counts() {
        let mut a = ProfileData::default();
        a.block_counts.insert(BlockId(0), 5);
        a.exit_counts.insert((BlockId(0), 0), 5);
        a.trip_histograms.entry(BlockId(1)).or_default().record(2);
        let mut b = ProfileData::default();
        b.block_counts.insert(BlockId(0), 3);
        b.trip_histograms.entry(BlockId(1)).or_default().record(2);
        a.merge(&b);
        assert_eq!(a.block_counts[&BlockId(0)], 8);
        assert_eq!(a.trip_histograms[&BlockId(1)].counts[&2], 2);
    }
}

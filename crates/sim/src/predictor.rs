//! Next-block (exit) predictor.
//!
//! TRIPS fetches speculatively down the predicted block chain; a wrong
//! next-block prediction flushes the pipeline (paper §5, "Branch
//! predictability"). We model a local/global hybrid: each `(block, global
//! exit history)` pair maps to the last exit taken from that block with a
//! saturating confidence counter, approximating the prototype's exit
//! predictor well enough to reproduce the paper's predictability effects
//! (e.g., parser_1's 11× misprediction-rate swing between heuristics).

use chf_ir::block::ExitTarget;
use chf_ir::ids::BlockId;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Which prediction scheme to model.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum PredictorKind {
    /// Per-block entries indexed by global target history (default).
    #[default]
    Hybrid,
    /// Per-block entries only, no history (a bimodal predictor).
    Bimodal,
    /// Always the static prediction (the compiler's most-likely-first exit
    /// ordering); models a machine without dynamic next-block prediction.
    Static,
}

/// Number of global-history bits of [`PredictorKind::Hybrid`] (each exit
/// event contributes 2 bits).
const HISTORY_BITS: u32 = 8;

/// Maximum confidence of the per-entry saturating counter.
const MAX_CONFIDENCE: u8 = 3;

/// Predictor configuration.
#[derive(Clone, Debug, Default)]
pub struct PredictorConfig {
    /// The prediction scheme.
    pub kind: PredictorKind,
}

impl PredictorConfig {
    /// A configuration for the given scheme.
    pub fn of_kind(kind: PredictorKind) -> Self {
        PredictorConfig { kind }
    }
}

#[derive(Clone, Debug)]
struct Entry {
    target: ExitTarget,
    confidence: u8,
}

/// Predicts which exit a block will take next.
#[derive(Clone, Debug)]
pub struct ExitPredictor {
    kind: PredictorKind,
    /// The `(block, history)` → [`Entry`] table: per block, a dense row
    /// indexed by the raw (already-masked) history value; 2^8 entries per
    /// touched block is a few KiB. An entry exists for a key iff it was
    /// trained. Rows are allocated lazily on first training so a fresh
    /// predictor costs nothing for untouched blocks.
    blocks: Vec<Option<Box<[Option<Entry>]>>>,
    /// Entries per row: `history_mask + 1`.
    row_len: usize,
    history: u64,
    history_mask: u64,
    predictions: u64,
    mispredictions: u64,
}

impl ExitPredictor {
    /// Create a predictor with the given configuration.
    pub fn new(config: &PredictorConfig) -> Self {
        let bits = match config.kind {
            PredictorKind::Hybrid => HISTORY_BITS,
            PredictorKind::Bimodal | PredictorKind::Static => 0,
        };
        ExitPredictor {
            kind: config.kind,
            blocks: Vec::new(),
            row_len: 1usize << bits,
            history: 0,
            history_mask: (1u64 << bits) - 1,
            predictions: 0,
            mispredictions: 0,
        }
    }

    /// Predict the next-block *target* `block` will branch to (TRIPS
    /// predicts the next block address, not an exit slot — several exits to
    /// the same successor are one prediction). Untrained entries return
    /// `None`; callers treat the first exit's target as the static
    /// prediction.
    pub fn predict(&self, block: BlockId) -> Option<ExitTarget> {
        if self.kind == PredictorKind::Static {
            return None;
        }
        self.blocks
            .get(block.0 as usize)
            .and_then(|row| row.as_ref())
            .and_then(|row| row[self.history as usize].as_ref())
            .map(|e| e.target)
    }

    /// The 2-bit global-history contribution of a taken target.
    ///
    /// The hash function is load-bearing: history values key every table
    /// entry, so changing it changes the misprediction trajectory (and
    /// with it the golden cycle counts). It is therefore exposed so the
    /// lowered program representation can cache the tag per exit and the
    /// hot path can skip the hasher ([`Self::update_tagged`]).
    pub fn history_tag(target: &ExitTarget) -> u8 {
        let mut h = DefaultHasher::new();
        target.hash(&mut h);
        (h.finish() & 0b11) as u8
    }

    /// Record the actual target taken and update state, given the static
    /// fallback prediction for untrained entries. Returns whether the
    /// prediction was correct.
    pub fn update(&mut self, block: BlockId, fallback: ExitTarget, actual: ExitTarget) -> bool {
        let tag = Self::history_tag(&actual);
        self.update_tagged(block, fallback, actual, tag)
    }

    /// [`Self::update`] with the target's [`Self::history_tag`]
    /// precomputed. One table probe serves both the prediction read and
    /// the training write; the outcome is identical to `update`.
    pub fn update_tagged(
        &mut self,
        block: BlockId,
        fallback: ExitTarget,
        actual: ExitTarget,
        tag: u8,
    ) -> bool {
        let bi = block.0 as usize;
        if bi >= self.blocks.len() {
            self.blocks.resize_with(bi + 1, || None);
        }
        let row_len = self.row_len;
        let row = self.blocks[bi].get_or_insert_with(|| vec![None; row_len].into_boxed_slice());
        // `history` is kept masked, so it always indexes in range.
        let correct = match &mut row[self.history as usize] {
            Some(entry) => {
                // Whether the dynamic prediction (the entry's target) was
                // correct.
                let predicted = if self.kind == PredictorKind::Static {
                    fallback
                } else {
                    entry.target
                };
                if entry.target == actual {
                    entry.confidence = (entry.confidence + 1).min(MAX_CONFIDENCE);
                } else if entry.confidence > 0 {
                    entry.confidence -= 1;
                } else {
                    entry.target = actual;
                }
                predicted == actual
            }
            slot @ None => {
                // A fresh entry trains on `actual` immediately (insert at
                // confidence 0, then the `target == actual` bump).
                *slot = Some(Entry {
                    target: actual,
                    confidence: 1,
                });
                fallback == actual
            }
        };
        self.predictions += 1;
        if !correct {
            self.mispredictions += 1;
        }
        self.history = ((self.history << 2) ^ u64::from(tag)) & self.history_mask;
        correct
    }

    /// Total predictions made.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Total mispredictions.
    pub fn mispredictions(&self) -> u64 {
        self.mispredictions
    }

    /// Misprediction rate in `[0, 1]` (0 when nothing was predicted).
    pub fn misprediction_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u32) -> BlockId {
        BlockId(i)
    }

    fn t(i: u32) -> ExitTarget {
        ExitTarget::Block(BlockId(i))
    }

    #[test]
    fn learns_stable_pattern() {
        let mut p = ExitPredictor::new(&PredictorConfig::default());
        // Warm up: block 0 always branches to block 11.
        for _ in 0..10 {
            p.update(b(0), t(10), t(11));
        }
        assert_eq!(p.predict(b(0)), Some(t(11)));
        assert!(p.update(b(0), t(10), t(11)));
    }

    #[test]
    fn single_target_blocks_always_predicted() {
        let mut p = ExitPredictor::new(&PredictorConfig::default());
        for _ in 0..100 {
            p.update(b(3), t(4), t(4));
        }
        assert_eq!(p.mispredictions(), 0);
        assert_eq!(p.misprediction_rate(), 0.0);
    }

    #[test]
    fn same_target_exits_cannot_mispredict() {
        // Exits 0 and 1 both go to block 5: the next-block prediction is
        // identical regardless of which fires.
        let mut p = ExitPredictor::new(&PredictorConfig::default());
        for _ in 0..50 {
            assert!(p.update(b(2), t(5), t(5)));
        }
        assert_eq!(p.mispredictions(), 0);
    }

    #[test]
    fn history_disambiguates_alternation() {
        // Target pattern A,B,A,B,... becomes predictable once trained.
        let mut p = ExitPredictor::new(&PredictorConfig::default());
        let mut late_miss = 0;
        for i in 0..400 {
            let actual = t(10 + (i % 2));
            let correct = p.update(b(7), t(10), actual);
            if i >= 200 && !correct {
                late_miss += 1;
            }
        }
        assert_eq!(late_miss, 0, "alternating pattern should be learned");
    }

    #[test]
    fn random_pattern_mispredicts_often() {
        // A pseudo-random target sequence should hurt.
        let mut p = ExitPredictor::new(&PredictorConfig::default());
        let mut x = 12345u64;
        for _ in 0..1000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let actual = t(10 + ((x >> 33) % 2) as u32);
            p.update(b(9), t(10), actual);
        }
        assert!(p.misprediction_rate() > 0.2);
    }

    #[test]
    fn static_predictor_never_learns() {
        let mut p = ExitPredictor::new(&PredictorConfig::of_kind(PredictorKind::Static));
        // Block always branches to 5, but the static fallback says 4: every
        // prediction misses, forever.
        for _ in 0..20 {
            p.update(b(1), t(4), t(5));
        }
        assert_eq!(p.mispredictions(), 20);
        assert_eq!(p.predict(b(1)), None);
    }

    #[test]
    fn bimodal_learns_but_cannot_track_alternation() {
        let mut p = ExitPredictor::new(&PredictorConfig::of_kind(PredictorKind::Bimodal));
        let mut late_miss = 0;
        for i in 0..200 {
            let actual = t(10 + (i % 2));
            let correct = p.update(b(7), t(10), actual);
            if i >= 100 && !correct {
                late_miss += 1;
            }
        }
        assert!(late_miss > 0, "bimodal should not learn alternation");
    }

    #[test]
    fn hysteresis_resists_single_anomaly() {
        // No history bits: a single table entry per block, so the anomaly
        // hits the trained entry directly.
        let mut p = ExitPredictor::new(&PredictorConfig::of_kind(PredictorKind::Bimodal));
        for _ in 0..8 {
            p.update(b(1), t(2), t(2));
        }
        // One anomaly under the same history key must not flip the entry.
        p.update(b(1), t(2), t(3));
        assert_eq!(p.predict(b(1)), Some(t(2)));
    }
}

//! The single measurement pipeline behind both corpus replay and fuzzer
//! admission: verify → train → compile → differential oracle → event-driven
//! timing → policy tournament, every result folded into stable 64-bit
//! digests and coverage-cell keys.
//!
//! Replay and admission *must* share this code: an entry is admitted with
//! exactly the measurement replay will later re-take, so any drift the gate
//! reports is a behaviour change in the compiler, never a pipeline skew.

use crate::manifest::Measured;
use chf_core::oracle::{first_mismatch, OracleConfig};
use chf_core::tournament::TournamentConfig;
use chf_core::{run_tournament, try_compile, CompileConfig, FormationStats};
use chf_ir::fingerprint::shape_class;
use chf_ir::function::Function;
use chf_ir::fxhash::FxHasher;
use chf_ir::testgen::{mutate, SplitMix64};
use chf_ir::verify::verify_full;
use chf_sim::timing::{simulate_timing_lowered, TimingConfig};
use chf_sim::{run, LoweredProgram, RunConfig};
use std::hash::Hasher;

/// Block-execution fuel for every simulation the pipeline runs. Bounds the
/// cost of measuring a mutant whose retargeted branch wrapped a loop back
/// on itself — such candidates fail the baseline run and are filtered, not
/// admitted. Deliberately small: formation coverage is about CFG shape and
/// profile ratios, not run length, and every corpus entry is replayed on
/// every CI run, so a long-running entry buys no coverage at real cost.
pub const MEASURE_FUEL: u64 = 20_000;

/// The fixed-compile policy label measurements are taken under
/// ([`CompileConfig::convergent`], the paper's best configuration).
pub const MEASURE_POLICY: &str = "BF";

/// Why a candidate could not be measured as a formed entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MeasureError {
    /// The full verifier refused the function (corpus class: `rejected`).
    Rejected(String),
    /// The training run failed (out of fuel, uninitialized read): the
    /// candidate is not an admissible workload at all.
    BaselineFails(String),
    /// Formation itself reported an error on verified input. Never
    /// expected; surfaced loudly rather than filtered.
    CompileFailed(String),
}

impl std::fmt::Display for MeasureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeasureError::Rejected(e) => write!(f, "verifier rejected: {e}"),
            MeasureError::BaselineFails(e) => write!(f, "baseline run failed: {e}"),
            MeasureError::CompileFailed(e) => write!(f, "compile failed: {e}"),
        }
    }
}

/// A full measurement: the manifest block plus the raw pieces the fuzzer
/// needs for coverage bookkeeping.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// The manifest-ready digests and labels.
    pub measured: Measured,
    /// Whether the differential oracle saw the compiled function diverge
    /// from its input (a miscompile — corpus class `diverges`).
    pub diverged: bool,
    /// The formation stats behind [`Measured::mtup`].
    pub stats: FormationStats,
}

/// Hash a sequence of words with the workspace's FxHasher.
pub fn fxh(parts: &[u64]) -> u64 {
    let mut h = FxHasher::default();
    for p in parts {
        h.write_u64(*p);
    }
    h.finish()
}

/// Hash a string (used for error-shaped digests and verifier-refusal cells).
pub fn fxh_str(s: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    h.finish()
}

/// Bucketed merge-outcome key: each of `m/t/u/p` clamped to `0..=3`, plus
/// whether any trial was skipped by the safety net. 512 possible cells —
/// small enough to saturate meaningfully, large enough to distinguish
/// formation behaviours.
pub fn outcome_key(stats: &FormationStats) -> u64 {
    let b = |n: usize| n.min(3) as u64;
    b(stats.merges)
        | b(stats.tail_dups) << 2
        | b(stats.unrolls) << 4
        | b(stats.peels) << 6
        | ((stats.skipped > 0) as u64) << 8
}

/// The combined dedup/coverage cell of a formed measurement.
pub fn combined_cell(outcome: u64, shape: u64, diverged: bool) -> u64 {
    fxh(&[outcome, shape, diverged as u64])
}

fn func_digest_hash(d: &(Option<i64>, Vec<(i64, i64)>)) -> u64 {
    let mut h = FxHasher::default();
    match d.0 {
        None => h.write_u64(u64::MAX),
        Some(v) => {
            h.write_u64(1);
            h.write_u64(v as u64);
        }
    }
    for (a, v) in &d.1 {
        h.write_u64(*a as u64);
        h.write_u64(*v as u64);
    }
    h.finish()
}

/// Measure `f` end to end on `train`.
///
/// `profile_mut` optionally perturbs the derived edge profile with the
/// seeded scrambler ([`mutate::perturb_profile`]) before formation — the
/// "perturb edge profiles" fuzzing axis, recorded in the manifest so replay
/// applies the identical perturbation.
pub fn measure(
    f: &Function,
    train: &[i64],
    profile_mut: Option<u64>,
) -> Result<Measurement, MeasureError> {
    verify_full(f).map_err(|e| MeasureError::Rejected(e.to_string()))?;

    let run_cfg = RunConfig {
        max_blocks: MEASURE_FUEL,
        check_uninit: false,
        collect_trip_counts: true,
    };
    let baseline =
        run(f, train, &[], &run_cfg).map_err(|e| MeasureError::BaselineFails(e.to_string()))?;
    let mut profile = baseline.profile;
    if let Some(seed) = profile_mut {
        mutate::perturb_profile(&mut profile, &mut SplitMix64::new(seed));
    }

    let config = CompileConfig::convergent();
    let compiled = try_compile(f, &profile, &config)
        .map_err(|e| MeasureError::CompileFailed(e.to_string()))?;

    let oracle_cfg = OracleConfig {
        seed: 0x0C0FFEE,
        inputs: 4,
        max_blocks: MEASURE_FUEL,
        repro_dir: None,
    };
    let diverged = first_mismatch(f, &compiled.function, &oracle_cfg).is_some();

    let func_digest = match run(&compiled.function, train, &[], &run_cfg) {
        Ok(r) => func_digest_hash(&r.digest()),
        Err(e) => fxh_str(&format!("func-error:{e}")),
    };

    let timing_cfg = TimingConfig {
        max_blocks: MEASURE_FUEL,
        ..TimingConfig::trips()
    };
    let lowered = LoweredProgram::lower(&compiled.function);
    let timing_digest = match simulate_timing_lowered(&lowered, train, &[], &timing_cfg) {
        Ok(t) => {
            let (ret, mem) = t.digest();
            fxh(&[
                t.cycles,
                t.mispredictions,
                t.insts_executed,
                func_digest_hash(&(ret, mem)),
            ])
        }
        Err(e) => fxh_str(&format!("timing-error:{e}")),
    };

    let shape = shape_class(f, &profile);
    let winner = match run_tournament(f, &profile, train, &[], &TournamentConfig::default()) {
        Ok(t) => t.label,
        Err(_) => "-".to_string(),
    };

    let outcome = outcome_key(&compiled.stats);
    Ok(Measurement {
        measured: Measured {
            mtup: compiled.stats.mtup(),
            winner,
            func_digest,
            timing_digest,
            shape,
            cell: combined_cell(outcome, shape, diverged),
        },
        diverged,
        stats: compiled.stats,
    })
}

/// The cheap keep-predicate core used while *shrinking* an admitted
/// candidate: verifies, trains, compiles, and returns the `(outcome key,
/// shape)` pair plus the baseline dynamic block count — no oracle, timing,
/// or tournament. The reducer preserves the coverage cell's structural
/// half; the survivor is then re-measured in full for its manifest.
///
/// `fuel` caps the training run. A function that completes within the cap
/// produces the identical profile (and therefore cell) it would at any
/// larger cap, so reduction probes can run with fuel near the candidate's
/// own baseline: a probe whose deletion un-bounds a loop fails fast and is
/// simply kept, which is conservative but sound.
pub fn cheap_cell_fueled(
    f: &Function,
    train: &[i64],
    profile_mut: Option<u64>,
    fuel: u64,
) -> Option<(u64, u64, u64)> {
    verify_full(f).ok()?;
    let run_cfg = RunConfig {
        max_blocks: fuel,
        check_uninit: false,
        collect_trip_counts: true,
    };
    let baseline = run(f, train, &[], &run_cfg).ok()?;
    let blocks = baseline.blocks_executed;
    let mut profile = baseline.profile;
    if let Some(seed) = profile_mut {
        mutate::perturb_profile(&mut profile, &mut SplitMix64::new(seed));
    }
    let compiled = try_compile(f, &profile, &CompileConfig::convergent()).ok()?;
    Some((
        outcome_key(&compiled.stats),
        shape_class(f, &profile),
        blocks,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chf_ir::testgen::{generate, GenConfig};

    #[test]
    fn measurement_is_deterministic() {
        let f = generate(7, &GenConfig::default());
        let a = measure(&f, &[3, -2], None).unwrap();
        let b = measure(&f, &[3, -2], None).unwrap();
        assert_eq!(a.measured, b.measured);
        assert_eq!(a.diverged, b.diverged);
        assert!(!a.diverged, "formation must not miscompile seed 7");
        assert_eq!(a.measured.mtup, a.stats.mtup());
    }

    #[test]
    fn profile_perturbation_is_recorded_and_deterministic() {
        let f = generate(11, &GenConfig::default());
        let plain = measure(&f, &[5, 1], None).unwrap();
        let warped = measure(&f, &[5, 1], Some(99)).unwrap();
        let warped2 = measure(&f, &[5, 1], Some(99)).unwrap();
        assert_eq!(warped.measured, warped2.measured);
        // A scrambled profile may legitimately change formation, but must
        // never change observable behaviour.
        assert!(!warped.diverged);
        let _ = plain;
    }

    #[test]
    fn rejected_input_classifies_as_rejected() {
        let mut f = generate(3, &GenConfig::default());
        let entry = f.entry;
        // Dangling edge: retarget the first exit at a nonexistent block.
        let bogus = chf_ir::ids::BlockId(9_999);
        f.block_mut(entry).exits[0].target = chf_ir::block::ExitTarget::Block(bogus);
        match measure(&f, &[1, 2], None) {
            Err(MeasureError::Rejected(_)) => {}
            other => panic!("expected Rejected, got {other:?}"),
        }
    }

    #[test]
    fn outcome_key_buckets_saturate() {
        let mut s = FormationStats {
            merges: 10,
            tail_dups: 1,
            ..FormationStats::default()
        };
        assert_eq!(outcome_key(&s), 3 | (1 << 2));
        s.skipped = 2;
        assert_eq!(outcome_key(&s), 3 | (1 << 2) | (1 << 8));
    }

    #[test]
    fn cheap_cell_matches_full_measurement() {
        let f = generate(19, &GenConfig::default());
        let full = measure(&f, &[2, 2], None).unwrap();
        let (outcome, shape, _) = cheap_cell_fueled(&f, &[2, 2], None, MEASURE_FUEL).unwrap();
        assert_eq!(shape, full.measured.shape);
        assert_eq!(
            combined_cell(outcome, shape, full.diverged),
            full.measured.cell
        );
    }
}

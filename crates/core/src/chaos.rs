//! Deterministic, seeded fault injection for the formation pipeline.
//!
//! The crash-safety claim of this crate — a mid-trial verifier violation is
//! *contained* (rolled back + skipped), never a process abort — is only as
//! good as its test pressure. This module supplies that pressure: a
//! registry of fault kinds covering the IR corruptions CFG surgery is prone
//! to (dangling exits, predicated default exits, out-of-range registers)
//! and the profile corruptions adversarial training data can produce
//! (zeroed or overflowed trip counts, truncated edge profiles), an
//! [`inject`] entry point that applies one deterministically, and a
//! [`campaign`] driver that generates random programs, injects faults, runs
//! full formation under the differential oracle, and classifies every fault
//! as **detected** (verifier refused the input), **rolled back** (the
//! mid-trial net fired), or **survived** (formation produced a correct
//! function anyway). Any process abort or undetected miscompile fails the
//! campaign.
//!
//! Everything is seeded: `CHF_FAULT_SEED` (see [`seed_from_env`]) pins the
//! whole campaign, so a failure reported by CI is replayable locally with
//! one environment variable.

use crate::convergent::{form_hyperblocks_with_profile, FormationConfig, SeedOrder};
use crate::oracle::{self, OracleConfig};
use crate::policy::{BreadthFirst, HotFirst, Policy};
use chf_ir::block::{Exit, ExitTarget};
use chf_ir::function::Function;
use chf_ir::ids::{BlockId, Reg};
use chf_ir::instr::Pred;
use chf_ir::profile::ProfileData;
use chf_ir::testgen::{generate, GenConfig};
use chf_sim::functional::profile_run;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// SplitMix64 — the same tiny, high-quality generator testgen uses. Kept
/// private to this crate so fault sequences are stable regardless of what
/// the rest of the workspace does with its RNGs.
#[derive(Clone, Debug)]
pub struct ChaosRng(u64);

impl ChaosRng {
    /// A generator whose entire output is determined by `seed`.
    pub fn new(seed: u64) -> Self {
        ChaosRng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish value in `0..n` (`n > 0`).
    pub fn next_range(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// When and from what seed the mid-trial injection point in
/// [`crate::convergent`] fires: roughly one fault per `period` merge
/// trials, drawn from the `seed`ed stream.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ChaosSpec {
    /// Seed of the fault stream.
    pub seed: u64,
    /// Average trials between injected faults (`0` is treated as `1`).
    pub period: u32,
}

/// The registry of injectable faults.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// An exit is retargeted at a block id that was never created —
    /// detectable by `verify` as a dangling edge.
    DanglingExit,
    /// The final (default) exit of a block gains a predicate, so the exit
    /// set is no longer total — detectable as `NoDefaultExit`.
    PredicatedDefault,
    /// An exit predicate references a register beyond the allocated
    /// register space — detectable as `RegisterOutOfRange`.
    RegisterOutOfRange,
    /// A loop's trip-count histogram is zeroed out; formation must survive
    /// a profile that claims the loop never ran.
    ZeroTripCount,
    /// A trip-count histogram entry is pushed to `u64::MAX`; the
    /// histogram's saturating arithmetic must absorb it.
    OverflowedTripCount,
    /// Half the edge-profile entries vanish, as from a truncated profile
    /// file; formation sees zero counts on real edges and must cope.
    TruncatedEdgeProfile,
    /// The edge and block counts are rotated among entries and scaled to
    /// extremes — exactly the signals the profile-guided ordering (the
    /// hot-first policy and hot seed order) consumes. The campaign runs
    /// this kind under the hot-first policy: a scrambled profile may
    /// mis-prioritize formation but must never miscompile.
    ScrambledEdgeProfile,
    /// No up-front corruption: the trial-window injection point inside
    /// `merge_blocks` corrupts the merged block *mid-formation*, which the
    /// verify-and-rollback net must contain.
    MidTrial,
}

impl FaultKind {
    /// Position of this kind in [`FaultKind::ALL`], for per-kind tallies.
    pub fn index(self) -> usize {
        FaultKind::ALL
            .iter()
            .position(|k| *k == self)
            .expect("every kind is in ALL")
    }

    /// Every member of the registry, for seeded selection and reporting.
    pub const ALL: [FaultKind; 8] = [
        FaultKind::DanglingExit,
        FaultKind::PredicatedDefault,
        FaultKind::RegisterOutOfRange,
        FaultKind::ZeroTripCount,
        FaultKind::OverflowedTripCount,
        FaultKind::TruncatedEdgeProfile,
        FaultKind::ScrambledEdgeProfile,
        FaultKind::MidTrial,
    ];
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultKind::DanglingExit => "dangling-exit",
            FaultKind::PredicatedDefault => "predicated-default",
            FaultKind::RegisterOutOfRange => "register-out-of-range",
            FaultKind::ZeroTripCount => "zero-trip-count",
            FaultKind::OverflowedTripCount => "overflowed-trip-count",
            FaultKind::TruncatedEdgeProfile => "truncated-edge-profile",
            FaultKind::ScrambledEdgeProfile => "scrambled-edge-profile",
            FaultKind::MidTrial => "mid-trial",
        };
        f.write_str(s)
    }
}

/// A block id guaranteed not to exist in `f`.
fn dangling_target(f: &Function) -> BlockId {
    let max = f.block_ids().map(|b| b.0).max().unwrap_or(0);
    BlockId(max + 1000)
}

/// Pick a live block of `f` deterministically.
fn pick_block(f: &Function, rng: &mut ChaosRng) -> BlockId {
    let ids: Vec<BlockId> = f.block_ids().collect();
    ids[rng.next_range(ids.len() as u64) as usize]
}

/// Apply `kind` to the function/profile pair. [`FaultKind::MidTrial`] is a
/// no-op here — it is armed through [`FormationConfig::chaos`] instead.
pub fn inject(f: &mut Function, profile: &mut ProfileData, kind: FaultKind, rng: &mut ChaosRng) {
    match kind {
        FaultKind::DanglingExit => {
            let target = dangling_target(f);
            let b = pick_block(f, rng);
            let blk = f.block_mut(b);
            let i = rng.next_range(blk.exits.len() as u64) as usize;
            blk.exits[i].target = ExitTarget::Block(target);
        }
        FaultKind::PredicatedDefault => {
            let b = pick_block(f, rng);
            let blk = f.block_mut(b);
            if let Some(last) = blk.exits.last_mut() {
                last.pred = Some(Pred {
                    reg: Reg(0),
                    if_true: true,
                });
            }
        }
        FaultKind::RegisterOutOfRange => {
            let bogus = Reg(f.reg_count() + 100);
            let b = pick_block(f, rng);
            let blk = f.block_mut(b);
            blk.exits.insert(
                0,
                Exit {
                    pred: Some(Pred {
                        reg: bogus,
                        if_true: true,
                    }),
                    target: ExitTarget::Return(None),
                    count: 0.0,
                },
            );
        }
        FaultKind::ZeroTripCount => {
            for h in profile.trip_histograms.values_mut() {
                for n in h.counts.values_mut() {
                    *n = 0;
                }
            }
        }
        FaultKind::OverflowedTripCount => {
            let b = pick_block(f, rng);
            let h = profile.trip_histograms.entry(b).or_default();
            h.counts.insert(u64::MAX, u64::MAX);
            h.counts.insert(u64::MAX - 1, u64::MAX);
        }
        FaultKind::TruncatedEdgeProfile => {
            // Drop roughly half the edge counts, keyed on the seeded stream
            // so the truncation pattern is reproducible.
            let keep = rng.next_u64();
            let mut i = 0u64;
            profile.exit_counts.retain(|_, _| {
                i = i.wrapping_add(1);
                (keep >> (i % 64)) & 1 == 0
            });
        }
        FaultKind::ScrambledEdgeProfile => {
            // Rotate the edge counts among entries (sorted keys, so the
            // permutation is seed-stable) and scale each to an extreme,
            // then push block counts to 0 or `u64::MAX`. The IR stays
            // valid; only the ordering signals are garbage.
            let mut keys: Vec<(BlockId, usize)> = profile.exit_counts.keys().copied().collect();
            keys.sort_unstable();
            if !keys.is_empty() {
                let mut vals: Vec<u64> = keys.iter().map(|k| profile.exit_counts[k]).collect();
                let rot = rng.next_range(vals.len() as u64) as usize;
                vals.rotate_left(rot);
                for (k, v) in keys.iter().zip(vals) {
                    let scale = 1 + rng.next_range(1_000_000);
                    profile.exit_counts.insert(*k, v.saturating_mul(scale));
                }
            }
            for n in profile.block_counts.values_mut() {
                *n = if rng.next_range(2) == 0 { 0 } else { u64::MAX };
            }
        }
        FaultKind::MidTrial => {}
    }
}

/// Corrupt the merged block `hb` *inside* a merge-trial window — the
/// callback armed by [`FormationConfig::chaos`]. Every corruption mutates
/// only `hb` (which the trial snapshot covers, so rollback stays exact) and
/// is guaranteed detectable by the plain structural verifier.
pub fn corrupt_trial_block(f: &mut Function, hb: BlockId, rng: &mut ChaosRng) {
    let choice = rng.next_range(4);
    let target = dangling_target(f);
    let blk = f.block_mut(hb);
    match choice {
        0 => {
            // Dangling edge.
            let i = rng.next_range(blk.exits.len().max(1) as u64) as usize;
            if let Some(e) = blk.exits.get_mut(i) {
                e.target = ExitTarget::Block(target);
            }
        }
        1 => {
            // Non-total exit set.
            if let Some(last) = blk.exits.last_mut() {
                last.pred = Some(Pred {
                    reg: Reg(0),
                    if_true: true,
                });
            }
        }
        2 => {
            // No exits at all.
            blk.exits.clear();
        }
        _ => {
            // Out-of-range predicate register.
            let bogus = Reg(u32::MAX - 7);
            blk.exits.insert(
                0,
                Exit {
                    pred: Some(Pred {
                        reg: bogus,
                        if_true: true,
                    }),
                    target: ExitTarget::Return(None),
                    count: 0.0,
                },
            );
        }
    }
}

/// The campaign seed from `CHF_FAULT_SEED`, if set and parseable.
pub fn seed_from_env() -> Option<u64> {
    std::env::var("CHF_FAULT_SEED").ok()?.trim().parse().ok()
}

/// How one injected fault was handled.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultOutcome {
    /// The verifier refused the corrupted input up front.
    Detected,
    /// Formation ran; at least one trial was contained by the
    /// verify-and-rollback net (or the oracle undid a commit).
    RolledBack,
    /// Formation ran to completion and the output matched the input
    /// behaviourally.
    Survived,
    /// Formation completed but the output diverges — an undetected
    /// miscompile. Campaign failure.
    Miscompiled,
}

/// Outcome counts for one [`FaultKind`] within a campaign.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct KindTally {
    /// Faults of this kind injected.
    pub injected: usize,
    /// Refused by the verifier up front.
    pub detected: usize,
    /// Contained mid-formation by rollback.
    pub rolled_back: usize,
    /// Output correct despite the fault.
    pub survived: usize,
    /// Panics that escaped to the isolation boundary. Must be 0.
    pub aborts: usize,
    /// Undetected behaviour changes. Must be 0.
    pub miscompiles: usize,
}

/// Aggregate result of a [`campaign`] run.
#[derive(Clone, Debug, Default)]
pub struct CampaignReport {
    /// Faults injected.
    pub total: usize,
    /// Faults refused by the verifier before formation started.
    pub detected: usize,
    /// Faults contained mid-formation by rollback.
    pub rolled_back: usize,
    /// Faults formation simply survived (output still correct).
    pub survived: usize,
    /// Process-level panics caught by the per-fault isolation. Must be 0.
    pub aborts: usize,
    /// Undetected behaviour changes. Must be 0.
    pub miscompiles: usize,
    /// Per-kind breakdown, indexed like [`FaultKind::ALL`]. An abort that
    /// escaped before its fault kind was drawn is counted only in
    /// [`CampaignReport::aborts`].
    pub by_kind: Vec<KindTally>,
    /// Reproducers written by the oracle's reducer.
    pub repros: Vec<PathBuf>,
}

impl CampaignReport {
    /// Every nonzero `(fault kind, outcome label, count)` classification
    /// cell, in registry order — the export the trace-corpus coverage map
    /// consumes. Labels are stable (`detected`, `rolled-back`, `survived`,
    /// `abort`, `miscompile`); a `(kind, label)` pair is one coverage cell,
    /// the count is informational.
    pub fn classification_cells(&self) -> Vec<(FaultKind, &'static str, usize)> {
        let mut cells = Vec::new();
        for (kind, t) in FaultKind::ALL.iter().zip(&self.by_kind) {
            for (label, n) in [
                ("detected", t.detected),
                ("rolled-back", t.rolled_back),
                ("survived", t.survived),
                ("abort", t.aborts),
                ("miscompile", t.miscompiles),
            ] {
                if n > 0 {
                    cells.push((*kind, label, n));
                }
            }
        }
        cells
    }

    /// The campaign's pass criterion: no aborts, no undetected miscompiles,
    /// and every fault accounted for.
    pub fn ok(&self) -> bool {
        self.aborts == 0
            && self.miscompiles == 0
            && self.detected + self.rolled_back + self.survived == self.total
    }

    /// One-line machine-readable summary, for CI consumption (stable keys,
    /// no trailing newline). Kinds that were never injected are omitted.
    pub fn json(&self) -> String {
        use std::fmt::Write;
        let mut kinds = String::new();
        for (kind, t) in FaultKind::ALL.iter().zip(&self.by_kind) {
            if t.injected == 0 {
                continue;
            }
            if !kinds.is_empty() {
                kinds.push(',');
            }
            let _ = write!(
                kinds,
                "\"{kind}\":{{\"injected\":{},\"detected\":{},\"rolled_back\":{},\
                 \"survived\":{},\"aborts\":{},\"miscompiles\":{}}}",
                t.injected, t.detected, t.rolled_back, t.survived, t.aborts, t.miscompiles
            );
        }
        format!(
            "{{\"campaign\":\"formation\",\"faults\":{},\"detected\":{},\
             \"rolled_back\":{},\"survived\":{},\"contained\":{},\"aborts\":{},\
             \"miscompiles\":{},\"repros\":{},\"ok\":{},\"by_kind\":{{{kinds}}}}}",
            self.total,
            self.detected,
            self.rolled_back,
            self.survived,
            self.detected + self.rolled_back + self.survived,
            self.aborts,
            self.miscompiles,
            self.repros.len(),
            self.ok()
        )
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} faults: {} detected, {} rolled back, {} survived, {} aborts, {} miscompiles",
            self.total,
            self.detected,
            self.rolled_back,
            self.survived,
            self.aborts,
            self.miscompiles
        )
    }
}

/// Run one seeded fault end to end; `None` means the fault escaped as a
/// panic (counted as an abort by the caller). The drawn fault kind is
/// published through `kind_out` as soon as it is known, so even an abort
/// can be attributed in the per-kind tallies.
fn run_one_fault(
    fault_seed: u64,
    repro_dir: Option<&PathBuf>,
    kind_out: &std::cell::Cell<Option<FaultKind>>,
) -> Option<(FaultOutcome, Vec<PathBuf>)> {
    let dir = repro_dir.cloned();
    catch_unwind(AssertUnwindSafe(move || {
        let mut rng = ChaosRng::new(fault_seed);
        let prog_seed = rng.next_u64();
        let mut f = generate(prog_seed, &GenConfig::default());
        let train: Vec<i64> = (0..f.params)
            .map(|_| rng.next_range(24) as i64 - 4)
            .collect();
        let mut profile = profile_run(&f, &train, &[]).unwrap_or_default();

        let kind = FaultKind::ALL[rng.next_range(FaultKind::ALL.len() as u64) as usize];
        kind_out.set(Some(kind));
        let oracle_cfg = OracleConfig {
            seed: fault_seed,
            inputs: 3,
            max_blocks: 500_000,
            repro_dir: dir,
        };
        let mut config = FormationConfig {
            verify_trials: true,
            oracle: Some(oracle_cfg.clone()),
            ..FormationConfig::default()
        };
        if kind == FaultKind::MidTrial {
            config.chaos = Some(ChaosSpec {
                seed: fault_seed,
                period: 2,
            });
        } else {
            inject(&mut f, &mut profile, kind, &mut rng);
        }
        // Scrambled ordering inputs are only interesting to the policy
        // that consumes them: run that kind under the profile-guided
        // hot-first policy and seed order, breadth-first otherwise.
        let mut policy: Box<dyn Policy> = if kind == FaultKind::ScrambledEdgeProfile {
            config.seed_order = SeedOrder::HotFirst;
            Box::new(HotFirst)
        } else {
            Box::new(BreadthFirst)
        };

        // Gate 1: the full verifier. IR corruptions must be refused here —
        // a compiler front end is entitled to reject garbage outright.
        if chf_ir::verify::verify_full(&f).is_err() {
            return (FaultOutcome::Detected, Vec::new());
        }

        // Gate 2: formation under the safety net.
        profile.apply(&mut f);
        let orig = f.clone();
        let stats = form_hyperblocks_with_profile(&mut f, policy.as_mut(), &config, Some(&profile));

        // Gate 3: whole-pipeline differential check.
        let repros: Vec<PathBuf> = Vec::new();
        if oracle::first_mismatch(&orig, &f, &oracle_cfg).is_some() {
            return (FaultOutcome::Miscompiled, repros);
        }
        if stats.skipped > 0 {
            (FaultOutcome::RolledBack, repros)
        } else {
            (FaultOutcome::Survived, repros)
        }
    }))
    .ok()
}

/// Run a seeded campaign of `faults` injections. Each fault is isolated in
/// its own `catch_unwind` scope so a single escape cannot kill the
/// campaign; escapes are tallied as aborts (which fail [`CampaignReport::ok`]).
pub fn campaign(seed: u64, faults: usize, repro_dir: Option<PathBuf>) -> CampaignReport {
    let mut master = ChaosRng::new(seed);
    let mut report = CampaignReport {
        total: faults,
        by_kind: vec![KindTally::default(); FaultKind::ALL.len()],
        ..CampaignReport::default()
    };
    for _ in 0..faults {
        let fault_seed = master.next_u64();
        let kind_cell = std::cell::Cell::new(None);
        let result = run_one_fault(fault_seed, repro_dir.as_ref(), &kind_cell);
        let tally = kind_cell.get().map(|k| k.index());
        if let Some(i) = tally {
            report.by_kind[i].injected += 1;
        }
        match result {
            Some((outcome, mut repros)) => {
                match outcome {
                    FaultOutcome::Detected => report.detected += 1,
                    FaultOutcome::RolledBack => report.rolled_back += 1,
                    FaultOutcome::Survived => report.survived += 1,
                    FaultOutcome::Miscompiled => report.miscompiles += 1,
                }
                if let Some(i) = tally {
                    let t = &mut report.by_kind[i];
                    match outcome {
                        FaultOutcome::Detected => t.detected += 1,
                        FaultOutcome::RolledBack => t.rolled_back += 1,
                        FaultOutcome::Survived => t.survived += 1,
                        FaultOutcome::Miscompiled => t.miscompiles += 1,
                    }
                }
                report.repros.append(&mut repros);
            }
            None => {
                report.aborts += 1;
                if let Some(i) = tally {
                    report.by_kind[i].aborts += 1;
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = ChaosRng::new(42);
        let mut b = ChaosRng::new(42);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ir_faults_are_verifier_detectable() {
        for kind in [
            FaultKind::DanglingExit,
            FaultKind::PredicatedDefault,
            FaultKind::RegisterOutOfRange,
        ] {
            for seed in 0..8 {
                let mut rng = ChaosRng::new(seed);
                let mut f = generate(seed, &GenConfig::default());
                let mut p = ProfileData::default();
                inject(&mut f, &mut p, kind, &mut rng);
                assert!(
                    chf_ir::verify::verify(&f).is_err(),
                    "{kind} on seed {seed} must be detected"
                );
            }
        }
    }

    #[test]
    fn profile_faults_leave_ir_valid() {
        for kind in [
            FaultKind::ZeroTripCount,
            FaultKind::OverflowedTripCount,
            FaultKind::TruncatedEdgeProfile,
            FaultKind::ScrambledEdgeProfile,
        ] {
            let mut rng = ChaosRng::new(9);
            let mut f = generate(9, &GenConfig::default());
            let mut p = profile_run(&f, &[3, 7], &[]).unwrap();
            inject(&mut f, &mut p, kind, &mut rng);
            chf_ir::verify::verify_full(&f).unwrap();
        }
    }

    #[test]
    fn trial_corruptions_are_always_detected() {
        for seed in 0..32 {
            let mut rng = ChaosRng::new(seed);
            let mut f = generate(seed % 5, &GenConfig::default());
            let hb = f.entry;
            corrupt_trial_block(&mut f, hb, &mut rng);
            assert!(
                chf_ir::verify::verify(&f).is_err(),
                "trial corruption under seed {seed} escaped the verifier:\n{f}"
            );
        }
    }

    #[test]
    fn small_campaign_is_clean_and_deterministic() {
        let a = campaign(0xC4A5, 40, None);
        assert!(a.ok(), "campaign failed: {a}");
        let b = campaign(0xC4A5, 40, None);
        assert_eq!(
            (a.detected, a.rolled_back, a.survived),
            (b.detected, b.rolled_back, b.survived),
            "campaign must be seed-deterministic"
        );
        assert_eq!(a.by_kind, b.by_kind, "per-kind tallies must be stable");
    }

    #[test]
    fn per_kind_tallies_account_for_every_fault() {
        let r = campaign(7, 60, None);
        let attributed: usize = r.by_kind.iter().map(|t| t.injected).sum();
        // Every fault that got far enough to draw a kind is attributed;
        // only a pre-draw abort could fall outside (and this campaign has
        // no aborts at all).
        assert_eq!(attributed + r.aborts, r.total);
        let outcomes: usize = r
            .by_kind
            .iter()
            .map(|t| t.detected + t.rolled_back + t.survived + t.aborts + t.miscompiles)
            .sum();
        assert_eq!(outcomes, attributed);
        let cells = r.classification_cells();
        assert!(!cells.is_empty());
        let cell_total: usize = cells.iter().map(|(_, _, n)| n).sum();
        assert_eq!(cell_total, outcomes, "cells must cover every outcome");
        let j = r.json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"ok\":true"), "{j}");
        assert!(j.contains("\"by_kind\""), "{j}");
        assert!(!j.contains('\n'));
    }

    #[test]
    fn seed_env_parses() {
        // Only exercises the parser, not the environment (std::env is
        // process-global; tests must not set vars).
        assert_eq!("123".trim().parse::<u64>().ok(), Some(123));
    }
}

//! Deterministic, seeded fault injection and the one campaign engine that
//! drives it.
//!
//! The crash-safety claim of this crate — a mid-trial verifier violation is
//! *contained* (rolled back + skipped), never a process abort — is only as
//! good as its test pressure. This module supplies that pressure: a
//! registry of fault kinds covering the IR corruptions CFG surgery is prone
//! to (dangling exits, predicated default exits, out-of-range registers)
//! and the profile corruptions adversarial training data can produce
//! (zeroed or overflowed trip counts, truncated edge profiles), an
//! [`inject`] entry point that applies one deterministically, and a
//! campaign engine ([`run_campaign`]) that runs seeded faults against a
//! [`Target`] and classifies every one as **detected** (a checking layer
//! refused it), **rolled back** (a recovery mechanism contained it), or
//! **survived** (the output is correct anyway). Any abort, undetected
//! miscompile or hung request fails the campaign.
//!
//! Two targets plug into the engine: [`FormationTarget`] here (formation
//! in process, under the differential oracle) and the live compile service
//! in `chf-service`. Everything is seeded: `CHF_FAULT_SEED` (see
//! [`seed_from_env`]) pins the whole campaign, so a failure reported by CI
//! is replayable locally with one environment variable.

use crate::convergent::{form_hyperblocks_with_profile, FormationConfig, SeedOrder};
use crate::oracle::{self, OracleConfig};
use crate::policy::{BreadthFirst, HotFirst, Policy};
use chf_ir::block::{Exit, ExitTarget};
use chf_ir::function::Function;
use chf_ir::ids::{BlockId, Reg};
use chf_ir::instr::Pred;
use chf_ir::profile::ProfileData;
use chf_ir::testgen::{generate, GenConfig, SplitMix64};
use chf_sim::functional::profile_run;
use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

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
fn pick_block(f: &Function, rng: &mut SplitMix64) -> BlockId {
    let ids: Vec<BlockId> = f.block_ids().collect();
    ids[rng.below(ids.len() as u64) as usize]
}

/// Apply `kind` to the function/profile pair. [`FaultKind::MidTrial`] is a
/// no-op here — it is armed through [`FormationConfig::chaos`] instead.
pub fn inject(f: &mut Function, profile: &mut ProfileData, kind: FaultKind, rng: &mut SplitMix64) {
    match kind {
        FaultKind::DanglingExit => {
            let target = dangling_target(f);
            let b = pick_block(f, rng);
            let blk = f.block_mut(b);
            let i = rng.below(blk.exits.len() as u64) as usize;
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
            let keep = rng.next();
            let mut i = 0u64;
            profile.exit_counts.retain(|_, _| {
                i = i.wrapping_add(1);
                (keep >> (i % 64)) & 1 == 0
            });
        }
        FaultKind::ScrambledEdgeProfile => {
            // Rotate the edge counts among entries (in key order, so the
            // permutation is seed-stable) and scale each to an extreme,
            // then push block counts to 0 or `u64::MAX`. The IR stays
            // valid; only the ordering signals are garbage.
            let keys: Vec<(BlockId, usize)> = profile.exit_counts.keys().copied().collect();
            if !keys.is_empty() {
                let mut vals: Vec<u64> = keys.iter().map(|k| profile.exit_counts[k]).collect();
                let rot = rng.below(vals.len() as u64) as usize;
                vals.rotate_left(rot);
                for (k, v) in keys.iter().zip(vals) {
                    let scale = 1 + rng.below(1_000_000);
                    profile.exit_counts.insert(*k, v.saturating_mul(scale));
                }
            }
            for n in profile.block_counts.values_mut() {
                *n = if rng.below(2) == 0 { 0 } else { u64::MAX };
            }
        }
        FaultKind::MidTrial => {}
    }
}

/// Corrupt the merged block `hb` *inside* a merge-trial window — the
/// callback armed by [`FormationConfig::chaos`]. Every corruption mutates
/// only `hb` (which the trial snapshot covers, so rollback stays exact) and
/// is guaranteed detectable by the plain structural verifier.
pub fn corrupt_trial_block(f: &mut Function, hb: BlockId, rng: &mut SplitMix64) {
    let choice = rng.below(4);
    let target = dangling_target(f);
    let blk = f.block_mut(hb);
    match choice {
        0 => {
            // Dangling edge.
            let i = rng.below(blk.exits.len().max(1) as u64) as usize;
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

/// Parse a `CHF_FAULT_SEED` value: a decimal `u64`, surrounding whitespace
/// allowed.
fn parse_seed(value: &str) -> Result<u64, String> {
    value
        .trim()
        .parse()
        .map_err(|_| format!("CHF_FAULT_SEED={value:?} is not a decimal u64"))
}

/// The campaign seed from `CHF_FAULT_SEED`: `Ok(None)` when unset, an error
/// when set but unparseable — a mistyped replay seed must not silently run
/// a different fault stream.
pub fn seed_from_env() -> Result<Option<u64>, String> {
    match std::env::var("CHF_FAULT_SEED") {
        Ok(v) => parse_seed(&v).map(Some),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(e) => Err(format!("CHF_FAULT_SEED: {e}")),
    }
}

/// How one injected fault resolved. A panic that escapes the target is not
/// an outcome: the engine counts it as an abort.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// A checking layer (the verifier, cache revalidation) refused the
    /// fault up front.
    Detected,
    /// A recovery mechanism (mid-trial rollback, worker-panic retry)
    /// contained the fault and the output is still correct.
    RolledBack,
    /// The fault needed no defence; the output is correct.
    Survived,
    /// A wrong answer escaped — behaviour divergence, a corrupt cache entry
    /// served, or an unexpected terminal state. Campaign failure.
    Miscompiled,
    /// A request never reached a terminal state. Campaign failure.
    Hung,
}

/// Outcome counts for one kind within a campaign (or, summed, for all).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Faults of this kind injected.
    pub injected: usize,
    /// Refused by a checking layer.
    pub detected: usize,
    /// Contained by a recovery mechanism.
    pub rolled_back: usize,
    /// No defence needed; output correct.
    pub survived: usize,
    /// Panics that escaped to the engine's isolation. Must be 0.
    pub aborts: usize,
    /// Wrong answers escaped. Must be 0.
    pub miscompiles: usize,
    /// Requests that never terminated. Must be 0.
    pub hung: usize,
}

impl Tally {
    /// Count one fault; `None` is an abort.
    fn record(&mut self, outcome: Option<Outcome>) {
        self.injected += 1;
        match outcome {
            Some(Outcome::Detected) => self.detected += 1,
            Some(Outcome::RolledBack) => self.rolled_back += 1,
            Some(Outcome::Survived) => self.survived += 1,
            Some(Outcome::Miscompiled) => self.miscompiles += 1,
            Some(Outcome::Hung) => self.hung += 1,
            None => self.aborts += 1,
        }
    }

    /// Faults accounted for as detected, rolled back or survived.
    fn contained(&self) -> usize {
        self.detected + self.rolled_back + self.survived
    }
}

/// Something a campaign injects faults into.
pub trait Target: Sync {
    /// The campaign label in the JSON summary.
    fn name(&self) -> &'static str;

    /// Labels of the rows this target reports, indexed like the kind index
    /// [`Target::run_fault`] publishes.
    fn kinds(&self) -> Vec<String>;

    /// Run the fault drawn from `fault_seed` end to end. The target
    /// publishes the index of its kind through `kind` as soon as it is
    /// drawn, so a panic after that point is charged to the right row.
    fn run_fault(&self, fault_seed: u64, kind: &Cell<Option<usize>>) -> Outcome;

    /// The target's own health counters after the campaign, as a JSON
    /// object embedded in the summary under `"stats"`.
    fn stats_json(&self) -> Option<String> {
        None
    }

    /// Whether the target's own accounting closed (every request it took
    /// in reached a terminal state).
    fn accounting_closed(&self) -> bool {
        true
    }
}

/// The result of one [`run_campaign`]: one row per target kind, every
/// total summed from the rows.
#[derive(Clone, Debug, Default)]
pub struct CampaignReport {
    /// The target's campaign label.
    pub campaign: &'static str,
    /// Faults run.
    pub total: usize,
    /// Row labels, from [`Target::kinds`].
    pub kinds: Vec<String>,
    /// Per-kind rows, indexed like `kinds`.
    pub by_kind: Vec<Tally>,
    /// Aborts that escaped before the target published a kind; counted
    /// only in the totals.
    pub unattributed_aborts: usize,
    /// [`Target::stats_json`] at campaign end.
    pub stats: Option<String>,
    /// [`Target::accounting_closed`] at campaign end.
    pub accounting_closed: bool,
}

impl CampaignReport {
    /// Column sums over every row, plus the unattributed aborts.
    pub fn totals(&self) -> Tally {
        let mut t = Tally {
            injected: self.unattributed_aborts,
            aborts: self.unattributed_aborts,
            ..Tally::default()
        };
        for r in &self.by_kind {
            t.injected += r.injected;
            t.detected += r.detected;
            t.rolled_back += r.rolled_back;
            t.survived += r.survived;
            t.aborts += r.aborts;
            t.miscompiles += r.miscompiles;
            t.hung += r.hung;
        }
        t
    }

    /// The pass criterion: no aborts, miscompiles or hung requests, every
    /// fault accounted for, and the target's accounting closed.
    pub fn ok(&self) -> bool {
        let t = self.totals();
        t.aborts == 0
            && t.miscompiles == 0
            && t.hung == 0
            && t.contained() == self.total
            && self.accounting_closed
    }

    /// One-line machine-readable summary for CI (stable keys, no trailing
    /// newline). Rows with nothing injected are omitted.
    pub fn json(&self) -> String {
        use std::fmt::Write;
        let mut kinds = String::new();
        for (kind, r) in self.kinds.iter().zip(&self.by_kind) {
            if r.injected == 0 {
                continue;
            }
            if !kinds.is_empty() {
                kinds.push(',');
            }
            let _ = write!(
                kinds,
                "\"{kind}\":{{\"injected\":{},\"detected\":{},\"rolled_back\":{},\
                 \"survived\":{},\"aborts\":{},\"miscompiles\":{},\"hung\":{}}}",
                r.injected, r.detected, r.rolled_back, r.survived, r.aborts, r.miscompiles, r.hung
            );
        }
        let t = self.totals();
        let stats = self
            .stats
            .as_ref()
            .map(|s| format!(",\"stats\":{s}"))
            .unwrap_or_default();
        format!(
            "{{\"campaign\":\"{}\",\"faults\":{},\"detected\":{},\"rolled_back\":{},\
             \"survived\":{},\"contained\":{},\"aborts\":{},\"miscompiles\":{},\"hung\":{},\
             \"ok\":{},\"by_kind\":{{{kinds}}}{stats}}}",
            self.campaign,
            self.total,
            t.detected,
            t.rolled_back,
            t.survived,
            t.contained(),
            t.aborts,
            t.miscompiles,
            t.hung,
            self.ok()
        )
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.totals();
        write!(
            f,
            "{} faults: {} detected, {} rolled back, {} survived, {} aborts, \
             {} miscompiles, {} hung",
            self.total, t.detected, t.rolled_back, t.survived, t.aborts, t.miscompiles, t.hung
        )
    }
}

/// Run a seeded campaign of `faults` injections against `target`. The
/// fault seeds are drawn up front from the master stream and split into
/// contiguous chunks over `clients` scoped threads; each fault runs in its
/// own `catch_unwind` scope, so an escape is tallied as an abort (which
/// fails [`CampaignReport::ok`]) instead of killing the campaign. Each
/// fault's outcome depends only on its own seed, so the rows are identical
/// at any client count.
pub fn run_campaign(
    seed: u64,
    faults: usize,
    clients: usize,
    target: &dyn Target,
) -> CampaignReport {
    let mut master = SplitMix64::new(seed);
    let seeds: Vec<u64> = (0..faults).map(|_| master.next()).collect();
    let chunk = faults.div_ceil(clients.max(1)).max(1);
    // Per fault: the kind it published (if any) and its outcome (`None`
    // for an abort).
    let results: Vec<Vec<(Option<usize>, Option<Outcome>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = seeds
            .chunks(chunk)
            .map(|chunk_seeds| {
                s.spawn(move || {
                    let run_one = |&fault_seed: &u64| {
                        let kind = Cell::new(None);
                        let result =
                            catch_unwind(AssertUnwindSafe(|| target.run_fault(fault_seed, &kind)));
                        (kind.get(), result.ok())
                    };
                    chunk_seeds.iter().map(run_one).collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("campaign client thread panicked"))
            .collect()
    });
    let kinds = target.kinds();
    let mut report = CampaignReport {
        campaign: target.name(),
        total: faults,
        by_kind: vec![Tally::default(); kinds.len()],
        kinds,
        stats: target.stats_json(),
        accounting_closed: target.accounting_closed(),
        ..CampaignReport::default()
    };
    for (kind, outcome) in results.into_iter().flatten() {
        match kind {
            Some(i) => report.by_kind[i].record(outcome),
            // A fault returns only after publishing its kind, so a missing
            // kind means an early escape.
            None => report.unattributed_aborts += 1,
        }
    }
    report
}

/// The in-process target: each fault generates a random program, injects
/// one [`FaultKind`] (or arms the mid-trial injection point), and runs full
/// formation under the differential oracle. Rows follow [`FaultKind::ALL`].
#[derive(Clone, Debug, Default)]
pub struct FormationTarget {
    /// Where the oracle's reducer writes reproducers, if anywhere.
    pub repro_dir: Option<PathBuf>,
}

impl Target for FormationTarget {
    fn name(&self) -> &'static str {
        "formation"
    }

    fn kinds(&self) -> Vec<String> {
        FaultKind::ALL.iter().map(ToString::to_string).collect()
    }

    fn run_fault(&self, fault_seed: u64, kind_out: &Cell<Option<usize>>) -> Outcome {
        let mut rng = SplitMix64::new(fault_seed);
        let prog_seed = rng.next();
        let mut f = generate(prog_seed, &GenConfig::default());
        let train: Vec<i64> = (0..f.params).map(|_| rng.below(24) as i64 - 4).collect();
        let mut profile = profile_run(&f, &train, &[]).unwrap_or_default();

        let kind = FaultKind::ALL[rng.below(FaultKind::ALL.len() as u64) as usize];
        kind_out.set(Some(kind.index()));
        let oracle_cfg = OracleConfig {
            seed: fault_seed,
            inputs: 3,
            max_blocks: 500_000,
            repro_dir: self.repro_dir.clone(),
        };
        let mut config = FormationConfig {
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
            return Outcome::Detected;
        }

        // Gate 2: formation under the safety net.
        profile.apply(&mut f);
        let orig = f.clone();
        let stats = form_hyperblocks_with_profile(&mut f, policy.as_mut(), &config, Some(&profile));

        // Gate 3: whole-pipeline differential check.
        if oracle::first_mismatch(&orig, &f, &oracle_cfg).is_some() {
            Outcome::Miscompiled
        } else if stats.skipped > 0 {
            Outcome::RolledBack
        } else {
            Outcome::Survived
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ir_faults_are_verifier_detectable() {
        for kind in [
            FaultKind::DanglingExit,
            FaultKind::PredicatedDefault,
            FaultKind::RegisterOutOfRange,
        ] {
            for seed in 0..8 {
                let mut rng = SplitMix64::new(seed);
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
            let mut rng = SplitMix64::new(9);
            let mut f = generate(9, &GenConfig::default());
            let mut p = profile_run(&f, &[3, 7], &[]).unwrap();
            inject(&mut f, &mut p, kind, &mut rng);
            chf_ir::verify::verify_full(&f).unwrap();
        }
    }

    #[test]
    fn profile_faults_build_the_same_profile_from_the_same_seed() {
        // Two profiles built apart must take one fault identically: the
        // injector walks the profile's maps, so their order must not
        // depend on a per-map random seed.
        let f = generate(3, &GenConfig::default());
        for kind in [
            FaultKind::ZeroTripCount,
            FaultKind::OverflowedTripCount,
            FaultKind::TruncatedEdgeProfile,
            FaultKind::ScrambledEdgeProfile,
        ] {
            let faulty = || {
                let mut f = f.clone();
                let mut p = profile_run(&f, &[3, 7], &[]).unwrap();
                inject(&mut f, &mut p, kind, &mut SplitMix64::new(5));
                p
            };
            let (a, b) = (faulty(), faulty());
            assert!(
                a.exit_counts.len() > 8,
                "{kind}: too small a profile to tell"
            );
            assert_eq!(a, b, "{kind}");
        }
    }

    #[test]
    fn trial_corruptions_are_always_detected() {
        for seed in 0..32 {
            let mut rng = SplitMix64::new(seed);
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
    fn changed_only_verification_equals_verify_on_every_trial_corruption() {
        use chf_ir::verify::{verify, verify_changed, VerifyMemo};
        let mut kinds = [false; 4];
        for seed in 0..32 {
            let mut f = generate(seed % 5, &GenConfig::default());
            let mut memo = VerifyMemo::default();
            assert_eq!(verify_changed(&f, &mut memo), Ok(()));
            // `corrupt_trial_block` picks its kind with its first draw.
            kinds[SplitMix64::new(seed).below(4) as usize] = true;
            let hb = pick_block(&f, &mut SplitMix64::new(!seed));
            corrupt_trial_block(&mut f, hb, &mut SplitMix64::new(seed));
            let full = verify(&f);
            assert!(full.is_err(), "seed {seed}");
            assert_eq!(verify_changed(&f, &mut memo), full, "seed {seed}");
        }
        assert_eq!(kinds, [true; 4], "every corruption kind");
    }

    #[test]
    fn formation_campaign_is_clean_and_client_count_invariant() {
        let target = FormationTarget::default();
        let a = run_campaign(0xC4A5, 40, 1, &target);
        assert!(a.ok(), "campaign failed: {a}");
        let b = run_campaign(0xC4A5, 40, 4, &target);
        assert_eq!(a.by_kind, b.by_kind, "rows must not depend on clients");
    }

    #[test]
    fn per_kind_tallies_account_for_every_fault() {
        let r = run_campaign(7, 60, 2, &FormationTarget::default());
        let attributed: usize = r.by_kind.iter().map(|t| t.injected).sum();
        assert_eq!(attributed + r.unattributed_aborts, r.total);
        let outcomes: usize = r
            .by_kind
            .iter()
            .map(|t| t.contained() + t.aborts + t.miscompiles + t.hung)
            .sum();
        assert_eq!(outcomes, attributed);
        let j = r.json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"campaign\":\"formation\""), "{j}");
        assert!(j.contains("\"ok\":true"), "{j}");
        assert!(j.contains("\"by_kind\""), "{j}");
        assert!(!j.contains("\"stats\""), "{j}");
        assert!(!j.contains('\n'));
    }

    /// Panics on chosen seeds: `seed % 5 == 0` escapes before drawing a
    /// kind, `seed % 5 == 1` escapes after publishing kind 1; every other
    /// seed survives as kind `seed % 2`.
    struct Panicky;

    impl Target for Panicky {
        fn name(&self) -> &'static str {
            "panicky"
        }

        fn kinds(&self) -> Vec<String> {
            vec!["even".into(), "odd".into()]
        }

        fn run_fault(&self, seed: u64, kind: &Cell<Option<usize>>) -> Outcome {
            match seed % 5 {
                0 => panic!("escape before the kind draw"),
                1 => {
                    kind.set(Some(1));
                    panic!("escape after the kind draw");
                }
                _ => {
                    kind.set(Some((seed % 2) as usize));
                    Outcome::Survived
                }
            }
        }
    }

    #[test]
    fn aborts_are_charged_to_the_published_kind_only() {
        let (seed, faults) = (0xAB07, 60);
        let mut master = SplitMix64::new(seed);
        let seeds: Vec<u64> = (0..faults).map(|_| master.next()).collect();
        let early = seeds.iter().filter(|s| *s % 5 == 0).count();
        let late = seeds.iter().filter(|s| *s % 5 == 1).count();
        let even = seeds.iter().filter(|s| *s % 5 > 1 && *s % 2 == 0).count();
        assert!(
            early > 0 && late > 0,
            "the seeds must exercise both escapes"
        );

        let r = run_campaign(seed, faults, 3, &Panicky);
        assert!(!r.ok(), "aborts must fail the campaign: {r}");
        assert_eq!(r.totals().aborts, early + late);
        assert_eq!(r.unattributed_aborts, early);
        assert_eq!(r.by_kind[1].aborts, late);
        // No phantom row: the early escapes inflate no kind's injections.
        assert_eq!(r.by_kind[0].aborts, 0);
        assert_eq!(r.by_kind[0].injected, even);
        let attributed: usize = r.by_kind.iter().map(|t| t.injected).sum();
        assert_eq!(attributed + r.unattributed_aborts, r.total);
    }

    #[test]
    fn fault_seed_parser_accepts_decimal_only() {
        assert_eq!(parse_seed("42"), Ok(42));
        assert_eq!(parse_seed(" 42 "), Ok(42));
        assert!(parse_seed("0x1f").is_err());
    }
}

//! Convergent hyperblock formation — the paper's Figure 5.
//!
//! [`expand_block`] implements `ExpandBlock`: starting from a seed block, it
//! repeatedly asks the policy for the best candidate successor, attempts the
//! merge as an *in-place trial* ([`merge_blocks`] snapshots the blocks the
//! merge can touch, transforms the CFG directly, optionally optimizes the
//! merged block, checks the structural constraints, and rolls the snapshot
//! back on failure), and keeps only successful merges. The paper's
//! implementation tested merges in scratch space to "avoid a more
//! complicated undo step"; cloning the whole function per trial dominated
//! compile time here, so the undo step is now explicit — a merge only ever
//! writes the hyperblock, the merged successor, freshly appended blocks and
//! fresh registers, all of which [`chf_ir::function::BlocksSnapshot`]
//! restores exactly.
//!
//! [`form_hyperblocks`] drives `ExpandBlock` over the whole function in
//! descending frequency order, so hot loop bodies unroll before colder
//! code competes for their blocks. Loop analyses are cached across trials
//! in a formation context and invalidated only when a merge commits (a
//! rolled-back trial leaves the CFG bit-identical, so the cache stays
//! valid).

use crate::chaos::ChaosSpec;
use crate::constraints::BlockConstraints;
use crate::duplication::{classify, duplicate_for_merge, DuplicationKind};
use crate::error::ChfError;
use crate::ifconvert::combine_with_liveness;
use crate::oracle::OracleConfig;
use crate::policy::{Candidate, Policy};
use chf_ir::block::ExitTarget;
use chf_ir::function::Function;
use chf_ir::ids::BlockId;
use chf_ir::loops::LoopForest;
use chf_ir::profile::ProfileData;
use chf_ir::testgen::SplitMix64;

/// Configuration of the formation loop.
#[derive(Clone, Debug)]
pub struct FormationConfig {
    /// Structural constraints every formed block must satisfy.
    pub constraints: BlockConstraints,
    /// Allow unroll/peel merges (head duplication). Off for the classical
    /// phase orderings that run a discrete unroll pass instead.
    pub head_duplication: bool,
    /// Allow tail duplication. (Always on in the paper; exposed for
    /// ablation.)
    pub tail_duplication: bool,
    /// Run scalar optimizations on the merged block before the legality
    /// check — the difference between `(IUP)O` and `(IUPO)`.
    pub iterative_opt: bool,
    /// Limit unrolling by the loop's expected trip count, estimated from
    /// the profiled back-edge probability (§5: the peeling/unrolling policy
    /// should consult trip counts, not just fill blocks). Unrolling a loop
    /// beyond its typical iteration count only adds nullified instructions
    /// and unpredictable exits.
    pub trip_aware_unroll: bool,
    /// Execute merged instructions speculatively where safe (predicate
    /// promotion). Always on in real hyperblock compilers; exposed for the
    /// ablation study.
    pub speculation: bool,
    /// Refuse tail duplication of blocks larger than this many slots
    /// (§5, "Limiting tail duplication": duplicating a large merge point
    /// bloats code and makes its contents data-dependent on the exit test).
    pub max_tail_dup_size: usize,
    /// Safety cap on merges per seed block.
    pub max_merges_per_block: usize,
    /// Verify the IR after every combine trial and *contain* a violation by
    /// rolling the trial back and skipping the candidate (recorded in
    /// [`FormationStats::skipped`]), instead of panicking via a
    /// `debug_assert`. On by default: the verify is cheap relative to the
    /// combine itself, and it turns a formation bug from a compiler abort
    /// into a degraded (but correct) compilation.
    pub verify_trials: bool,
    /// Differential oracle: after each *committed* merge, re-execute the
    /// function on seeded inputs against its pre-merge self and roll the
    /// merge back on any behaviour change (see [`crate::oracle`]). `None`
    /// disables the oracle (the default — it re-runs the functional
    /// simulator per commit, so it is a debugging/hardening tool, not a
    /// production setting).
    pub oracle: Option<OracleConfig>,
    /// Deterministic mid-trial fault injection (see [`crate::chaos`]):
    /// periodically corrupts the merged block *inside* the trial window so
    /// the verify-and-rollback path is exercised. Requires `verify_trials`;
    /// `None` (the default) injects nothing.
    pub chaos: Option<ChaosSpec>,
    /// Trial-budget ledger: cap on merge *trials* (attempted merges,
    /// successful or not) per formation run — one whole-function
    /// [`form_hyperblocks`] call, or one [`expand_block`] call when driven
    /// block-at-a-time. `None` (the default) reproduces today's unbounded
    /// behaviour exactly. When the ledger runs dry, remaining candidates
    /// are skipped and counted in [`FormationStats::budget_skipped`]; the
    /// trials actually spent are in [`FormationStats::trials`] either way.
    /// Profile-guided orderings ([`SeedOrder::HotFirst`] seeds plus the
    /// [`crate::policy::HotFirst`] candidate policy) exist to spend this
    /// budget on the hottest merges first.
    pub trial_budget: Option<usize>,
    /// Wall-clock deadline checked at the same point as the trial-budget
    /// ledger (between trials, never inside one). On expiry the remaining
    /// frontier is charged to [`FormationStats::budget_skipped`],
    /// [`FormationStats::deadline_hit`] is set, and formation stops
    /// *gracefully*: every block formed so far is kept, so the caller gets
    /// the anytime result of the convergent loop rather than an error.
    /// `None` (the default) never expires.
    pub deadline: Option<std::time::Instant>,
    /// In which order [`form_hyperblocks`] visits seed blocks — who gets
    /// first claim on the trial budget.
    pub seed_order: SeedOrder,
}

/// Order in which [`form_hyperblocks`] processes seed blocks.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum SeedOrder {
    /// Descending profiled block frequency, ties on block id — the
    /// historical behaviour and the default.
    #[default]
    Frequency,
    /// Profile-weighted: descending `freq + hottest outgoing edge weight`
    /// ([`chf_ir::block::Block::hottest_edge_weight`]), ties on block id.
    /// Seeds that head hot *edges* — whose expansion will merge profiled
    /// flow rather than merely sit on a hot block — claim the trial budget
    /// first. With an unprofiled (all-zero-edge) CFG this degenerates to
    /// [`SeedOrder::Frequency`] exactly.
    HotFirst,
}

impl Default for FormationConfig {
    fn default() -> Self {
        FormationConfig {
            constraints: BlockConstraints::trips(),
            head_duplication: true,
            tail_duplication: true,
            iterative_opt: true,
            trip_aware_unroll: true,
            speculation: true,
            max_tail_dup_size: 24,
            max_merges_per_block: 64,
            verify_trials: true,
            oracle: None,
            chaos: None,
            trial_budget: None,
            deadline: None,
            seed_order: SeedOrder::Frequency,
        }
    }
}

/// Static transformation counts — the paper's `m/t/u/p` columns.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FormationStats {
    /// Blocks merged (`m`).
    pub merges: usize,
    /// Tail-duplicated blocks (`t`).
    pub tail_dups: usize,
    /// Unrolled iterations (`u`).
    pub unrolls: usize,
    /// Peeled iterations (`p`).
    pub peels: usize,
    /// Merge attempts rejected by the constraints or combine hazards.
    pub failures: usize,
    /// Trials contained by the crash-safety net: a verifier violation or
    /// oracle mismatch detected mid-formation, rolled back, and skipped
    /// (see [`MergeOutcome::Skipped`]). Deliberately *not* part of
    /// [`FormationStats::mtup`] — the paper's `m/t/u/p` column reports only
    /// committed transformations, and the golden snapshots must stay
    /// byte-identical when nothing is skipped.
    pub skipped: usize,
    /// Trial-budget ledger: merge trials actually attempted (every
    /// [`merge_blocks`] call made by the expansion loop, whatever its
    /// outcome).
    pub trials: usize,
    /// Trial-budget ledger: candidates the expansion loop *wanted* to try
    /// but dropped because [`FormationConfig::trial_budget`] was exhausted.
    /// Always 0 under the default unbounded budget, so the default `mtup`
    /// rendering (and every golden snapshot) is unchanged.
    pub budget_skipped: usize,
    /// Whether [`FormationConfig::deadline`] expired during this run and
    /// cut formation short. Candidates dropped by the deadline are counted
    /// in [`FormationStats::budget_skipped`] alongside ledger-dropped ones;
    /// this flag is what distinguishes "budget policy" from "out of time" —
    /// the compile service reports the latter as a `Degraded` response.
    /// Never set under the default `deadline: None`, so golden snapshots
    /// are unaffected.
    pub deadline_hit: bool,
    /// Mean block fill of the final artifact as instruction slots per
    /// `max_insts` (TRIPS: 128), in permille. Computed once per compile by
    /// the pipeline after the backend runs; 0 until then. Kept as an
    /// integer so the stats stay `Copy + Eq` and hash-stable for the
    /// service cache's integrity digest.
    pub util_insts_permille: u32,
    /// Mean memory-op fill per `max_memory_ops` (TRIPS: 32), in permille.
    pub util_mem_permille: u32,
    /// Mean register-bank port fill — reads plus writes over the total
    /// bank read/write ports (TRIPS: 4 banks × (8 + 8)) — in permille.
    pub util_bank_permille: u32,
    /// Policy-tournament provenance: how many portfolio entrants were
    /// compiled and scored to produce this artifact. 0 = no tournament
    /// (the default fixed-policy path), 1 = the shape cache's hot path
    /// (single compile with a cached winning policy), ≥ 2 = a full
    /// tournament. Not part of [`FormationStats::mtup`].
    pub tournament_entrants: usize,
}

impl FormationStats {
    /// Accumulate another stats record.
    pub fn merge(&mut self, other: &FormationStats) {
        self.merges += other.merges;
        self.tail_dups += other.tail_dups;
        self.unrolls += other.unrolls;
        self.peels += other.peels;
        self.failures += other.failures;
        self.skipped += other.skipped;
        self.trials += other.trials;
        self.budget_skipped += other.budget_skipped;
        self.deadline_hit |= other.deadline_hit;
        // Utilization is measured once, on the final artifact; when two
        // records are folded (phase accumulation, suite totals) keep the
        // larger measurement rather than inventing an average.
        self.util_insts_permille = self.util_insts_permille.max(other.util_insts_permille);
        self.util_mem_permille = self.util_mem_permille.max(other.util_mem_permille);
        self.util_bank_permille = self.util_bank_permille.max(other.util_bank_permille);
        self.tournament_entrants += other.tournament_entrants;
    }

    /// Render as the paper's `m/t/u/p` column. When a trial budget was in
    /// play and actually bit (`budget_skipped > 0`), the ledger is appended
    /// as `(b:spent/skipped)`; unbounded runs render exactly as before, so
    /// archived tables and golden snapshots stay byte-identical.
    pub fn mtup(&self) -> String {
        let base = format!(
            "{}/{}/{}/{}",
            self.merges, self.tail_dups, self.unrolls, self.peels
        );
        if self.budget_skipped > 0 {
            format!("{base}(b:{}/{})", self.trials, self.budget_skipped)
        } else {
            base
        }
    }

    /// The trial-budget ledger as a stable `spent/skipped` pair, for CSV
    /// columns that want the ledger unconditionally (unlike
    /// [`FormationStats::mtup`], which only appends it when the budget
    /// bit).
    pub fn ledger(&self) -> String {
        format!("{}/{}", self.trials, self.budget_skipped)
    }

    /// The block-utilization metric as a stable `insts/mem/banks` permille
    /// triple (e.g. `512/188/266` = blocks half full of instructions).
    /// Zeroes until the pipeline measures the final artifact.
    pub fn utilization(&self) -> String {
        format!(
            "{}/{}/{}",
            self.util_insts_permille, self.util_mem_permille, self.util_bank_permille
        )
    }
}

/// Outcome of one [`merge_blocks`] attempt.
#[derive(Clone, Debug, PartialEq)]
pub enum MergeOutcome {
    /// The merge was committed; the kind of duplication it used.
    Success(DuplicationKind),
    /// The merged block would violate the constraints, or combining was
    /// structurally impossible; the function is unchanged.
    Failure,
    /// The configuration forbids this kind of merge.
    Disallowed,
    /// The crash-safety net fired: the trial produced IR the verifier
    /// rejected (and was rolled back bit-identically), or the committed
    /// merge failed the differential oracle (and was undone from the
    /// pre-merge clone). Either way the function is semantically unchanged
    /// and formation may continue with the remaining candidates.
    Skipped(ChfError),
}

/// Per-run formation state: CFG analyses cached across merge trials, and
/// the clean-block memo of commit-time optimization.
///
/// The loop forest is valid for the *current* CFG. Failed trials roll the
/// CFG back to a bit-identical state, so the cache survives them; only a
/// committed merge invalidates it. Peel budgets depend only on the training
/// profile (fixed for the run) and are memoized forever. Liveness needs no
/// invalidation: the memo's solution is refreshed by block version.
struct FormationCtx {
    forest: Option<LoopForest>,
    peel_budgets: chf_ir::fxhash::FxHashMap<BlockId, usize>,
    /// Deterministic PRNG for mid-trial fault injection, seeded lazily from
    /// [`FormationConfig::chaos`]. Lives in the context so a formation run
    /// draws one reproducible fault sequence regardless of how trials are
    /// batched.
    chaos: Option<SplitMix64>,
    /// Trial-budget ledger: merge trials spent so far in this formation
    /// run. Lives in the context (not per-seed stats) so the cap in
    /// [`FormationConfig::trial_budget`] is a *function-level* budget that
    /// hot seeds, processed first, get first claim on.
    trials_spent: usize,
    /// Blocks the commit-time [`chf_opt::optimize_quick`] already left
    /// clean. Keyed by block content, so it needs no invalidation: a
    /// commit touches a few blocks, and only those are optimized again.
    /// Its liveness solution, refreshed, starts every trial's.
    clean: chf_opt::CleanBlocks,
}

impl FormationCtx {
    fn new() -> Self {
        FormationCtx {
            forest: None,
            peel_budgets: chf_ir::fxhash::FxHashMap::default(),
            chaos: None,
            trials_spent: 0,
            clean: chf_opt::CleanBlocks::new(),
        }
    }

    /// Whether the budget (if any) still has room for another trial.
    fn budget_open(&self, config: &FormationConfig) -> bool {
        config
            .trial_budget
            .is_none_or(|cap| self.trials_spent < cap)
    }

    /// The fault-injection PRNG, created on first use from the spec's seed.
    fn chaos_rng(&mut self, spec: ChaosSpec) -> &mut SplitMix64 {
        self.chaos.get_or_insert_with(|| SplitMix64::new(spec.seed))
    }

    /// Whether the next injection point fires: one fault per `spec.period`
    /// trials on average, drawn deterministically from the seeded stream.
    fn chaos_fire(&mut self, spec: ChaosSpec) -> bool {
        let period = u64::from(spec.period.max(1));
        self.chaos_rng(spec).next().is_multiple_of(period)
    }

    /// The loop forest of the current CFG, computed at most once between
    /// committed merges.
    fn forest(&mut self, f: &Function) -> &LoopForest {
        if self.forest.is_none() {
            self.forest = Some(LoopForest::of(f));
        }
        self.forest.as_ref().expect("just filled")
    }

    /// Invalidate CFG-shape caches after a committed merge.
    fn invalidate(&mut self) {
        self.forest = None;
    }

    /// Memoized [`peel_budget`] (profile-only, never invalidated).
    fn peel_budget(&mut self, profile: Option<&ProfileData>, header: BlockId) -> usize {
        *self
            .peel_budgets
            .entry(header)
            .or_insert_with(|| peel_budget(profile, header))
    }
}

/// Cheap structural pre-checks before attempting a merge.
fn legal_merge(f: &Function, hb: BlockId, s: BlockId) -> bool {
    if !f.contains_block(hb) || !f.contains_block(s) || s == f.entry {
        return false;
    }
    // Exactly one exit of hb may target s.
    f.block(hb)
        .exits
        .iter()
        .filter(|e| e.target == ExitTarget::Block(s))
        .count()
        == 1
}

/// `MergeBlocks` (Figure 5): attempt to merge `s` into `hb`, duplicating
/// `s` first when it has side entrances, optimizing if configured, and
/// committing only if the result satisfies the constraints.
pub fn merge_blocks(
    f: &mut Function,
    hb: BlockId,
    s: BlockId,
    config: &FormationConfig,
) -> MergeOutcome {
    merge_blocks_with_body(f, hb, s, config, None)
}

/// Instantiate a saved loop body as a fresh block whose back edge targets
/// `hb`, retargeting `hb`'s self edge to it. Returns `None` (no change) if
/// any of the saved body's exit targets no longer exists.
fn append_saved_iteration(
    f: &mut Function,
    hb: BlockId,
    body: &chf_ir::block::Block,
) -> Option<BlockId> {
    for e in &body.exits {
        if let Some(t) = e.target.block() {
            if t != hb && !f.contains_block(t) {
                return None;
            }
        }
    }
    let mut copy = body.clone();
    // Profile: the appended iteration carries the flow of the back edge.
    let inflow: f64 = f
        .block(hb)
        .exits
        .iter()
        .filter(|e| e.target == ExitTarget::Block(hb))
        .map(|e| e.count)
        .sum();
    let scale = if copy.freq > 0.0 {
        inflow / copy.freq
    } else {
        0.0
    };
    copy.freq = inflow;
    for e in &mut copy.exits {
        e.count *= scale;
    }
    let new = f.add_block(copy);
    let n = f.block_mut(hb).retarget_exits(hb, new);
    debug_assert!(n > 0, "no self edge to retarget");
    Some(new)
}

/// [`merge_blocks`] with an optional *saved loop body*: when the merge is an
/// unroll (`hb == s`), the appended iteration is instantiated from the body
/// saved before the first unroll, rather than from the current (already
/// unrolled) block — the paper's "saves the original loop body and appends
/// one additional iteration at a time", which keeps unroll granularity at
/// one iteration instead of doubling.
pub fn merge_blocks_with_body(
    f: &mut Function,
    hb: BlockId,
    s: BlockId,
    config: &FormationConfig,
    saved_body: Option<&chf_ir::block::Block>,
) -> MergeOutcome {
    merge_blocks_in_ctx(f, hb, s, config, saved_body, &mut FormationCtx::new())
}

/// The in-place trial/commit core of [`merge_blocks_with_body`].
///
/// A merge attempt touches a known, small set of state: the hyperblock `hb`
/// (guard code and spliced instructions/exits), the successor `s` (profile
/// rescaling during duplication, removal when merged directly), blocks
/// *appended* by duplication, and freshly allocated registers. Snapshotting
/// exactly that set makes rollback an exact inverse, so a failed trial
/// leaves `f` bit-identical to its pre-trial state — no whole-function
/// scratch clone per trial.
///
/// With `iterative_opt`, the fit decision runs the scalar pipeline scoped
/// to the merged block ([`chf_opt::optimize_block_quick`]), which mutates
/// nothing outside the snapshot. On success the scoped cleanup is rewound
/// and the historical whole-function [`chf_opt::optimize_quick`] runs once
/// per committed merge, reproducing the exact committed state of the
/// scratch-space implementation. It shares the context's clean-block memo,
/// so the blocks earlier commits left clean and this merge did not touch
/// skip the block-local kernels, and DCE skips the blocks whose content and
/// `live_out` its last clean sweep saw; global GVN and jump threading still
/// visit every block.
///
/// Liveness is never solved from scratch per trial. The trial clones the
/// memo's solution after [refreshing](chf_ir::liveness::Liveness::refresh)
/// it — a rolled-back trial restores block versions, so that refresh only
/// re-solves what the last commit changed — and refreshes its clone after
/// each edit: for the speculation set after duplication, in the trial
/// optimizer's DCE, and for the fit check.
fn merge_blocks_in_ctx(
    f: &mut Function,
    hb: BlockId,
    s: BlockId,
    config: &FormationConfig,
    saved_body: Option<&chf_ir::block::Block>,
    ctx: &mut FormationCtx,
) -> MergeOutcome {
    if !legal_merge(f, hb, s) {
        return MergeOutcome::Failure;
    }
    let kind = classify(f, ctx.forest(f), hb, s);
    match kind {
        DuplicationKind::Tail if !config.tail_duplication => return MergeOutcome::Disallowed,
        DuplicationKind::Tail if f.block(s).size() > config.max_tail_dup_size => {
            return MergeOutcome::Disallowed
        }
        DuplicationKind::Unroll | DuplicationKind::Peel if !config.head_duplication => {
            return MergeOutcome::Disallowed
        }
        _ => {}
    }

    // Differential-oracle baseline: the pre-merge function, cloned only
    // when the oracle is enabled (it is `None` in production configs, so
    // the hot path never pays for the clone).
    let oracle_orig = config.oracle.as_ref().map(|_| f.clone());

    // In-place trial: snapshot the touched blocks, transform, check, then
    // keep or roll back.
    let snap = f.snapshot_blocks([hb, s]);
    let mut lv = ctx.clean.liveness(f).clone();
    let s_eff = match kind {
        DuplicationKind::None => s,
        DuplicationKind::Unroll if s == hb && saved_body.is_some() => {
            match append_saved_iteration(f, hb, saved_body.expect("checked")) {
                Some(b) => b,
                None => duplicate_for_merge(f, hb, s),
            }
        }
        _ => duplicate_for_merge(f, hb, s),
    };
    // The speculation-safety set reads liveness after any duplication.
    lv.refresh(f);
    if combine_with_liveness(f, hb, s_eff, config.speculation, Some(&lv)).is_err() {
        f.restore_blocks(snap);
        return MergeOutcome::Failure;
    }
    // Canonicalize the exit list: merging both arms of a diamond leaves two
    // exits to the join; collapsing them removes the dead branch and lets
    // the join itself become a single-predecessor merge candidate.
    f.block_mut(hb).dedupe_exits();
    if config.verify_trials {
        // Crash-safety net. The combine above is exactly the class of CFG
        // surgery the verifier polices; a violation here is a compiler bug,
        // but one we can *contain*: the snapshot is a complete undo record,
        // so roll the trial back bit-identically and skip the candidate
        // instead of aborting the whole compilation.
        //
        // Fault-injection hook: with `config.chaos` set, periodically
        // corrupt the merged block inside the trial window — every injected
        // fault must be caught right here and survived via rollback, which
        // is what the chaos campaigns assert.
        if let Some(spec) = config.chaos {
            if ctx.chaos_fire(spec) {
                let rng = ctx.chaos_rng(spec);
                crate::chaos::corrupt_trial_block(f, hb, rng);
            }
        }
        if let Err(error) = chf_ir::verify::verify(f) {
            f.restore_blocks(snap);
            return MergeOutcome::Skipped(ChfError::Verify {
                context: "merge trial",
                error,
            });
        }
    } else {
        debug_assert!(chf_ir::verify::verify(f).is_ok(), "merge broke IR:\n{f}");
    }
    if config.iterative_opt {
        // Decide on the *scoped* optimization of the merged block: same
        // scalar pipeline, same two-round budget, but only `hb` is mutated
        // so the snapshot stays a complete undo record.
        let merged = f.block(hb).clone();
        chf_opt::optimize_block_quick(f, hb, &mut lv);
        lv.refresh(f);
        debug_assert_eq!(lv, chf_ir::liveness::Liveness::compute(f));
        if config.constraints.check_with(f, hb, &lv).is_err() {
            f.restore_blocks(snap);
            return MergeOutcome::Failure;
        }
        // Commit: rewind the decision's scoped cleanup, then run the
        // whole-function quick optimization the scratch-space trial used to
        // run, so the committed state matches it exactly.
        *f.block_mut(hb) = merged;
        chf_opt::optimize_quick(f, &mut ctx.clean);
        ctx.invalidate();
        if !f.contains_block(hb) {
            // Optimization proved the whole block unreachable (cannot
            // happen for reachable seeds, but stay safe): the cleanup is
            // already committed; report failure so expansion stops here.
            return MergeOutcome::Failure;
        }
        return commit_with_oracle(f, hb, s, config, oracle_orig, ctx, kind);
    }
    lv.refresh(f);
    debug_assert_eq!(lv, chf_ir::liveness::Liveness::compute(f));
    if config.constraints.check_with(f, hb, &lv).is_err() {
        f.restore_blocks(snap);
        return MergeOutcome::Failure;
    }
    ctx.invalidate();
    commit_with_oracle(f, hb, s, config, oracle_orig, ctx, kind)
}

/// Shared tail of the two commit paths: run the differential oracle (when
/// configured) against the pre-merge clone, undoing the commit on a
/// mismatch.
fn commit_with_oracle(
    f: &mut Function,
    hb: BlockId,
    s: BlockId,
    config: &FormationConfig,
    oracle_orig: Option<Function>,
    ctx: &mut FormationCtx,
    kind: DuplicationKind,
) -> MergeOutcome {
    if let Some(orig) = oracle_orig {
        if let Err(e) = crate::oracle::post_commit_check(f, hb, s, config, &orig) {
            // `post_commit_check` restored `f` from the pre-merge clone, so
            // the CFG shape changed again — drop the analysis caches.
            ctx.invalidate();
            return MergeOutcome::Skipped(e);
        }
    }
    MergeOutcome::Success(kind)
}

/// Median header-visit count of the loop headed by `header`, from its
/// trip-count histogram if the profile recorded one.
fn median_trips(profile: Option<&ProfileData>, header: BlockId) -> Option<u64> {
    let h = profile?.trip_histogram(header)?;
    if h.visits() == 0 {
        return None;
    }
    // Largest k still reached by at least half the loop visits.
    let mut k = 0;
    for &t in h.counts.keys() {
        if h.fraction_at_least(t) >= 0.5 {
            k = t;
        }
    }
    Some(k)
}

/// Mean header-visit count of the loop headed by `header`.
fn mean_trips(profile: Option<&ProfileData>, header: BlockId) -> Option<f64> {
    let h = profile?.trip_histogram(header)?;
    if h.visits() == 0 {
        None
    } else {
        Some(h.mean())
    }
}

/// How many unrolled iterations are worth appending to self-loop `hb`.
///
/// Preferred source: the loop's trip-count *histogram* (§5, "the compiler
/// can use loop trip count histograms to augment an edge frequency
/// profile") — the median visit count bounds useful unrolling; high-variance
/// loops (sieve's marking loop) would fool an average-based estimate.
/// Fallback: the expected trip count from the profiled back-edge
/// probability. A loop that iterates `t` times per visit is worth at most
/// about `t` bodies; beyond that the extra copies are nullified on most
/// executions and their exits only confuse the next-block predictor.
fn expected_unroll_budget(
    f: &Function,
    hb: BlockId,
    profile: Option<&ProfileData>,
    original_header: Option<BlockId>,
) -> usize {
    const MAX_UNROLL: usize = 8;
    if let Some(mean_visits) = mean_trips(profile, original_header.unwrap_or(hb)) {
        // `mean_visits` counts header executions per loop visit; the last
        // one exits, so useful extra bodies ≈ visits − 1.
        return ((mean_visits - 1.0).round().max(0.0) as usize).min(MAX_UNROLL);
    }
    let blk = f.block(hb);
    let total: f64 = blk.exits.iter().map(|e| e.count).sum();
    if total <= 0.0 {
        return usize::MAX; // no profile: fall back to constraint-limited
    }
    let back: f64 = blk
        .exits
        .iter()
        .filter(|e| e.target == ExitTarget::Block(hb))
        .map(|e| e.count)
        .sum();
    let p = (back / total).min(0.999_999);
    let expected_trips = 1.0 / (1.0 - p);
    (expected_trips.ceil() as usize).min(MAX_UNROLL)
}

/// Whether peeling iterations of the loop headed by `header` into a
/// predecessor is worthwhile: only for loops with reliably low trip counts
/// (§5, "a loop peeling policy can then evaluate the benefit ... using a
/// threshold function to pick an appropriate peeling factor").
fn peel_budget(profile: Option<&ProfileData>, header: BlockId) -> usize {
    match median_trips(profile, header) {
        Some(v) if v <= 5 => v as usize,
        Some(_) => 0,
        None => 1, // no histogram: allow a single speculative peel
    }
}

/// The original innermost loop header containing each block, snapshotted
/// before formation rewrites the CFG — trip histograms are keyed by these.
/// Built once per formation run from the context's cached loop forest.
fn original_headers(
    f: &Function,
    ctx: &mut FormationCtx,
) -> chf_ir::fxhash::FxHashMap<BlockId, BlockId> {
    let forest = ctx.forest(f);
    f.block_ids()
        .filter_map(|b| forest.innermost_containing(b).map(|l| (b, l.header)))
        .collect()
}

/// `ExpandBlock` (Figure 5): grow `hb` by merging candidate successors
/// chosen by `policy` until no candidate fits.
pub fn expand_block(
    f: &mut Function,
    hb: BlockId,
    policy: &mut dyn Policy,
    config: &FormationConfig,
) -> FormationStats {
    expand_block_with_profile(f, hb, policy, config, None)
}

/// [`expand_block`] with access to the training profile's trip-count
/// histograms, which bound unrolling and peeling (§5).
pub fn expand_block_with_profile(
    f: &mut Function,
    hb: BlockId,
    policy: &mut dyn Policy,
    config: &FormationConfig,
    profile: Option<&ProfileData>,
) -> FormationStats {
    let mut ctx = FormationCtx::new();
    let original_header = ctx.forest(f).innermost_containing(hb).map(|l| l.header);
    expand_block_inner(f, hb, policy, config, profile, original_header, &mut ctx)
}

#[allow(clippy::too_many_arguments)]
fn expand_block_inner(
    f: &mut Function,
    hb: BlockId,
    policy: &mut dyn Policy,
    config: &FormationConfig,
    profile: Option<&ProfileData>,
    original_header: Option<BlockId>,
    ctx: &mut FormationCtx,
) -> FormationStats {
    let mut stats = FormationStats::default();
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut order = 0usize;
    let mut failed: Vec<BlockId> = Vec::new();

    let push_successors = |f: &Function,
                           candidates: &mut Vec<Candidate>,
                           order: &mut usize,
                           depth: usize,
                           failed: &[BlockId]| {
        let blk = f.block(hb);
        for (i, e) in blk.exits.iter().enumerate() {
            let Some(t) = e.target.block() else { continue };
            if failed.contains(&t) {
                continue;
            }
            let prob = blk.exit_probability(i);
            if let Some(c) = candidates.iter_mut().find(|c| c.block == t) {
                // Rediscovered (e.g., a join reached from both arms): its
                // reach probability accumulates.
                c.prob = (c.prob + prob).min(1.0);
            } else {
                candidates.push(Candidate {
                    block: t,
                    order: *order,
                    depth,
                    prob,
                });
                *order += 1;
            }
        }
    };

    push_successors(f, &mut candidates, &mut order, 0, &failed);

    let mut merges = 0usize;
    let mut unrolls_done = 0usize;
    let mut unroll_budget: Option<usize> = None;
    let mut peels_done: chf_ir::fxhash::FxHashMap<BlockId, usize> =
        chf_ir::fxhash::FxHashMap::default();
    // The pristine loop body, captured just before the first unroll so that
    // later unrolls append single iterations (paper §4.1).
    let mut saved_body: Option<chf_ir::block::Block> = None;
    while merges < config.max_merges_per_block {
        let Some(idx) = policy.select(f, hb, &candidates) else {
            break;
        };
        let cand = candidates.remove(idx);
        if !f.contains_block(cand.block) {
            continue; // merged into another block meanwhile
        }
        // Trial-budget ledger: the policy wanted this candidate, but the
        // function-level budget is spent. Charge the whole remaining
        // frontier (this candidate plus everything still queued — none of
        // it will be tried) to the skip column and stop expanding. The
        // check sits *after* the liveness filters so the ledger counts
        // candidates that would genuinely have produced a trial. The
        // wall-clock deadline shares the checkpoint: expiry mid-run keeps
        // every committed merge (anytime degradation), it only stops new
        // trials from starting.
        let deadline_expired = config
            .deadline
            .is_some_and(|d| std::time::Instant::now() >= d);
        if !ctx.budget_open(config) || deadline_expired {
            stats.budget_skipped += 1 + candidates.len();
            stats.deadline_hit |= deadline_expired;
            break;
        }
        if cand.block == hb {
            if saved_body.is_none() && classify(f, ctx.forest(f), hb, hb) == DuplicationKind::Unroll
            {
                saved_body = Some(f.block(hb).clone());
            }
            let budget = *unroll_budget
                .get_or_insert_with(|| expected_unroll_budget(f, hb, profile, original_header));
            if config.trip_aware_unroll && unrolls_done >= budget {
                failed.push(cand.block);
                continue;
            }
        } else if config.trip_aware_unroll {
            // Peeling gate: merging a loop header that is not our own back
            // edge peels an iteration; only worthwhile for reliably
            // low-trip loops.
            if classify(f, ctx.forest(f), hb, cand.block) == DuplicationKind::Peel {
                let done = *peels_done.get(&cand.block).unwrap_or(&0);
                if done >= ctx.peel_budget(profile, cand.block) {
                    failed.push(cand.block);
                    continue;
                }
            }
        }
        ctx.trials_spent += 1;
        stats.trials += 1;
        match merge_blocks_in_ctx(f, hb, cand.block, config, saved_body.as_ref(), ctx) {
            MergeOutcome::Success(kind) => {
                stats.merges += 1;
                match kind {
                    DuplicationKind::Tail => stats.tail_dups += 1,
                    DuplicationKind::Unroll => {
                        stats.unrolls += 1;
                        unrolls_done += 1;
                    }
                    DuplicationKind::Peel => {
                        stats.peels += 1;
                        *peels_done.entry(cand.block).or_insert(0) += 1;
                    }
                    DuplicationKind::None => {}
                }
                merges += 1;
                // A successful merge changes the block's shape (and
                // canonicalizes its exits), so previously failed candidates
                // may have become mergeable — retry them.
                failed.clear();
                push_successors(f, &mut candidates, &mut order, cand.depth + 1, &failed);
            }
            MergeOutcome::Failure => {
                stats.failures += 1;
                failed.push(cand.block);
            }
            MergeOutcome::Disallowed => {
                failed.push(cand.block);
            }
            MergeOutcome::Skipped(_) => {
                // The safety net contained a verifier violation or oracle
                // mismatch and left the function semantically intact; the
                // candidate is poisoned, but formation converges on the
                // rest.
                stats.skipped += 1;
                failed.push(cand.block);
            }
        }
    }
    stats
}

/// Run convergent hyperblock formation over the whole function.
///
/// Seeds are processed in descending profile-frequency order (hot loop
/// bodies first). Afterwards unreachable blocks are removed.
pub fn form_hyperblocks(
    f: &mut Function,
    policy: &mut dyn Policy,
    config: &FormationConfig,
) -> FormationStats {
    form_hyperblocks_with_profile(f, policy, config, None)
}

/// [`form_hyperblocks`] with trip-count histograms available for the
/// unroll/peel budgets.
pub fn form_hyperblocks_with_profile(
    f: &mut Function,
    policy: &mut dyn Policy,
    config: &FormationConfig,
    profile: Option<&ProfileData>,
) -> FormationStats {
    policy.prepare(f);
    // One context for the whole run: the headers map is built once, and the
    // loop forest computed for it seeds the trial cache of the first
    // expansion (it stays valid until the first committed merge).
    let mut ctx = FormationCtx::new();
    let headers = original_headers(f, &mut ctx);
    // Seed ordering decides who gets first claim on the trial budget. The
    // weight is computed before any merge rewrites the CFG, and the sort is
    // total (descending weight, ascending block id), so the visit order —
    // and therefore every downstream table — is byte-stable.
    let mut seeds: Vec<(BlockId, f64)> = f
        .blocks()
        .map(|(b, blk)| {
            let w = match config.seed_order {
                SeedOrder::Frequency => blk.freq,
                SeedOrder::HotFirst => blk.freq + blk.hottest_edge_weight(),
            };
            (b, w)
        })
        .collect();
    seeds.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });

    let mut stats = FormationStats::default();
    for (b, _) in seeds {
        if !f.contains_block(b) {
            continue;
        }
        let s = expand_block_inner(
            f,
            b,
            policy,
            config,
            profile,
            headers.get(&b).copied(),
            &mut ctx,
        );
        stats.merge(&s);
    }
    chf_ir::cfg::remove_unreachable(f);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::BreadthFirst;
    use chf_ir::builder::FunctionBuilder;
    use chf_ir::instr::Operand;
    use chf_ir::verify::verify;
    use chf_sim::functional::{profile_run, run, RunConfig};

    fn reg(r: chf_ir::ids::Reg) -> Operand {
        Operand::Reg(r)
    }

    fn digest(f: &Function, args: &[i64]) -> (Option<i64>, Vec<(i64, i64)>) {
        run(f, args, &[], &RunConfig::default()).unwrap().digest()
    }

    /// Stamp a self-profile onto `f` using the given training input.
    fn with_profile(f: &mut Function, args: &[i64]) {
        let p = profile_run(f, args, &[]).unwrap();
        p.apply(f);
    }

    fn diamond() -> Function {
        let mut fb = FunctionBuilder::new("diamond", 1);
        let e = fb.create_block();
        let t = fb.create_block();
        let z = fb.create_block();
        let j = fb.create_block();
        fb.switch_to(e);
        let out = fb.fresh_reg();
        let c = fb.cmp_lt(reg(fb.param(0)), Operand::Imm(10));
        fb.branch(c, t, z);
        fb.switch_to(t);
        fb.mov_to(out, Operand::Imm(1));
        fb.jump(j);
        fb.switch_to(z);
        fb.mov_to(out, Operand::Imm(2));
        fb.jump(j);
        fb.switch_to(j);
        let y = fb.mul(reg(out), Operand::Imm(10));
        fb.ret(Some(reg(y)));
        fb.build().unwrap()
    }

    #[test]
    fn diamond_collapses_to_one_block() {
        let mut f = diamond();
        with_profile(&mut f, &[5]);
        let orig = f.clone();
        let stats = form_hyperblocks(&mut f, &mut BreadthFirst, &FormationConfig::default());
        verify(&f).unwrap();
        assert_eq!(f.block_count(), 1, "{f}");
        assert_eq!(stats.merges, 3);
        // Breadth-first merges both arms before the join; exit
        // deduplication then leaves the join with a single predecessor, so
        // no tail duplication is needed at all.
        assert_eq!(stats.tail_dups, 0);
        for a in [0, 9, 10, 20] {
            assert_eq!(digest(&f, &[a]), digest(&orig, &[a]), "arg {a}");
        }
    }

    #[test]
    fn self_loop_unrolls_until_full() {
        // A tiny self-loop: formation should unroll it several times.
        let mut fb = FunctionBuilder::new("loop", 1);
        let e = fb.create_block();
        let b = fb.create_block();
        let x = fb.create_block();
        fb.switch_to(e);
        let i = fb.mov(Operand::Imm(0));
        let acc = fb.mov(Operand::Imm(0));
        fb.jump(b);
        fb.switch_to(b);
        let acc2 = fb.add(reg(acc), reg(i));
        fb.mov_to(acc, reg(acc2));
        let i2 = fb.add(reg(i), Operand::Imm(1));
        fb.mov_to(i, reg(i2));
        let c = fb.cmp_lt(reg(i), reg(fb.param(0)));
        fb.branch(c, b, x);
        fb.switch_to(x);
        fb.ret(Some(reg(acc)));
        let mut f = fb.build().unwrap();
        with_profile(&mut f, &[40]);
        let orig = f.clone();
        let stats = form_hyperblocks(&mut f, &mut BreadthFirst, &FormationConfig::default());
        verify(&f).unwrap();
        assert!(stats.unrolls >= 2, "expected unrolling, got {stats:?}");
        for a in [0, 1, 3, 17, 40] {
            assert_eq!(digest(&f, &[a]), digest(&orig, &[a]), "arg {a}");
        }
        // Dynamic block count must drop.
        let before = run(&orig, &[40], &[], &RunConfig::default()).unwrap();
        let after = run(&f, &[40], &[], &RunConfig::default()).unwrap();
        assert!(
            after.blocks_executed < before.blocks_executed / 2,
            "{} !< {}",
            after.blocks_executed,
            before.blocks_executed / 2
        );
    }

    #[test]
    fn loop_header_peeled_into_preheader() {
        // entry -> header loop: entry should peel an iteration when merging
        // the header.
        let mut fb = FunctionBuilder::new("peel", 1);
        let e = fb.create_block();
        let h = fb.create_block();
        let x = fb.create_block();
        fb.switch_to(e);
        let i = fb.mov(Operand::Imm(0));
        fb.jump(h);
        fb.switch_to(h);
        let i2 = fb.add(reg(i), Operand::Imm(1));
        fb.mov_to(i, reg(i2));
        let c = fb.cmp_lt(reg(i), reg(fb.param(0)));
        fb.branch(c, h, x);
        fb.switch_to(x);
        fb.ret(Some(reg(i)));
        let mut f = fb.build().unwrap();
        with_profile(&mut f, &[3]);
        let orig = f.clone();
        let stats = form_hyperblocks(&mut f, &mut BreadthFirst, &FormationConfig::default());
        verify(&f).unwrap();
        assert!(
            stats.peels + stats.unrolls >= 1,
            "expected loop work: {stats:?}"
        );
        for a in [0, 1, 3, 8] {
            assert_eq!(digest(&f, &[a]), digest(&orig, &[a]), "arg {a}");
        }
    }

    #[test]
    fn constraints_bound_block_growth() {
        // With tight constraints the loop must stop unrolling early.
        let mut fb = FunctionBuilder::new("tight", 1);
        let e = fb.create_block();
        let b = fb.create_block();
        let x = fb.create_block();
        fb.switch_to(e);
        let i = fb.mov(Operand::Imm(0));
        fb.jump(b);
        fb.switch_to(b);
        let i2 = fb.add(reg(i), Operand::Imm(1));
        fb.mov_to(i, reg(i2));
        let c = fb.cmp_lt(reg(i), reg(fb.param(0)));
        fb.branch(c, b, x);
        fb.switch_to(x);
        fb.ret(Some(reg(i)));
        let mut f = fb.build().unwrap();
        with_profile(&mut f, &[100]);
        let config = FormationConfig {
            constraints: BlockConstraints {
                max_insts: 24,
                headroom_percent: 0,
                ..BlockConstraints::trips()
            },
            ..FormationConfig::default()
        };
        let orig = f.clone();
        form_hyperblocks(&mut f, &mut BreadthFirst, &config);
        verify(&f).unwrap();
        for (b, blk) in f.blocks() {
            assert!(blk.size() <= 24, "block {b} too big: {}", blk.size());
        }
        assert_eq!(digest(&f, &[100]), digest(&orig, &[100]));
    }

    #[test]
    fn head_duplication_can_be_disabled() {
        let mut fb = FunctionBuilder::new("nohead", 1);
        let e = fb.create_block();
        let b = fb.create_block();
        let x = fb.create_block();
        fb.switch_to(e);
        let i = fb.mov(Operand::Imm(0));
        fb.jump(b);
        fb.switch_to(b);
        let i2 = fb.add(reg(i), Operand::Imm(1));
        fb.mov_to(i, reg(i2));
        let c = fb.cmp_lt(reg(i), reg(fb.param(0)));
        fb.branch(c, b, x);
        fb.switch_to(x);
        fb.ret(Some(reg(i)));
        let mut f = fb.build().unwrap();
        with_profile(&mut f, &[10]);
        let config = FormationConfig {
            head_duplication: false,
            ..FormationConfig::default()
        };
        let stats = form_hyperblocks(&mut f, &mut BreadthFirst, &config);
        assert_eq!(stats.unrolls, 0);
        assert_eq!(stats.peels, 0);
    }

    #[test]
    fn formation_preserves_behaviour_on_random_programs() {
        use chf_ir::testgen::{generate, GenConfig};
        let gen_cfg = GenConfig::default();
        for seed in 0..40 {
            let mut f = generate(seed, &gen_cfg);
            // Self-profile on one input, then form.
            let p = profile_run(&f, &[3, 7], &[]).unwrap();
            p.apply(&mut f);
            let orig = f.clone();
            let cfg = FormationConfig::default();
            form_hyperblocks(&mut f, &mut BreadthFirst, &cfg);
            verify(&f).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{f}"));
            for args in [[3, 7], [0, 0], [9, 2], [-5, 11]] {
                let a = run(&orig, &args, &[], &RunConfig::default()).unwrap();
                let b = run(&f, &args, &[], &RunConfig::default()).unwrap();
                assert_eq!(
                    a.digest(),
                    b.digest(),
                    "seed {seed} args {args:?}\nBEFORE:\n{orig}\nAFTER:\n{f}"
                );
            }
        }
    }

    #[test]
    fn formation_reduces_dynamic_blocks_on_random_programs() {
        use chf_ir::testgen::{generate, GenConfig};
        let gen_cfg = GenConfig::default();
        let (mut before_total, mut after_total) = (0u64, 0u64);
        for seed in 0..25 {
            let mut f = generate(seed, &gen_cfg);
            let p = profile_run(&f, &[3, 7], &[]).unwrap();
            p.apply(&mut f);
            let orig = f.clone();
            form_hyperblocks(&mut f, &mut BreadthFirst, &FormationConfig::default());
            let a = run(&orig, &[3, 7], &[], &RunConfig::default()).unwrap();
            let b = run(&f, &[3, 7], &[], &RunConfig::default()).unwrap();
            before_total += a.blocks_executed;
            after_total += b.blocks_executed;
        }
        assert!(
            after_total * 2 <= before_total,
            "formation should at least halve dynamic blocks: {after_total} vs {before_total}"
        );
    }

    /// Count the trials an unbounded formation of `f` performs.
    fn unbounded_trials(f: &Function) -> usize {
        let mut g = f.clone();
        form_hyperblocks(&mut g, &mut BreadthFirst, &FormationConfig::default()).trials
    }

    #[test]
    fn trial_budget_stops_exactly_at_cap() {
        use chf_ir::testgen::{generate, GenConfig};
        let mut base = generate(3, &GenConfig::default());
        let p = profile_run(&base, &[3, 7], &[]).unwrap();
        p.apply(&mut base);
        let full = unbounded_trials(&base);
        assert!(full > 2, "program too small to constrain: {full} trials");
        let cap = full / 2;
        let mut f = base.clone();
        let config = FormationConfig {
            trial_budget: Some(cap),
            ..FormationConfig::default()
        };
        let stats = form_hyperblocks(&mut f, &mut BreadthFirst, &config);
        verify(&f).unwrap();
        assert_eq!(
            stats.trials, cap,
            "ledger must stop exactly at the cap ({cap})"
        );
        assert!(
            stats.budget_skipped > 0,
            "a binding budget must record skipped candidates"
        );
        // The ledger surfaces in the m/t/u/p string only when it bit.
        assert!(
            stats.mtup().contains(&format!("(b:{cap}/")),
            "mtup must carry the ledger: {}",
            stats.mtup()
        );
        // Behaviour is still preserved under a binding budget.
        for args in [[3, 7], [0, 0], [9, 2]] {
            let a = run(&base, &args, &[], &RunConfig::default()).unwrap();
            let b = run(&f, &args, &[], &RunConfig::default()).unwrap();
            assert_eq!(a.digest(), b.digest(), "args {args:?}");
        }
    }

    #[test]
    fn unbounded_budget_leaves_ledger_silent() {
        let mut f = diamond();
        with_profile(&mut f, &[5]);
        let stats = form_hyperblocks(&mut f, &mut BreadthFirst, &FormationConfig::default());
        assert!(stats.trials > 0);
        assert_eq!(stats.budget_skipped, 0);
        // Without a binding budget the m/t/u/p string must be exactly the
        // historical four-field format (golden snapshots depend on it).
        assert!(
            !stats.mtup().contains("(b:"),
            "silent ledger leaked into mtup: {}",
            stats.mtup()
        );
    }

    #[test]
    fn zero_budget_forms_nothing() {
        let mut f = diamond();
        with_profile(&mut f, &[5]);
        let before = f.block_count();
        let config = FormationConfig {
            trial_budget: Some(0),
            ..FormationConfig::default()
        };
        let stats = form_hyperblocks(&mut f, &mut BreadthFirst, &config);
        verify(&f).unwrap();
        assert_eq!(stats.trials, 0);
        assert_eq!(stats.merges, 0);
        assert!(stats.budget_skipped > 0);
        assert_eq!(f.block_count(), before, "zero budget must not transform");
    }
}

//! Convergent hyperblock formation — the paper's Figure 5.
//!
//! `expand_block` implements `ExpandBlock`: starting from a seed block, it
//! repeatedly asks the policy for the best candidate successor, attempts the
//! merge as an *in-place trial* ([`merge_blocks`] snapshots the blocks the
//! merge can touch, transforms the CFG directly, verifies it and checks the
//! structural constraints, with a second check on the optimized block when
//! the merged one misfits), and keeps only successful merges. A refused
//! merge comes back as a [`Reject`] naming the step that refused it, and
//! the snapshot is rolled back in one place. The paper's implementation
//! tested merges in scratch space to "avoid a more complicated undo
//! step"; cloning the whole function per trial dominated
//! compile time here, so the undo step is now explicit — a merge only ever
//! writes the hyperblock, the merged successor, freshly appended blocks and
//! fresh registers, all of which [`chf_ir::function::BlocksSnapshot`]
//! restores exactly.
//!
//! [`form_hyperblocks_with_profile`] drives `ExpandBlock` over the whole
//! function in descending frequency order, so hot loop bodies unroll before
//! colder code competes for their blocks. Every merge runs in its caller's
//! [`FormationCtx`], whose CFG analyses are keyed on block versions, so
//! none needs invalidating: the dominator trees of the last two CFGs (the
//! pre-trial one survives a trial and its rollback), the liveness solution,
//! and what trial verification last saw pass.

use crate::chaos::ChaosSpec;
use crate::constraints::{BlockConstraints, Violation};
use crate::duplication::{classify, duplicate_for_merge, DuplicationKind};
use crate::error::ChfError;
use crate::ifconvert::{combine_with_liveness, CombineError};
use crate::oracle::OracleConfig;
use crate::policy::{Candidate, Policy};
use chf_ir::block::{Block, ExitTarget};
use chf_ir::function::Function;
use chf_ir::ids::BlockId;
use chf_ir::loops::LoopForest;
use chf_ir::profile::ProfileData;
use chf_ir::testgen::SplitMix64;
use chf_ir::verify::VerifyMemo;

/// Refuse tail duplication of blocks larger than this many slots (§5,
/// "Limiting tail duplication": duplicating a large merge point bloats code
/// and makes its contents data-dependent on the exit test).
const MAX_TAIL_DUP_SIZE: usize = 24;

/// Safety cap on merges per seed block.
const MAX_MERGES_PER_BLOCK: usize = 64;

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
    /// Run scalar optimizations on a merged block that misfits before
    /// checking it again, and on the function after each committed merge —
    /// the difference between `(IUP)O` and `(IUPO)`.
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
    /// Differential oracle: after each *committed* merge, re-execute the
    /// function on seeded inputs against its pre-merge self and roll the
    /// merge back on any behaviour change (see [`crate::oracle`]). `None`
    /// disables the oracle (the default — it re-runs the functional
    /// simulator per commit, so it is a debugging/hardening tool, not a
    /// production setting).
    pub oracle: Option<OracleConfig>,
    /// Deterministic mid-trial fault injection (see [`crate::chaos`]):
    /// periodically corrupts the merged block *inside* the trial window so
    /// the verify-and-rollback path is exercised. `None` (the default)
    /// injects nothing.
    pub chaos: Option<ChaosSpec>,
    /// Trial-budget ledger: cap on merge *trials* (attempted merges,
    /// successful or not) per formation run — one whole-function
    /// [`form_hyperblocks_with_profile`] call. `None` (the default)
    /// reproduces today's unbounded behaviour exactly. When the ledger runs
    /// dry, remaining candidates are skipped and counted in
    /// [`FormationStats::budget_skipped`]; the trials actually spent are in
    /// [`FormationStats::trials`] either way.
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
    /// In which order [`form_hyperblocks_with_profile`] visits seed blocks
    /// — who gets first claim on the trial budget.
    pub seed_order: SeedOrder,
}

/// Order in which [`form_hyperblocks_with_profile`] processes seed blocks.
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
    /// Merge trials refused by a [`Reject`] other than
    /// [`Reject::Disallowed`] and [`Reject::Skipped`].
    pub failures: usize,
    /// Trials contained by the crash-safety net: a verifier violation or
    /// oracle mismatch detected mid-formation, rolled back, and skipped
    /// (see [`Reject::Skipped`]). Deliberately *not* part of
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

/// Why [`merge_blocks`] refused a merge, named by the step that refused
/// it. Every rejection but [`Reject::Vanished`] leaves the function as the
/// merge found it.
#[derive(Clone, Debug, PartialEq)]
pub enum Reject {
    /// The merge is structurally impossible. The legality check reports a
    /// missing block or no edge `hb → s` as `NoEdge`, `s` being the entry
    /// as `IllegalTarget` and several such edges as `MultipleEdges`; the
    /// rest come from [`crate::ifconvert::combine`].
    Combine(CombineError),
    /// The configuration forbids this kind of duplication, or the merge
    /// point to tail-duplicate is too large.
    Disallowed(DuplicationKind),
    /// The merged block breaks the structural constraints.
    Misfit {
        /// The first constraint it breaks.
        violation: Violation,
        /// Whether the block misfit unoptimized and the trial optimizer
        /// ran on it before this check (only under
        /// [`FormationConfig::iterative_opt`]).
        optimized: bool,
    },
    /// The commit-time cleanup removed `hb` itself: `hb` was unreachable.
    /// The merge and the cleanup stay committed, and expansion of `hb`
    /// ends.
    Vanished,
    /// The crash-safety net fired: the trial produced IR the verifier
    /// rejected (and was rolled back bit-identically), or the committed
    /// merge failed the differential oracle (and was undone from the
    /// pre-merge clone). Either way the function is semantically unchanged
    /// and formation may continue with the remaining candidates.
    Skipped(ChfError),
}

/// The context every merge runs in: the clean-block memo of commit-time
/// optimization with the CFG analyses it carries, the trial-verification
/// memo, and the trial ledger.
///
/// One context serves one sequence of merges on one function: a formation
/// run, the finish of each of its budget forks, one discrete unroll/peel
/// pass ([`crate::unroll::hyperblock_unroll_peel`]), or one attempt of the
/// oracle's reducer. Create it with `FormationCtx::default()`.
///
/// No analysis here needs invalidating. The memo's liveness solution is
/// refreshed by block version, its dominator cache checks a CFG by block
/// versions and answers exactly as a fresh build would, and the
/// verification memo re-checks the blocks whose version moved. Peel budgets
/// depend only on the training profile (fixed for the run) and are memoized
/// forever.
#[derive(Default)]
pub struct FormationCtx {
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
    /// clean. Keyed by block version, then content, so it needs no
    /// invalidation: a commit touches a few blocks, and only those are
    /// optimized again.
    /// Its liveness solution, refreshed, starts every trial's, and its
    /// dominator cache answers every trial's CFG questions: the
    /// classification of the candidate edge and the trial optimizer's
    /// global round.
    clean: chf_opt::CleanBlocks,
    /// The last function state trial verification passed.
    verified: VerifyMemo,
    /// The smallest budget point still to fork at: the run forks when it
    /// reaches the ledger checkpoint with exactly this many trials spent.
    next_fork: Option<usize>,
    /// The budget points after `next_fork`, largest first.
    later_forks: Vec<usize>,
    /// Forks taken so far, in budget order.
    forks: Vec<BudgetFork>,
}

impl FormationCtx {
    /// Fork at each of `budgets` (any order, duplicates allowed) below the
    /// run's own budget `cap`.
    fn fork_at(&mut self, budgets: &[usize], cap: Option<usize>) {
        self.later_forks = budgets
            .iter()
            .copied()
            .filter(|&b| cap.is_none_or(|cap| b < cap))
            .collect();
        self.later_forks.sort_unstable_by(|a, b| b.cmp(a));
        self.later_forks.dedup();
        self.next_fork = self.later_forks.pop();
    }

    /// Fork the run capped at the trials spent so far, at the ledger
    /// checkpoint where that cap stops it: the function as it stands, and
    /// `seed_stats` charged the frontier the capped run drops here.
    fn fork(
        &mut self,
        f: &Function,
        seed_stats: &FormationStats,
        frontier: usize,
        deadline_expired: bool,
    ) {
        let mut stats = *seed_stats;
        stats.budget_skipped += frontier;
        stats.deadline_hit |= deadline_expired;
        self.forks.push(BudgetFork {
            budget: self.trials_spent,
            function: f.clone(),
            stats,
        });
        self.next_fork = self.later_forks.pop();
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

    /// Memoized [`peel_budget`] (profile-only, never invalidated).
    fn peel_budget(&mut self, profile: Option<&ProfileData>, header: BlockId) -> usize {
        *self
            .peel_budgets
            .entry(header)
            .or_insert_with(|| peel_budget(profile, header))
    }
}

/// Cheap structural pre-checks before attempting a merge: both blocks
/// exist, `s` is not the entry, and exactly one exit of `hb` targets `s`.
fn legal_merge(f: &Function, hb: BlockId, s: BlockId) -> Result<(), CombineError> {
    if !f.contains_block(hb) || !f.contains_block(s) {
        return Err(CombineError::NoEdge);
    }
    if s == f.entry {
        return Err(CombineError::IllegalTarget);
    }
    let edges = f
        .block(hb)
        .exits
        .iter()
        .filter(|e| e.target == ExitTarget::Block(s))
        .count();
    match edges {
        0 => Err(CombineError::NoEdge),
        1 => Ok(()),
        _ => Err(CombineError::MultipleEdges),
    }
}

/// `MergeBlocks` (Figure 5): attempt to merge `s` into `hb`, duplicating
/// `s` first when it has side entrances, optimizing if configured, and
/// committing only if the result satisfies the constraints. Returns the
/// kind of duplication the committed merge used, or the step that refused
/// it.
///
/// `saved_body` is the loop body saved before the first unroll: when the
/// merge is an unroll (`hb == s`), the appended iteration is instantiated
/// from it rather than from the current (already unrolled) block — the
/// paper's "saves the original loop body and appends one additional
/// iteration at a time", which keeps unroll granularity at one iteration
/// instead of doubling.
///
/// The merge runs in `ctx`, whose analyses follow `f` by block version, so
/// a caller merging repeatedly in one function passes the same context to
/// every call.
pub fn merge_blocks(
    f: &mut Function,
    hb: BlockId,
    s: BlockId,
    config: &FormationConfig,
    saved_body: Option<&Block>,
    ctx: &mut FormationCtx,
) -> Result<DuplicationKind, Reject> {
    legal_merge(f, hb, s).map_err(Reject::Combine)?;
    let kind = classify(f, ctx.clean.doms().tree(f), hb, s);
    merge_legal(f, hb, s, kind, config, saved_body, ctx)
}

/// Instantiate a saved loop body as a fresh block whose back edge targets
/// `hb`, retargeting `hb`'s self edge to it. Returns `None` (no change) if
/// any of the saved body's exit targets no longer exists.
fn append_saved_iteration(f: &mut Function, hb: BlockId, body: &Block) -> Option<BlockId> {
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

/// The core of [`merge_blocks`], for a legal edge `hb → s` that `classify`
/// found to be of `kind`. Three phases: admit (the configuration), the
/// in-place [`trial`], and commit.
///
/// A merge attempt touches a known, small set of state: the hyperblock `hb`
/// (guard code and spliced instructions/exits), the successor `s` (profile
/// rescaling during duplication, removal when merged directly), blocks
/// *appended* by duplication, and freshly allocated registers. Snapshotting
/// exactly that set makes rollback an exact inverse, so a refused trial
/// leaves `f` bit-identical to its pre-trial state — no whole-function
/// scratch clone per trial. The snapshot is restored in one place, on any
/// rejection of the trial.
///
/// With `iterative_opt`, the commit runs the historical whole-function
/// [`chf_opt::optimize_quick`] once per committed merge, reproducing the
/// exact committed state of the scratch-space implementation. It shares
/// the context's clean-block memo, so the blocks earlier commits left clean
/// and this merge did not touch skip the block-local kernels, and DCE skips
/// the blocks whose content and `live_out` its last clean sweep saw; global
/// GVN and jump threading still visit every block. With the oracle on, the
/// committed function is then checked against its pre-merge clone.
fn merge_legal(
    f: &mut Function,
    hb: BlockId,
    s: BlockId,
    kind: DuplicationKind,
    config: &FormationConfig,
    saved_body: Option<&Block>,
    ctx: &mut FormationCtx,
) -> Result<DuplicationKind, Reject> {
    let disallowed = match kind {
        DuplicationKind::None => false,
        DuplicationKind::Tail => !config.tail_duplication || f.block(s).size() > MAX_TAIL_DUP_SIZE,
        DuplicationKind::Unroll | DuplicationKind::Peel => !config.head_duplication,
    };
    if disallowed {
        return Err(Reject::Disallowed(kind));
    }

    // Differential-oracle baseline: the pre-merge function, cloned only
    // when the oracle is enabled (it is `None` in production configs, so
    // the hot path never pays for the clone).
    let oracle_orig = config.oracle.as_ref().map(|_| f.clone());

    let snap = f.snapshot_blocks([hb, s]);
    if let Err(reject) = trial(f, hb, s, kind, config, saved_body, ctx) {
        f.restore_blocks(snap);
        return Err(reject);
    }

    if config.iterative_opt {
        // Commit: the whole-function quick optimization the scratch-space
        // trial used to run, so the committed state matches it exactly.
        chf_opt::optimize_quick(f, &mut ctx.clean);
        if !f.contains_block(hb) {
            return Err(Reject::Vanished);
        }
    }
    if let Some(orig) = oracle_orig {
        // On a mismatch `post_commit_check` restores `f` from the pre-merge
        // clone, versions included, so the context's analyses see it as
        // the pre-merge CFG again.
        crate::oracle::post_commit_check(f, hb, s, config, &orig).map_err(Reject::Skipped)?;
    }
    Ok(kind)
}

/// The in-place trial of merging `s` into `hb`: duplicate, combine,
/// verify, and decide the fit. On `Err` the caller restores the snapshot;
/// on `Ok` `f` holds the merged, unoptimized `hb`.
///
/// A merged block that fits is committed as it stands. With
/// `iterative_opt`, one that does not fit is decided again on the scalar
/// pipeline scoped to it ([`chf_opt::optimize_block_quick`]): if the
/// optimized block fits, the merge commits, unoptimized. That trial
/// optimizer mutates nothing outside the snapshot, and its cleanup is
/// rewound.
///
/// Liveness is never solved from scratch per trial. The trial clones the
/// memo's solution after [refreshing](chf_ir::liveness::Liveness::refresh)
/// it — a rolled-back trial restores block versions, so that refresh only
/// re-solves what the last commit changed — and refreshes its clone after
/// each edit: for the speculation set after duplication, for the fit check
/// of the unoptimized block, and in and after the trial optimizer.
fn trial(
    f: &mut Function,
    hb: BlockId,
    s: BlockId,
    kind: DuplicationKind,
    config: &FormationConfig,
    saved_body: Option<&Block>,
    ctx: &mut FormationCtx,
) -> Result<(), Reject> {
    let mut lv = ctx.clean.liveness(f).clone();
    let s_eff = match kind {
        DuplicationKind::None => s,
        DuplicationKind::Unroll if s == hb => saved_body
            .and_then(|body| append_saved_iteration(f, hb, body))
            .unwrap_or_else(|| duplicate_for_merge(f, hb, s)),
        _ => duplicate_for_merge(f, hb, s),
    };
    // The speculation-safety set reads liveness after any duplication.
    lv.refresh(f);
    combine_with_liveness(f, hb, s_eff, config.speculation, Some(&lv)).map_err(Reject::Combine)?;
    // Canonicalize the exit list: merging both arms of a diamond leaves two
    // exits to the join; collapsing them removes the dead branch and lets
    // the join itself become a single-predecessor merge candidate.
    f.block_mut(hb).dedupe_exits();
    // Crash-safety net. The combine above is exactly the class of CFG
    // surgery the verifier polices; a violation here is a compiler bug, but
    // one we can *contain*: the snapshot is a complete undo record, so the
    // trial is rolled back bit-identically and the candidate skipped
    // instead of aborting the whole compilation.
    //
    // Fault-injection hook: with `config.chaos` set, periodically corrupt
    // the merged block inside the trial window — every injected fault must
    // be caught right here and survived via rollback, which is what the
    // chaos campaigns assert.
    if let Some(spec) = config.chaos {
        if ctx.chaos_fire(spec) {
            let rng = ctx.chaos_rng(spec);
            crate::chaos::corrupt_trial_block(f, hb, rng);
        }
    }
    chf_ir::verify::verify_changed(f, &mut ctx.verified).map_err(|error| {
        Reject::Skipped(ChfError::Verify {
            context: "merge trial",
            error,
        })
    })?;
    lv.refresh(f);
    debug_assert_eq!(lv, chf_ir::liveness::Liveness::compute(f));
    if let Err(violation) = config.constraints.check_with(f, hb, &lv) {
        if !config.iterative_opt {
            return Err(Reject::Misfit {
                violation,
                optimized: false,
            });
        }
        // Decide again on the *scoped* optimization of the merged block:
        // same scalar pipeline, same two-round budget, but only `hb` is
        // mutated so the snapshot stays a complete undo record.
        let merged = f.block(hb).clone();
        chf_opt::optimize_block_quick(f, hb, &mut lv, ctx.clean.doms());
        lv.refresh(f);
        debug_assert_eq!(lv, chf_ir::liveness::Liveness::compute(f));
        config
            .constraints
            .check_with(f, hb, &lv)
            .map_err(|violation| Reject::Misfit {
                violation,
                optimized: true,
            })?;
        // Rewind the decision's scoped cleanup.
        *f.block_mut(hb) = merged;
    }
    // Commit `hb` without `combine`'s growth slack: a formed function keeps
    // every block it commits.
    let blk = f.block_mut(hb);
    blk.insts.shrink_to_fit();
    blk.exits.shrink_to_fit();
    Ok(())
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
/// Built once per formation run.
fn original_headers(f: &Function) -> chf_ir::fxhash::FxHashMap<BlockId, BlockId> {
    let forest = LoopForest::of(f);
    f.block_ids()
        .filter_map(|b| forest.innermost_containing(b).map(|l| (b, l.header)))
        .collect()
}

/// `ExpandBlock` (Figure 5): grow `hb` by merging candidate successors
/// chosen by `policy` until no candidate fits. `profile`'s trip-count
/// histograms, keyed by `original_header`, bound unrolling and peeling (§5).
fn expand_block(
    f: &mut Function,
    hb: BlockId,
    policy: &dyn Policy,
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
    let mut saved_body: Option<Block> = None;
    while merges < MAX_MERGES_PER_BLOCK {
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
        // A run capped at exactly the trials spent so far stops here: fork
        // its result before going on. The unroll/peel gating below can
        // bring the loop back to this point without a trial, but the
        // budget point has moved on by then.
        if ctx.next_fork == Some(ctx.trials_spent) {
            ctx.fork(f, &stats, 1 + candidates.len(), deadline_expired);
        }
        if !ctx.budget_open(config) || deadline_expired {
            stats.budget_skipped += 1 + candidates.len();
            stats.deadline_hit |= deadline_expired;
            break;
        }
        let kind = classify(f, ctx.clean.doms().tree(f), hb, cand.block);
        if cand.block == hb {
            if saved_body.is_none() && kind == DuplicationKind::Unroll {
                saved_body = Some(f.block(hb).clone());
            }
            let budget = *unroll_budget
                .get_or_insert_with(|| expected_unroll_budget(f, hb, profile, original_header));
            if config.trip_aware_unroll && unrolls_done >= budget {
                failed.push(cand.block);
                continue;
            }
        } else if config.trip_aware_unroll && kind == DuplicationKind::Peel {
            // Peeling gate: merging a loop header that is not our own back
            // edge peels an iteration; only worthwhile for reliably
            // low-trip loops.
            let done = *peels_done.get(&cand.block).unwrap_or(&0);
            if done >= ctx.peel_budget(profile, cand.block) {
                failed.push(cand.block);
                continue;
            }
        }
        ctx.trials_spent += 1;
        stats.trials += 1;
        // The candidate was classified above, for the gates; an edge that
        // earlier merges took away fails here as a trial.
        let merged = legal_merge(f, hb, cand.block)
            .map_err(Reject::Combine)
            .and_then(|()| merge_legal(f, hb, cand.block, kind, config, saved_body.as_ref(), ctx));
        match merged {
            Ok(kind) => {
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
            Err(Reject::Vanished) => {
                // No `hb` is left to grow, and every remaining candidate
                // would fail the legality check.
                stats.failures += 1;
                break;
            }
            Err(reject) => {
                match reject {
                    Reject::Disallowed(_) => {}
                    // The safety net contained a verifier violation or
                    // oracle mismatch and left the function semantically
                    // intact; the candidate is poisoned, but formation
                    // converges on the rest.
                    Reject::Skipped(_) => stats.skipped += 1,
                    _ => stats.failures += 1,
                }
                failed.push(cand.block);
            }
        }
    }
    stats
}

/// Run convergent hyperblock formation over the whole function, with
/// `profile`'s trip-count histograms (if any) bounding the unroll/peel
/// budgets.
///
/// Seeds are processed in descending profile-frequency order (hot loop
/// bodies first). Afterwards unreachable blocks are removed.
pub fn form_hyperblocks_with_profile(
    f: &mut Function,
    policy: &mut dyn Policy,
    config: &FormationConfig,
    profile: Option<&ProfileData>,
) -> FormationStats {
    form_hyperblocks_forked(f, policy, config, profile, &[]).0
}

/// The result of a formation run capped at a smaller trial budget, forked
/// from a run with a larger one by [`form_hyperblocks_forked`].
#[derive(Clone, Debug)]
pub struct BudgetFork {
    /// The trial budget of the capped run.
    pub budget: usize,
    /// The function the capped run leaves, unreachable blocks removed.
    pub function: Function,
    /// The capped run's stats, ledger included.
    pub stats: FormationStats,
}

/// [`form_hyperblocks_with_profile`], also producing the result of the same
/// run capped at each of `fork_budgets` — each equal to a run of its own
/// with [`FormationConfig::trial_budget`] set to that budget.
///
/// The trial sequence is deterministic and the ledger only cuts it short,
/// so a run capped at `b` trials is this run up to the ledger checkpoint
/// where it has spent `b` trials. There the function is cloned, charged
/// the frontier the capped run drops, and finished the way the capped run
/// would: every later seed meets the closed ledger at its first candidate
/// and is charged its frontier. A budget this run never reaches at a
/// checkpoint (because the run spends no more trials) yields no fork: the
/// capped run would be this run exactly; nor does a budget at or above
/// `config.trial_budget`.
pub fn form_hyperblocks_forked(
    f: &mut Function,
    policy: &mut dyn Policy,
    config: &FormationConfig,
    profile: Option<&ProfileData>,
    fork_budgets: &[usize],
) -> (FormationStats, Vec<BudgetFork>) {
    policy.prepare(f);
    let policy: &dyn Policy = policy;
    // One context for the whole run; the headers map is built once.
    let mut ctx = FormationCtx::default();
    ctx.fork_at(fork_budgets, config.trial_budget);
    let headers = original_headers(f);
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
    for (i, &(b, _)) in seeds.iter().enumerate() {
        if !f.contains_block(b) {
            continue;
        }
        let forked = ctx.forks.len();
        let header = headers.get(&b).copied();
        let s = expand_block(f, b, policy, config, profile, header, &mut ctx);
        for fork in &mut ctx.forks[forked..] {
            fork.stats.merge(&stats);
            finish_fork(fork, &seeds[i + 1..], policy, config, profile, &headers);
        }
        stats.merge(&s);
    }
    chf_ir::cfg::remove_unreachable(f);
    (stats, ctx.forks)
}

/// Finish `fork` as its capped run would after the seed it forked in: each
/// of the `rest` seeds meets the closed ledger at its first candidate and
/// is charged its frontier (no trial runs, so neither the function nor the
/// policy changes), then the unreachable blocks go.
fn finish_fork(
    fork: &mut BudgetFork,
    rest: &[(BlockId, f64)],
    policy: &dyn Policy,
    config: &FormationConfig,
    profile: Option<&ProfileData>,
    headers: &chf_ir::fxhash::FxHashMap<BlockId, BlockId>,
) {
    // The fork's ledger is spent: a budget of 0 closes it at every seed.
    let config = FormationConfig {
        trial_budget: Some(0),
        ..config.clone()
    };
    let mut ctx = FormationCtx::default();
    for &(b, _) in rest {
        if !fork.function.contains_block(b) {
            continue;
        }
        let s = expand_block(
            &mut fork.function,
            b,
            policy,
            &config,
            profile,
            headers.get(&b).copied(),
            &mut ctx,
        );
        fork.stats.merge(&s);
    }
    chf_ir::cfg::remove_unreachable(&mut fork.function);
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

    /// Breadth-first formation of `f` without a profile.
    fn form(f: &mut Function, config: &FormationConfig) -> FormationStats {
        form_hyperblocks_with_profile(f, &mut BreadthFirst, config, None)
    }

    /// Stamp a self-profile onto `f` using the given training input.
    fn with_profile(f: &mut Function, args: &[i64]) {
        let p = profile_run(f, args, &[]).unwrap();
        p.apply(f);
    }

    /// `e → t | z → j`, with `pad` more instructions in the join `j`.
    /// Returns the function, `t` and `j`.
    fn padded_diamond(pad: usize) -> (Function, BlockId, BlockId) {
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
        let mut y = fb.mul(reg(out), Operand::Imm(10));
        for _ in 0..pad {
            y = fb.add(reg(y), Operand::Imm(1));
        }
        fb.ret(Some(reg(y)));
        (fb.build().unwrap(), t, j)
    }

    fn diamond() -> Function {
        padded_diamond(0).0
    }

    #[test]
    fn diamond_collapses_to_one_block() {
        let mut f = diamond();
        with_profile(&mut f, &[5]);
        let orig = f.clone();
        let stats = form(&mut f, &FormationConfig::default());
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
        let stats = form(&mut f, &FormationConfig::default());
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
        let stats = form(&mut f, &FormationConfig::default());
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
        form(&mut f, &config);
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
        let stats = form(&mut f, &config);
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
            form(&mut f, &cfg);
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
            form(&mut f, &FormationConfig::default());
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
        form(&mut g, &FormationConfig::default()).trials
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
        let stats = form(&mut f, &config);
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
        let stats = form(&mut f, &FormationConfig::default());
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
        let stats = form(&mut f, &config);
        verify(&f).unwrap();
        assert_eq!(stats.trials, 0);
        assert_eq!(stats.merges, 0);
        assert!(stats.budget_skipped > 0);
        assert_eq!(f.block_count(), before, "zero budget must not transform");
    }

    /// A merge whose block sits on the bank-0 read limit, where global
    /// value numbering rewrites `d = add p1, 5` in the merged block to a
    /// copy of `pr`, defined by the same expression in the entry block:
    /// after the trial optimizer, `pr` (bank 0) is a ninth bank-0 read.
    /// Returns the function, the block merged into and the block merged.
    fn gvn_tips_a_bank() -> (Function, BlockId, BlockId) {
        let mut fb = FunctionBuilder::new("f", 40);
        let e = fb.create_block();
        let h = fb.create_block();
        let s = fb.create_block();
        let p1 = reg(chf_ir::ids::Reg(1));
        fb.switch_to(e);
        let mut pr = fb.fresh_reg();
        while !pr.0.is_multiple_of(4) {
            pr = fb.fresh_reg();
        }
        fb.push(chf_ir::instr::Instr::add(pr, p1, Operand::Imm(5)));
        fb.jump(h);
        fb.switch_to(h);
        let mut acc = fb.mov(Operand::Imm(0));
        for i in 0..8 {
            acc = fb.add(reg(acc), reg(chf_ir::ids::Reg(i * 4)));
        }
        fb.jump(s);
        fb.switch_to(s);
        let d = fb.add(p1, Operand::Imm(5));
        let r = fb.add(reg(acc), reg(d));
        fb.ret(Some(reg(r)));
        (fb.build().unwrap(), h, s)
    }

    #[test]
    fn a_block_that_fits_as_merged_commits() {
        let (mut f, h, s) = gvn_tips_a_bank();
        assert_eq!(
            merge_blocks(
                &mut f,
                h,
                s,
                &FormationConfig::default(),
                None,
                &mut FormationCtx::default()
            ),
            Ok(DuplicationKind::None)
        );
        verify(&f).unwrap();
        // It commits although the trial optimizer would tip bank 0.
        let (mut f, h, s) = gvn_tips_a_bank();
        let no_opt = FormationConfig {
            iterative_opt: false,
            ..FormationConfig::default()
        };
        assert_eq!(
            merge_blocks(&mut f, h, s, &no_opt, None, &mut FormationCtx::default()),
            Ok(DuplicationKind::None)
        );
        let mut lv = chf_ir::liveness::Liveness::compute(&f);
        chf_opt::optimize_block_quick(&mut f, h, &mut lv, &mut chf_ir::dom::DomCache::new());
        lv.refresh(&f);
        let optimized = no_opt.constraints.check_with(&f, h, &lv);
        assert!(
            matches!(optimized, Err(Violation::TooManyBankReads { bank: 0, .. })),
            "{optimized:?}"
        );
    }

    /// Merge `s` into `hb`, expecting a refusal that leaves `f` printing
    /// as before and still verifying.
    fn refused(f: &mut Function, hb: BlockId, s: BlockId, config: &FormationConfig) -> Reject {
        let before = f.to_string();
        let reject = merge_blocks(f, hb, s, config, None, &mut FormationCtx::default())
            .expect_err("merge must be refused");
        assert_eq!(f.to_string(), before, "{reject:?} left the merge behind");
        verify(f).unwrap();
        reject
    }

    #[test]
    fn the_entry_is_an_illegal_target() {
        let (mut f, t, _) = padded_diamond(0);
        let entry = f.entry;
        let reject = refused(&mut f, t, entry, &FormationConfig::default());
        assert_eq!(reject, Reject::Combine(CombineError::IllegalTarget));
    }

    #[test]
    fn a_clobbered_exit_predicate_rolls_back() {
        // The entry exits `[c1] -> x`, `[c2] -> s`, `-> y`, and `s` writes
        // `c1`, the predicate of an exit evaluated after its code.
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        let s = fb.create_block();
        let x = fb.create_block();
        let y = fb.create_block();
        fb.switch_to(e);
        let c1 = fb.cmp_lt(reg(fb.param(0)), Operand::Imm(0));
        let c2 = fb.cmp_gt(reg(fb.param(0)), Operand::Imm(10));
        fb.jump(y);
        fb.switch_to(s);
        fb.mov_to(c1, Operand::Imm(1));
        fb.ret(None);
        fb.switch_to(x);
        fb.ret(None);
        fb.switch_to(y);
        fb.ret(None);
        let mut f = fb.build().unwrap();
        f.block_mut(e).exits = vec![
            chf_ir::block::Exit::when(chf_ir::instr::Pred::on_true(c1), x),
            chf_ir::block::Exit::when(chf_ir::instr::Pred::on_true(c2), s),
            chf_ir::block::Exit::jump(y),
        ];
        let reject = refused(&mut f, e, s, &FormationConfig::default());
        assert_eq!(reject, Reject::Combine(CombineError::ClobbersRemainingExit));
    }

    #[test]
    fn tail_duplication_is_disallowed_over_the_cap_or_when_off() {
        let (mut f, t, j) = padded_diamond(MAX_TAIL_DUP_SIZE);
        assert!(f.block(j).size() > MAX_TAIL_DUP_SIZE);
        let reject = refused(&mut f, t, j, &FormationConfig::default());
        assert_eq!(reject, Reject::Disallowed(DuplicationKind::Tail));
        let (mut f, t, j) = padded_diamond(0);
        let no_tails = FormationConfig {
            tail_duplication: false,
            ..FormationConfig::default()
        };
        let reject = refused(&mut f, t, j, &no_tails);
        assert_eq!(reject, Reject::Disallowed(DuplicationKind::Tail));
    }

    #[test]
    fn an_unoptimized_misfit_rolls_back() {
        let (mut f, t, _) = padded_diamond(0);
        let entry = f.entry;
        let config = FormationConfig {
            constraints: BlockConstraints {
                max_insts: 2,
                headroom_percent: 0,
                ..BlockConstraints::trips()
            },
            iterative_opt: false,
            ..FormationConfig::default()
        };
        let reject = refused(&mut f, entry, t, &config);
        assert!(
            matches!(
                reject,
                Reject::Misfit {
                    violation: Violation::TooManyInstructions { .. },
                    optimized: false
                }
            ),
            "{reject:?}"
        );
    }

    #[test]
    fn an_optimized_misfit_names_its_bank() {
        // With `s` adding `p32` where it added `p1`, the merged block reads
        // bank 0 nine times unoptimized, and every read feeds the returned
        // value, so no kernel can drop one.
        let (mut f, h, s) = gvn_tips_a_bank();
        f.block_mut(s).insts[0].a = Some(reg(chf_ir::ids::Reg(32)));
        let reject = refused(&mut f, h, s, &FormationConfig::default());
        assert!(
            matches!(
                reject,
                Reject::Misfit {
                    violation: Violation::TooManyBankReads { bank: 0, .. },
                    optimized: true
                }
            ),
            "{reject:?}"
        );
    }

    #[test]
    fn a_corrupted_trial_is_skipped_and_rolled_back() {
        let (mut f, t, _) = padded_diamond(0);
        let entry = f.entry;
        let config = FormationConfig {
            chaos: Some(ChaosSpec { seed: 1, period: 1 }),
            ..FormationConfig::default()
        };
        let reject = refused(&mut f, entry, t, &config);
        assert!(
            matches!(reject, Reject::Skipped(ChfError::Verify { .. })),
            "{reject:?}"
        );
    }

    /// The entry `B0` jumps to `B3`, a merge point too large to
    /// tail-duplicate. The unreachable `B1` branches to `B2` and `B3`; `B2`
    /// reaches the return through the empty forwarder `B4`.
    fn unreachable_seed() -> Function {
        let mut text = String::from(
            "fn vanish(params: 1, regs: 29)\n\
             B0:\n  exits:\n    -> B3\n\
             B1:\n    r1 = lt r0, #0\n  exits:\n    [r1] -> B2\n    -> B3\n\
             B2:\n  exits:\n    -> B4\n\
             B3:\n",
        );
        for i in 2..28 {
            let src = if i == 2 { 0 } else { i - 1 };
            text += &format!("    r{i} = add r{src}, #1\n");
        }
        text += "  exits:\n    -> ret r27\n\
                 B4:\n  exits:\n    -> B5\n\
                 B5:\n  exits:\n    -> ret r0\n";
        chf_ir::parse::parse_function(&text).unwrap()
    }

    #[test]
    fn a_vanished_hyperblock_ends_its_expansion() {
        let mut f = unreachable_seed();
        let (b1, b2) = (BlockId(1), BlockId(2));
        assert_eq!(
            merge_blocks(
                &mut f,
                b1,
                b2,
                &FormationConfig::default(),
                None,
                &mut FormationCtx::default()
            ),
            Err(Reject::Vanished)
        );
        assert!(!f.contains_block(b1));
        verify(&f).unwrap();
        // `B1`'s other candidate, `B3`, is not tried after it vanished.
        let mut f = unreachable_seed();
        let stats = form(&mut f, &FormationConfig::default());
        assert_eq!((stats.trials, stats.failures), (2, 1));
    }
}

//! Per-function policy tournaments: run a small portfolio of
//! block-selection policies, score each entrant on the training input, and
//! keep the winner's formed blocks.
//!
//! PR 4's equal-budget ablation showed no fixed policy dominates: hot-first
//! wins suite totals but loses composites where structure beats profile
//! signal. The tournament closes that gap adaptively: for each function it
//! compiles every `(policy, trial-budget)` entrant of a configurable
//! portfolio, scores each by the functional simulator's dynamic block count
//! on the training input, and keeps the artifact with the best score. A
//! policy's budget entrants come from one formation run, forked at the trial
//! ledger ([`crate::pipeline::try_compile_budgets`]). Entrant enumeration,
//! scoring, and tie-breaking are fully deterministic, so a tournament run at
//! any worker count picks the same winner.
//!
//! [`crown`] is the one place a winner is picked. [`run_tournament`] feeds
//! it formation runs made in turn; the compile service (`chf-service`)
//! feeds it the same groups compiled in parallel (one job per policy
//! through `submit_budgets`), and adds a CFG-shape cache so recurring
//! shapes skip the tournament entirely.

use crate::pipeline::{try_compile_budgets, CompileConfig, Compiled};
use crate::policy::PolicyKind;
use crate::ChfError;
use chf_ir::function::Function;
use chf_ir::profile::ProfileData;
use chf_sim::functional::{run, RunConfig};

/// What a tournament scores entrants by. Lower is always better.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ScoreMetric {
    /// Dynamic block count under the functional simulator — the paper's
    /// Table 3 proxy: cheap, deterministic, and strongly correlated with
    /// cycles (Figure 7, r² ≈ 0.78).
    DynamicBlocks,
}

/// Portfolio and scoring configuration of a tournament.
#[derive(Clone, Debug)]
pub struct TournamentConfig {
    /// Policies entered, in deterministic tie-break order (earlier wins
    /// ties).
    pub policies: Vec<PolicyKind>,
    /// Trial-budget points each policy is entered at (`None` = unbounded).
    /// The portfolio is the cross product `policies × budgets`.
    pub budgets: Vec<Option<usize>>,
    /// Scoring metric.
    pub metric: ScoreMetric,
    /// Base compiler configuration every entrant is derived from (entrants
    /// override only `policy` and `trial_budget`).
    pub base: CompileConfig,
}

impl Default for TournamentConfig {
    fn default() -> Self {
        TournamentConfig {
            policies: vec![
                PolicyKind::BreadthFirst,
                PolicyKind::HotFirst,
                PolicyKind::DepthFirst,
            ],
            budgets: vec![Some(16), None],
            metric: ScoreMetric::DynamicBlocks,
            base: CompileConfig::convergent(),
        }
    }
}

impl TournamentConfig {
    /// The portfolio as `(label, config)` pairs, in deterministic entrant
    /// order (policy-major, so ties resolve to the earlier policy at the
    /// tighter budget). Labels render the budget point (`HF@16`, `DF@unb`).
    pub fn entrants(&self) -> Vec<(String, CompileConfig)> {
        let mut out = Vec::with_capacity(self.policies.len() * self.budgets.len());
        for &policy in &self.policies {
            for &budget in &self.budgets {
                let mut config = self.base.clone();
                config.policy = policy;
                config.trial_budget = budget;
                out.push((entrant_label(policy, budget), config));
            }
        }
        out
    }
}

/// Stable label for one `(policy, budget)` entrant.
pub fn entrant_label(policy: PolicyKind, budget: Option<usize>) -> String {
    match budget {
        Some(b) => format!("{}@{b}", policy.label()),
        None => format!("{}@unb", policy.label()),
    }
}

/// Outcome of one tournament.
#[derive(Clone, Debug)]
pub struct TournamentResult {
    /// The winning artifact, with
    /// [`FormationStats::tournament_entrants`](crate::FormationStats)
    /// stamped to the portfolio size that produced it.
    pub winner: Compiled,
    /// Winning policy.
    pub policy: PolicyKind,
    /// Winning trial budget.
    pub budget: Option<usize>,
    /// Winning entrant's label.
    pub label: String,
    /// Winning entrant's score.
    pub score: u64,
    /// Baseline score of the *uncompiled* input on the same metric, for
    /// normalizing scores into improvements (shape-cache guard band).
    pub baseline: u64,
}

/// Improvement of `score` over `baseline`, in permille of `baseline`.
pub fn improvement_permille(baseline: u64, score: u64) -> i64 {
    if baseline == 0 {
        return 0;
    }
    (baseline as i64 - score as i64) * 1000 / baseline as i64
}

/// Observable behaviour of a run — the functional simulator's digest
/// (return value plus final memory), which every entrant must reproduce.
pub type BehaviourDigest = (Option<i64>, Vec<(i64, i64)>);

/// Score one compiled artifact on `metric`, verifying behaviour against the
/// expected functional digest of the uncompiled input.
///
/// # Errors
/// A message when simulation fails or the artifact changed observable
/// behaviour — the tournament must never crown a miscompile.
pub fn score(
    compiled: &Function,
    args: &[i64],
    memory: &[(i64, i64)],
    metric: ScoreMetric,
    expected_digest: &BehaviourDigest,
) -> Result<u64, String> {
    let r = run(compiled, args, memory, &RunConfig::default())
        .map_err(|e| format!("functional simulation failed: {e}"))?;
    if &r.digest() != expected_digest {
        return Err("behaviour changed (functional digest mismatch)".to_string());
    }
    match metric {
        ScoreMetric::DynamicBlocks => Ok(r.blocks_executed),
    }
}

/// Functional digest and baseline score of the uncompiled input — the
/// reference every entrant is validated and normalized against.
///
/// # Errors
/// A message when the input itself fails to simulate.
pub fn baseline(
    f: &Function,
    args: &[i64],
    memory: &[(i64, i64)],
    metric: ScoreMetric,
) -> Result<(BehaviourDigest, u64), String> {
    let r = run(f, args, memory, &RunConfig::default())
        .map_err(|e| format!("baseline simulation failed: {e}"))?;
    let score = match metric {
        ScoreMetric::DynamicBlocks => r.blocks_executed,
    };
    Ok((r.digest(), score))
}

/// Score one policy's budget entrants in order (`None`: no artifact to
/// score). An artifact equal to an earlier member's is scored once: a
/// budget its formation run never reached shares the run's artifact.
fn score_group(
    members: &[Option<Compiled>],
    args: &[i64],
    memory: &[(i64, i64)],
    metric: ScoreMetric,
    expected_digest: &BehaviourDigest,
) -> Vec<Option<u64>> {
    let mut scored: Vec<(&Compiled, Option<u64>)> = Vec::new();
    members
        .iter()
        .map(|member| {
            let compiled = member.as_ref()?;
            // Stats first: they tell a forked artifact apart cheaply.
            let same = |c: &&Compiled| c.stats == compiled.stats && c.function == compiled.function;
            if let Some((_, s)) = scored.iter().find(|(c, _)| same(c)) {
                return *s;
            }
            let s = score(&compiled.function, args, memory, metric, expected_digest).ok();
            scored.push((compiled, s));
            s
        })
        .collect()
}

/// Crown the winner of a portfolio whose entrants are already compiled.
///
/// `groups` yields one group per policy, in `config.policies` order, each
/// with one member per `config.budgets` entry; a `None` member has no
/// artifact (it failed, was shed, or timed out). Groups are scored as they
/// arrive, each against the uncompiled input's `digest`, and the earliest
/// strict minimum wins, so the winner does not depend on how the groups
/// were compiled.
///
/// # Errors
/// [`ChfError`] when no member has an artifact that scores (every entrant
/// failed or miscompiled).
pub fn crown(
    config: &TournamentConfig,
    digest: &BehaviourDigest,
    baseline: u64,
    args: &[i64],
    memory: &[(i64, i64)],
    groups: impl IntoIterator<Item = Vec<Option<Compiled>>>,
) -> Result<TournamentResult, ChfError> {
    let mut best: Option<(PolicyKind, Option<usize>, u64, Compiled)> = None;
    for (&policy, group) in config.policies.iter().zip(groups) {
        let scores = score_group(&group, args, memory, config.metric, digest);
        for ((&budget, member), s) in config.budgets.iter().zip(group).zip(scores) {
            if let (Some(compiled), Some(s)) = (member, s) {
                // Strict `<` keeps the earliest entrant on ties.
                if best.as_ref().is_none_or(|(_, _, b, _)| s < *b) {
                    best = Some((policy, budget, s, compiled));
                }
            }
        }
    }
    let (policy, budget, score, mut winner) = best.ok_or(ChfError::Tournament {
        message: "every portfolio entrant failed".to_string(),
    })?;
    winner.stats.tournament_entrants = config.policies.len() * config.budgets.len();
    Ok(TournamentResult {
        winner,
        policy,
        budget,
        label: entrant_label(policy, budget),
        score,
        baseline,
    })
}

/// Run the full portfolio sequentially and crown a winner.
///
/// Each policy's budget entrants come from one formation run
/// ([`try_compile_budgets`]), equal to compiling each on its own; a failed
/// entrant is left out of the crowning rather than failing the tournament.
///
/// # Errors
/// [`ChfError`] when the baseline cannot be established or *every* entrant
/// fails.
pub fn run_tournament(
    f: &Function,
    profile: &ProfileData,
    args: &[i64],
    memory: &[(i64, i64)],
    config: &TournamentConfig,
) -> Result<TournamentResult, ChfError> {
    let (digest, base_score) = baseline(f, args, memory, config.metric)
        .map_err(|message| ChfError::Tournament { message })?;
    let groups = config.policies.iter().map(|&policy| {
        let group_config = CompileConfig {
            policy,
            ..config.base.clone()
        };
        try_compile_budgets(f, profile, &group_config, &config.budgets)
            .into_iter()
            .map(Result::ok)
            .collect()
    });
    crown(config, &digest, base_score, args, memory, groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chf_ir::builder::FunctionBuilder;
    use chf_ir::instr::Operand;
    use chf_sim::functional::profile_run;

    fn loopy() -> (Function, Vec<i64>) {
        let mut fb = FunctionBuilder::new("loopy", 1);
        let entry = fb.create_block();
        let header = fb.create_block();
        let body = fb.create_block();
        let exit = fb.create_block();
        fb.switch_to(entry);
        let i = fb.mov(Operand::Imm(0));
        let acc = fb.mov(Operand::Imm(0));
        fb.jump(header);
        fb.switch_to(header);
        let c = fb.cmp_lt(Operand::Reg(i), Operand::Reg(fb.param(0)));
        fb.branch(c, body, exit);
        fb.switch_to(body);
        let a2 = fb.add(Operand::Reg(acc), Operand::Reg(i));
        fb.mov_to(acc, Operand::Reg(a2));
        let i2 = fb.add(Operand::Reg(i), Operand::Imm(1));
        fb.mov_to(i, Operand::Reg(i2));
        fb.jump(header);
        fb.switch_to(exit);
        fb.ret(Some(Operand::Reg(acc)));
        (fb.build().unwrap(), vec![10])
    }

    #[test]
    fn entrants_are_the_cross_product_in_order() {
        let config = TournamentConfig::default();
        let entrants = config.entrants();
        assert_eq!(entrants.len(), 6);
        assert_eq!(entrants[0].0, "BF@16");
        assert_eq!(entrants[1].0, "BF@unb");
        assert_eq!(entrants[2].0, "HF@16");
        assert_eq!(entrants[5].0, "DF@unb");
        assert_eq!(entrants[3].1.trial_budget, None);
        assert_eq!(entrants[2].1.policy, PolicyKind::HotFirst);
    }

    #[test]
    fn tournament_beats_or_matches_every_entrant_and_is_deterministic() {
        let (f, args) = loopy();
        let profile = profile_run(&f, &args, &[]).unwrap();
        let config = TournamentConfig::default();
        let r1 = run_tournament(&f, &profile, &args, &[], &config).unwrap();
        let r2 = run_tournament(&f, &profile, &args, &[], &config).unwrap();
        assert_eq!(r1.label, r2.label);
        assert_eq!(r1.score, r2.score);
        assert_eq!(r1.winner.stats, r2.winner.stats);
        assert_eq!(r1.winner.stats.tournament_entrants, 6);
        let (digest, _) = baseline(&f, &args, &[], config.metric).unwrap();
        for (label, entrant) in config.entrants() {
            let compiled = crate::pipeline::try_compile(&f, &profile, &entrant).unwrap();
            let s = score(&compiled.function, &args, &[], config.metric, &digest).unwrap();
            assert!(r1.score <= s, "{label}: winner {} > entrant {s}", r1.score);
        }
        assert!(r1.score <= r1.baseline, "formation made the loop worse");
    }

    #[test]
    fn crown_keeps_the_earliest_best_and_fails_without_an_artifact() {
        let (f, args) = loopy();
        let profile = profile_run(&f, &args, &[]).unwrap();
        let config = TournamentConfig::default();
        let (digest, base) = baseline(&f, &args, &[], config.metric).unwrap();
        let compiled = crate::pipeline::try_compile(&f, &profile, &config.base).unwrap();

        // Equal artifacts tie: the earliest member with one wins.
        let groups = vec![
            vec![None, None],
            vec![None, Some(compiled.clone())],
            vec![Some(compiled.clone()), Some(compiled)],
        ];
        let r = crown(&config, &digest, base, &args, &[], groups).unwrap();
        assert_eq!(r.label, "HF@unb");
        assert_eq!((r.policy, r.budget), (PolicyKind::HotFirst, None));
        assert_eq!(r.winner.stats.tournament_entrants, 6);
        assert_eq!(r.baseline, base);

        let empty = vec![vec![None, None]; 3];
        let err = crown(&config, &digest, base, &args, &[], empty).unwrap_err();
        assert!(err.to_string().contains("every portfolio entrant failed"));
        assert!(!err.is_transient(), "a failed crowning reproduces: {err}");
    }

    #[test]
    fn an_input_that_fails_its_baseline_simulation_is_a_permanent_error() {
        // The entry block jumps to a block that does not exist.
        let (mut f, args) = loopy();
        let entry = f.entry;
        f.block_mut(entry).exits.last_mut().unwrap().target =
            chf_ir::block::ExitTarget::Block(chf_ir::ids::BlockId(999));
        let err = run_tournament(
            &f,
            &ProfileData::default(),
            &args,
            &[],
            &TournamentConfig::default(),
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("baseline simulation failed"),
            "{err}"
        );
        assert!(!err.is_transient(), "a failed baseline reproduces: {err}");
    }

    #[test]
    fn improvement_permille_is_signed() {
        assert_eq!(improvement_permille(1000, 750), 250);
        assert_eq!(improvement_permille(1000, 1100), -100);
        assert_eq!(improvement_permille(0, 5), 0);
    }
}

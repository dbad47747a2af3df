//! Per-function policy tournaments: run a small portfolio of
//! block-selection policies, score each entrant on the training input, and
//! keep the winner's formed blocks.
//!
//! PR 4's equal-budget ablation showed no fixed policy dominates: hot-first
//! wins suite totals but loses composites where structure beats profile
//! signal. The tournament closes that gap adaptively: for each function it
//! compiles every `(policy, trial-budget)` entrant of a configurable
//! portfolio, scores each by the functional simulator's dynamic block count
//! on the training input (event-sim cycles behind an opt-in metric), and
//! keeps the artifact with the best score. A policy's budget entrants come
//! from one formation run, forked at the trial ledger
//! ([`crate::pipeline::try_compile_budgets`]). Entrant enumeration, scoring,
//! and tie-breaking are fully deterministic, so a tournament run at any
//! worker count picks the same winner.
//!
//! This module is the *sequential* core. The compile service layers the
//! parallel path on top (one job per policy through `submit_budgets`) plus a
//! CFG-shape cache so recurring shapes skip the tournament entirely; see
//! `chf-service`.

use crate::pipeline::{try_compile_budgets, CompileConfig, Compiled};
use crate::policy::PolicyKind;
use crate::ChfError;
use chf_ir::function::Function;
use chf_ir::profile::ProfileData;
use chf_sim::functional::{run, RunConfig};
use chf_sim::timing::{simulate_timing, TimingConfig};

/// What a tournament scores entrants by. Lower is always better.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ScoreMetric {
    /// Dynamic block count under the functional simulator — the paper's
    /// Table 3 proxy and the default: cheap, deterministic, and strongly
    /// correlated with cycles (Figure 7, r² ≈ 0.78).
    DynamicBlocks,
    /// Cycle count under the event-driven timing simulator. Opt-in: an
    /// order of magnitude slower per entrant, for when the proxy's
    /// correlation is not enough.
    EventCycles,
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
    /// Shape-cache guard band, in permille of baseline improvement: a hot
    /// (cached-winner) compile whose improvement falls more than this far
    /// below the cached score triggers a full tournament instead of
    /// trusting the stale winner. Used by the service layer.
    pub guard_band_permille: u32,
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
            guard_band_permille: 20,
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

/// One scored entrant.
#[derive(Clone, Debug)]
pub struct Entrant {
    /// Display label (`BF@16`, `HF@unb`, …).
    pub label: String,
    /// The policy entered.
    pub policy: PolicyKind,
    /// The trial budget entered at.
    pub budget: Option<usize>,
    /// Metric score (lower is better); `None` when the entrant failed to
    /// compile, simulate, or preserve behaviour (it is then excluded from
    /// winner selection rather than poisoning the tournament).
    pub score: Option<u64>,
    /// Formation trials the entrant spent.
    pub trials: usize,
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
    /// Every entrant, in portfolio order, with its score.
    pub entrants: Vec<Entrant>,
}

impl TournamentResult {
    /// The winner's improvement over baseline, in permille (negative when
    /// the winner is *worse* than the uncompiled input — possible under
    /// pathological budgets).
    pub fn improvement_permille(&self) -> i64 {
        improvement_permille(self.baseline, self.score)
    }
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
        ScoreMetric::EventCycles => {
            let t = simulate_timing(compiled, args, memory, &TimingConfig::trips())
                .map_err(|e| format!("timing simulation failed: {e}"))?;
            Ok(t.cycles)
        }
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
    let digest = r.digest();
    let score = match metric {
        ScoreMetric::DynamicBlocks => r.blocks_executed,
        ScoreMetric::EventCycles => {
            let t = simulate_timing(f, args, memory, &TimingConfig::trips())
                .map_err(|e| format!("baseline timing simulation failed: {e}"))?;
            t.cycles
        }
    };
    Ok((digest, score))
}

/// Score one policy's budget entrants in order (`None`: no artifact to
/// score). An artifact equal to an earlier member's is scored once: a
/// budget its formation run never reached shares the run's artifact.
pub fn score_group<'a>(
    members: impl IntoIterator<Item = Option<&'a Compiled>>,
    args: &[i64],
    memory: &[(i64, i64)],
    metric: ScoreMetric,
    expected_digest: &BehaviourDigest,
) -> Vec<Option<u64>> {
    let mut scored: Vec<(&Compiled, Option<u64>)> = Vec::new();
    members
        .into_iter()
        .map(|member| {
            let compiled = member?;
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

/// Run the full portfolio sequentially and crown a winner.
///
/// Each policy's budget entrants come from one formation run
/// ([`try_compile_budgets`]), equal to compiling each on its own.
///
/// Deterministic: entrants are enumerated, compiled, and scored in
/// portfolio order, and ties go to the earlier entrant — a tournament at
/// any parallelism (the service fans entrants out but scores in the same
/// order) selects the same winner.
///
/// # Errors
/// [`ChfError`] when the baseline cannot be established or *every* entrant
/// fails; individual entrant failures are contained and recorded on the
/// entrant.
pub fn run_tournament(
    f: &Function,
    profile: &ProfileData,
    args: &[i64],
    memory: &[(i64, i64)],
    config: &TournamentConfig,
) -> Result<TournamentResult, ChfError> {
    let (digest, base_score) =
        baseline(f, args, memory, config.metric).map_err(|message| ChfError::Panicked {
            context: "tournament baseline",
            message,
        })?;

    let mut entrants = Vec::new();
    let mut best: Option<(usize, u64, Compiled)> = None;
    for &policy in &config.policies {
        let group_config = CompileConfig {
            policy,
            ..config.base.clone()
        };
        let group = try_compile_budgets(f, profile, &group_config, &config.budgets);
        let scores = score_group(
            group.iter().map(|r| r.as_ref().ok()),
            args,
            memory,
            config.metric,
            &digest,
        );
        for ((&budget, compiled), s) in config.budgets.iter().zip(group).zip(scores) {
            let label = entrant_label(policy, budget);
            match (compiled, s) {
                (Ok(compiled), Some(s)) => {
                    entrants.push(Entrant {
                        label,
                        policy,
                        budget,
                        score: Some(s),
                        trials: compiled.stats.trials,
                    });
                    // Strict `<` keeps the earliest entrant on ties.
                    if best.as_ref().map(|(_, b, _)| s < *b).unwrap_or(true) {
                        best = Some((entrants.len() - 1, s, compiled));
                    }
                }
                _ => entrants.push(Entrant {
                    label,
                    policy,
                    budget,
                    score: None,
                    trials: 0,
                }),
            }
        }
    }

    let (idx, score, mut winner) = best.ok_or(ChfError::Panicked {
        context: "tournament",
        message: "every portfolio entrant failed".to_string(),
    })?;
    winner.stats.tournament_entrants = entrants.len();
    Ok(TournamentResult {
        winner,
        policy: entrants[idx].policy,
        budget: entrants[idx].budget,
        label: entrants[idx].label.clone(),
        score,
        baseline: base_score,
        entrants,
    })
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
        for e in &r1.entrants {
            if let Some(s) = e.score {
                assert!(
                    r1.score <= s,
                    "{}: winner {} > entrant {s}",
                    e.label,
                    r1.score
                );
            }
        }
        assert!(r1.score <= r1.baseline, "formation made the loop worse");
    }

    #[test]
    fn improvement_permille_is_signed() {
        assert_eq!(improvement_permille(1000, 750), 250);
        assert_eq!(improvement_permille(1000, 1100), -100);
        assert_eq!(improvement_permille(0, 5), 0);
    }
}

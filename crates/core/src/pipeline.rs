//! Compiler pipelines: the phase orderings of Tables 1 and 3.
//!
//! | Label    | Phases                                                        |
//! |----------|---------------------------------------------------------------|
//! | `BB`     | basic blocks as TRIPS blocks (scalar opts only)               |
//! | `UPIO`   | discrete CFG unroll/peel → incremental if-conversion → opts   |
//! | `IUPO`   | incremental if-conversion → hyperblock unroll/peel → opts     |
//! | `(IUP)O` | convergent formation with head duplication, opts once at end  |
//! | `(IUPO)` | full convergent formation with iterative scalar optimization  |
//!
//! Incremental if-conversion (the `I` phase) always uses tail duplication
//! and respects the structural constraints; only the grouped orderings may
//! use head duplication (unrolling/peeling *during* formation), and only
//! `(IUPO)` optimizes inside the formation loop.

use crate::constraints::BlockConstraints;
use crate::convergent::{form_hyperblocks_forked, FormationConfig, FormationStats, SeedOrder};
use crate::fanout::insert_fanout;
use crate::policy::PolicyKind;
use crate::regalloc::{allocate_registers, RegFileSpec};
use crate::reverse::split_oversized;
use crate::unroll::{cfg_unroll_and_peel, hyperblock_unroll_peel, UnrollParams};
use chf_ir::function::Function;
use chf_ir::profile::ProfileData;

/// The five configurations of Table 1 / Table 3.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum PhaseOrdering {
    /// Basic blocks only (the baseline column `BB`).
    BasicBlocks,
    /// Unroll/peel, then if-convert, then optimize.
    Upio,
    /// If-convert, then unroll/peel, then optimize.
    Iupo,
    /// Convergent `(IUP)` with optimization once at the end.
    IupThenO,
    /// Fully convergent `(IUPO)`.
    Iupo_,
}

impl PhaseOrdering {
    /// Column label used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            PhaseOrdering::BasicBlocks => "BB",
            PhaseOrdering::Upio => "UPIO",
            PhaseOrdering::Iupo => "IUPO",
            PhaseOrdering::IupThenO => "(IUP)O",
            PhaseOrdering::Iupo_ => "(IUPO)",
        }
    }

    /// The four hyperblock-forming orderings compared against `BB`.
    pub fn table1() -> [PhaseOrdering; 4] {
        [
            PhaseOrdering::Upio,
            PhaseOrdering::Iupo,
            PhaseOrdering::IupThenO,
            PhaseOrdering::Iupo_,
        ]
    }
}

/// Full compiler configuration.
#[derive(Clone, Debug)]
pub struct CompileConfig {
    /// Which phase ordering to run.
    pub ordering: PhaseOrdering,
    /// Block-selection policy for the formation phases.
    pub policy: PolicyKind,
    /// Structural constraints of the target.
    pub constraints: BlockConstraints,
    /// Parameters of the discrete unroll/peel phases.
    pub unroll: UnrollParams,
    /// Run the §6 backend stages (register allocation with spilling, and
    /// fanout insertion) after formation. On by default; the TRIPS register
    /// file is large enough that spills are rare, and fanout fits in the
    /// constraints' headroom.
    pub backend: bool,
    /// Maximum consumers one instruction may feed before fanout movs are
    /// inserted (TRIPS encodes a small fixed number of targets).
    pub fanout_targets: usize,
    /// Per-function cap on formation trials (merge attempts). `None`
    /// reproduces the historical unbounded behavior; `Some(k)` makes the
    /// formation phases share a ledger of `k` trials per function, with
    /// skipped work recorded in [`FormationStats::budget_skipped`]. Used
    /// by the Table 2 budget ablation to compare policies at equal cost.
    pub trial_budget: Option<usize>,
    /// Wall-clock deadline for the formation phases, checked between merge
    /// trials (the same ledger point as `trial_budget`, so expiry is
    /// *graceful*: formation keeps whatever blocks it has already formed,
    /// runs the backend, and reports the cut via
    /// [`FormationStats::deadline_hit`] — the anytime behaviour of the
    /// paper's convergent loop). `None` (the default) never expires. The
    /// compile service derives this from its per-request deadline.
    pub deadline: Option<std::time::Instant>,
    /// Deterministic mid-trial fault injection forwarded to
    /// [`FormationConfig::chaos`]: periodically corrupts the merged block
    /// inside the trial window so the verify-and-rollback net is exercised
    /// end-to-end through the pipeline. `None` (the default) injects
    /// nothing; only the chaos campaign targets set it.
    pub chaos: Option<crate::chaos::ChaosSpec>,
}

impl CompileConfig {
    /// The paper's best configuration: `(IUPO)` with the breadth-first
    /// policy.
    pub fn convergent() -> Self {
        CompileConfig {
            ordering: PhaseOrdering::Iupo_,
            policy: PolicyKind::BreadthFirst,
            constraints: BlockConstraints::trips(),
            unroll: UnrollParams::default(),
            backend: true,
            fanout_targets: 4,
            trial_budget: None,
            deadline: None,
            chaos: None,
        }
    }

    /// A named ordering with the breadth-first policy.
    pub fn with_ordering(ordering: PhaseOrdering) -> Self {
        CompileConfig {
            ordering,
            ..Self::convergent()
        }
    }

    /// A policy variant of the convergent configuration (Table 2).
    pub fn with_policy(policy: PolicyKind, iterative_opt: bool) -> Self {
        let ordering = if iterative_opt {
            PhaseOrdering::Iupo_
        } else {
            PhaseOrdering::IupThenO
        };
        CompileConfig {
            ordering,
            policy,
            ..Self::convergent()
        }
    }
}

impl Default for CompileConfig {
    fn default() -> Self {
        Self::convergent()
    }
}

/// Result of compilation.
#[derive(Clone, Debug, PartialEq)]
pub struct Compiled {
    /// The compiled function.
    pub function: Function,
    /// Static transformation counts (the paper's `m/t/u/p`).
    pub stats: FormationStats,
}

fn formation_config(config: &CompileConfig, head: bool, iterative_opt: bool) -> FormationConfig {
    FormationConfig {
        constraints: config.constraints.clone(),
        head_duplication: head,
        tail_duplication: true,
        iterative_opt,
        trial_budget: config.trial_budget,
        deadline: config.deadline,
        chaos: config.chaos,
        // The profile-guided policy also reorders the expansion *seeds* by
        // hot-edge weight, so under a constrained trial budget the ledger
        // is spent on the hottest regions first.
        seed_order: if config.policy == PolicyKind::HotFirst {
            SeedOrder::HotFirst
        } else {
            SeedOrder::Frequency
        },
        // The oracle stays off, as in the default.
        ..FormationConfig::default()
    }
}

/// Compile `f` under `config`, using `profile` for frequencies and trip
/// histograms (gathered from a training run of the basic-block form).
///
/// Infallible wrapper over [`try_compile`] for callers that treat a
/// malformed compilation as a programming error.
///
/// # Panics
/// Panics if [`try_compile`] reports an error. Harness code that must
/// degrade gracefully (the parallel evaluation tables) calls
/// [`try_compile`] instead.
pub fn compile(f: &Function, profile: &ProfileData, config: &CompileConfig) -> Compiled {
    try_compile(f, profile, config).unwrap_or_else(|e| panic!("compilation failed: {e}"))
}

/// Compile `f` under `config`, reporting (rather than panicking on) a
/// malformed result.
///
/// Formation-internal containment still applies: trials the verifier
/// rejects are rolled back and counted in [`FormationStats::skipped`],
/// and the compilation proceeds on the remaining candidates. The error
/// path here is the *final* gate — the fully compiled function failing
/// structural verification.
///
/// The one-budget case of [`try_compile_budgets`].
///
/// # Errors
/// [`crate::ChfError::Verify`] when the compiled output is structurally
/// invalid; [`crate::ChfError::Constraints`] when `config.constraints` is
/// unusable.
pub fn try_compile(
    f: &Function,
    profile: &ProfileData,
    config: &CompileConfig,
) -> Result<Compiled, crate::ChfError> {
    try_compile_budgets(f, profile, config, &[config.trial_budget])
        .pop()
        .expect("one result per budget")
}

/// Compile `f` once per trial budget in `budgets`: result `i` equals
/// [`try_compile`] under `config` with `trial_budget` set to `budgets[i]`
/// (`config.trial_budget` itself is ignored).
///
/// One formation run serves every budget. It runs under the largest one
/// and forks each smaller budget's function at the ledger checkpoint where
/// that budget runs dry ([`form_hyperblocks_forked`]); a budget the run
/// never reaches there shares the run's artifact. Each distinct artifact
/// is then finished once: scalar optimization, the backend, verification
/// and utilization.
///
/// # Errors
/// Every result is [`crate::ChfError::Constraints`] when
/// `config.constraints` fails [`BlockConstraints::validate`].
pub fn try_compile_budgets(
    f: &Function,
    profile: &ProfileData,
    config: &CompileConfig,
    budgets: &[Option<usize>],
) -> Vec<Result<Compiled, crate::ChfError>> {
    if let Err(error) = config.constraints.validate() {
        return vec![Err(crate::ChfError::Constraints { error }); budgets.len()];
    }
    let mut f = f.clone();
    profile.apply(&mut f);
    let mut stats = FormationStats::default();

    // Formation phases: `(head duplication, iterative optimization)`.
    let formation = match config.ordering {
        PhaseOrdering::BasicBlocks => None,
        PhaseOrdering::Upio => {
            // U, P on the basic-block CFG (inaccurate size estimates), then
            // I: incremental if-conversion with tail duplication only.
            let up = cfg_unroll_and_peel(&mut f, profile, &config.unroll);
            stats.unrolls += up.unrolls;
            stats.peels += up.peels;
            Some((false, false))
        }
        // I, then U and P at hyperblock granularity (in `finish`).
        PhaseOrdering::Iupo => Some((false, false)),
        PhaseOrdering::IupThenO => Some((true, false)),
        PhaseOrdering::Iupo_ => Some((true, true)),
    };

    // The run takes the largest budget (unbounded above all); the others
    // are forks of it.
    let run_budget = budgets
        .iter()
        .copied()
        .max_by_key(|b| b.map_or((1, 0), |b| (0, b)))
        .unwrap_or(config.trial_budget);
    let mut artifacts = Vec::new();
    if let Some((head, iterative_opt)) = formation {
        let run_config = CompileConfig {
            trial_budget: run_budget,
            ..config.clone()
        };
        let fork_budgets: Vec<usize> = budgets.iter().flatten().copied().collect();
        let mut policy = config.policy.instantiate();
        let (fs, forks) = form_hyperblocks_forked(
            &mut f,
            policy.as_mut(),
            &formation_config(&run_config, head, iterative_opt),
            Some(profile),
            &fork_budgets,
        );
        for fork in forks {
            let mut fork_stats = stats;
            fork_stats.merge(&fork.stats);
            artifacts.push((Some(fork.budget), fork.function, fork_stats));
        }
        stats.merge(&fs);
    }
    artifacts.push((None, f, stats));

    // Each budget takes its fork's artifact, else the run's (the last).
    let which: Vec<usize> = budgets
        .iter()
        .map(|&b| {
            artifacts
                .iter()
                .position(|(fork, _, _)| fork.is_some() && *fork == b)
                .unwrap_or(artifacts.len() - 1)
        })
        .collect();
    // Finish each artifact once, and move it out at its last use.
    let mut uses = vec![0usize; artifacts.len()];
    for &a in &which {
        uses[a] += 1;
    }
    let mut finished: Vec<_> = artifacts
        .into_iter()
        .map(|(_, f, stats)| Some(finish(f, stats, profile, config)))
        .collect();
    which
        .into_iter()
        .map(|a| {
            uses[a] -= 1;
            let result = if uses[a] == 0 {
                finished[a].take()
            } else {
                finished[a].clone()
            };
            result.expect("moved out at its last use only")
        })
        .collect()
}

/// The phases after formation: U and P for `IUPO`, scalar optimization,
/// the backend (§6), verification, and utilization.
fn finish(
    mut f: Function,
    mut stats: FormationStats,
    profile: &ProfileData,
    config: &CompileConfig,
) -> Result<Compiled, crate::ChfError> {
    if config.ordering == PhaseOrdering::Iupo {
        // U, P at hyperblock granularity (accurate size estimates).
        let up = hyperblock_unroll_peel(&mut f, profile, &config.constraints, &config.unroll);
        stats.unrolls += up.unrolls;
        stats.peels += up.peels;
    }
    // O.
    chf_opt::optimize(&mut f);

    // Backend (§6): register allocation (spilling on pressure), fanout
    // insertion, then reverse if-conversion for any block the insertions
    // pushed over the constraints.
    if config.backend {
        allocate_registers(&mut f, &RegFileSpec::trips());
        insert_fanout(&mut f, config.fanout_targets);
    }
    split_oversized(&mut f, &config.constraints);
    chf_ir::cfg::remove_unreachable(&mut f);
    chf_ir::verify::verify(&f).map_err(|error| crate::ChfError::Verify {
        context: "compiled output",
        error,
    })?;

    let (insts, mem, banks) = block_utilization(&f, &config.constraints);
    stats.util_insts_permille = insts;
    stats.util_mem_permille = mem;
    stats.util_bank_permille = banks;

    Ok(Compiled { function: f, stats })
}

/// Mean block utilization of the final artifact against the structural
/// constraints, in permille: instruction slots per `max_insts`, memory ops
/// per `max_memory_ops`, and register-bank port pressure (reads + writes)
/// per total bank ports. TRIPS blocks are fixed 128-instruction instances,
/// so every point below 1000 is fetch/map bandwidth an underfull
/// hyperblock wastes — the dual of the merge constraints, and the signal a
/// future split pass would act on.
fn block_utilization(f: &Function, c: &BlockConstraints) -> (u32, u32, u32) {
    let liveness = chf_ir::liveness::Liveness::compute(f);
    // Saturating: `BlockConstraints::unlimited` has `usize::MAX` ports.
    let bank_ports =
        (c.reg_banks as usize).saturating_mul(c.reads_per_bank.saturating_add(c.writes_per_bank));
    let (mut n, mut insts_pm, mut mem_pm, mut bank_pm) = (0usize, 0usize, 0usize, 0usize);
    for (id, blk) in f.blocks() {
        n += 1;
        insts_pm += (blk.size() * 1000 / c.max_insts.max(1)).min(1000);
        mem_pm += (blk.memory_ops() * 1000 / c.max_memory_ops.max(1)).min(1000);
        let ports = liveness.register_reads(id).len() + liveness.register_writes(id).len();
        bank_pm += (ports * 1000 / bank_ports.max(1)).min(1000);
    }
    if n == 0 {
        return (0, 0, 0);
    }
    (
        (insts_pm / n) as u32,
        (mem_pm / n) as u32,
        (bank_pm / n) as u32,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use chf_ir::builder::FunctionBuilder;
    use chf_ir::instr::Operand;
    use chf_ir::verify::verify;
    use chf_sim::functional::{profile_run, run, RunConfig};

    fn reg(r: chf_ir::ids::Reg) -> Operand {
        Operand::Reg(r)
    }

    /// A small nested-loop program exercising every phase.
    fn workload() -> (Function, Vec<i64>) {
        let mut fb = FunctionBuilder::new("w", 1);
        let e = fb.create_block();
        let h = fb.create_block();
        let inner_h = fb.create_block();
        let inner_b = fb.create_block();
        let latch = fb.create_block();
        let exit = fb.create_block();
        fb.switch_to(e);
        let i = fb.mov(Operand::Imm(0));
        let acc = fb.mov(Operand::Imm(0));
        fb.jump(h);
        fb.switch_to(h);
        let c = fb.cmp_lt(reg(i), reg(fb.param(0)));
        fb.branch(c, inner_h, exit);
        fb.switch_to(inner_h);
        let j = fb.mov(Operand::Imm(0));
        fb.jump(inner_b);
        fb.switch_to(inner_b);
        let a2 = fb.add(reg(acc), reg(j));
        fb.mov_to(acc, reg(a2));
        let j2 = fb.add(reg(j), Operand::Imm(1));
        fb.mov_to(j, reg(j2));
        let c2 = fb.cmp_lt(reg(j), Operand::Imm(3));
        fb.branch(c2, inner_b, latch);
        fb.switch_to(latch);
        let i2 = fb.add(reg(i), Operand::Imm(1));
        fb.mov_to(i, reg(i2));
        fb.jump(h);
        fb.switch_to(exit);
        fb.ret(Some(reg(acc)));
        (fb.build().unwrap(), vec![12])
    }

    #[test]
    fn all_orderings_preserve_behaviour() {
        let (f, args) = workload();
        let profile = profile_run(&f, &args, &[]).unwrap();
        let base = run(&f, &args, &[], &RunConfig::default()).unwrap();
        for ordering in [
            PhaseOrdering::BasicBlocks,
            PhaseOrdering::Upio,
            PhaseOrdering::Iupo,
            PhaseOrdering::IupThenO,
            PhaseOrdering::Iupo_,
        ] {
            let c = compile(&f, &profile, &CompileConfig::with_ordering(ordering));
            verify(&c.function).unwrap();
            let r = run(&c.function, &args, &[], &RunConfig::default()).unwrap();
            assert_eq!(
                r.digest(),
                base.digest(),
                "{} changed behaviour",
                ordering.label()
            );
        }
    }

    #[test]
    fn hyperblock_orderings_reduce_block_counts() {
        let (f, args) = workload();
        let profile = profile_run(&f, &args, &[]).unwrap();
        let base = run(&f, &args, &[], &RunConfig::default()).unwrap();
        for ordering in PhaseOrdering::table1() {
            let c = compile(&f, &profile, &CompileConfig::with_ordering(ordering));
            let r = run(&c.function, &args, &[], &RunConfig::default()).unwrap();
            assert!(
                r.blocks_executed < base.blocks_executed,
                "{}: {} !< {}",
                ordering.label(),
                r.blocks_executed,
                base.blocks_executed
            );
        }
    }

    #[test]
    fn convergent_at_least_matches_discrete_on_block_counts() {
        let (f, args) = workload();
        let profile = profile_run(&f, &args, &[]).unwrap();
        let count = |o: PhaseOrdering| {
            let c = compile(&f, &profile, &CompileConfig::with_ordering(o));
            run(&c.function, &args, &[], &RunConfig::default())
                .unwrap()
                .blocks_executed
        };
        let upio = count(PhaseOrdering::Upio);
        let convergent = count(PhaseOrdering::Iupo_);
        assert!(
            convergent <= upio,
            "convergent {convergent} should not exceed UPIO {upio}"
        );
    }

    #[test]
    fn compiled_blocks_respect_constraints() {
        let (f, args) = workload();
        let profile = profile_run(&f, &args, &[]).unwrap();
        let c = compile(&f, &profile, &CompileConfig::convergent());
        // Size/memory constraints must hold post-compilation.
        for (b, blk) in c.function.blocks() {
            assert!(
                blk.size() <= BlockConstraints::trips().effective_max_insts(),
                "block {b} oversized"
            );
            assert!(blk.memory_ops() <= 32);
        }
    }

    #[test]
    fn stats_populated_for_convergent() {
        let (f, args) = workload();
        let profile = profile_run(&f, &args, &[]).unwrap();
        let c = compile(&f, &profile, &CompileConfig::convergent());
        assert!(c.stats.merges > 0);
        assert!(!c.stats.mtup().is_empty());
    }

    #[test]
    fn policies_all_compile_correctly() {
        let (f, args) = workload();
        let profile = profile_run(&f, &args, &[]).unwrap();
        let base = run(&f, &args, &[], &RunConfig::default()).unwrap();
        for policy in [
            PolicyKind::BreadthFirst,
            PolicyKind::DepthFirst,
            PolicyKind::Vliw,
        ] {
            for iter_opt in [false, true] {
                let c = compile(&f, &profile, &CompileConfig::with_policy(policy, iter_opt));
                let r = run(&c.function, &args, &[], &RunConfig::default()).unwrap();
                assert_eq!(
                    r.digest(),
                    base.digest(),
                    "{:?}/{iter_opt} changed behaviour",
                    policy
                );
            }
        }
    }

    #[test]
    fn unlimited_constraints_compile() {
        let (f, args) = workload();
        let profile = profile_run(&f, &args, &[]).unwrap();
        let config = CompileConfig {
            constraints: BlockConstraints::unlimited(),
            ..CompileConfig::convergent()
        };
        let c = try_compile(&f, &profile, &config).expect("unlimited constraints compile");
        let r = run(&c.function, &args, &[], &RunConfig::default()).unwrap();
        let base = run(&f, &args, &[], &RunConfig::default()).unwrap();
        assert_eq!(r.digest(), base.digest());
    }

    #[test]
    fn unusable_constraints_are_a_typed_error_for_every_budget() {
        use crate::constraints::InvalidConstraints;
        let (f, args) = workload();
        let profile = profile_run(&f, &args, &[]).unwrap();
        for (constraints, expected) in [
            (
                BlockConstraints {
                    reg_banks: 0,
                    ..BlockConstraints::trips()
                },
                InvalidConstraints::NoRegisterBanks,
            ),
            (
                BlockConstraints {
                    headroom_percent: 101,
                    ..BlockConstraints::trips()
                },
                InvalidConstraints::HeadroomOver100 { percent: 101 },
            ),
        ] {
            let config = CompileConfig {
                constraints,
                ..CompileConfig::convergent()
            };
            let results = try_compile_budgets(&f, &profile, &config, &[Some(4), None]);
            assert_eq!(results.len(), 2);
            for r in results {
                assert_eq!(
                    r,
                    Err(crate::ChfError::Constraints {
                        error: expected.clone()
                    })
                );
            }
        }
    }
}

//! Stage-by-stage replicas of `try_compile`, `chf_opt::optimize` and
//! `run_tournament`, built only from public calls so that each stage can
//! sit in its own span. [`same`] is the guard: the traced run refuses to
//! report per-layer numbers unless every replica output equals the real
//! call's output on every input of the workload.

use crate::trace::{self, span};
use chf_core::constraints::BlockConstraints;
use chf_core::convergent::{form_hyperblocks_with_profile, FormationConfig, SeedOrder};
use chf_core::fanout::insert_fanout;
use chf_core::pipeline::{CompileConfig, Compiled, PhaseOrdering};
use chf_core::regalloc::{allocate_registers, RegFileSpec};
use chf_core::reverse::split_oversized;
use chf_core::tournament::{baseline, score, TournamentConfig};
use chf_core::unroll::{cfg_unroll_and_peel, hyperblock_unroll_peel};
use chf_core::{ChfError, FormationStats, PolicyKind};
use chf_ir::function::Function;
use chf_ir::profile::ProfileData;
use chf_opt::{constfold, copyprop, dce, gvn, jumpthread, predopt, strength, Pass, PassManager};
use std::time::Instant;

/// A pass that runs inside its own span.
struct Timed<P>(&'static str, P);

impl<P: Pass> Pass for Timed<P> {
    fn name(&self) -> &'static str {
        self.1.name()
    }

    fn run(&mut self, f: &mut Function) -> bool {
        span(self.0, || self.1.run(f))
    }
}

/// `chf_opt::optimize` with one span per pass, in the standard order.
pub fn optimize(f: &mut Function) {
    span("opt.optimize", || {
        let rounds = PassManager::new(vec![
            Box::new(Timed("opt.constfold", constfold::ConstFold)),
            Box::new(Timed("opt.strength", strength::Strength)),
            Box::new(Timed("opt.copyprop", copyprop::CopyProp)),
            Box::new(Timed("opt.gvn", gvn::Gvn)),
            Box::new(Timed("opt.predopt", predopt::PredOpt)),
            Box::new(Timed("opt.jumpthread", jumpthread::JumpThread)),
            Box::new(Timed("opt.dce", dce::Dce)),
        ])
        .run(f);
        trace::add("opt.rounds", rounds as f64);
    });
}

/// The formation configuration `try_compile` derives for one phase.
fn formation_config(config: &CompileConfig, head: bool, iterative_opt: bool) -> FormationConfig {
    FormationConfig {
        constraints: config.constraints.clone(),
        head_duplication: head,
        tail_duplication: true,
        iterative_opt,
        trial_budget: config.trial_budget,
        deadline: config.deadline,
        chaos: config.chaos,
        seed_order: if config.policy == PolicyKind::HotFirst {
            SeedOrder::HotFirst
        } else {
            SeedOrder::Frequency
        },
        ..FormationConfig::default()
    }
}

/// The `core.ms_per_trial.{lt20,20to80,ge80}` buckets by input block
/// count: the counters summing formation seconds and trials of the
/// compiles whose input falls in the bucket.
pub const BUCKETS: [(&str, &str); 3] = [
    ("core.form_s.lt20", "core.trials.lt20"),
    ("core.form_s.20to80", "core.trials.20to80"),
    ("core.form_s.ge80", "core.trials.ge80"),
];

fn bucket(blocks: usize) -> usize {
    match blocks {
        0..=19 => 0,
        20..=79 => 1,
        _ => 2,
    }
}

/// `try_compile`, stage by stage.
///
/// # Errors
/// As `try_compile`: the compiled output failing verification.
pub fn compile(
    input: &Function,
    profile: &ProfileData,
    config: &CompileConfig,
) -> Result<Compiled, ChfError> {
    let mut f = input.clone();
    span("ir.profile_apply", || profile.apply(&mut f));
    let mut stats = FormationStats::default();
    let mut policy = config.policy.instantiate();
    let mut form_secs = 0.0;
    let mut form = |f: &mut Function, head: bool, iterative: bool, stats: &mut FormationStats| {
        let t = Instant::now();
        let fs = span("core.form", || {
            form_hyperblocks_with_profile(
                f,
                policy.as_mut(),
                &formation_config(config, head, iterative),
                Some(profile),
            )
        });
        form_secs += t.elapsed().as_secs_f64();
        stats.merge(&fs);
    };

    match config.ordering {
        PhaseOrdering::BasicBlocks => optimize(&mut f),
        PhaseOrdering::Upio => {
            let up = span("core.cfg_unroll_peel", || {
                cfg_unroll_and_peel(&mut f, profile, &config.unroll)
            });
            stats.unrolls += up.unrolls;
            stats.peels += up.peels;
            form(&mut f, false, false, &mut stats);
            optimize(&mut f);
        }
        PhaseOrdering::Iupo => {
            form(&mut f, false, false, &mut stats);
            let up = span("core.hb_unroll_peel", || {
                hyperblock_unroll_peel(&mut f, profile, &config.constraints, &config.unroll)
            });
            stats.unrolls += up.unrolls;
            stats.peels += up.peels;
            optimize(&mut f);
        }
        PhaseOrdering::IupThenO => {
            form(&mut f, true, false, &mut stats);
            optimize(&mut f);
        }
        PhaseOrdering::Iupo_ => {
            form(&mut f, true, true, &mut stats);
            optimize(&mut f);
        }
    }

    if config.backend {
        span("core.regalloc", || {
            allocate_registers(&mut f, &RegFileSpec::trips())
        });
        span("core.fanout", || {
            insert_fanout(&mut f, config.fanout_targets)
        });
    }
    span("core.split_oversized", || {
        split_oversized(&mut f, &config.constraints)
    });
    span("ir.remove_unreachable", || {
        chf_ir::cfg::remove_unreachable(&mut f)
    });
    span("ir.verify", || chf_ir::verify::verify(&f)).map_err(|error| ChfError::Verify {
        context: "compiled output",
        error,
    })?;
    let (insts, mem, banks) = span("ir.liveness", || block_utilization(&f, &config.constraints));
    stats.util_insts_permille = insts;
    stats.util_mem_permille = mem;
    stats.util_bank_permille = banks;

    if trace::enabled() {
        for (name, v) in [
            ("core.trials", stats.trials),
            ("core.merges", stats.merges),
            ("core.failures", stats.failures),
            ("core.skipped", stats.skipped),
            ("core.tail_dups", stats.tail_dups),
            ("core.unrolls", stats.unrolls),
            ("core.peels", stats.peels),
        ] {
            trace::add(name, v as f64);
        }
        let (secs_key, trials_key) = BUCKETS[bucket(input.block_count())];
        trace::add(secs_key, form_secs);
        trace::add(trials_key, stats.trials as f64);
    }
    Ok(Compiled { function: f, stats })
}

/// The pipeline's block-utilization measurement (permille of instruction
/// slots, memory ops and register-bank ports), whose cost is one liveness
/// analysis of the compiled function.
fn block_utilization(f: &Function, c: &BlockConstraints) -> (u32, u32, u32) {
    let liveness = chf_ir::liveness::Liveness::compute(f);
    let bank_ports = c.reg_banks as usize * (c.reads_per_bank + c.writes_per_bank);
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

/// The winner of a replica tournament.
#[derive(Clone, Debug)]
pub struct Winner {
    /// The winning artifact, `tournament_entrants` stamped.
    pub compiled: Compiled,
    /// The winning entrant's label (`HF@16`, …).
    pub label: String,
}

/// `run_tournament`, stage by stage.
///
/// # Errors
/// As `run_tournament`: no baseline, or every entrant failed.
pub fn tournament(
    f: &Function,
    profile: &ProfileData,
    args: &[i64],
    memory: &[(i64, i64)],
    config: &TournamentConfig,
) -> Result<Winner, ChfError> {
    let (digest, _) = span("tournament.baseline", || {
        baseline(f, args, memory, config.metric)
    })
    .map_err(|message| ChfError::Panicked {
        context: "tournament baseline",
        message,
    })?;
    let entrants = config.entrants();
    let mut best: Option<(u64, String, Compiled)> = None;
    for (label, entrant) in &entrants {
        let Ok(compiled) = span("tournament.compile", || compile(f, profile, entrant)) else {
            continue;
        };
        let scored = span("tournament.score", || {
            score(&compiled.function, args, memory, config.metric, &digest)
        });
        if let Ok(s) = scored {
            if best.as_ref().is_none_or(|(b, ..)| s < *b) {
                best = Some((s, label.clone(), compiled));
            }
        }
    }
    trace::add("tournament.count", 1.0);
    trace::add("tournament.entrants", entrants.len() as f64);
    let (_, label, mut compiled) = best.ok_or(ChfError::Panicked {
        context: "tournament",
        message: "every portfolio entrant failed".to_string(),
    })?;
    compiled.stats.tournament_entrants = entrants.len();
    Ok(Winner { compiled, label })
}

/// The guard: `replica` must equal `real` in printed function and in
/// every formation statistic (which covers `mtup()` and `trials`).
///
/// # Errors
/// What differs, naming the function.
pub fn same(real: &Compiled, replica: &Compiled) -> Result<(), String> {
    let name = &real.function.name;
    if real.stats != replica.stats {
        return Err(format!(
            "{name}: replica stats differ: mtup {} vs {}, trials {} vs {} ({:?} vs {:?})",
            real.stats.mtup(),
            replica.stats.mtup(),
            real.stats.trials,
            replica.stats.trials,
            real.stats,
            replica.stats
        ));
    }
    if real.function.to_string() != replica.function.to_string() {
        return Err(format!("{name}: replica printed a different function"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_matches_try_compile_on_every_ordering() {
        let w = chf_workloads::micro::gzip_1();
        for ordering in [
            PhaseOrdering::BasicBlocks,
            PhaseOrdering::Upio,
            PhaseOrdering::Iupo,
            PhaseOrdering::IupThenO,
            PhaseOrdering::Iupo_,
        ] {
            let config = CompileConfig::with_ordering(ordering);
            let real = chf_core::try_compile(&w.function, &w.profile, &config).unwrap();
            let replica = compile(&w.function, &w.profile, &config).unwrap();
            same(&real, &replica).unwrap();
        }
    }

    #[test]
    fn guard_reports_a_different_program() {
        let w = chf_workloads::micro::vadd();
        let config = CompileConfig::convergent();
        let real = chf_core::try_compile(&w.function, &w.profile, &config).unwrap();
        let mut other = compile(&w.function, &w.profile, &config).unwrap();
        other.stats.trials += 1;
        assert!(same(&real, &other).unwrap_err().contains("trials"));
        let bb = CompileConfig::with_ordering(PhaseOrdering::BasicBlocks);
        let mut other = compile(&w.function, &w.profile, &bb).unwrap();
        other.stats = real.stats;
        assert!(same(&real, &other).unwrap_err().contains("printed"));
    }

    #[test]
    fn replica_tournament_crowns_the_real_winner() {
        let w = chf_workloads::micro::sieve();
        let config = TournamentConfig::default();
        let real =
            chf_core::run_tournament(&w.function, &w.profile, &w.args, &w.memory, &config).unwrap();
        let replica = tournament(&w.function, &w.profile, &w.args, &w.memory, &config).unwrap();
        assert_eq!(real.label, replica.label);
        same(&real.winner, &replica.compiled).unwrap();
    }
}

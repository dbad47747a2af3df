//! Shared-prefix tournaments: one formation run per policy serves every
//! budget entrant. A run capped at `b` trials is the unbounded run cut at
//! the ledger checkpoint where it has spent `b`, so the grouped compile
//! forks it there. Every entrant it yields must equal an independent
//! compile under that entrant's config: printed function and every
//! `FormationStats` field.

use chf::core::pipeline::{try_compile, try_compile_budgets, CompileConfig, Compiled};
use chf::core::tournament::{baseline, entrant_label, run_tournament, score, TournamentConfig};
use chf::core::PolicyKind;
use chf::ir::function::Function;
use chf::ir::profile::ProfileData;
use chf::ir::testgen::{generate, GenConfig};
use chf::sim::functional::profile_run;
use chf_service::{CompileService, RequestStatus, ServiceConfig, TournamentRequest};

const POLICIES: [PolicyKind; 3] = [
    PolicyKind::BreadthFirst,
    PolicyKind::HotFirst,
    PolicyKind::DepthFirst,
];

/// One program: its function, training profile and scoring input.
struct Program {
    name: String,
    function: Function,
    profile: ProfileData,
    args: Vec<i64>,
    memory: Vec<(i64, i64)>,
}

fn suite() -> Vec<Program> {
    let suite: Vec<_> = chf::workloads::microbenchmarks()
        .into_iter()
        .chain(chf::workloads::spec_suite())
        .collect();
    assert_eq!(suite.len(), 43);
    suite
        .into_iter()
        .map(|w| Program {
            name: w.name,
            function: w.function,
            profile: w.profile,
            args: w.args,
            memory: w.memory,
        })
        .collect()
}

/// `testgen` programs at `max_depth: 4`, profiled on their scoring input.
fn generated(seeds: impl Iterator<Item = u64>) -> Vec<Program> {
    let cfg = GenConfig {
        max_depth: 4,
        ..GenConfig::default()
    };
    seeds
        .map(|seed| {
            let function = generate(seed, &cfg);
            let args: Vec<i64> = (0..function.params as i64).map(|i| 2 * i + 3).collect();
            let profile = profile_run(&function, &args, &[])
                .unwrap_or_else(|e| panic!("testgen seed {seed}: {e}"));
            Program {
                name: format!("testgen seed {seed}"),
                function,
                profile,
                args,
                memory: Vec::new(),
            }
        })
        .collect()
}

fn assert_same(got: &Compiled, want: &Compiled, what: &str) {
    assert_eq!(
        got.function.to_string(),
        want.function.to_string(),
        "{what}: printed function"
    );
    assert_eq!(got.stats, want.stats, "{what}: stats");
}

const TWO: [Option<usize>; 2] = [Some(16), None];
const FOUR: [Option<usize>; 4] = [Some(0), Some(4), Some(16), None];

/// How many `(program, policy)` pairs the budget-16 cut changed, and how
/// many it left alone (its run never reached the 17th trial).
#[derive(Default)]
struct Cuts {
    cut: usize,
    uncut: usize,
}

/// Every entrant of the grouped compile, over both budget sets, equals its
/// independent compile.
fn check_groups(p: &Program, cuts: &mut Cuts) {
    for policy in POLICIES {
        let config = CompileConfig {
            policy,
            ..CompileConfig::convergent()
        };
        let alone: Vec<Compiled> = FOUR
            .iter()
            .map(|&budget| {
                let config = CompileConfig {
                    trial_budget: budget,
                    ..config.clone()
                };
                try_compile(&p.function, &p.profile, &config).unwrap_or_else(|e| {
                    let label = entrant_label(policy, budget);
                    panic!("{}: {label}: independent compile: {e}", p.name)
                })
            })
            .collect();
        if alone[2] == alone[3] {
            cuts.uncut += 1;
        } else {
            cuts.cut += 1;
        }
        for budgets in [&TWO[..], &FOUR[..]] {
            let grouped = try_compile_budgets(&p.function, &p.profile, &config, budgets);
            assert_eq!(grouped.len(), budgets.len());
            for (&budget, got) in budgets.iter().zip(&grouped) {
                let what = format!(
                    "{}: {} of {budgets:?}",
                    p.name,
                    entrant_label(policy, budget)
                );
                let got = got
                    .as_ref()
                    .unwrap_or_else(|e| panic!("{what}: grouped compile: {e}"));
                let want = &alone[FOUR.iter().position(|&b| b == budget).expect("in FOUR")];
                assert_same(got, want, &what);
            }
        }
    }
}

#[test]
fn grouped_entrants_equal_independent_compiles_on_the_suite() {
    let mut cuts = Cuts::default();
    for p in suite() {
        check_groups(&p, &mut cuts);
    }
    // Both paths run: forked entrants, and ones sharing the run's artifact.
    assert!(
        cuts.cut > 0 && cuts.uncut > 0,
        "{} cut, {} uncut",
        cuts.cut,
        cuts.uncut
    );
}

/// The 200 generated programs, in two halves that run in parallel.
fn check_generated(seeds: impl Iterator<Item = u64>) {
    let mut cuts = Cuts::default();
    for p in generated(seeds) {
        check_groups(&p, &mut cuts);
    }
    assert!(
        cuts.cut > 0 && cuts.uncut > 0,
        "{} cut, {} uncut",
        cuts.cut,
        cuts.uncut
    );
}

#[test]
fn grouped_entrants_equal_independent_compiles_on_even_generated_programs() {
    check_generated((0..200).step_by(2));
}

#[test]
fn grouped_entrants_equal_independent_compiles_on_odd_generated_programs() {
    check_generated((1..200).step_by(2));
}

/// The tournament as six independent compiles: each entrant compiled and
/// scored on its own, ties to the earlier entrant.
fn six_run_reference(p: &Program, config: &TournamentConfig) -> (String, u64, Compiled) {
    let (digest, _) = baseline(&p.function, &p.args, &p.memory, config.metric).unwrap();
    let mut best: Option<(String, u64, Compiled)> = None;
    for (label, entrant) in config.entrants() {
        let Ok(compiled) = try_compile(&p.function, &p.profile, &entrant) else {
            continue;
        };
        let Ok(s) = score(
            &compiled.function,
            &p.args,
            &p.memory,
            config.metric,
            &digest,
        ) else {
            continue;
        };
        if best.as_ref().is_none_or(|(_, b, _)| s < *b) {
            best = Some((label, s, compiled));
        }
    }
    best.expect("some entrant scores")
}

#[test]
fn tournaments_equal_the_six_run_reference() {
    let config = TournamentConfig::default();
    for p in suite().into_iter().chain(generated(0..40)) {
        let got = run_tournament(&p.function, &p.profile, &p.args, &p.memory, &config)
            .unwrap_or_else(|e| panic!("{}: {e}", p.name));
        let (label, s, mut want) = six_run_reference(&p, &config);
        assert_eq!(got.label, label, "{}: winner", p.name);
        assert_eq!(got.score, s, "{}: score", p.name);
        want.stats.tournament_entrants = config.entrants().len();
        assert_same(&got.winner, &want, &p.name);
    }
}

fn request(p: &Program) -> TournamentRequest {
    TournamentRequest {
        function: p.function.clone(),
        profile: p.profile.clone(),
        args: p.args.clone(),
        memory: p.memory.clone(),
        config: TournamentConfig::default(),
    }
}

#[test]
fn service_winners_equal_the_six_run_reference_at_1_2_and_8_workers() {
    let programs: Vec<Program> = suite().into_iter().step_by(4).collect();
    let references: Vec<_> = programs
        .iter()
        .map(|p| {
            let (label, s, mut want) = six_run_reference(p, &TournamentConfig::default());
            want.stats.tournament_entrants = 6;
            (label, s, want)
        })
        .collect();
    for workers in [1usize, 2, 8] {
        let svc = CompileService::new(ServiceConfig {
            workers,
            shape_cache_capacity: 0,
            ..ServiceConfig::default()
        });
        for (p, (label, s, want)) in programs.iter().zip(&references) {
            let out = svc
                .compile_tournament(&request(p))
                .unwrap_or_else(|e| panic!("{}: {e}", p.name));
            let what = format!("{} at {workers} workers", p.name);
            assert_eq!(&out.label, label, "{what}: winner");
            assert_eq!(out.score, *s, "{what}: score");
            assert_same(&out.compiled, want, &what);
        }
        let stats = svc.stats();
        let n = programs.len() as u64;
        assert_eq!(stats.tournament_entrants, 6 * n, "{workers} workers");
        assert_eq!(stats.formations, 3 * n, "{workers} workers");
    }
}

#[test]
fn a_shed_group_rejects_every_member() {
    let svc = CompileService::new(ServiceConfig {
        workers: 1,
        queue_capacity: 0,
        ..ServiceConfig::default()
    });
    let p = &generated(7..8)[0];
    let req = chf_service::CompileRequest::ir(p.function.clone(), p.profile.clone());
    let ids = svc.submit_budgets(req, &FOUR);
    assert_eq!(ids.len(), FOUR.len());
    for id in ids {
        assert_eq!(svc.wait(id).status, RequestStatus::Rejected);
    }
    let stats = svc.stats();
    assert_eq!(stats.rejected, FOUR.len() as u64);
    assert_eq!(stats.formations, 0);
}

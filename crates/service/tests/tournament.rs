//! Service-side policy tournaments: one job answering every trial budget,
//! the CFG-shape winner cache's hot path (exactly one policy compile,
//! verified by counters), the guard-band fallback on a stale/adversarial
//! cached winner, winners never cached from deadline-cut artifacts, and
//! winner determinism across worker counts.

use chf_core::tournament::TournamentConfig;
use chf_core::PolicyKind;
use chf_ir::testgen::{generate, GenConfig};
use chf_service::{
    CompileRequest, CompileService, RequestStatus, ServiceConfig, TournamentRequest,
};
use chf_sim::functional::profile_run;
use std::time::Duration;

fn tournament_request(seed: u64) -> TournamentRequest {
    let f = generate(seed, &GenConfig::default());
    let args: Vec<i64> = (0..f.params).map(|i| i as i64 + 3).collect();
    let profile = profile_run(&f, &args, &[]).unwrap_or_default();
    TournamentRequest {
        function: f,
        profile,
        args,
        memory: Vec::new(),
        config: TournamentConfig::default(),
    }
}

fn service(workers: usize) -> CompileService {
    CompileService::new(ServiceConfig {
        workers,
        ..ServiceConfig::default()
    })
}

#[test]
fn submit_budgets_answers_every_budget_in_order_from_one_formation() {
    let svc = service(4);
    let budgets = [Some(0), Some(4), Some(16), None];
    let req = CompileRequest::ir(generate(40, &GenConfig::default()), Default::default());
    let ids = svc.submit_budgets(req, &budgets);
    assert_eq!(ids.len(), budgets.len());
    assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "ids must come back in budget order"
    );
    for &id in &ids {
        let resp = svc.wait(id);
        assert_eq!(resp.id, id);
        assert_eq!(resp.status, RequestStatus::Done);
    }
    let stats = svc.stats();
    assert_eq!(stats.done, budgets.len() as u64);
    assert_eq!(stats.formations, 1, "one formation run serves every budget");
}

#[test]
fn shape_cache_hot_path_runs_exactly_one_entrant() {
    let svc = service(4);
    let req = tournament_request(7);
    let portfolio = req.config.entrants().len();
    assert_eq!(portfolio, 6);

    // Cold: full portfolio.
    let cold = svc.compile_tournament(&req).unwrap();
    assert!(!cold.shape_hit);
    assert!(!cold.guard_fallback);
    assert_eq!(cold.entrants_run, portfolio);
    assert_eq!(cold.compiled.stats.tournament_entrants, portfolio);
    assert_eq!(svc.shape_cache_len(), 1);

    // Hot: the same shape compiles once with the cached winner.
    let hot = svc.compile_tournament(&req).unwrap();
    assert!(hot.shape_hit);
    assert!(!hot.guard_fallback);
    assert_eq!(hot.entrants_run, 1);
    assert_eq!(hot.compiled.stats.tournament_entrants, 1);
    assert_eq!(hot.policy, cold.policy);
    assert_eq!(hot.budget, cold.budget);
    assert_eq!(hot.label, cold.label);
    assert_eq!(hot.score, cold.score);
    assert_eq!(
        hot.compiled.function.to_string(),
        cold.compiled.function.to_string(),
        "hot-path artifact must be byte-identical to the cold winner"
    );

    // Counters prove the hot path was one compile, not a quiet portfolio.
    let s = svc.stats();
    assert_eq!(s.tournaments, 2);
    assert_eq!(s.shape_misses, 1);
    assert_eq!(s.shape_hits, 1);
    assert_eq!(s.guard_fallbacks, 0);
    assert_eq!(s.tournament_entrants, (portfolio + 1) as u64);
    let amortized = s.entrants_per_tournament();
    assert!(
        amortized < portfolio as f64,
        "amortized entrants {amortized} must fall below the portfolio size"
    );
}

#[test]
fn guard_band_fallback_distrusts_a_stale_winner() {
    let svc = service(4);
    let req = tournament_request(11);
    let portfolio = req.config.entrants().len();

    // Plant an adversarial entry: a plausible policy with an impossibly
    // good cached improvement. The hot compile cannot reach it, so the
    // guard band must trip and rerun the full portfolio.
    svc.override_shape_winner(&req, PolicyKind::DepthFirst, Some(16), 999_999);
    let out = svc.compile_tournament(&req).unwrap();
    assert!(out.shape_hit, "the planted entry was found");
    assert!(out.guard_fallback, "the inflated score must trip the band");
    assert_eq!(
        out.entrants_run,
        portfolio + 1,
        "hot probe + full portfolio"
    );
    assert_eq!(out.compiled.stats.tournament_entrants, portfolio);

    let s = svc.stats();
    assert_eq!(s.guard_fallbacks, 1);
    assert_eq!(s.shape_hits, 1);
    assert_eq!(s.shape_misses, 0);

    // The fallback refreshed the entry with the real improvement: the next
    // tournament is a clean hot path.
    let again = svc.compile_tournament(&req).unwrap();
    assert!(again.shape_hit);
    assert!(!again.guard_fallback);
    assert_eq!(again.entrants_run, 1);
    assert_eq!(again.policy, out.policy);
    assert_eq!(again.score, out.score);
    assert_eq!(svc.stats().guard_fallbacks, 1);
}

#[test]
fn tournament_winners_are_identical_at_1_2_and_8_workers() {
    for seed in [3u64, 7, 13, 29] {
        let req = tournament_request(seed);
        let outcomes: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&w| service(w).compile_tournament(&req).unwrap())
            .collect();
        let reference = &outcomes[0];
        for (out, workers) in outcomes.iter().zip([1usize, 2, 8]) {
            assert_eq!(out.label, reference.label, "seed {seed}, {workers} workers");
            assert_eq!(out.score, reference.score, "seed {seed}, {workers} workers");
            assert_eq!(
                out.compiled.function.to_string(),
                reference.compiled.function.to_string(),
                "seed {seed}: artifact differs at {workers} workers"
            );
            assert_eq!(out.compiled.stats, reference.compiled.stats);
        }
    }
}

#[test]
fn service_tournament_matches_the_sequential_core_tournament() {
    for seed in [5u64, 17] {
        let req = tournament_request(seed);
        let core = chf_core::run_tournament(
            &req.function,
            &req.profile,
            &req.args,
            &req.memory,
            &req.config,
        )
        .unwrap();
        let svc = service(4);
        let out = svc.compile_tournament(&req).unwrap();
        assert_eq!(out.label, core.label, "seed {seed}");
        assert_eq!(out.score, core.score, "seed {seed}");
        assert_eq!(out.baseline, core.baseline, "seed {seed}");
        assert_eq!(
            out.compiled.function.to_string(),
            core.winner.function.to_string(),
            "seed {seed}: service and core tournaments disagree"
        );
    }
}

#[test]
fn a_winner_crowned_from_partial_artifacts_is_not_shape_cached() {
    // A zero deadline cuts every entrant before its first trial: the
    // tournament still answers, but its winner is not worth remembering.
    let svc = CompileService::new(ServiceConfig {
        workers: 1,
        default_deadline: Some(Duration::ZERO),
        ..ServiceConfig::default()
    });
    let req = tournament_request(7);
    let portfolio = req.config.entrants().len() as u64;
    let out = svc.compile_tournament(&req).unwrap();
    assert!(out.compiled.stats.deadline_hit);
    assert_eq!(svc.shape_cache_len(), 0, "partial winner was shape-cached");
    assert_eq!(svc.cache_len(), 0, "partial artifacts were cached");
    assert_eq!(svc.stats().degraded, portfolio);

    let again = svc.compile_tournament(&req).unwrap();
    assert!(!again.shape_hit, "the next tournament must run cold");
    assert_eq!(again.entrants_run, portfolio as usize);
    assert_eq!(svc.shape_cache_len(), 0);
}

#[test]
fn an_input_that_fails_its_baseline_simulation_is_a_permanent_error() {
    let mut req = tournament_request(7);
    // Send every exit of the entry block to a block that does not exist.
    let entry = req.function.entry;
    for exit in &mut req.function.block_mut(entry).exits {
        exit.target = chf_ir::block::ExitTarget::Block(chf_ir::ids::BlockId(9999));
    }
    let err = service(1).compile_tournament(&req).unwrap_err();
    assert!(
        err.to_string().contains("baseline simulation failed"),
        "{err}"
    );
    assert!(!err.is_transient(), "a failed baseline reproduces: {err}");
}

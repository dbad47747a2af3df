//! `tournament` — the verify step for adaptive policy selection.
//!
//! Checks, on the 19 SPEC-like composites:
//!
//! 1. **Portfolio dominance** — the tournament winner's suite-total dynamic
//!    block count is never worse than any fixed policy column of the budget
//!    ablation (BF/HF/DF at the default budget), which it contains as
//!    entrants;
//! 2. **Winner determinism** — service-side tournaments pick the same
//!    winner (label, score, byte-identical artifact) at 1, 2, and 8
//!    workers;
//! 3. **Oracle-column byte-stability** — the `table2_budget` CSV (with its
//!    portfolio columns) is byte-identical across worker counts and, when
//!    `results/table2_budget.csv` exists, matches the committed archive;
//! 4. **Shape-cache hot path** — a second pass over the suite through the
//!    same service is answered by the CFG-shape winner cache: every
//!    tournament is a shape hit and the amortized entrants-per-tournament
//!    counter falls below the portfolio size;
//! 5. **Shared prefix** — a cold pass (shape cache off) runs one formation
//!    per policy per tournament (3), while every entrant (6) is still
//!    scored, by the service counters.
//!
//! Exits non-zero on any violation; `scripts/verify.sh tournament` and CI
//! run it with the freshly generated CSV left on disk as a failure
//! artifact.

use chf_bench::table2::{self, DEFAULT_TRIAL_BUDGET};
use chf_core::TournamentConfig;
use chf_service::{CompileService, ServiceConfig, TournamentRequest};
use chf_workloads::spec_suite;

fn main() {
    let mut failed = false;
    let suite = spec_suite();
    let budget = DEFAULT_TRIAL_BUDGET;

    // 1 + 3. Budget ablation with the portfolio column, at three worker
    // counts: dominance is checked once, byte-stability across all three.
    println!("tournament: budget ablation with portfolio column ({budget} trials)");
    let mut csvs = Vec::new();
    for workers in [1usize, 2, 8] {
        let rows = table2::run_budget_with(workers, budget);
        if workers == 1 {
            let total = |k: usize| -> u64 {
                rows.iter()
                    .filter(|r| r.error.is_none())
                    .map(|r| r.cells[k].measure.blocks)
                    .sum()
            };
            let portfolio: u64 = rows
                .iter()
                .filter_map(|r| r.portfolio.as_ref())
                .map(|p| p.measure.blocks)
                .sum();
            for (k, label) in ["BF", "HF", "DF"].iter().enumerate() {
                let fixed = total(k);
                println!("  suite blocks {label}@{budget}: {fixed}  portfolio: {portfolio}");
                if portfolio > fixed {
                    eprintln!("CHECK FAILED: portfolio {portfolio} blocks > fixed {label} {fixed}");
                    failed = true;
                }
            }
            for r in &rows {
                if let Some(err) = &r.error {
                    eprintln!("CHECK FAILED: {} poisoned: {err}", r.name);
                    failed = true;
                }
            }
        }
        csvs.push((workers, table2::budget_csv(&rows)));
    }
    for (workers, csv) in &csvs[1..] {
        if csv != &csvs[0].1 {
            eprintln!("CHECK FAILED: table2_budget CSV differs at {workers} workers vs 1");
            failed = true;
        }
    }
    match std::fs::read_to_string("results/table2_budget.csv") {
        Ok(committed) => {
            if committed != csvs[0].1 {
                eprintln!(
                    "CHECK FAILED: regenerated table2_budget CSV differs from the committed \
                     results/table2_budget.csv (regenerate with the summary binary)"
                );
                let _ = std::fs::write("results/table2_budget.regenerated.csv", &csvs[0].1);
                failed = true;
            } else {
                println!("  CSV byte-identical at 1/2/8 workers and vs committed archive");
            }
        }
        Err(e) => println!("  (no committed results/table2_budget.csv to compare: {e})"),
    }

    // 2. Service-side winner determinism across worker counts.
    println!("tournament: service winner determinism at 1/2/8 workers");
    let reqs: Vec<TournamentRequest> = suite
        .iter()
        .map(|w| TournamentRequest {
            function: w.function.clone(),
            profile: w.profile.clone(),
            args: w.args.clone(),
            memory: w.memory.clone(),
            config: TournamentConfig::default(),
        })
        .collect();
    let portfolio_size = TournamentConfig::default().entrants().len();
    let policies = TournamentConfig::default().policies.len();
    let mut reference: Vec<(String, u64, String)> = Vec::new();
    for workers in [1usize, 2, 8] {
        let svc = CompileService::new(ServiceConfig {
            workers,
            ..ServiceConfig::default()
        });
        for (i, req) in reqs.iter().enumerate() {
            let out = svc.compile_tournament(req).unwrap_or_else(|e| {
                panic!(
                    "{}: tournament failed at {workers} workers: {e}",
                    suite[i].name
                )
            });
            let got = (
                out.label.clone(),
                out.score,
                out.compiled.function.to_string(),
            );
            if workers == 1 {
                reference.push(got);
            } else if got != reference[i] {
                eprintln!(
                    "CHECK FAILED: {} winner differs at {workers} workers: {} (score {}) vs {} (score {})",
                    suite[i].name, got.0, got.1, reference[i].0, reference[i].1
                );
                failed = true;
            }
        }
    }
    if !failed {
        println!(
            "  {} composites: identical winners and artifacts",
            suite.len()
        );
    }

    // 4. Shape-cache hot path: one service, two passes.
    println!("tournament: shape-cache hot path");
    let svc = CompileService::new(ServiceConfig::default());
    for req in &reqs {
        svc.compile_tournament(req).expect("cold tournament");
    }
    let cold = svc.stats();
    for req in &reqs {
        let out = svc.compile_tournament(req).expect("hot tournament");
        if !out.shape_hit {
            eprintln!("CHECK FAILED: second pass missed the shape cache");
            failed = true;
        }
        if !out.guard_fallback && out.entrants_run != 1 {
            eprintln!(
                "CHECK FAILED: shape-cache hot path ran {} entrants, expected 1",
                out.entrants_run
            );
            failed = true;
        }
    }
    let hot = svc.stats();
    let amortized = hot.entrants_per_tournament();
    println!(
        "  {} tournaments, {} shape hits, {} guard fallbacks, amortized {:.2} entrants/tournament",
        hot.tournaments, hot.shape_hits, hot.guard_fallbacks, amortized
    );
    if hot.shape_hits < cold.tournaments {
        eprintln!(
            "CHECK FAILED: {} shape hits < {} second-pass tournaments",
            hot.shape_hits, cold.tournaments
        );
        failed = true;
    }
    if amortized >= portfolio_size as f64 {
        eprintln!(
            "CHECK FAILED: amortized entrants {amortized:.2} did not fall below the \
             portfolio size {portfolio_size}"
        );
        failed = true;
    }

    // 5. Shared prefix: one formation per policy serves both of its
    // budget entrants.
    println!("tournament: shared-prefix formations");
    let svc = CompileService::new(ServiceConfig {
        shape_cache_capacity: 0,
        ..ServiceConfig::default()
    });
    for req in &reqs {
        svc.compile_tournament(req).expect("cold tournament");
    }
    let s = svc.stats();
    let n = reqs.len() as u64;
    let (formations, entrants) = (policies as u64 * n, portfolio_size as u64 * n);
    println!(
        "  {} cold tournaments: {} formations, {} entrants scored",
        s.shape_misses, s.formations, s.tournament_entrants
    );
    if s.shape_misses != n || s.formations != formations || s.tournament_entrants != entrants {
        eprintln!(
            "CHECK FAILED: {n} cold tournaments ran {} formations and scored {} entrants, \
             expected {formations} and {entrants}",
            s.formations, s.tournament_entrants
        );
        failed = true;
    }

    if failed {
        std::process::exit(1);
    }
    println!("tournament: all checks passed");
}

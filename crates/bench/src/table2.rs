//! Table 2: percent cycle-count improvement over basic blocks for the
//! block-selection heuristics — VLIW (without and with iterative
//! optimization), depth-first, breadth-first, and the profile-guided
//! hot-first policy.
//!
//! Also hosts the *budget ablation*: BF vs HF vs DF under an equal,
//! constrained per-function trial budget on the SPEC-like composites,
//! measuring where each policy spends a fixed formation-effort ledger.

use crate::csv::{label_columns, write_rows};
use crate::matrix::{labels, Matrix, Row, Sim};
use crate::render::{pct, render_improvements, render_rows};
use chf_core::pipeline::CompileConfig;
use chf_core::tournament::{ScoreMetric, TournamentConfig};
use chf_core::PolicyKind;
use chf_service::parallel;
use chf_workloads::{microbenchmarks, spec_suite};
use std::fmt::Write as _;

/// The five heuristic configurations of Table 2, in column order (the
/// paper's four plus the profile-guided `HF` ablation column), read through
/// the timing simulator.
pub fn matrix() -> Matrix {
    let columns = vec![
        ("VLIW", CompileConfig::with_policy(PolicyKind::Vliw, false)),
        (
            "Convergent VLIW",
            CompileConfig::with_policy(PolicyKind::Vliw, true),
        ),
        (
            "DF",
            CompileConfig::with_policy(PolicyKind::DepthFirst, true),
        ),
        (
            "BF",
            CompileConfig::with_policy(PolicyKind::BreadthFirst, true),
        ),
        ("HF", CompileConfig::with_policy(PolicyKind::HotFirst, true)),
    ];
    Matrix::new(columns, Sim::Timing)
}

/// Default per-function trial budget for the ablation: tight enough that
/// the composites cannot finish formation everywhere, so *where* a policy
/// spends its ledger becomes observable in the dynamic block counts.
pub const DEFAULT_TRIAL_BUDGET: usize = 16;

/// The budget ablation: breadth-first, hot-first, and depth-first, all
/// `(IUPO)` and all sharing the same per-function trial budget so the
/// comparison is at equal formation cost. Read through the functional
/// simulator, like Table 3 — the ablation asks *where* the ledger was spent,
/// and block counts are the cheapest faithful proxy.
///
/// Its portfolio ("oracle") column is the winner of a per-function policy
/// tournament over the same three policies at both the constrained budget
/// and unbounded, scored by dynamic block count — what an adaptive compiler
/// that tries every entrant would pick. The budgeted entrants are
/// byte-for-byte the ablation's own columns, so the winner can never be
/// worse than the best fixed column.
pub fn budget_matrix(budget: usize) -> Matrix {
    let policies = [
        ("BF", PolicyKind::BreadthFirst),
        ("HF", PolicyKind::HotFirst),
        ("DF", PolicyKind::DepthFirst),
    ];
    let columns = policies
        .into_iter()
        .map(|(label, policy)| {
            let mut config = CompileConfig::with_policy(policy, true);
            config.trial_budget = Some(budget);
            (label, config)
        })
        .collect();
    Matrix {
        portfolio: Some(TournamentConfig {
            policies: policies.map(|(_, policy)| policy).to_vec(),
            budgets: vec![Some(budget), None],
            metric: ScoreMetric::DynamicBlocks,
            base: CompileConfig::with_policy(PolicyKind::BreadthFirst, true),
        }),
        ..Matrix::new(columns, Sim::Functional)
    }
}

/// Run the full Table 2 experiment (parallel across benchmarks, results in
/// deterministic suite order).
pub fn run() -> Vec<Row> {
    run_with(parallel::workers())
}

/// [`run`] with an explicit worker count (`1` forces the sequential path).
pub fn run_with(workers: usize) -> Vec<Row> {
    matrix().run(&microbenchmarks(), workers)
}

/// Run the budget ablation at [`DEFAULT_TRIAL_BUDGET`] over the SPEC-like
/// composites (parallel, results in deterministic suite order).
pub fn run_budget() -> Vec<Row> {
    run_budget_with(parallel::workers(), DEFAULT_TRIAL_BUDGET)
}

/// [`run_budget`] with an explicit worker count and budget.
pub fn run_budget_with(workers: usize, budget: usize) -> Vec<Row> {
    budget_matrix(budget).run(&spec_suite(), workers)
}

/// Render in the paper's format.
pub fn render(rows: &[Row]) -> String {
    render_improvements(rows, "BB cycles", |m| m.cycles)
}

/// Render the budget ablation: per-policy improvement plus the trial
/// ledger (`spent/skipped`), and the portfolio (tournament-winner) column.
pub fn render_budget(rows: &[Row], budget: usize) -> String {
    let mut header: Vec<String> = vec!["benchmark".into(), "BB blocks".into()];
    let labels = labels(rows);
    for label in &labels {
        header.push(format!("{label}@{budget}"));
        header.push(format!("{label} ledger"));
    }
    if !labels.is_empty() {
        header.push("portfolio".into());
        header.push("winner".into());
    }
    let cells = |r: &Row| {
        let mut row = vec![r.baseline.blocks.to_string()];
        for c in &r.cells {
            row.push(pct(c.improvement));
            row.push(c.stats.ledger());
        }
        if let Some(p) = &r.portfolio {
            row.push(pct(p.improvement));
            row.push(p.label.clone());
        }
        row
    };
    render_rows(
        header,
        rows,
        cells,
        Some(|means| {
            let mut avg = vec![String::new()];
            for m in means {
                avg.push(pct(*m));
                avg.push(String::new());
            }
            avg
        }),
    )
}

/// Rows as CSV: per heuristic its cycles, improvement, misprediction rate
/// and utilization.
pub fn csv(rows: &[Row]) -> String {
    let header = format!(
        "benchmark,bb_cycles{}",
        label_columns(rows, &["cycles", "improvement", "mispredict_rate", "util"])
    );
    write_rows(&header, rows, |r| {
        let mut out = format!(",{}", r.baseline.cycles);
        for c in &r.cells {
            let _ = write!(
                out,
                ",{},{:.2},{:.4},{}",
                c.measure.cycles,
                c.improvement,
                c.measure.mispredict_rate,
                c.stats.utilization()
            );
        }
        out
    })
}

/// Budget-ablation rows as CSV: per policy, the dynamic block count, the
/// improvement over basic blocks, and the trial ledger (trials spent,
/// candidates skipped for budget, and the full `m/t/u/p` string); then the
/// portfolio winner's blocks, improvement, label and entrant count.
pub fn budget_csv(rows: &[Row]) -> String {
    let mut header = format!(
        "benchmark,bb_blocks{}",
        label_columns(
            rows,
            &["blocks", "improvement", "trials", "skipped", "mtup"]
        )
    );
    if !labels(rows).is_empty() {
        header.push_str(
            ",portfolio_blocks,portfolio_improvement,portfolio_winner,portfolio_entrants",
        );
    }
    write_rows(&header, rows, |r| {
        let mut out = format!(",{}", r.baseline.blocks);
        for c in &r.cells {
            let _ = write!(
                out,
                ",{},{:.2},{},{},{}",
                c.measure.blocks,
                c.improvement,
                c.stats.trials,
                c.stats.budget_skipped,
                c.stats.mtup()
            );
        }
        if let Some(p) = &r.portfolio {
            let _ = write!(
                out,
                ",{},{:.2},{},{}",
                p.measure.blocks, p.improvement, p.label, p.stats.tournament_entrants
            );
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chf_core::pipeline::PhaseOrdering;

    #[test]
    fn five_configurations() {
        let cs = matrix().columns;
        assert_eq!(cs.len(), 5);
        assert_eq!(cs[0].0, "VLIW");
        assert_eq!(cs[3].0, "BF");
        assert_eq!(cs[4].0, "HF");
    }

    #[test]
    fn measure_reports_all_heuristics() {
        let w = chf_workloads::micro::bzip2_1();
        let row = matrix().measure(&w);
        assert_eq!(row.cells.len(), 5);
    }

    #[test]
    fn budget_configurations_share_one_budget() {
        let cs = budget_matrix(8).columns;
        assert_eq!(cs.len(), 3);
        for (label, config) in &cs {
            assert_eq!(config.trial_budget, Some(8), "{label}");
            assert_eq!(config.ordering, PhaseOrdering::Iupo_, "{label}");
        }
        assert_eq!(cs[0].0, "BF");
        assert_eq!(cs[1].0, "HF");
        assert_eq!(cs[2].0, "DF");
    }

    #[test]
    fn measure_budget_records_ledger() {
        let suite = spec_suite();
        let w = suite.iter().find(|w| w.name == "gzip").unwrap();
        let row = budget_matrix(4).measure(w);
        assert!(row.error.is_none(), "{:?}", row.error);
        assert_eq!(row.cells.len(), 3);
        for c in &row.cells {
            // Composites are single functions and `(IUPO)` invokes
            // formation once, so the per-function cap is a hard cap.
            assert!(
                c.stats.trials <= 4,
                "{}: trials {} exceed the cap",
                c.label,
                c.stats.trials
            );
        }
        // A budget of 4 trials must actually constrain gzip's formation:
        // at least one policy should have skipped candidates.
        assert!(
            row.cells.iter().any(|c| c.stats.budget_skipped > 0),
            "budget 4 did not constrain gzip"
        );
    }
}

//! CSV serialization of experiment results, for plotting Figure 7 and
//! archiving table data (`summary` writes these under `results/`).

use crate::{fig7, table1, table2, table3, whole_program};
use std::fmt::Write as _;

/// The sentinel written in place of numbers for a poisoned row. Downstream
/// consumers (plot scripts, spreadsheet imports) can filter on the first
/// data column equalling this token.
pub const POISONED_SENTINEL: &str = "POISONED";

/// A failure message flattened to a single CSV-safe cell (no commas, no
/// newlines).
fn csv_safe(msg: &str) -> String {
    msg.replace(['\n', '\r'], " ").replace(',', ";")
}

/// Table 1 rows as CSV. Poisoned rows become
/// `name,POISONED,<message>` — a sentinel line, never fabricated zeros.
pub fn table1_csv(rows: &[table1::Row]) -> String {
    let mut out = String::from("benchmark,bb_cycles,bb_blocks");
    if let Some(first) = rows.iter().find(|r| r.error.is_none()) {
        for c in &first.configs {
            let _ = write!(
                out,
                ",{0}_cycles,{0}_blocks,{0}_improvement,{0}_mtup,{0}_util",
                c.label.replace(['(', ')'], "")
            );
        }
    }
    out.push('\n');
    for r in rows {
        if let Some(err) = &r.error {
            let _ = writeln!(out, "{},{},{}", r.name, POISONED_SENTINEL, csv_safe(err));
            continue;
        }
        let _ = write!(out, "{},{},{}", r.name, r.bb_cycles, r.bb_blocks);
        for c in &r.configs {
            let _ = write!(
                out,
                ",{},{},{:.2},{},{}",
                c.cycles,
                c.blocks,
                c.improvement,
                c.stats.mtup(),
                c.stats.utilization()
            );
        }
        out.push('\n');
    }
    out
}

/// Table 2 rows as CSV (poisoned rows as in [`table1_csv`]).
pub fn table2_csv(rows: &[table2::Row]) -> String {
    let mut out = String::from("benchmark,bb_cycles");
    if let Some(first) = rows.iter().find(|r| r.error.is_none()) {
        for (label, ..) in &first.results {
            let safe = label.replace(' ', "_");
            let _ = write!(
                out,
                ",{safe}_cycles,{safe}_improvement,{safe}_mispredict_rate,{safe}_util"
            );
        }
    }
    out.push('\n');
    for r in rows {
        if let Some(err) = &r.error {
            let _ = writeln!(out, "{},{},{}", r.name, POISONED_SENTINEL, csv_safe(err));
            continue;
        }
        let _ = write!(out, "{},{}", r.name, r.bb_cycles);
        for (_, cycles, improvement, mr, stats) in &r.results {
            let _ = write!(
                out,
                ",{cycles},{improvement:.2},{mr:.4},{}",
                stats.utilization()
            );
        }
        out.push('\n');
    }
    out
}

/// Budget-ablation rows as CSV: per policy, the dynamic block count, the
/// improvement over basic blocks, and the trial ledger (trials spent,
/// candidates skipped for budget, and the full `m/t/u/p` string).
/// Poisoned rows as in [`table1_csv`].
pub fn table2_budget_csv(rows: &[table2::BudgetRow]) -> String {
    let mut out = String::from("benchmark,bb_blocks");
    if let Some(first) = rows.iter().find(|r| r.error.is_none()) {
        for (label, ..) in &first.results {
            let _ = write!(
                out,
                ",{label}_blocks,{label}_improvement,{label}_trials,{label}_skipped,{label}_mtup"
            );
        }
        out.push_str(",portfolio_blocks,portfolio_improvement,portfolio_winner,portfolio_entrants");
    }
    out.push('\n');
    for r in rows {
        if let Some(err) = &r.error {
            let _ = writeln!(out, "{},{},{}", r.name, POISONED_SENTINEL, csv_safe(err));
            continue;
        }
        let _ = write!(out, "{},{}", r.name, r.bb_blocks);
        for (_, blocks, improvement, stats) in &r.results {
            let _ = write!(
                out,
                ",{blocks},{improvement:.2},{},{},{}",
                stats.trials,
                stats.budget_skipped,
                stats.mtup()
            );
        }
        if let Some(p) = &r.portfolio {
            let _ = write!(
                out,
                ",{},{:.2},{},{}",
                p.blocks, p.improvement, p.winner, p.stats.tournament_entrants
            );
        }
        out.push('\n');
    }
    out
}

/// Table 3 rows as CSV (poisoned rows as in [`table1_csv`]).
pub fn table3_csv(rows: &[table3::Row]) -> String {
    let mut out = String::from("benchmark,bb_blocks");
    if let Some(first) = rows.iter().find(|r| r.error.is_none()) {
        for (label, ..) in &first.results {
            let safe = label.replace(['(', ')'], "");
            let _ = write!(out, ",{safe}_blocks,{safe}_improvement");
        }
    }
    out.push('\n');
    for r in rows {
        if let Some(err) = &r.error {
            let _ = writeln!(out, "{},{},{}", r.name, POISONED_SENTINEL, csv_safe(err));
            continue;
        }
        let _ = write!(out, "{},{}", r.name, r.bb_blocks);
        for (_, blocks, improvement) in &r.results {
            let _ = write!(out, ",{blocks},{improvement:.2}");
        }
        out.push('\n');
    }
    out
}

/// Whole-program measured-vs-model rows as CSV, with the fit appended as
/// a comment line (poisoned rows as in [`table1_csv`]). Deterministic:
/// byte-identical at any worker count.
pub fn whole_program_csv(rows: &[whole_program::Row], fit: &fig7::Fit) -> String {
    let mut out = String::from(
        "benchmark,bb_blocks,hb_blocks,block_improvement,bb_cycles,hb_cycles,\
         cycle_improvement,hb_insts\n",
    );
    for r in rows {
        if let Some(err) = &r.error {
            let _ = writeln!(out, "{},{},{}", r.name, POISONED_SENTINEL, csv_safe(err));
            continue;
        }
        let _ = writeln!(
            out,
            "{},{},{},{:.2},{},{},{:.2},{}",
            r.name,
            r.bb_blocks,
            r.hb_blocks,
            r.block_improvement(),
            r.bb_cycles,
            r.hb_cycles,
            r.cycle_improvement(),
            r.hb_insts
        );
    }
    let _ = writeln!(
        out,
        "# fit: slope={:.4} intercept={:.2} r2={:.4}",
        fit.slope, fit.intercept, fit.r2
    );
    out
}

/// Figure 7 scatter points as CSV.
pub fn fig7_csv(points: &[fig7::Point], fit: &fig7::Fit) -> String {
    let mut out = String::from("block_reduction,cycle_reduction\n");
    for p in points {
        let _ = writeln!(out, "{:.1},{:.1}", p.block_reduction, p.cycle_reduction);
    }
    let _ = writeln!(
        out,
        "# fit: slope={:.4} intercept={:.2} r2={:.4}",
        fit.slope, fit.intercept, fit.r2
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig7::{Fit, Point};

    #[test]
    fn fig7_csv_shape() {
        let pts = vec![
            Point {
                block_reduction: 10.0,
                cycle_reduction: 25.0,
            },
            Point {
                block_reduction: 0.0,
                cycle_reduction: -3.0,
            },
        ];
        let fit = Fit {
            slope: 2.5,
            intercept: 0.0,
            r2: 1.0,
        };
        let csv = fig7_csv(&pts, &fit);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "block_reduction,cycle_reduction");
        assert!(lines[3].starts_with("# fit"));
    }

    #[test]
    fn table_csvs_have_headers_and_rows() {
        let w = chf_workloads::micro::vadd();
        let rows = vec![crate::table1::measure(&w)];
        let csv = table1_csv(&rows);
        assert!(csv.starts_with("benchmark,bb_cycles,bb_blocks"));
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.contains("vadd"));
    }
}

//! Table 1: percent cycle-count improvement over basic blocks for the four
//! phase orderings (UPIO, IUPO, (IUP)O, (IUPO)), with static `m/t/u/p`
//! transformation counts, on the 24 microbenchmarks.

use crate::csv::{label_columns, write_rows};
use crate::matrix::{labels, Matrix, Row, Sim};
use crate::render::{pct, render_rows};
use chf_core::pipeline::{CompileConfig, PhaseOrdering};
use chf_service::parallel;
use chf_workloads::microbenchmarks;
use std::fmt::Write as _;

/// The four orderings, in [`PhaseOrdering::table1`] order, read through the
/// timing simulator.
pub fn matrix() -> Matrix {
    let columns = PhaseOrdering::table1()
        .into_iter()
        .map(|o| (o.label(), CompileConfig::with_ordering(o)))
        .collect();
    Matrix::new(columns, Sim::Timing)
}

/// Run the full Table 1 experiment, fanning benchmarks across the
/// [`chf_service::parallel`] harness (results are in deterministic suite order
/// regardless of worker count).
pub fn run() -> Vec<Row> {
    run_with(parallel::workers())
}

/// [`run`] with an explicit worker count (`1` forces the sequential path).
pub fn run_with(workers: usize) -> Vec<Row> {
    matrix().run(&microbenchmarks(), workers)
}

/// Render rows in the paper's format (`BB cycles`, then per ordering
/// `m/t/u/p` and `%`).
pub fn render(rows: &[Row]) -> String {
    let mut header: Vec<String> = vec!["benchmark".into(), "BB cycles".into()];
    for label in labels(rows) {
        header.push(format!("{label} m/t/u/p"));
        header.push(format!("{label} %"));
    }
    let cells = |r: &Row| {
        let mut row = vec![r.baseline.cycles.to_string()];
        for c in &r.cells {
            row.push(c.stats.mtup());
            row.push(pct(c.improvement));
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
                avg.push(String::new());
                avg.push(pct(*m));
            }
            avg
        }),
    )
}

/// Rows as CSV: the baseline's cycles and blocks, then per ordering its
/// cycles, blocks, improvement, `m/t/u/p` and utilization.
pub fn csv(rows: &[Row]) -> String {
    let header = format!(
        "benchmark,bb_cycles,bb_blocks{}",
        label_columns(rows, &["cycles", "blocks", "improvement", "mtup", "util"])
    );
    write_rows(&header, rows, |r| {
        let mut out = format!(",{},{}", r.baseline.cycles, r.baseline.blocks);
        for c in &r.cells {
            let _ = write!(
                out,
                ",{},{},{:.2},{},{}",
                c.measure.cycles,
                c.measure.blocks,
                c.improvement,
                c.stats.mtup(),
                c.stats.utilization()
            );
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_one_row() {
        let w = chf_workloads::micro::gzip_1();
        let row = matrix().measure(&w);
        assert_eq!(row.cells.len(), 4);
        assert!(row.baseline.cycles > 0);
        // The convergent configuration must beat basic blocks on gzip_1
        // (the paper's flagship example).
        let iupo = row.cells.last().unwrap();
        assert!(
            iupo.improvement > 0.0,
            "(IUPO) should improve gzip_1: {iupo:?}"
        );
    }

    /// The acceptance scenario: a deliberately broken workload (wrong
    /// expected return value) degrades to a marked row — it shows up as
    /// `FAILED` in the rendered table, as a `POISONED` sentinel in the CSV,
    /// and contributes no Figure 7 points — while healthy rows around it
    /// keep their numbers.
    #[test]
    fn poisoned_workload_yields_marked_row() {
        let healthy = chf_workloads::micro::vadd();
        let mut bad = chf_workloads::micro::vadd();
        bad.name = "vadd_sabotaged".into();
        bad.expected += 1; // behaviour check must fail
        let m = matrix();
        let rows = vec![m.measure(&healthy), m.measure(&bad)];

        assert!(rows[0].error.is_none());
        let err = rows[1].error.as_ref().expect("sabotaged row is poisoned");
        assert!(
            err.contains("vadd_sabotaged"),
            "error names the workload: {err}"
        );

        let text = render(&rows);
        assert!(
            text.contains("FAILED"),
            "table marks the poisoned row:\n{text}"
        );
        assert!(
            text.contains("Average"),
            "healthy rows still average:\n{text}"
        );

        let csv = csv(&rows);
        let poisoned_line = csv
            .lines()
            .find(|l| l.starts_with("vadd_sabotaged"))
            .expect("poisoned row present in CSV");
        assert!(
            poisoned_line.contains(crate::csv::POISONED_SENTINEL),
            "CSV uses the sentinel: {poisoned_line}"
        );

        // Figure 7 must draw its regression from the healthy row only.
        let pts = crate::fig7::points(&rows);
        assert_eq!(pts.len(), rows[0].cells.len());
    }

    #[test]
    fn render_has_average_row() {
        let w = chf_workloads::micro::vadd();
        let rows = vec![matrix().measure(&w)];
        let text = render(&rows);
        assert!(text.contains("vadd"));
        assert!(text.contains("Average"));
        assert!(text.contains("(IUPO)"));
    }

    #[test]
    fn csv_has_header_and_row() {
        let rows = vec![matrix().measure(&chf_workloads::micro::vadd())];
        let csv = csv(&rows);
        assert!(csv.starts_with("benchmark,bb_cycles,bb_blocks"));
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.contains("vadd"));
    }
}

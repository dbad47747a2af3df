//! Table 3: percent improvement in *dynamic block counts* over basic blocks
//! on the SPEC2000-like composites, measured with the fast functional
//! simulator (cycle-level simulation of whole SPEC programs being
//! "prohibitively slow", paper §7.3).

use crate::csv::{label_columns, write_rows};
use crate::matrix::{Matrix, Row, Sim};
use crate::render::render_improvements;
use chf_service::parallel;
use chf_workloads::spec_suite;
use std::fmt::Write as _;

/// Table 1's four orderings, read through the functional simulator.
pub fn matrix() -> Matrix {
    Matrix {
        sim: Sim::Functional,
        ..crate::table1::matrix()
    }
}

/// Run the full Table 3 experiment (parallel across composites, results in
/// deterministic suite order).
pub fn run() -> Vec<Row> {
    run_with(parallel::workers())
}

/// [`run`] with an explicit worker count (`1` forces the sequential path).
pub fn run_with(workers: usize) -> Vec<Row> {
    matrix().run(&spec_suite(), workers)
}

/// Render in the paper's format (`BB` in raw block counts, then percents).
pub fn render(rows: &[Row]) -> String {
    render_improvements(rows, "BB blocks", |m| m.blocks)
}

/// Rows as CSV: per ordering its dynamic block count and improvement.
pub fn csv(rows: &[Row]) -> String {
    let header = format!(
        "benchmark,bb_blocks{}",
        label_columns(rows, &["blocks", "improvement"])
    );
    write_rows(&header, rows, |r| {
        let mut out = format!(",{}", r.baseline.blocks);
        for c in &r.cells {
            let _ = write!(out, ",{},{:.2}", c.measure.blocks, c.improvement);
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_one_composite() {
        let suite = spec_suite();
        let w = suite.iter().find(|w| w.name == "gzip").unwrap();
        let row = matrix().measure(w);
        assert_eq!(row.cells.len(), 4);
        // Hyperblock formation must reduce block counts on gzip.
        let conv = row.cells.last().unwrap();
        assert!(conv.measure.blocks < row.baseline.blocks);
        assert!(conv.improvement > 0.0);
    }
}

//! Whole-program cycle simulation of the SPEC-like composites.
//!
//! The paper's SPEC study (Table 3) reports *block counts* from functional
//! simulation because cycle-level simulation of whole SPEC programs was
//! "prohibitively slow" (§7.3); Figure 7 then justifies the proxy by fitting
//! cycle reduction against block reduction on the microbenchmarks. The
//! event-driven rewrite of the timing core makes end-to-end cycle
//! simulation of our composites affordable, so this module closes the loop
//! the authors could not: it **measures** cycles on every composite and
//! compares them against the **model** — the block-count proxy mapped
//! through a Figure-7-style least-squares fit.
//!
//! Each composite is compiled twice (basic blocks and the convergent
//! default), each form lowered **once**, and the pre-decoded handle is
//! simulated end-to-end on the reference input with both simulators. The
//! fit of measured cycle reduction vs block reduction — slope (cycles saved
//! per block removed) and r² — is the composite-level analogue of the
//! paper's reported r² = 0.78.

use crate::csv::{fit_line, write_rows};
use crate::fig7::{linear_fit, points, Fit};
use crate::matrix::{Matrix, Row, Sim};
use crate::percent_improvement;
use crate::render::{pct, render_rows};
use chf_core::pipeline::{CompileConfig, PhaseOrdering};
use chf_service::parallel;
use chf_workloads::spec_suite;

/// The convergent default as the one column, read through both simulators.
pub fn matrix() -> Matrix {
    let columns = vec![(PhaseOrdering::Iupo_.label(), CompileConfig::convergent())];
    Matrix::new(columns, Sim::Both)
}

/// Run the whole-program experiment over the full SPEC-like suite
/// (parallel across composites, deterministic suite order).
pub fn run() -> (Vec<Row>, Fit) {
    run_with(parallel::workers(), usize::MAX)
}

/// [`run`] with an explicit worker count and a cap on the number of
/// composites (the `--smoke` path simulates a prefix of the suite so the
/// end-to-end pipeline stays inside the CI time budget). The fit is over
/// the measured-vs-model scatter ([`crate::fig7::points`]): block reduction
/// (the proxy the paper had) against measured cycle reduction.
pub fn run_with(workers: usize, limit: usize) -> (Vec<Row>, Fit) {
    let mut suite = spec_suite();
    suite.truncate(limit);
    let rows = matrix().run(&suite, workers);
    let fit = linear_fit(&points(&rows));
    (rows, fit)
}

/// Block-count improvement of the convergent form, percent (the paper's
/// Table 3 metric); the cell's own improvement is in cycles.
fn block_improvement(r: &Row) -> f64 {
    percent_improvement(r.baseline.blocks, r.cells[0].measure.blocks)
}

/// Render the measured-vs-model table plus the fit summary.
pub fn render(rows: &[Row], fit: &Fit) -> String {
    let header = [
        "Benchmark",
        "BB blocks",
        "CH blocks",
        "blk %",
        "BB cycles",
        "CH cycles",
        "cyc %",
    ]
    .map(String::from)
    .to_vec();
    let cells = |r: &Row| {
        let hb = &r.cells[0];
        vec![
            r.baseline.blocks.to_string(),
            hb.measure.blocks.to_string(),
            pct(block_improvement(r)),
            r.baseline.cycles.to_string(),
            hb.measure.cycles.to_string(),
            pct(hb.improvement),
        ]
    };
    let mut out = render_rows(header, rows, cells, None);
    out.push_str(&format!(
        "\nmeasured-vs-model fit: cycles_saved = {:.2} * blocks_saved + {:.1}   (r^2 = {:.3})\n",
        fit.slope, fit.intercept, fit.r2
    ));
    out.push_str("model = Table-3 block-count proxy; measured = end-to-end cycle simulation\n");
    out
}

/// Rows as CSV, with the fit appended as a comment line. Deterministic:
/// byte-identical at any worker count.
pub fn csv(rows: &[Row], fit: &Fit) -> String {
    let header = "benchmark,bb_blocks,hb_blocks,block_improvement,bb_cycles,hb_cycles,\
                  cycle_improvement,hb_insts";
    let mut out = write_rows(header, rows, |r| {
        let hb = &r.cells[0];
        format!(
            ",{},{},{:.2},{},{},{:.2},{}",
            r.baseline.blocks,
            hb.measure.blocks,
            block_improvement(r),
            r.baseline.cycles,
            hb.measure.cycles,
            hb.improvement,
            hb.measure.insts
        )
    });
    out.push_str(&fit_line(fit));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_prefix_measures_and_fits() {
        let (rows, _fit) = run_with(1, 3);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.error.is_none(), "{}: {:?}", r.name, r.error);
            let (bb, hb) = (r.baseline.cycles, r.cells[0].measure.cycles);
            assert!(bb > 0 && hb > 0, "{}", r.name);
            // Formation must not make a composite slower end-to-end.
            assert!(
                hb <= bb,
                "{}: convergent form slower ({hb} vs {bb})",
                r.name
            );
        }
    }

    #[test]
    fn full_suite_fit_is_strongly_linear() {
        let (rows, fit) = run();
        assert!(rows.iter().all(|r| r.error.is_none()));
        // The paper reports r^2 = 0.78 on the micro suite; the composite
        // suite should show at least a clearly linear relationship.
        assert!(
            fit.r2 > 0.5,
            "measured-vs-model relationship degenerated: r^2 = {}",
            fit.r2
        );
    }
}

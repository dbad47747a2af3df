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

use crate::fig7::{linear_fit, Fit, Point};
use crate::render::{pct, render_table};
use chf_core::pipeline::{try_compile, CompileConfig, PhaseOrdering};
use chf_service::parallel;
use chf_sim::functional::{run_lowered, RunConfig};
use chf_sim::timing::{simulate_timing_lowered, TimingConfig};
use chf_sim::LoweredProgram;
use chf_workloads::{spec_suite, Workload};

/// End-to-end measurements of one composite: both program forms, both
/// simulators, one reference input.
#[derive(Clone, Debug)]
pub struct Row {
    /// Composite name (paper's Table 3 order).
    pub name: String,
    /// Dynamic block count of the basic-block form.
    pub bb_blocks: u64,
    /// Dynamic block count of the convergent form.
    pub hb_blocks: u64,
    /// Measured cycles of the basic-block form.
    pub bb_cycles: u64,
    /// Measured cycles of the convergent form.
    pub hb_cycles: u64,
    /// Instructions executed in the convergent form (work check).
    pub hb_insts: u64,
    /// Failure marker; a poisoned row carries no measurements.
    pub error: Option<String>,
}

impl Row {
    /// A row marking a composite that failed to produce measurements.
    pub fn poisoned(name: String, error: String) -> Self {
        Row {
            name,
            bb_blocks: 0,
            hb_blocks: 0,
            bb_cycles: 0,
            hb_cycles: 0,
            hb_insts: 0,
            error: Some(error),
        }
    }

    /// Cycle-count improvement of the convergent form, percent.
    pub fn cycle_improvement(&self) -> f64 {
        crate::percent_improvement(self.bb_cycles, self.hb_cycles)
    }

    /// Block-count improvement of the convergent form, percent (the
    /// paper's Table 3 metric).
    pub fn block_improvement(&self) -> f64 {
        crate::percent_improvement(self.bb_blocks, self.hb_blocks)
    }
}

/// One form's measurements: blocks, cycles, insts.
struct FormMeasure {
    blocks: u64,
    cycles: u64,
    insts: u64,
}

/// Compile one form of `w`, lower it once, and run both simulators over
/// the shared handle, cross-checking their digests.
fn measure_form(w: &Workload, config: &CompileConfig) -> Result<FormMeasure, String> {
    let compiled = try_compile(&w.function, &w.profile, config)
        .map_err(|e| format!("{}: compilation failed: {e}", w.name))?;
    let lowered = LoweredProgram::lower(&compiled.function);
    let run_cfg = RunConfig {
        collect_trip_counts: false,
        ..RunConfig::default()
    };
    let f = run_lowered(&lowered, &w.args, &w.memory, &run_cfg)
        .map_err(|e| format!("{}: functional simulation failed: {e}", w.name))?;
    let t = simulate_timing_lowered(&lowered, &w.args, &w.memory, &TimingConfig::trips())
        .map_err(|e| format!("{}: timing simulation failed: {e}", w.name))?;
    if t.ret != Some(w.expected) || f.digest() != t.digest() {
        return Err(format!(
            "{}: simulators disagree (functional {:?}, timing {:?}, expected {})",
            w.name, f.ret, t.ret, w.expected
        ));
    }
    Ok(FormMeasure {
        blocks: f.blocks_executed,
        cycles: t.cycles,
        insts: t.insts_executed,
    })
}

/// Measure one composite end-to-end; any failure poisons the row.
pub fn measure(w: &Workload) -> Row {
    let bb = match measure_form(w, &CompileConfig::with_ordering(PhaseOrdering::BasicBlocks)) {
        Ok(m) => m,
        Err(e) => return Row::poisoned(w.name.clone(), e),
    };
    let hb = match measure_form(w, &CompileConfig::convergent()) {
        Ok(m) => m,
        Err(e) => return Row::poisoned(w.name.clone(), e),
    };
    Row {
        name: w.name.clone(),
        bb_blocks: bb.blocks,
        hb_blocks: hb.blocks,
        bb_cycles: bb.cycles,
        hb_cycles: hb.cycles,
        hb_insts: hb.insts,
        error: None,
    }
}

/// Measured-vs-model scatter points: block reduction (the proxy the paper
/// had) against measured cycle reduction (what this harness can now
/// afford), absolute counts as in Figure 7.
pub fn points(rows: &[Row]) -> Vec<Point> {
    rows.iter()
        .filter(|r| r.error.is_none())
        .map(|r| Point {
            block_reduction: r.bb_blocks as f64 - r.hb_blocks as f64,
            cycle_reduction: r.bb_cycles as f64 - r.hb_cycles as f64,
        })
        .collect()
}

/// Run the whole-program experiment over the full SPEC-like suite
/// (parallel across composites, deterministic suite order).
pub fn run() -> (Vec<Row>, Fit) {
    run_with(parallel::workers(), usize::MAX)
}

/// [`run`] with an explicit worker count and a cap on the number of
/// composites (the `--smoke` path simulates a prefix of the suite so the
/// end-to-end pipeline stays inside the CI time budget).
pub fn run_with(workers: usize, limit: usize) -> (Vec<Row>, Fit) {
    let mut suite = spec_suite();
    suite.truncate(limit);
    let rows: Vec<Row> = parallel::par_map_isolated(&suite, workers, measure)
        .into_iter()
        .zip(&suite)
        .map(|(res, w)| res.unwrap_or_else(|msg| Row::poisoned(w.name.clone(), msg)))
        .collect();
    let fit = linear_fit(&points(&rows));
    (rows, fit)
}

/// Render the measured-vs-model table plus the fit summary.
pub fn render(rows: &[Row], fit: &Fit) -> String {
    let header = vec![
        "Benchmark".to_string(),
        "BB blocks".to_string(),
        "CH blocks".to_string(),
        "blk %".to_string(),
        "BB cycles".to_string(),
        "CH cycles".to_string(),
        "cyc %".to_string(),
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            if let Some(e) = &r.error {
                return vec![
                    r.name.clone(),
                    format!("FAILED: {e}"),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                ];
            }
            vec![
                r.name.clone(),
                r.bb_blocks.to_string(),
                r.hb_blocks.to_string(),
                pct(r.block_improvement()),
                r.bb_cycles.to_string(),
                r.hb_cycles.to_string(),
                pct(r.cycle_improvement()),
            ]
        })
        .collect();
    let mut out = render_table(&header, &body);
    out.push_str(&format!(
        "\nmeasured-vs-model fit: cycles_saved = {:.2} * blocks_saved + {:.1}   (r^2 = {:.3})\n",
        fit.slope, fit.intercept, fit.r2
    ));
    out.push_str("model = Table-3 block-count proxy; measured = end-to-end cycle simulation\n");
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
            assert!(r.bb_cycles > 0 && r.hb_cycles > 0, "{}", r.name);
            // Formation must not make a composite slower end-to-end.
            assert!(
                r.hb_cycles <= r.bb_cycles,
                "{}: convergent form slower ({} vs {})",
                r.name,
                r.hb_cycles,
                r.bb_cycles
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

//! Table 3: percent improvement in *dynamic block counts* over basic blocks
//! on the SPEC2000-like composites, measured with the fast functional
//! simulator (cycle-level simulation of whole SPEC programs being
//! "prohibitively slow", paper §7.3).

use crate::render::{pct, render_table};
use crate::{percent_improvement, try_compile_and_count};
use chf_core::pipeline::{CompileConfig, PhaseOrdering};
use chf_service::parallel;
use chf_workloads::{spec_suite, Workload};

/// One composite's measurements.
#[derive(Clone, Debug)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Baseline dynamic block count (basic blocks).
    pub bb_blocks: u64,
    /// `(label, blocks, improvement %)` per ordering.
    pub results: Vec<(&'static str, u64, f64)>,
    /// Failure marker: see [`crate::table1::Row::error`].
    pub error: Option<String>,
}

impl Row {
    /// A row marking a composite that failed to produce measurements.
    pub fn poisoned(name: String, error: String) -> Self {
        Row {
            name,
            bb_blocks: 0,
            results: Vec::new(),
            error: Some(error),
        }
    }
}

/// Measure one composite across BB + the four orderings; any failure
/// poisons the row.
pub fn measure(w: &Workload) -> Row {
    let bb =
        match try_compile_and_count(w, &CompileConfig::with_ordering(PhaseOrdering::BasicBlocks)) {
            Ok((r, _)) => r,
            Err(e) => return Row::poisoned(w.name.clone(), e),
        };
    let mut results = Vec::new();
    for ordering in PhaseOrdering::table1() {
        match try_compile_and_count(w, &CompileConfig::with_ordering(ordering)) {
            Ok((r, _)) => results.push((
                ordering.label(),
                r.blocks_executed,
                percent_improvement(bb.blocks_executed, r.blocks_executed),
            )),
            Err(e) => return Row::poisoned(w.name.clone(), e),
        }
    }
    Row {
        name: w.name.clone(),
        bb_blocks: bb.blocks_executed,
        results,
        error: None,
    }
}

/// Run the full Table 3 experiment (parallel across composites, results in
/// deterministic suite order).
pub fn run() -> Vec<Row> {
    run_with(parallel::workers())
}

/// [`run`] with an explicit worker count (`1` forces the sequential path).
/// Panic-isolated: see [`crate::table1::run_with`].
pub fn run_with(workers: usize) -> Vec<Row> {
    let suite = spec_suite();
    parallel::par_map_isolated(&suite, workers, measure)
        .into_iter()
        .zip(&suite)
        .map(|(res, w)| res.unwrap_or_else(|msg| Row::poisoned(w.name.clone(), msg)))
        .collect()
}

/// Render in the paper's format (`BB` in raw block counts, then percents).
pub fn render(rows: &[Row]) -> String {
    let mut header: Vec<String> = vec!["benchmark".into(), "BB blocks".into()];
    let healthy: Vec<&Row> = rows.iter().filter(|r| r.error.is_none()).collect();
    if let Some(first) = healthy.first() {
        for (label, ..) in &first.results {
            header.push((*label).to_string());
        }
    }
    let mut body = Vec::new();
    for r in rows {
        if let Some(err) = &r.error {
            body.push(vec![r.name.clone(), format!("FAILED: {err}")]);
            continue;
        }
        let mut row = vec![r.name.clone(), r.bb_blocks.to_string()];
        for (_, _, improvement) in &r.results {
            row.push(pct(*improvement));
        }
        body.push(row);
    }
    if let Some(first) = healthy.first() {
        let mut avg = vec!["Average".to_string(), String::new()];
        let n = first.results.len();
        for k in 0..n {
            let mean: f64 =
                healthy.iter().map(|r| r.results[k].2).sum::<f64>() / healthy.len() as f64;
            avg.push(pct(mean));
        }
        body.push(avg);
    }
    render_table(&header, &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_one_composite() {
        let suite = spec_suite();
        let w = suite.iter().find(|w| w.name == "gzip").unwrap();
        let row = measure(w);
        assert_eq!(row.results.len(), 4);
        // Hyperblock formation must reduce block counts on gzip.
        let (_, blocks, improvement) = row.results.last().unwrap();
        assert!(*blocks < row.bb_blocks);
        assert!(*improvement > 0.0);
    }
}

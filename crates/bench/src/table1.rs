//! Table 1: percent cycle-count improvement over basic blocks for the four
//! phase orderings (UPIO, IUPO, (IUP)O, (IUPO)), with static `m/t/u/p`
//! transformation counts, on the 24 microbenchmarks.

use crate::render::{pct, render_table};
use crate::{percent_improvement, try_compile_and_time};
use chf_core::pipeline::{CompileConfig, PhaseOrdering};
use chf_core::FormationStats;
use chf_service::parallel;
use chf_workloads::{microbenchmarks, Workload};

/// One benchmark's measurements across every configuration.
#[derive(Clone, Debug)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Baseline (basic blocks) cycle count.
    pub bb_cycles: u64,
    /// Baseline dynamic block count (used by Figure 7).
    pub bb_blocks: u64,
    /// Per-ordering measurements, in [`PhaseOrdering::table1`] order.
    pub configs: Vec<Config>,
    /// Why this benchmark produced no numbers: a compile/simulate failure
    /// (or a panic contained by the parallel harness). A poisoned row is
    /// rendered as a marked row and written to CSV with a sentinel, and it
    /// is excluded from averages and Figure 7 — it never silently zeroes
    /// the statistics.
    pub error: Option<String>,
}

impl Row {
    /// A row marking a workload that failed to produce measurements.
    pub fn poisoned(name: String, error: String) -> Self {
        Row {
            name,
            bb_cycles: 0,
            bb_blocks: 0,
            configs: Vec::new(),
            error: Some(error),
        }
    }
}

/// One configuration's result on one benchmark.
#[derive(Clone, Debug)]
pub struct Config {
    /// Column label (`UPIO`, …).
    pub label: &'static str,
    /// Cycle count under the timing simulator.
    pub cycles: u64,
    /// Dynamic block count.
    pub blocks: u64,
    /// Static transformation counts.
    pub stats: FormationStats,
    /// Percent improvement over `bb_cycles`.
    pub improvement: f64,
}

/// Measure one workload across BB + the four orderings. A failure on any
/// configuration poisons the whole row (partial rows would skew the
/// averages invisibly).
pub fn measure(w: &Workload) -> Row {
    let bb =
        match try_compile_and_time(w, &CompileConfig::with_ordering(PhaseOrdering::BasicBlocks)) {
            Ok((t, _)) => t,
            Err(e) => return Row::poisoned(w.name.clone(), e),
        };
    let mut configs = Vec::new();
    for ordering in PhaseOrdering::table1() {
        let (t, stats) = match try_compile_and_time(w, &CompileConfig::with_ordering(ordering)) {
            Ok(r) => r,
            Err(e) => return Row::poisoned(w.name.clone(), e),
        };
        configs.push(Config {
            label: ordering.label(),
            cycles: t.cycles,
            blocks: t.blocks_executed,
            stats,
            improvement: percent_improvement(bb.cycles, t.cycles),
        });
    }
    Row {
        name: w.name.clone(),
        bb_cycles: bb.cycles,
        bb_blocks: bb.blocks_executed,
        configs,
        error: None,
    }
}

/// Run the full Table 1 experiment, fanning benchmarks across the
/// [`chf_service::parallel`] harness (results are in deterministic suite order
/// regardless of worker count).
pub fn run() -> Vec<Row> {
    run_with(parallel::workers())
}

/// [`run`] with an explicit worker count (`1` forces the sequential path).
///
/// Jobs run under the harness's panic isolation: a workload that panics the
/// compiler (twice — one retry) degrades to a poisoned row rather than
/// killing the table.
pub fn run_with(workers: usize) -> Vec<Row> {
    let suite = microbenchmarks();
    parallel::par_map_isolated(&suite, workers, measure)
        .into_iter()
        .zip(&suite)
        .map(|(res, w)| res.unwrap_or_else(|msg| Row::poisoned(w.name.clone(), msg)))
        .collect()
}

/// Render rows in the paper's format (`BB cycles`, then per ordering
/// `m/t/u/p` and `%`).
pub fn render(rows: &[Row]) -> String {
    let mut header: Vec<String> = vec!["benchmark".into(), "BB cycles".into()];
    let healthy: Vec<&Row> = rows.iter().filter(|r| r.error.is_none()).collect();
    if let Some(first) = healthy.first() {
        for c in &first.configs {
            header.push(format!("{} m/t/u/p", c.label));
            header.push(format!("{} %", c.label));
        }
    }
    let mut body = Vec::new();
    for r in rows {
        if let Some(err) = &r.error {
            body.push(vec![r.name.clone(), format!("FAILED: {err}")]);
            continue;
        }
        let mut row = vec![r.name.clone(), r.bb_cycles.to_string()];
        for c in &r.configs {
            row.push(c.stats.mtup());
            row.push(pct(c.improvement));
        }
        body.push(row);
    }
    // Average row, over the healthy benchmarks only.
    if let Some(first) = healthy.first() {
        let mut avg = vec!["Average".to_string(), String::new()];
        let n = first.configs.len();
        for k in 0..n {
            let mean: f64 = healthy
                .iter()
                .map(|r| r.configs[k].improvement)
                .sum::<f64>()
                / healthy.len() as f64;
            avg.push(String::new());
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
    fn measure_one_row() {
        let w = chf_workloads::micro::gzip_1();
        let row = measure(&w);
        assert_eq!(row.configs.len(), 4);
        assert!(row.bb_cycles > 0);
        // The convergent configuration must beat basic blocks on gzip_1
        // (the paper's flagship example).
        let iupo = row.configs.last().unwrap();
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
        let rows = vec![measure(&healthy), measure(&bad)];

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

        let csv = crate::csv::table1_csv(&rows);
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
        assert_eq!(pts.len(), rows[0].configs.len());
    }

    #[test]
    fn render_has_average_row() {
        let w = chf_workloads::micro::vadd();
        let rows = vec![measure(&w)];
        let text = render(&rows);
        assert!(text.contains("vadd"));
        assert!(text.contains("Average"));
        assert!(text.contains("(IUPO)"));
    }
}

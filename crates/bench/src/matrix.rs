//! The evaluation matrix every table of §7 is an instance of: a suite of
//! workloads × a list of labelled [`CompileConfig`]s, each measured against
//! the basic-block baseline with the simulator(s) the table reads.
//!
//! A table is data — a [`Matrix`] (its columns, its [`Sim`], and for the
//! budget ablation a tournament portfolio) plus the suite it runs on — and
//! every table produces the same [`Row`]. One function compiles and
//! measures ([`compile_and_measure`]), one runner fans a suite across the
//! panic-isolated parallel harness ([`Matrix::run`]), one renderer draws the
//! `FAILED` and `Average` rows ([`crate::render::render_rows`]) and one
//! writer owns the CSV `POISONED` sentinel ([`crate::csv::write_rows`]).

use crate::percent_improvement;
use chf_core::pipeline::{try_compile, CompileConfig, PhaseOrdering};
use chf_core::tournament::{run_tournament, TournamentConfig};
use chf_core::FormationStats;
use chf_service::parallel;
use chf_sim::functional::{run_lowered, RunConfig};
use chf_sim::timing::{simulate_timing_lowered, TimingConfig};
use chf_sim::LoweredProgram;
use chf_workloads::Workload;

/// Which simulator(s) a table reads. Each runs exactly what it reads, so
/// regenerating a cycle table does no functional simulation and vice
/// versa.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Sim {
    /// The cycle-level timing simulator (Tables 1 and 2); improvements are
    /// in cycles.
    Timing,
    /// The functional simulator (Table 3, the budget ablation);
    /// improvements are in dynamic blocks.
    Functional,
    /// Both over one lowered program, cross-checking their behaviour
    /// digests (the whole-program run); improvements are in cycles, blocks
    /// come from the functional run.
    Both,
}

/// What one simulation of one compiled form measured. Fields a table's
/// simulator does not produce stay zero.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct Measure {
    /// Cycles (timing simulator).
    pub cycles: u64,
    /// Dynamic block executions.
    pub blocks: u64,
    /// Instructions executed.
    pub insts: u64,
    /// Exit-predictor misprediction rate (timing simulator).
    pub mispredict_rate: f64,
}

/// One configuration's result on one workload.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Column label (`UPIO`, `BF`, …; for a portfolio, the winning
    /// entrant, `HF@16`, `BF@unb`, …).
    pub label: String,
    /// The compiled form's measurements.
    pub measure: Measure,
    /// Percent improvement over the baseline, in the table's unit (see
    /// [`Sim`]).
    pub improvement: f64,
    /// Static formation statistics (`m/t/u/p`, trial ledger,
    /// utilization).
    pub stats: FormationStats,
}

/// One workload's measurements across a matrix.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub name: String,
    /// The basic-block baseline.
    pub baseline: Measure,
    /// One cell per matrix column, in column order.
    pub cells: Vec<Cell>,
    /// The tournament winner over the matrix's portfolio, when it has one
    /// (the budget ablation's oracle column).
    pub portfolio: Option<Cell>,
    /// Why this workload produced no numbers: a compile/simulate failure or
    /// a panic contained by the parallel harness. A poisoned row is
    /// rendered as a `FAILED` row, written to CSV with a sentinel and left
    /// out of averages and Figure 7 — it never silently zeroes the
    /// statistics.
    pub error: Option<String>,
}

impl Row {
    /// A row marking a workload that failed to produce measurements.
    pub fn poisoned(name: String, error: String) -> Self {
        Row {
            name,
            baseline: Measure::default(),
            cells: Vec::new(),
            portfolio: None,
            error: Some(error),
        }
    }
}

/// A table as data: its labelled configurations, the simulator(s) it reads
/// and, optionally, a tournament portfolio scored beside the columns.
#[derive(Clone, Debug)]
pub struct Matrix {
    /// `(label, configuration)` per column.
    pub(crate) columns: Vec<(&'static str, CompileConfig)>,
    /// The simulator(s) every cell is measured with.
    pub(crate) sim: Sim,
    /// A per-workload policy tournament whose winner becomes
    /// [`Row::portfolio`]. Its score is a dynamic block count.
    pub(crate) portfolio: Option<TournamentConfig>,
}

impl Matrix {
    /// A matrix of `columns` read through `sim`, without a portfolio.
    pub fn new(columns: Vec<(&'static str, CompileConfig)>, sim: Sim) -> Self {
        Matrix {
            columns,
            sim,
            portfolio: None,
        }
    }

    /// Measure one workload: the basic-block baseline, every column, then
    /// the portfolio. A failure anywhere poisons the whole row (a partial
    /// row would skew the averages invisibly).
    pub fn measure(&self, w: &Workload) -> Row {
        let poisoned = |e| Row::poisoned(w.name.clone(), e);
        let bb = CompileConfig::with_ordering(PhaseOrdering::BasicBlocks);
        let baseline = match compile_and_measure(w, &bb, self.sim) {
            Ok((m, _)) => m,
            Err(e) => return poisoned(e),
        };
        let mut cells = Vec::with_capacity(self.columns.len());
        for (label, config) in &self.columns {
            let (measure, stats) = match compile_and_measure(w, config, self.sim) {
                Ok(r) => r,
                Err(e) => return poisoned(e),
            };
            let improvement = match self.sim {
                Sim::Functional => percent_improvement(baseline.blocks, measure.blocks),
                Sim::Timing | Sim::Both => percent_improvement(baseline.cycles, measure.cycles),
            };
            cells.push(Cell {
                label: (*label).to_string(),
                measure,
                improvement,
                stats,
            });
        }
        let portfolio = match &self.portfolio {
            None => None,
            Some(config) => {
                match run_tournament(&w.function, &w.profile, &w.args, &w.memory, config) {
                    Ok(t) => Some(Cell {
                        improvement: percent_improvement(baseline.blocks, t.score),
                        label: t.label,
                        measure: Measure {
                            blocks: t.score,
                            ..Measure::default()
                        },
                        stats: t.winner.stats,
                    }),
                    Err(e) => return poisoned(format!("{}: {e}", w.name)),
                }
            }
        };
        Row {
            name: w.name.clone(),
            baseline,
            cells,
            portfolio,
            error: None,
        }
    }

    /// Measure every workload of `suite` on `workers` threads (`1` forces
    /// the sequential path). Rows come back in suite order at any worker
    /// count. Jobs run under the harness's panic isolation: a workload that
    /// panics the compiler (twice — one retry) degrades to a poisoned row
    /// rather than killing the table.
    pub fn run(&self, suite: &[Workload], workers: usize) -> Vec<Row> {
        parallel::par_map_isolated(suite, workers, |w| self.measure(w))
            .into_iter()
            .zip(suite)
            .map(|(res, w)| res.unwrap_or_else(|msg| Row::poisoned(w.name.clone(), msg)))
            .collect()
    }
}

/// Compile `w` under `config`, lower it once and run the simulator(s)
/// `sim` names, checking that observable behaviour is preserved. Every
/// failure mode — compilation error, simulation error, or a behaviour
/// change — is an `Err` naming the workload; nothing on this path panics,
/// so the parallel harness can degrade a bad workload to a marked row.
///
/// # Errors
/// A descriptive message when compilation fails, a simulation fails, the
/// compiled code's return value differs from the workload's expectation,
/// or (under [`Sim::Both`]) the two simulators' behaviour digests differ.
pub fn compile_and_measure(
    w: &Workload,
    config: &CompileConfig,
    sim: Sim,
) -> Result<(Measure, FormationStats), String> {
    let compiled = try_compile(&w.function, &w.profile, config)
        .map_err(|e| format!("{}: compilation failed: {e}", w.name))?;
    let lowered = LoweredProgram::lower(&compiled.function);
    let functional = || {
        let run_cfg = RunConfig {
            collect_trip_counts: false,
            ..RunConfig::default()
        };
        run_lowered(&lowered, &w.args, &w.memory, &run_cfg)
            .map_err(|e| format!("{}: functional simulation failed: {e}", w.name))
    };
    let timing = || {
        simulate_timing_lowered(&lowered, &w.args, &w.memory, &TimingConfig::trips())
            .map_err(|e| format!("{}: timing simulation failed: {e}", w.name))
    };
    let measure = match sim {
        Sim::Timing => {
            let t = timing()?;
            check_return(w, t.ret)?;
            Measure {
                cycles: t.cycles,
                blocks: t.blocks_executed,
                insts: t.insts_executed,
                mispredict_rate: t.misprediction_rate(),
            }
        }
        Sim::Functional => {
            let f = functional()?;
            check_return(w, f.ret)?;
            Measure {
                blocks: f.blocks_executed,
                insts: f.insts_executed,
                ..Measure::default()
            }
        }
        Sim::Both => {
            let f = functional()?;
            let t = timing()?;
            if t.ret != Some(w.expected) || f.digest() != t.digest() {
                return Err(format!(
                    "{}: simulators disagree (functional {:?}, timing {:?}, expected {})",
                    w.name, f.ret, t.ret, w.expected
                ));
            }
            Measure {
                cycles: t.cycles,
                blocks: f.blocks_executed,
                insts: t.insts_executed,
                mispredict_rate: t.misprediction_rate(),
            }
        }
    };
    Ok((measure, compiled.stats))
}

fn check_return(w: &Workload, ret: Option<i64>) -> Result<(), String> {
    if ret == Some(w.expected) {
        return Ok(());
    }
    Err(format!(
        "{}: compiled code returned {ret:?}, expected {}",
        w.name, w.expected
    ))
}

/// The column labels of the first healthy row — what a table's header
/// lists. Empty when every row is poisoned.
pub fn labels(rows: &[Row]) -> Vec<&str> {
    rows.iter()
        .find(|r| r.error.is_none())
        .map(|r| r.cells.iter().map(|c| c.label.as_str()).collect())
        .unwrap_or_default()
}

/// Whether any row is poisoned — the check the binaries exit non-zero on.
pub fn any_poisoned(rows: &[Row]) -> bool {
    rows.iter().any(|r| r.error.is_some())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_measures_cycles_and_validates_behaviour() {
        let w = chf_workloads::micro::vadd();
        let (m, _) = compile_and_measure(&w, &CompileConfig::convergent(), Sim::Timing).unwrap();
        assert!(m.cycles > 0);
    }

    #[test]
    fn functional_measures_blocks_and_validates_behaviour() {
        let w = chf_workloads::micro::sieve();
        let (m, stats) =
            compile_and_measure(&w, &CompileConfig::convergent(), Sim::Functional).unwrap();
        assert!(m.blocks > 0);
        assert_eq!(m.cycles, 0, "the functional path runs no timing simulation");
        assert!(stats.merges > 0);
    }

    #[test]
    fn behaviour_change_is_an_error_naming_the_workload() {
        let mut w = chf_workloads::micro::vadd();
        w.expected += 1;
        for sim in [Sim::Timing, Sim::Functional, Sim::Both] {
            let err = compile_and_measure(&w, &CompileConfig::convergent(), sim).unwrap_err();
            assert!(err.starts_with("vadd: "), "{sim:?}: {err}");
        }
    }
}

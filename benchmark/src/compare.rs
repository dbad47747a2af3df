//! Results files, and `compare`: is a set of runs better, no worse, worse,
//! or too noisy to tell than a baseline set, metric by metric?
//!
//! The rule: a gain needs the change to win at least nine pairs in ten
//! (ties count for neither) and medians further apart than the baseline's
//! interquartile distance. Otherwise the change regresses when its median is
//! worse than the baseline's by more than the metric's bound, and is
//! unresolved when either side's quartile spread exceeds the bound (unless
//! every run of the change beats every run of the baseline). A metric's
//! absolute floor widens the bound where it is the larger (`setup_s`:
//! max(25%, 0.05 s)). Exact counts (bound 0) regress on any worsening.
//!
//! Failures are compared apart from the metrics: per workload, a higher
//! share of failed items than the baseline's regresses, whatever the
//! metrics say.
//!
//! A results file holds one run per line, fields separated by whitespace:
//! workload, seed, trace (`0` or `1`), items attempted, items failed, then
//! name, value and unit of each metric.

use crate::metrics::{Better, Def, Metric, END_TO_END};
use crate::stats::{median, quartiles, spread};
use crate::workloads::NAMES;
use std::cmp::Ordering;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// One run: what the result line prints and a results file records.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Seed.
    pub seed: u64,
    /// Whether this was a traced run.
    pub trace: bool,
    /// Items attempted.
    pub attempted: u64,
    /// Items that errored, were not `Done`, or produced a wrong output.
    pub failed: u64,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
}

impl RunRecord {
    /// The one-line JSON result:
    /// `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
    /// Names and units need no escaping, and `{}` prints every digit an
    /// `f64` needs to read back as itself.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The run as a results-file line.
    pub fn to_line(&self) -> String {
        let mut line = format!(
            "{} {} {} {} {}",
            self.workload,
            self.seed,
            u8::from(self.trace),
            self.attempted,
            self.failed
        );
        for m in &self.metrics {
            let _ = write!(line, " {} {} {}", m.name, m.value, m.unit);
        }
        line
    }

    /// Read a results-file line back.
    ///
    /// # Errors
    /// A missing or malformed field.
    pub fn parse_line(line: &str) -> Result<RunRecord, String> {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [workload, seed, trace, attempted, failed, metrics @ ..] = fields.as_slice() else {
            return Err(format!("short run line {line:?}"));
        };
        if metrics.len() % 3 != 0 {
            return Err(format!("metric without value or unit in {line:?}"));
        }
        let num = |s: &str| s.parse::<u64>().map_err(|e| format!("{s:?}: {e}"));
        Ok(RunRecord {
            workload: workload.to_string(),
            seed: num(seed)?,
            trace: num(trace)? != 0,
            attempted: num(attempted)?,
            failed: num(failed)?,
            metrics: metrics
                .chunks(3)
                .map(|m| {
                    Ok(Metric {
                        name: m[0].to_string(),
                        value: m[1].parse().map_err(|e| format!("{}: {e}", m[0]))?,
                        unit: m[2].to_string(),
                    })
                })
                .collect::<Result<_, String>>()?,
        })
    }
}

/// Read the results file at `path`; a missing file holds no runs.
///
/// # Errors
/// An unreadable file or a malformed line.
pub fn read_results(path: &Path) -> Result<Vec<RunRecord>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| RunRecord::parse_line(l).map_err(|e| format!("{}: {e}", path.display())))
        .collect()
}

/// Append `run` to the results file at `path`.
///
/// # Errors
/// The file cannot be opened or written.
pub fn append_result(path: &Path, run: &RunRecord) -> Result<(), String> {
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| writeln!(f, "{}", run.to_line()))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The outcome of comparing one metric on one workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins by the gain rule.
    Improved,
    /// No worse than the bound allows.
    Unchanged,
    /// Worse than the bound allows.
    Regressed,
    /// The runs spread wider than the bound.
    Unresolved,
}

/// One row of a comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Baseline median.
    pub base: f64,
    /// Change median.
    pub new: f64,
    /// Worsening of the median as a share of the baseline's (negative: better).
    pub worse: f64,
    /// Larger of the two sides' quartile spreads, as a share of median.
    pub spread: f64,
    /// Pairs the change won, and pairs compared.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compare baseline values `a` with change values `b` of one metric; pairs
/// are taken in run order.
///
/// # Panics
/// Panics when either side has no values.
pub fn judge(def: &Def, a: &[f64], b: &[f64]) -> Row {
    let better = |x: f64, y: f64| match def.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let (ma, mb) = (median(a), median(b));
    let worse = match (def.better, ma == 0.0) {
        (_, true) if mb == ma => 0.0,
        (_, true) => f64::INFINITY * if better(mb, ma) { -1.0 } else { 1.0 },
        (Better::Lower, false) => (mb - ma) / ma.abs(),
        (Better::Higher, false) => (ma - mb) / ma.abs(),
    };
    let spread = spread(a).max(spread(b));
    let bound = if ma == 0.0 {
        def.bound
    } else {
        def.bound.max(def.floor / ma.abs())
    };
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(x, y)| better(**y, **x)).count();
    let (q1, q3) = quartiles(a);
    let gain = wins * 10 >= pairs * 9 && (mb - ma).abs() > q3 - q1;
    let dominates = b.iter().all(|y| a.iter().all(|x| better(*y, *x)));
    let verdict = if def.bound == 0.0 {
        if spread > 0.0 {
            Verdict::Unresolved
        } else if worse > 0.0 {
            Verdict::Regressed
        } else if worse < 0.0 {
            Verdict::Improved
        } else {
            Verdict::Unchanged
        }
    } else if gain {
        Verdict::Improved
    } else if spread > bound && !dominates {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    };
    Row {
        base: ma,
        new: mb,
        worse,
        spread,
        wins,
        pairs,
        verdict,
    }
}

/// The untraced runs of workload `w`, in file order.
fn untraced<'a>(all: &'a [RunRecord], w: &str) -> Vec<&'a RunRecord> {
    all.iter().filter(|r| r.workload == w && !r.trace).collect()
}

/// Compare failed items over attempted items, `(failed, attempted)` summed
/// over each side's runs: a higher failure share than the baseline's
/// regresses, a lower one improves.
pub fn judge_failures(base: (u64, u64), new: (u64, u64)) -> Verdict {
    let share = |(failed, _): (u64, u64), (_, attempted): (u64, u64)| {
        u128::from(failed) * u128::from(attempted)
    };
    match share(new, base).cmp(&share(base, new)) {
        Ordering::Greater => Verdict::Regressed,
        Ordering::Less => Verdict::Improved,
        Ordering::Equal => Verdict::Unchanged,
    }
}

/// Compare the untraced runs of two results files: per workload present in
/// both, one row for failed items and one per end-to-end metric. Returns
/// the report and whether any row regressed.
pub fn compare(base: &[RunRecord], new: &[RunRecord]) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<16} {:<15} {:>14} {:>14} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "base median", "new median", "worse", "spread", "wins"
    );
    for w in NAMES {
        let (base_runs, new_runs) = (untraced(base, w), untraced(new, w));
        if base_runs.is_empty() || new_runs.is_empty() {
            continue;
        }
        let failures = |runs: &[&RunRecord]| {
            runs.iter()
                .fold((0, 0), |(f, a), r| (f + r.failed, a + r.attempted))
        };
        let (fa, fb) = (failures(&base_runs), failures(&new_runs));
        let verdict = judge_failures(fa, fb);
        regressed |= verdict == Verdict::Regressed;
        let _ = writeln!(
            out,
            "{w:<16} {:<15} {:>14} {:>14} {:>8} {:>7} {:>6}  {verdict:?}",
            "failed",
            format!("{} of {}", fa.0, fa.1),
            format!("{} of {}", fb.0, fb.1),
            "",
            "",
            ""
        );
        let pick = |runs: &[&RunRecord], name: &str| -> Vec<f64> {
            runs.iter()
                .filter_map(|r| r.metrics.iter().find(|m| m.name == name).map(|m| m.value))
                .collect()
        };
        for def in &END_TO_END {
            let (a, b) = (pick(&base_runs, def.name), pick(&new_runs, def.name));
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let row = judge(def, &a, &b);
            regressed |= row.verdict == Verdict::Regressed;
            let _ = writeln!(
                out,
                "{w:<16} {:<15} {:>14.6} {:>14.6} {:>7.2}% {:>6.2}% {:>3}/{:<2}  {:?}",
                def.name,
                row.base,
                row.new,
                row.worse * 100.0,
                row.spread * 100.0,
                row.wins,
                row.pairs,
                row.verdict
            );
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SETUP: Def = END_TO_END[0];
    const THROUGHPUT: Def = END_TO_END[1];
    const LATENCY: Def = END_TO_END[2];
    const INSTS: Def = END_TO_END[5];

    fn around(center: f64, wobble: &[f64]) -> Vec<f64> {
        wobble.iter().map(|w| center * (1.0 + w)).collect()
    }

    const WOBBLE: [f64; 10] = [
        0.01, -0.01, 0.0, 0.02, -0.02, 0.005, -0.005, 0.01, -0.01, 0.0,
    ];

    #[test]
    fn a_slower_change_regresses() {
        let slower = 1.0 + 1.5 * LATENCY.bound;
        let row = judge(
            &LATENCY,
            &around(10.0, &WOBBLE),
            &around(10.0 * slower, &WOBBLE),
        );
        assert_eq!(row.verdict, Verdict::Regressed);
        assert!((row.worse - 1.5 * LATENCY.bound).abs() < 1e-9);
        let slower = 1.0 + 0.5 * LATENCY.bound;
        let row = judge(
            &LATENCY,
            &around(10.0, &WOBBLE),
            &around(10.0 * slower, &WOBBLE),
        );
        assert_eq!(row.verdict, Verdict::Unchanged, "within the bound");
    }

    #[test]
    fn a_noisy_pair_of_sets_is_unresolved() {
        let noisy = [0.3, -0.3, 0.0, 0.25, -0.25, 0.1, -0.1, 0.2, -0.2, 0.0];
        let row = judge(&LATENCY, &around(10.0, &noisy), &around(10.5, &noisy));
        assert_eq!(row.verdict, Verdict::Unresolved);
    }

    #[test]
    fn set_up_jitter_under_the_floor_never_counts() {
        let noisy = [0.3, -0.3, 0.0, 0.25, -0.25, 0.1, -0.1, 0.2, -0.2, 0.0];
        let row = judge(&SETUP, &around(0.004, &noisy), &around(0.008, &noisy));
        assert_eq!(
            row.verdict,
            Verdict::Unchanged,
            "4 ms worse is under 0.05 s"
        );
        let row = judge(&SETUP, &around(1.0, &WOBBLE), &around(1.3, &WOBBLE));
        assert_eq!(row.verdict, Verdict::Regressed, "30% of 1 s is over both");
    }

    #[test]
    fn nine_wins_in_ten_is_a_gain_and_eight_is_not() {
        let base = around(100.0, &WOBBLE);
        let mut new: Vec<f64> = base.iter().map(|x| x * 1.06).collect();
        new[3] = base[3] * 0.99; // one lost pair: 9/10
        let row = judge(&THROUGHPUT, &base, &new);
        assert_eq!(
            (row.wins, row.pairs, row.verdict),
            (9, 10, Verdict::Improved)
        );
        new[4] = base[4] * 0.99; // two lost pairs: 8/10
        assert_eq!(judge(&THROUGHPUT, &base, &new).verdict, Verdict::Unchanged);
    }

    #[test]
    fn exact_counts_regress_on_any_worsening() {
        assert_eq!(
            judge(&INSTS, &[100.0; 5], &[100.0; 5]).verdict,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&INSTS, &[100.0; 5], &[101.0; 5]).verdict,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&INSTS, &[100.0; 5], &[99.0; 5]).verdict,
            Verdict::Improved
        );
    }

    fn run(latency: f64, failed: u64) -> RunRecord {
        RunRecord {
            workload: "tables".into(),
            seed: 1,
            trace: false,
            attempted: 8600,
            failed,
            metrics: vec![
                Metric {
                    name: "latency_ms_p50".into(),
                    value: latency,
                    unit: "ms".into(),
                },
                Metric {
                    name: "items_per_s".into(),
                    value: 0.1 + 0.2,
                    unit: "1/s".into(),
                },
            ],
        }
    }

    #[test]
    fn result_line_and_results_file_round_trip() {
        let r = run(1.5, 2);
        assert_eq!(
            r.result_line(),
            "{\"correct\": false, \"attempted\": 8600, \"failed\": 2, \"metrics\": \
             {\"latency_ms_p50\": {\"value\": 1.5, \"unit\": \"ms\"}, \
             \"items_per_s\": {\"value\": 0.30000000000000004, \"unit\": \"1/s\"}}}"
        );
        assert!(run(1.5, 0).result_line().starts_with("{\"correct\": true,"));
        assert_eq!(RunRecord::parse_line(&r.to_line()).unwrap(), r);
        for bad in [
            "tables 1 0 8600",
            "tables 1 0 8600 0 x 1.0",
            "tables 1 0 n 0",
        ] {
            assert!(RunRecord::parse_line(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn compare_reads_results_files_and_flags_regressions() {
        let dir = std::env::temp_dir().join(format!("chf-benchmark-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (pa, pb) = (dir.join("a.txt"), dir.join("b.txt"));
        for w in WOBBLE {
            append_result(&pa, &run(1.0 + w, 0)).unwrap();
            append_result(&pb, &run(1.3 + w, 0)).unwrap();
        }
        let (a, b) = (read_results(&pa).unwrap(), read_results(&pb).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(a.len(), WOBBLE.len());
        assert_eq!(a[3], run(1.0 + WOBBLE[3], 0));
        let (report, regressed) = compare(&a, &b);
        assert!(regressed, "{report}");
        assert!(report.contains("Regressed"), "{report}");
        assert!(!compare(&a, &a).1);
    }

    #[test]
    fn more_failed_items_regress_even_when_metrics_improve() {
        let base: Vec<RunRecord> = WOBBLE.iter().map(|w| run(1.0 + w, 0)).collect();
        let mut new: Vec<RunRecord> = WOBBLE.iter().map(|w| run(0.5 + w, 0)).collect();
        new[7].failed = 1;
        let (report, regressed) = compare(&base, &new);
        assert!(regressed, "{report}");
        assert!(report.contains("Improved"), "{report}");
        assert_eq!(judge_failures((0, 100), (1, 100)), Verdict::Regressed);
        assert_eq!(judge_failures((2, 100), (2, 100)), Verdict::Unchanged);
        assert_eq!(judge_failures((2, 100), (1, 200)), Verdict::Improved);
    }
}

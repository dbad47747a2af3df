//! Runs one workload in this process: set-up, input fingerprint check, and
//! either the untraced run (end-to-end metrics) or the guard, an untraced
//! run and a traced run (per-layer metrics). Prints every metric by name
//! with its unit, then the result line.

use crate::compare::{append_result, RunRecord};
use crate::metrics::{end_to_end, per_layer, Metric};
use crate::stats::median;
use crate::trace;
use crate::workloads::service_mix::ServiceMix;
use crate::workloads::simulate::Simulate;
use crate::workloads::tables::Tables;
use crate::workloads::tournament::TournamentCold;
use crate::workloads::{Outcome, Workload};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The run length `BENCHMARK.json` fixes; input fingerprints are pinned
/// for it.
pub const STANDARD_SECONDS: u64 = 10;

/// Fewest set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 7;

/// Set-ups repeat until they span at least this long. A set-up of a few
/// milliseconds is mostly page faults on fresh heap, and seven of them
/// back to back fall inside one slow moment of the host: on the reference
/// box such medians moved by 20% between two sets of ten runs.
pub const SETUP_SPAN: Duration = Duration::from_millis(500);

/// Fingerprints of every workload's inputs at the standard run length.
const PINNED: &str = include_str!("../inputs.pin");

/// Options of a run.
#[derive(Clone, Debug)]
pub struct Options {
    /// Item-order seed.
    pub seed: u64,
    /// Nominal run length; each workload turns it into a fixed amount of
    /// work (rounds or programs), the same on every commit.
    pub seconds: u64,
    /// Traced run instead of the end-to-end run.
    pub trace: bool,
    /// Results file to append the run to.
    pub out: Option<PathBuf>,
}

/// The pinned fingerprint of `workload`'s inputs.
pub fn pinned(workload: &str) -> Option<&'static str> {
    PINNED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| l.strip_prefix(workload)?.strip_prefix(' '))
        .map(str::trim)
}

/// Run `workload`; see the module docs.
///
/// # Errors
/// An unknown workload, a set-up failure, changed inputs, a replica that
/// differs from the real calls, too few items for p99, or an I/O error.
pub fn run(workload: &str, opts: &Options) -> Result<RunRecord, String> {
    // Calibrated so that one run takes about `seconds` on one core of the
    // x86-64 reference box, except `tournament-cold`, whose 1032 items (the
    // fewest that leave ten beyond p99) take about 14 s at `--seconds 10`.
    // The work never depends on measured speed.
    let s = opts.seconds as usize;
    match workload {
        "tables" => execute(&Tables { rounds: 3 * s }, opts),
        "tournament-cold" => execute(&TournamentCold { rounds: 12 * s / 5 }, opts),
        "simulate" => execute(&Simulate { rounds: 60 * s }, opts),
        "service-mix" => execute(&ServiceMix { programs: 50 * s }, opts),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn execute<W: Workload>(w: &W, opts: &Options) -> Result<RunRecord, String> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "== {}: seed {}, {} s nominal, trace {}, {cpus} cpus",
        w.name(),
        opts.seed,
        opts.seconds,
        if opts.trace { "on" } else { "off" }
    );
    let mut setup_times = Vec::new();
    let first = Instant::now();
    let state = loop {
        let t = Instant::now();
        let state = w.setup()?;
        setup_times.push(t.elapsed().as_secs_f64());
        if opts.trace || (setup_times.len() >= SETUPS && first.elapsed() >= SETUP_SPAN) {
            break state;
        }
        // Dropped here, before the next set-up: only one state is ever
        // alive, so `peak_rss_mb` counts the workload, not the repeats.
    };

    let digest = format!("{:016x}", w.inputs_digest(&state));
    match (opts.seconds == STANDARD_SECONDS, pinned(w.name())) {
        (true, Some(pin)) if pin != digest => {
            return Err(format!(
                "inputs changed, re-baseline: {} inputs_digest {digest}, pinned {pin}",
                w.name()
            ))
        }
        (true, Some(_)) => println!("inputs_digest {digest} (pinned)"),
        _ => println!("inputs_digest {digest} (not pinned at this run length)"),
    }

    let (outcome, metrics) = if opts.trace {
        w.guard(&state).map_err(|e| format!("replica guard: {e}"))?;
        println!("replica guard: every replica output equals the real call's");
        let untraced = w.run(&state, opts.seed, false);
        // A fresh set-up: the traced run must not find the first run's
        // service caches warm.
        let fresh = w.setup()?;
        trace::set_enabled(true);
        let mut traced = w.run(&fresh, opts.seed, true);
        trace::set_enabled(false);
        let spans = PathBuf::from(format!(
            "benchmark/out/spans-{}-seed{}.tsv",
            w.name(),
            opts.seed
        ));
        trace::write_spans(&spans, &traced.traces)
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        println!("spans written to {}", spans.display());
        let metrics = per_layer(&traced, untraced.wall);
        traced.failures.extend(untraced.failures);
        (traced, metrics)
    } else {
        let outcome = w.run(&state, opts.seed, false);
        let setup_s = median(&setup_times);
        let (metrics, p99) = end_to_end(setup_s, &outcome)?;
        println!("setup_s median of {} set-ups", setup_times.len());
        println!(
            "latency_ms_p99 over {} samples, {} beyond it",
            p99.samples, p99.beyond
        );
        (outcome, metrics)
    };
    report(w.name(), opts, &outcome, metrics)
}

/// Print every metric and the result line, and append the run to the
/// results file. A run with any failed item is recorded like any other,
/// then refused: its numbers come from a program that does not work.
fn report(
    name: &str,
    opts: &Options,
    outcome: &Outcome,
    metrics: Vec<Metric>,
) -> Result<RunRecord, String> {
    // An item can fail both in the loop and in the output check.
    let attempted = outcome.latencies.len() as u64;
    let failed = (outcome.failures.len() as u64).min(attempted);
    for f in outcome.failures.iter().take(10) {
        eprintln!("FAILED {f}");
    }
    println!(
        "{:<40} {:>20} ratio ({failed} of {attempted} items)",
        "fail_rate",
        failed as f64 / attempted.max(1) as f64,
    );
    for m in &metrics {
        println!("{:<40} {:>20} {}", m.name, m.value, m.unit);
    }
    let record = RunRecord {
        workload: name.to_string(),
        seed: opts.seed,
        trace: opts.trace,
        attempted,
        failed,
        metrics,
    };
    if let Some(path) = &opts.out {
        append_result(path, &record)?;
    }
    println!("{}", record.result_line());
    if outcome.failures.is_empty() {
        Ok(record)
    } else {
        Err(format!(
            "{name}: {failed} of {attempted} items failed; the numbers above do not count"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_with_a_failed_item_is_refused() {
        let opts = Options {
            seed: 1,
            seconds: STANDARD_SECONDS,
            trace: false,
            out: None,
        };
        let mut outcome = Outcome {
            latencies: vec![1.0; 4],
            ..Outcome::default()
        };
        let metrics = vec![Metric {
            name: "items_per_s".into(),
            value: 4.0,
            unit: "1/s".into(),
        }];
        let ok = report("tables", &opts, &outcome, metrics.clone()).unwrap();
        assert_eq!((ok.attempted, ok.failed), (4, 0));
        outcome
            .failures
            .push("fib BB: returned None, expected 55".into());
        let err = report("tables", &opts, &outcome, metrics).unwrap_err();
        assert!(err.contains("1 of 4 items failed"), "{err}");
    }

    #[test]
    fn every_workload_has_a_pinned_fingerprint() {
        for w in crate::workloads::NAMES {
            let pin = pinned(w).unwrap_or_else(|| panic!("{w} is not pinned"));
            assert_eq!(pin.len(), 16, "{w}: {pin}");
            assert!(u64::from_str_radix(pin, 16).is_ok(), "{w}: {pin}");
        }
        assert_eq!(pinned("table"), None);
    }
}

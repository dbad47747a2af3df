//! The benchmark's metrics: their definitions (mirrored in the repository's
//! `BENCHMARK.json`), and how each is computed from a run.

use crate::replica::BUCKETS;
use crate::stats::{percentile, Tail};
use crate::trace;
use crate::workloads::Outcome;
use std::collections::BTreeMap;
use std::time::Duration;

/// Which direction of a metric is good.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric and its regression bound.
#[derive(Copy, Clone, Debug)]
pub struct Def {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Good direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression; 0 for exact counts.
    pub bound: f64,
    /// Worsening, in the metric's unit, that never counts however large a
    /// share of the median it is. Set-ups of a few milliseconds jitter by
    /// more than any share bound.
    pub floor: f64,
}

const fn def(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
        floor: 0.0,
    }
}

/// End-to-end metrics, reported per workload with tracing off. The timing
/// bounds are as wide as the measured noise needs: on the 2-vCPU reference
/// VM the host's speed switches between levels about 40% apart for seconds
/// to minutes at a time. The quartile spread of ten runs of one commit
/// reached 16% in a quiet period and 67% in busy ones, and ten runs taken
/// straight after ten others read 11–23% slower. A 10% bound would mark a
/// commit regressed against itself; `compare`'s pair rule resolves smaller
/// changes.
pub const END_TO_END: [Def; 8] = [
    Def {
        floor: 0.05,
        ..def("setup_s", "s", Better::Lower, 0.25)
    },
    def("items_per_s", "1/s", Better::Higher, 0.25),
    def("latency_ms_p50", "ms", Better::Lower, 0.25),
    def("latency_ms_p99", "ms", Better::Lower, 0.25),
    def("peak_rss_mb", "MiB", Better::Lower, 0.10),
    def("code_insts", "insts", Better::Lower, 0.0),
    def("dyn_blocks", "blocks", Better::Lower, 0.0),
    def("sim_cycles", "cycles", Better::Lower, 0.0),
];

/// The spans the traced run records, by layer.
pub const SPANS: [&str; 28] = [
    "ir.profile_apply",
    "ir.parse",
    "ir.verify",
    "ir.remove_unreachable",
    "ir.liveness",
    "core.cfg_unroll_peel",
    "core.form",
    "core.hb_unroll_peel",
    "core.regalloc",
    "core.fanout",
    "core.split_oversized",
    "opt.optimize",
    "opt.constfold",
    "opt.strength",
    "opt.copyprop",
    "opt.gvn",
    "opt.predopt",
    "opt.jumpthread",
    "opt.dce",
    "sim.lower",
    "sim.functional",
    "sim.timing",
    "tournament.baseline",
    "tournament.compile",
    "tournament.score",
    "service.submit",
    "service.queue_wait",
    "service.compile",
];

/// Counters of the traced run: name, unit, good direction.
const COUNTS: [(&str, &str, Better); 22] = [
    ("core.trials", "count", Better::Lower),
    ("core.merges", "count", Better::Higher),
    ("core.failures", "count", Better::Lower),
    ("core.skipped", "count", Better::Lower),
    ("core.tail_dups", "count", Better::Lower),
    ("core.unrolls", "count", Better::Lower),
    ("core.peels", "count", Better::Lower),
    ("core.merge_yield", "ratio", Better::Higher),
    ("core.ms_per_trial", "ms", Better::Lower),
    ("core.ms_per_trial.lt20", "ms", Better::Lower),
    ("core.ms_per_trial.20to80", "ms", Better::Lower),
    ("core.ms_per_trial.ge80", "ms", Better::Lower),
    ("opt.rounds", "count", Better::Lower),
    ("sim.cycles", "cycles", Better::Lower),
    ("sim.insts", "insts", Better::Lower),
    ("sim.mcycles_per_s", "Mcycles/s", Better::Higher),
    ("tournament.entrants_per_tournament", "count", Better::Lower),
    ("service.cache_hit_rate", "ratio", Better::Higher),
    ("service.rejected", "count", Better::Lower),
    ("service.retries", "count", Better::Lower),
    ("trace_overhead_pct", "%", Better::Lower),
    ("trace_coverage", "ratio", Better::Higher),
];

/// A measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: String,
    /// Value, as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

/// Every per-layer metric: name, unit and good direction, in report order.
pub fn per_layer_defs() -> Vec<(String, &'static str, Better)> {
    let mut defs = Vec::new();
    for s in SPANS {
        defs.push((format!("{s}.self_ms"), "ms", Better::Lower));
        defs.push((format!("{s}.calls"), "count", Better::Lower));
        defs.push((format!("{s}.share"), "ratio", Better::Lower));
    }
    defs.extend(COUNTS.iter().map(|&(n, u, b)| (n.to_string(), u, b)));
    defs
}

/// Peak resident set of this process (`VmHWM`), in MiB.
///
/// # Errors
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The end-to-end metrics of an untraced run, in [`END_TO_END`] order,
/// and the p99 sample counts.
///
/// # Errors
/// Too few items for p99, or no peak-RSS reading.
pub fn end_to_end(setup_s: f64, o: &Outcome) -> Result<(Vec<Metric>, Tail), String> {
    let p50 = percentile(&o.latencies, 50.0)?;
    let p99 = percentile(&o.latencies, 99.0)?;
    let values = [
        setup_s,
        o.latencies.len() as f64 / o.wall.as_secs_f64(),
        p50.value,
        p99.value,
        peak_rss_mb()?,
        o.totals.code_insts as f64,
        o.totals.dyn_blocks as f64,
        o.totals.sim_cycles as f64,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(d, value)| Metric {
            name: d.name.to_string(),
            value,
            unit: d.unit.to_string(),
        })
        .collect();
    Ok((metrics, p99))
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The per-layer metrics of a traced run, in [`per_layer_defs`] order.
/// `untraced_wall` is the same run's wall time with tracing off.
pub fn per_layer(traced: &Outcome, untraced_wall: Duration) -> Vec<Metric> {
    let t = trace::totals(&traced.traces);
    let traced_ms = t.traced.as_secs_f64() * 1e3;
    let self_ms = |s: &str| t.self_time.get(s).map_or(0.0, |d| d.as_secs_f64() * 1e3);
    let calls = |s: &str| t.calls.get(s).copied().unwrap_or(0) as f64;
    let count = |c: &str| t.counters.get(c).copied().unwrap_or(0.0);
    let [lt20, mid, ge80] = BUCKETS.map(|(secs, trials)| ratio(count(secs) * 1e3, count(trials)));
    let svc = traced.service.clone().unwrap_or_default();
    let covered: f64 = SPANS.iter().map(|s| self_ms(s)).sum();
    let counts: BTreeMap<&str, f64> = BTreeMap::from([
        ("core.trials", count("core.trials")),
        ("core.merges", count("core.merges")),
        ("core.failures", count("core.failures")),
        ("core.skipped", count("core.skipped")),
        ("core.tail_dups", count("core.tail_dups")),
        ("core.unrolls", count("core.unrolls")),
        ("core.peels", count("core.peels")),
        (
            "core.merge_yield",
            ratio(count("core.merges"), count("core.trials")),
        ),
        (
            "core.ms_per_trial",
            ratio(self_ms("core.form"), count("core.trials")),
        ),
        ("core.ms_per_trial.lt20", lt20),
        ("core.ms_per_trial.20to80", mid),
        ("core.ms_per_trial.ge80", ge80),
        ("opt.rounds", count("opt.rounds")),
        ("sim.cycles", count("sim.cycles")),
        ("sim.insts", count("sim.insts")),
        (
            "sim.mcycles_per_s",
            ratio(count("sim.cycles") / 1e6, self_ms("sim.timing") / 1e3),
        ),
        (
            "tournament.entrants_per_tournament",
            ratio(count("tournament.entrants"), count("tournament.count")),
        ),
        ("service.cache_hit_rate", svc.cache_hit_rate()),
        ("service.rejected", svc.rejected as f64),
        ("service.retries", svc.retries as f64),
        (
            "trace_overhead_pct",
            (ratio(traced.wall.as_secs_f64(), untraced_wall.as_secs_f64()) - 1.0) * 100.0,
        ),
        ("trace_coverage", ratio(covered, traced_ms)),
    ]);
    per_layer_defs()
        .into_iter()
        .map(|(name, unit, _)| {
            let value = match name.rsplit_once('.') {
                Some((s, "self_ms")) if SPANS.contains(&s) => self_ms(s),
                Some((s, "calls")) if SPANS.contains(&s) => calls(s),
                Some((s, "share")) if SPANS.contains(&s) => ratio(self_ms(s), traced_ms),
                _ => counts[name.as_str()],
            };
            Metric {
                name,
                value,
                unit: unit.to_string(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the workloads and metrics this
    /// code reports, in the same order, with the same units, directions
    /// and bounds. The file keeps one entry per line, so each entry's
    /// expected text is matched whole.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let mut expected: Vec<String> = crate::workloads::NAMES
            .iter()
            .map(|w| format!("{{\"name\": \"{w}\", \"why\": "))
            .collect();
        expected.extend(END_TO_END.iter().map(|d| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                d.better.word(),
                d.bound
            )
        }));
        expected.extend(per_layer_defs().iter().map(|(name, unit, better)| {
            format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better.word()
            )
        }));
        let entries: Vec<&str> = text
            .lines()
            .map(str::trim)
            .filter(|l| l.starts_with("{\"name\": "))
            .collect();
        assert_eq!(entries.len(), expected.len());
        for (entry, want) in entries.iter().zip(&expected) {
            assert!(
                entry.starts_with(want.as_str()),
                "{entry}\nshould start {want}"
            );
        }
    }
}

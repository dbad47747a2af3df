//! One-round smoke of every workload: set-up, replica guard, an untraced
//! run with correct outputs, and a traced run whose layers separate as the
//! workloads are designed to.

use chf_benchmark::metrics::{per_layer, Metric};
use chf_benchmark::trace;
use chf_benchmark::workloads::service_mix::ServiceMix;
use chf_benchmark::workloads::simulate::Simulate;
use chf_benchmark::workloads::tables::Tables;
use chf_benchmark::workloads::tournament::TournamentCold;
use chf_benchmark::workloads::Workload;

/// Set up, guard, and run untraced then traced; return the per-layer
/// metrics.
fn smoke<W: Workload>(w: &W) -> Vec<Metric> {
    let state = w.setup().unwrap();
    w.guard(&state)
        .unwrap_or_else(|e| panic!("{}: guard: {e}", w.name()));
    let plain = w.run(&state, 3, false);
    assert!(
        plain.failures.is_empty(),
        "{}: {:?}",
        w.name(),
        plain.failures
    );
    assert!(!plain.latencies.is_empty());
    let t = plain.totals;
    assert!(
        t.code_insts > 0 && t.dyn_blocks > 0 && t.sim_cycles > 0,
        "{t:?}"
    );
    assert!(plain.traces.is_empty(), "an untraced run records nothing");

    let fresh = w.setup().unwrap();
    trace::set_enabled(true);
    let traced = w.run(&fresh, 3, true);
    trace::set_enabled(false);
    assert!(
        traced.failures.is_empty(),
        "{}: {:?}",
        w.name(),
        traced.failures
    );
    assert_eq!(
        traced.totals,
        t,
        "{}: tracing changed the outputs",
        w.name()
    );
    per_layer(&traced, plain.wall)
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

/// The work span with the largest self time. `service.queue_wait` is
/// waiting, not work: with one worker and two clients it is about as large
/// as the formation the other client's compile spends.
fn largest(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .filter(|m| m.name.ends_with(".self_ms") && !m.name.starts_with("service.queue_wait"))
        .max_by(|a, b| a.value.total_cmp(&b.value))
        .map(|m| m.name.clone())
        .unwrap()
}

fn sim_share(metrics: &[Metric]) -> f64 {
    ["sim.lower", "sim.functional", "sim.timing"]
        .iter()
        .map(|s| value(metrics, &format!("{s}.share")))
        .sum()
}

// Tracing is switched globally, so the four smokes run in one test.
#[test]
fn every_workload_runs_correctly_and_separates_its_layers() {
    let m = smoke(&Tables { rounds: 1 });
    assert_eq!(largest(&m), "core.form.self_ms");
    assert_eq!(value(&m, "core.form.calls"), 4.0 * 43.0);
    assert_eq!(value(&m, "opt.optimize.calls"), 5.0 * 43.0);
    assert!(
        value(&m, "trace_coverage") >= 0.9,
        "{}",
        value(&m, "trace_coverage")
    );

    let m = smoke(&TournamentCold { rounds: 1 });
    assert_eq!(largest(&m), "core.form.self_ms");
    assert_eq!(value(&m, "tournament.entrants_per_tournament"), 6.0);
    assert_eq!(value(&m, "tournament.compile.calls"), 6.0 * 43.0);

    let m = smoke(&Simulate { rounds: 1 });
    assert_eq!(value(&m, "core.form.calls"), 0.0);
    assert!(sim_share(&m) >= 0.9, "sim share {}", sim_share(&m));
    assert!(value(&m, "sim.mcycles_per_s") > 0.0);

    let m = smoke(&ServiceMix { programs: 24 });
    assert_eq!(largest(&m), "core.form.self_ms");
    assert_eq!(sim_share(&m), 0.0);
    assert!((value(&m, "service.cache_hit_rate") - 2.0 / 3.0).abs() < 1e-12);
    assert_eq!(value(&m, "ir.parse.calls"), 72.0);
    assert_eq!(value(&m, "service.compile.calls"), 24.0);
}

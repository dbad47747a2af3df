//! `bench_perf` — the repo's performance-trajectory probe.
//!
//! Measures, on the 24-microbenchmark suite:
//!
//! 1. **Formation wall-time** per phase ordering (compile only);
//! 2. **Simulator throughput** three ways: lowering (decode) cost, per-call
//!    throughput (`simulate_timing`, lower + simulate each call — the
//!    number the perf history tracks), and pre-lowered event-core
//!    throughput (`simulate_timing_lowered`, decode once / replay many —
//!    the oracle and whole-program access pattern);
//! 3. **End-to-end Table 1 regeneration** — the full compile+simulate matrix
//!    plus rendering and CSV serialization — through the parallel harness
//!    *and* the forced-sequential path, checking the two CSVs are
//!    byte-identical.
//!
//! Results are written to `BENCH_formation.json` (override with `-o PATH`),
//! together with the recorded seed baselines for the same machine, seeding
//! the repo's perf history.
//!
//! `--check` exits non-zero if the end-to-end Table 1 wall-time exceeds a
//! regression ceiling (`CHF_BENCH_CEILING_MS`, default 100 ms — well under
//! both the 244 ms seed and the 160 ms pre-event-core ceiling, with ~30%
//! headroom over current ~70 ms measurements), or if per-call simulator
//! throughput falls under a floor (`CHF_BENCH_SIM_FLOOR_MCPS`, default
//! 24 — 2.5× the 9.53 Mcycles/s recorded for the direct-interpretation
//! core; typical post-rewrite measurements are ~30 per-call and ~36 for
//! the decode-once event core, and the reference machine's wall-clock
//! noise is ±20%+, so the gate is set where a return to direct
//! interpretation fails loudly but a loaded machine does not), so
//! `scripts/verify.sh` catches order-of-magnitude regressions without
//! being flaky.

use chf_core::pipeline::{compile, CompileConfig, PhaseOrdering};
use chf_sim::timing::{simulate_timing, simulate_timing_lowered, TimingConfig};
use chf_sim::LoweredProgram;
use std::fmt::Write as _;
use std::time::Instant;

/// Wall-time of the seed revision's `table1` binary on the reference
/// machine (ms), measured before the trial-scoped formation rewrite. The
/// speedup reported below is against this number.
const SEED_TABLE1_WALL_MS: f64 = 244.0;

/// Per-call simulator throughput (Mcycles/s) recorded on the reference
/// machine for the direct-interpretation timing core, before the
/// event-driven rewrite. The floor below demands ≥ 2.5× this.
const SEED_SIM_MCPS: f64 = 9.53;

/// Default `--check` ceiling (ms): generous headroom over the current
/// measurement, strict against anything resembling the seed's 244 ms or
/// the pre-event-core 160 ms ceiling.
const DEFAULT_CEILING_MS: f64 = 100.0;

/// Default `--check` simulator-throughput floor: 2.5× the recorded
/// pre-rewrite throughput. The event-driven core typically measures ~3×
/// per-call (lower + simulate every call) and ~4× in its decode-once
/// replay mode on this machine; the gate sits below both so ±20%+
/// neighbour noise cannot flip it, while any regression back toward
/// direct-interpretation speed (≤ ~16 Mcycles/s) still fails.
const DEFAULT_SIM_FLOOR_MCPS: f64 = 2.5 * SEED_SIM_MCPS;

fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t = Instant::now();
        let r = f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
        out = Some(r);
    }
    (best, out.expect("reps >= 1"))
}

fn table1_artifacts(workers: usize) -> String {
    let rows = chf_bench::table1::run_with(workers);
    let rendered = chf_bench::table1::render(&rows);
    let pts = chf_bench::fig7::points(&rows);
    let fit = chf_bench::fig7::linear_fit(&pts);
    let mut out = chf_bench::csv::table1_csv(&rows);
    out.push_str(&chf_bench::csv::fig7_csv(&pts, &fit));
    out.push_str(&rendered);
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let out_path = args
        .iter()
        .position(|a| a == "-o")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_formation.json".to_string());

    let suite = chf_workloads::microbenchmarks();
    let orderings = [
        PhaseOrdering::BasicBlocks,
        PhaseOrdering::Upio,
        PhaseOrdering::Iupo,
        PhaseOrdering::IupThenO,
        PhaseOrdering::Iupo_,
    ];

    // 1. Formation wall-time per ordering (best of 3).
    let mut per_ordering: Vec<(&str, f64)> = Vec::new();
    let mut compile_total = 0.0;
    for o in &orderings {
        let (ms, _) = best_of(3, || {
            for w in &suite {
                let _ = compile(&w.function, &w.profile, &CompileConfig::with_ordering(*o));
            }
        });
        per_ordering.push((o.label(), ms));
        compile_total += ms;
    }

    // 2. Simulator throughput over every compiled (workload, ordering) pair.
    let compiled: Vec<_> = suite
        .iter()
        .flat_map(|w| {
            orderings.iter().map(move |o| {
                (
                    w,
                    compile(&w.function, &w.profile, &CompileConfig::with_ordering(*o)),
                )
            })
        })
        .collect();

    // 2a. Lowering (decode) cost of the whole compiled matrix. The sim
    // sections use best-of-10: each rep is ~10 ms, and on a machine with
    // noisy neighbours the minimum over ten reps is a far better estimate
    // of the true cost than the minimum over three.
    let (lowering_ms, lowered) = best_of(10, || {
        compiled
            .iter()
            .map(|(_, c)| LoweredProgram::lower(&c.function))
            .collect::<Vec<_>>()
    });

    // 2b. Per-call throughput: `simulate_timing` lowers and simulates on
    // every call. This is the metric the perf history records.
    let (sim_ms, sim_cycles) = best_of(10, || {
        let mut cycles = 0u64;
        for (w, c) in &compiled {
            let t = simulate_timing(&c.function, &w.args, &w.memory, &TimingConfig::trips())
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            cycles += t.cycles;
        }
        cycles
    });
    let mcps = sim_cycles as f64 / 1e6 / (sim_ms / 1e3);

    // 2c. Pre-lowered event-core throughput: decode once, replay many —
    // the access pattern of the oracle and the whole-program harness.
    let (sim_event_ms, event_cycles) = best_of(10, || {
        let mut cycles = 0u64;
        for ((w, _), p) in compiled.iter().zip(&lowered) {
            let t = simulate_timing_lowered(p, &w.args, &w.memory, &TimingConfig::trips())
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            cycles += t.cycles;
        }
        cycles
    });
    assert_eq!(
        sim_cycles, event_cycles,
        "per-call and pre-lowered simulation disagree on total cycles"
    );
    let event_mcps = sim_cycles as f64 / 1e6 / (sim_event_ms / 1e3);

    // 3. End-to-end Table 1 regeneration: parallel harness vs forced
    // sequential, with byte-identity of the outputs.
    let workers = chf_service::parallel::workers();
    let (wall_ms, artifacts) = best_of(3, || table1_artifacts(workers));
    let (seq_ms, seq_artifacts) = best_of(3, || table1_artifacts(1));
    let identical = artifacts == seq_artifacts;
    let speedup = SEED_TABLE1_WALL_MS / wall_ms;

    // 4. Compile-service round-trip latency: the whole suite submitted cold
    // (every request compiles), then hot (every request is a revalidated
    // cache hit). The hot/cold ratio is the memoization payoff a repeated
    // submission sees end to end, queueing included.
    let svc = chf_service::CompileService::new(chf_service::ServiceConfig {
        workers,
        queue_capacity: suite.len() + 8,
        ..chf_service::ServiceConfig::default()
    });
    let submit_all = |svc: &chf_service::CompileService| {
        let ids: Vec<_> = suite
            .iter()
            .map(|w| {
                svc.submit(chf_service::CompileRequest::ir(
                    w.function.clone(),
                    w.profile.clone(),
                ))
            })
            .collect();
        for id in ids {
            let resp = svc.wait(id);
            assert_eq!(
                resp.status,
                chf_service::RequestStatus::Done,
                "service compile failed"
            );
        }
    };
    let t = Instant::now();
    submit_all(&svc);
    let service_cold_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    submit_all(&svc);
    let service_hot_ms = t.elapsed().as_secs_f64() * 1e3;
    let svc_stats = svc.stats();
    assert_eq!(
        svc_stats.cache_hits,
        suite.len() as u64,
        "hot pass must be served entirely from the formation cache"
    );

    // 5. Policy tournaments through the service on the 19 composites:
    // cold (portfolio fan-outs, shape-cache filling) then hot (recurring
    // shapes answered with a single cached-winner compile each). The
    // amortized entrants-per-tournament counter is the shape cache's
    // payoff metric.
    let composites = chf_workloads::spec_suite();
    let tsvc = chf_service::CompileService::new(chf_service::ServiceConfig {
        workers,
        queue_capacity: 256,
        ..chf_service::ServiceConfig::default()
    });
    let treqs: Vec<chf_service::TournamentRequest> = composites
        .iter()
        .map(|w| chf_service::TournamentRequest {
            function: w.function.clone(),
            profile: w.profile.clone(),
            args: w.args.clone(),
            memory: w.memory.clone(),
            config: chf_core::TournamentConfig::default(),
        })
        .collect();
    let run_tournaments = |label: &str| {
        let t = Instant::now();
        for req in &treqs {
            let out = tsvc.compile_tournament(req).unwrap_or_else(|e| {
                panic!("{label} tournament failed for {}: {e}", req.function.name)
            });
            assert!(out.entrants_run >= 1);
        }
        t.elapsed().as_secs_f64() * 1e3
    };
    let tournament_cold_ms = run_tournaments("cold");
    let tournament_hot_ms = run_tournaments("hot");
    let tstats = tsvc.stats();
    assert_eq!(tstats.tournaments, 2 * composites.len() as u64);
    assert!(
        tstats.shape_hits >= composites.len() as u64,
        "second pass must hit the shape cache: {} hits",
        tstats.shape_hits
    );

    println!("bench_perf: 24-microbenchmark suite");
    for (label, ms) in &per_ordering {
        println!("  compile {label:>7}: {ms:8.2} ms");
    }
    println!("  compile   total: {compile_total:8.2} ms");
    println!(
        "  lowering  total: {lowering_ms:8.2} ms  ({} programs)",
        compiled.len()
    );
    println!(
        "  sim       total: {sim_ms:8.2} ms  ({sim_cycles} cycles, {mcps:.2} Mcycles/s per-call)"
    );
    println!("  sim (pre-lowered): {sim_event_ms:6.2} ms  ({event_mcps:.2} Mcycles/s event core)");
    println!(
        "  table1 end-to-end: {wall_ms:.2} ms ({workers} worker(s)); sequential: {seq_ms:.2} ms"
    );
    println!(
        "  vs seed ({SEED_TABLE1_WALL_MS:.0} ms): {speedup:.2}x; parallel/sequential outputs identical: {identical}"
    );
    println!(
        "  service: cold {service_cold_ms:.2} ms, hot {service_hot_ms:.2} ms ({} requests, \
         hit rate {:.2}, p50 compile {} us, p99 {} us)",
        suite.len() * 2,
        svc_stats.cache_hit_rate(),
        svc_stats.p50_compile_us,
        svc_stats.p99_compile_us
    );
    println!(
        "  tournaments: cold {tournament_cold_ms:.2} ms, hot {tournament_hot_ms:.2} ms \
         ({} tournaments, {} entrants, {} shape hits / {} misses, {} guard fallbacks, \
         {:.2} entrants/tournament amortized)",
        tstats.tournaments,
        tstats.tournament_entrants,
        tstats.shape_hits,
        tstats.shape_misses,
        tstats.guard_fallbacks,
        tstats.entrants_per_tournament()
    );

    // JSON perf record (hand-rolled; the workspace has no serde).
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"suite\": \"table1-24-micro\",");
    let _ = writeln!(
        json,
        "  \"unix_time\": {},",
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0)
    );
    let _ = writeln!(json, "  \"seed_table1_wall_ms\": {SEED_TABLE1_WALL_MS:.1},");
    let _ = writeln!(json, "  \"table1_wall_ms\": {wall_ms:.2},");
    let _ = writeln!(json, "  \"table1_sequential_ms\": {seq_ms:.2},");
    let _ = writeln!(json, "  \"speedup_vs_seed\": {speedup:.2},");
    let _ = writeln!(json, "  \"workers\": {workers},");
    let _ = writeln!(
        json,
        "  \"outputs_identical_parallel_vs_sequential\": {identical},"
    );
    let _ = writeln!(json, "  \"compile_ms_total\": {compile_total:.2},");
    json.push_str("  \"compile_ms_per_ordering\": {");
    for (i, (label, ms)) in per_ordering.iter().enumerate() {
        let sep = if i + 1 < per_ordering.len() { ", " } else { "" };
        let _ = write!(json, "\"{label}\": {ms:.2}{sep}");
    }
    json.push_str("},\n");
    let _ = writeln!(json, "  \"lowering_ms_total\": {lowering_ms:.2},");
    let _ = writeln!(json, "  \"sim_ms_total\": {sim_ms:.2},");
    let _ = writeln!(json, "  \"sim_cycles\": {sim_cycles},");
    let _ = writeln!(json, "  \"seed_sim_mcycles_per_s\": {SEED_SIM_MCPS:.2},");
    let _ = writeln!(json, "  \"sim_mcycles_per_s\": {mcps:.2},");
    let _ = writeln!(json, "  \"sim_event_ms_total\": {sim_event_ms:.2},");
    let _ = writeln!(json, "  \"sim_event_mcycles_per_s\": {event_mcps:.2},");
    let _ = writeln!(json, "  \"service_cold_ms\": {service_cold_ms:.2},");
    let _ = writeln!(json, "  \"service_hot_ms\": {service_hot_ms:.2},");
    let _ = writeln!(json, "  \"service_stats\": {},", svc_stats.json());
    let _ = writeln!(json, "  \"tournament_cold_ms\": {tournament_cold_ms:.2},");
    let _ = writeln!(json, "  \"tournament_hot_ms\": {tournament_hot_ms:.2},");
    let _ = writeln!(json, "  \"tournament_stats\": {}", tstats.json());
    json.push_str("}\n");
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("  wrote {out_path}"),
        Err(e) => eprintln!("  could not write {out_path}: {e}"),
    }

    if check {
        let ceiling: f64 = std::env::var("CHF_BENCH_CEILING_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_CEILING_MS);
        let sim_floor: f64 = std::env::var("CHF_BENCH_SIM_FLOOR_MCPS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_SIM_FLOOR_MCPS);
        let mut failed = false;
        if wall_ms > ceiling {
            eprintln!("CHECK FAILED: table1 end-to-end {wall_ms:.2} ms > ceiling {ceiling:.2} ms");
            failed = true;
        }
        if mcps < sim_floor {
            eprintln!(
                "CHECK FAILED: simulator throughput {mcps:.2} Mcycles/s < floor {sim_floor:.2} \
                 (2.5x the pre-rewrite {SEED_SIM_MCPS:.2})"
            );
            failed = true;
        }
        if !identical {
            eprintln!("CHECK FAILED: parallel and sequential Table 1 outputs differ");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "  check OK: {wall_ms:.2} ms <= {ceiling:.2} ms, \
             {mcps:.2} Mcycles/s >= {sim_floor:.2}, outputs identical"
        );
    }
}

//! Seeded fault-injection campaigns.
//!
//! Two targets share one binary:
//!
//! * **Formation campaign** (default): generates random programs, injects
//!   one fault each from the 8 kinds of `chf_core::chaos::FaultKind` (IR
//!   corruption, profile corruption, or a mid-trial corruption inside the
//!   merge window), runs convergent formation under the differential
//!   oracle, and requires every fault to be detected, rolled back, or
//!   survived — zero process aborts, zero undetected miscompiles.
//! * **Service campaign** (`--service`): 10 kinds — the same fault registry
//!   plus `corrupted-cache-entry` and `worker-panic`, delivered through a live
//!   `chf-service` instance from concurrent client threads. Adds a third
//!   hard requirement: zero hung requests. The service's own stats
//!   snapshot is written to `results/service_stats.json`.
//!
//! * **Service soak** (`--service-soak`): N concurrent requests of which
//!   ~5% carry an injected fault (`--fault-percent` to change) — the
//!   traffic shape of the `verify.sh service` CI gate. Every request must
//!   reach a terminal state and the service's accounting must close.
//!
//! Usage: `chaos [--service|--service-soak] [N] [--clients C]
//! [--fault-percent P]` (default 500 faults / 200 soak requests,
//! 4 clients). Environment: `CHF_FAULT_SEED` pins the campaign seed
//! (default 1). Any oracle-mismatch reproducers are written to
//! `results/repros/`. The last line on stdout is always a one-line JSON
//! summary with per-kind counts, for CI consumption; service modes also
//! write the stats snapshot to `results/service_stats.json`. Exits
//! non-zero if the campaign fails, for use as a CI gate.

use std::path::PathBuf;

/// Silence backtraces from *injected* worker panics (they are the point of
/// the worker-panic fault kind, and every one is caught at the service's
/// isolation boundary); real panics still print through the saved hook.
fn quiet_injected_panics() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.contains("injected worker fault") {
            prev(info);
        }
    }));
}

/// Write the service stats snapshot where CI archives failure artifacts.
fn write_service_stats(stats_json: &str) {
    if std::fs::create_dir_all("results").is_ok() {
        let path = PathBuf::from("results/service_stats.json");
        if let Err(e) = std::fs::write(&path, format!("{stats_json}\n")) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("  service stats: {}", path.display());
        }
    }
}

fn main() {
    let mut count: Option<usize> = None;
    let mut service = false;
    let mut soak = false;
    let mut clients: usize = 4;
    let mut fault_percent: u32 = 5;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--service" => service = true,
            "--service-soak" => soak = true,
            "--clients" => {
                clients = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--clients needs a positive integer");
                    std::process::exit(2);
                });
            }
            "--fault-percent" => {
                fault_percent = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--fault-percent needs an integer 0..=100");
                    std::process::exit(2);
                });
            }
            n => {
                count = Some(n.parse().unwrap_or_else(|_| {
                    eprintln!(
                        "unrecognized argument `{n}` (usage: chaos [--service|--service-soak] \
                         [N] [--clients C] [--fault-percent P])"
                    );
                    std::process::exit(2);
                }));
            }
        }
    }
    let seed = chf_core::chaos::seed_from_env().unwrap_or(1);

    if soak {
        quiet_injected_panics();
        let requests = count.unwrap_or(200);
        println!(
            "service soak: {requests} requests, {clients} clients, ~{fault_percent}% faults, \
             seed {seed} (set CHF_FAULT_SEED to replay)"
        );
        let report = chf_service::chaos::soak(seed, requests, clients, fault_percent);
        println!(
            "{} requests ({} faulty): {} hung, {} wrong; cache hit rate {:.2}, \
             p50 compile {} us, p99 {} us",
            report.requests,
            report.faults,
            report.hung,
            report.wrong,
            report.stats.cache_hit_rate(),
            report.stats.p50_compile_us,
            report.stats.p99_compile_us
        );
        write_service_stats(&report.stats.json());
        let ok = report.ok();
        if ok {
            println!("PASS: every request terminal, none hung, none wrong");
        } else {
            println!("FAIL: re-run with CHF_FAULT_SEED={seed} chaos --service-soak {requests}");
        }
        println!("{}", report.json());
        if !ok {
            std::process::exit(1);
        }
        return;
    }

    let faults = count.unwrap_or(500);
    if service {
        quiet_injected_panics();
        println!(
            "service chaos campaign: {faults} faults, {clients} clients, seed {seed} \
             (set CHF_FAULT_SEED to replay)"
        );
        let report = chf_service::chaos::service_campaign(seed, faults, clients);
        println!("{report}");
        write_service_stats(&report.stats.json());
        let ok = report.ok();
        if ok {
            println!("PASS: no aborts, no miscompiles, no hung requests");
        } else {
            println!("FAIL: re-run with CHF_FAULT_SEED={seed} chaos --service {faults}");
        }
        println!("{}", report.json());
        if !ok {
            std::process::exit(1);
        }
        return;
    }

    let repro_dir = PathBuf::from("results/repros");
    println!("chaos campaign: {faults} faults, seed {seed} (set CHF_FAULT_SEED to replay)");
    let report = chf_core::chaos::campaign(seed, faults, Some(repro_dir));
    println!("{report}");
    for r in &report.repros {
        println!("  repro: {}", r.display());
    }
    let ok = report.ok();
    if ok {
        println!("PASS: no aborts, no undetected miscompiles");
    } else {
        println!("FAIL: re-run with CHF_FAULT_SEED={seed} chaos {faults}");
    }
    println!("{}", report.json());
    if !ok {
        std::process::exit(1);
    }
}

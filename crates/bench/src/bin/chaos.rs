//! Seeded fault-injection campaigns: one engine
//! (`chf_core::chaos::run_campaign`), two targets.
//!
//! * **Formation** (default): generates random programs, injects one fault
//!   each from the 8 kinds of `chf_core::chaos::FaultKind` (IR corruption,
//!   profile corruption, or a mid-trial corruption inside the merge
//!   window), runs convergent formation under the differential oracle, and
//!   requires every fault to be detected, rolled back, or survived — zero
//!   process aborts, zero undetected miscompiles.
//! * **Service** (`--service`): 10 kinds — the same fault registry plus
//!   `corrupted-cache-entry` and `worker-panic`, delivered through a live
//!   `chf-service` instance. Adds two hard requirements: zero hung
//!   requests, and the service's accounting closed (every submission
//!   terminal). `--fault-percent P` (default 100) turns the other
//!   `100 - P`% of requests into clean compiles of a small hot set of
//!   programs, reported under a `clean` row — the mostly-clean traffic of
//!   a long-lived daemon.
//!
//! Usage: `chaos [--service] [N] [--clients C] [--fault-percent P]`
//! (default 500 faults over 4 client threads; `--fault-percent` needs
//! `--service`). Environment: `CHF_FAULT_SEED` pins the campaign seed
//! (default 1); a value that is set but not a decimal `u64` exits 2.
//! Oracle-mismatch reproducers are written to `results/repros/`; the
//! service target also writes its stats snapshot to
//! `results/service_stats.json`. The last line on stdout is always a
//! one-line JSON summary with per-kind counts, for CI consumption. Exits
//! non-zero if the campaign fails, for use as a CI gate.

use chf_core::chaos::{run_campaign, seed_from_env, FormationTarget};
use chf_service::chaos::ServiceTarget;
use std::path::PathBuf;

const USAGE: &str = "usage: chaos [--service] [N] [--clients C] [--fault-percent P]";

/// Print `msg` and the usage line, then exit 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

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
    let mut faults: usize = 500;
    let mut service = false;
    let mut clients: usize = 4;
    let mut fault_percent: Option<u32> = None;
    let cli: Vec<String> = std::env::args().skip(1).collect();
    let mut args = cli.iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--service" => service = true,
            "--clients" => {
                clients = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&c| c > 0)
                    .unwrap_or_else(|| usage_error("--clients needs a positive integer"));
            }
            "--fault-percent" => {
                fault_percent = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&p| p <= 100)
                        .unwrap_or_else(|| usage_error("--fault-percent needs an integer 0..=100")),
                );
            }
            n => {
                faults = n
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("unrecognized argument `{n}`")));
            }
        }
    }
    if fault_percent.is_some() && !service {
        usage_error("--fault-percent applies to --service only");
    }
    let seed = match seed_from_env() {
        Ok(seed) => seed.unwrap_or(1),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    let report = if service {
        quiet_injected_panics();
        let fault_percent = fault_percent.unwrap_or(100);
        println!(
            "service chaos campaign: {faults} requests ({fault_percent}% faulty), \
             {clients} clients, seed {seed} (set CHF_FAULT_SEED to replay)"
        );
        let target = ServiceTarget::new(faults, fault_percent);
        let report = run_campaign(seed, faults, clients, &target);
        let stats = target.stats();
        println!(
            "  cache hit rate {:.2}, p50 compile {} us, p99 {} us",
            stats.cache_hit_rate(),
            stats.p50_compile_us,
            stats.p99_compile_us
        );
        write_service_stats(&stats.json());
        report
    } else {
        println!(
            "chaos campaign: {faults} faults, {clients} clients, seed {seed} \
             (set CHF_FAULT_SEED to replay)"
        );
        let target = FormationTarget {
            repro_dir: Some(PathBuf::from("results/repros")),
        };
        run_campaign(seed, faults, clients, &target)
    };
    println!("{report}");
    let ok = report.ok();
    if ok {
        println!("PASS: no aborts, no miscompiles, no hung requests");
    } else {
        println!(
            "FAIL: re-run with CHF_FAULT_SEED={seed} chaos {}",
            cli.join(" ")
        );
    }
    println!("{}", report.json());
    if !ok {
        std::process::exit(1);
    }
}

//! `chf-benchmark` — run the benchmark, or compare two sets of runs.
//!
//! ```text
//! chf-benchmark [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--out FILE]
//! chf-benchmark compare BASE NEW
//! ```
//!
//! Without `--workload`, every workload runs in its own child process, one
//! after another. `--out` appends each run to a results file for `compare`.

use chf_benchmark::compare::{compare, read_results};
use chf_benchmark::runner::{self, Options, STANDARD_SECONDS};
use chf_benchmark::workloads::NAMES;
use std::path::{Path, PathBuf};
use std::process::{exit, Command};

const USAGE: &str = "usage: chf-benchmark [--workload W] [--seed S] [--seconds N] \
                     [--trace [0|1]] [--out FILE]\n       chf-benchmark compare BASE NEW";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        exit(match args.as_slice() {
            [_, base, new] => run_compare(Path::new(base), Path::new(new)),
            _ => usage("compare takes two results files"),
        });
    }
    let (workload, opts) = parse(&args).unwrap_or_else(|e| exit(usage(&e)));
    exit(match workload {
        Some(w) => match runner::run(&w, &opts) {
            Ok(_) => 0,
            Err(e) => {
                eprintln!("chf-benchmark: {e}");
                1
            }
        },
        None => run_all(&args),
    });
}

fn usage(error: &str) -> i32 {
    eprintln!("chf-benchmark: {error}\n{USAGE}");
    2
}

fn parse(args: &[String]) -> Result<(Option<String>, Options), String> {
    let mut opts = Options {
        seed: 1,
        seconds: STANDARD_SECONDS,
        trace: false,
        out: None,
    };
    let mut workload = None;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let w = value()?;
                if !NAMES.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}; one of {NAMES:?}"));
                }
                workload = Some(w);
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if opts.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--out" => opts.out = Some(PathBuf::from(value()?)),
            // `--trace` alone, or `--trace 0|1`.
            "--trace" => {
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((workload, opts))
}

/// Run every workload, each in a child process of this binary with the
/// same arguments.
fn run_all(args: &[String]) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("chf-benchmark: cannot find own executable: {e}");
            return 1;
        }
    };
    let mut failed = Vec::new();
    for w in NAMES {
        match Command::new(&exe)
            .args(["--workload", w])
            .args(args)
            .status()
        {
            Ok(s) if s.success() => {}
            Ok(s) => failed.push(format!("{w} ({s})")),
            Err(e) => failed.push(format!("{w} ({e})")),
        }
    }
    if failed.is_empty() {
        0
    } else {
        eprintln!("chf-benchmark: failed: {}", failed.join(", "));
        1
    }
}

fn run_compare(base: &Path, new: &Path) -> i32 {
    let (a, b) = match (read_results(base), read_results(new)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("chf-benchmark: {e}");
            return 2;
        }
    };
    let (report, regressed) = compare(&a, &b);
    print!("{report}");
    i32::from(regressed)
}

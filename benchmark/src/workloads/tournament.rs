//! `tournament-cold`: per-function policy tournaments over all 43 programs
//! with the default `{BF,HF,DF} × {16,∞}` portfolio, each round through a
//! fresh one-worker `CompileService` (so no formation-cache entry carries
//! over) with its shape cache off, so every tournament compiles all six
//! entrants. Compiling dominates and scoring is a few percent: the
//! workload where entrant count matters.
//!
//! One worker: the run is pinned to one CPU (see `run.sh`), where a second
//! worker could only time-slice with the first, and a tournament's latency
//! is then the sum of its entrants.

use super::{
    check_outputs, ms_since, rng, shuffled, suite, suite_digest, Expect, Outcome, Output, Workload,
};
use crate::replica;
use crate::trace;
use chf_core::pipeline::Compiled;
use chf_core::TournamentConfig;
use chf_service::{CompileService, ServiceConfig, TournamentRequest};
use std::time::Instant;

/// Worker threads of the service.
pub const WORKERS: usize = 1;

/// The workload, with its run length in rounds over all programs.
pub struct TournamentCold {
    /// Rounds per run.
    pub rounds: usize,
}

/// Inputs of [`TournamentCold`].
pub struct State {
    suite: Vec<chf_workloads::Workload>,
    requests: Vec<TournamentRequest>,
}

type ItemResult = Result<(String, Compiled), String>;

/// A service with the shape cache off: programs whose CFG shapes collide
/// would otherwise take the one-compile hot path, in an order-dependent
/// way, and the workload is the cold tournament.
fn service() -> CompileService {
    CompileService::new(ServiceConfig {
        workers: WORKERS,
        shape_cache_capacity: 0,
        ..ServiceConfig::default()
    })
}

fn real(svc: &CompileService, req: &TournamentRequest) -> ItemResult {
    svc.compile_tournament(req)
        .map(|o| (o.label, o.compiled))
        .map_err(|e| e.to_string())
}

fn replica(req: &TournamentRequest) -> ItemResult {
    replica::tournament(
        &req.function,
        &req.profile,
        &req.args,
        &req.memory,
        &req.config,
    )
    .map(|w| (w.label, w.compiled))
    .map_err(|e| e.to_string())
}

impl Workload for TournamentCold {
    type State = State;

    fn name(&self) -> &'static str {
        "tournament-cold"
    }

    fn setup(&self) -> Result<State, String> {
        let suite = suite();
        let requests = suite
            .iter()
            .map(|w| TournamentRequest {
                function: w.function.clone(),
                profile: w.profile.clone(),
                args: w.args.clone(),
                memory: w.memory.clone(),
                config: TournamentConfig::default(),
            })
            .collect();
        Ok(State { suite, requests })
    }

    fn inputs_digest(&self, s: &State) -> u64 {
        suite_digest(&s.suite)
    }

    fn guard(&self, s: &State) -> Result<(), String> {
        for req in &s.requests {
            let (label, compiled) = real(&service(), req)?;
            let (rep_label, rep) = replica(req)?;
            if label != rep_label {
                return Err(format!(
                    "{}: real winner {label}, replica winner {rep_label}",
                    req.function.name
                ));
            }
            replica::same(&compiled, &rep)?;
        }
        Ok(())
    }

    fn run(&self, s: &State, seed: u64, traced: bool) -> Outcome {
        let n = s.requests.len();
        let mut order_rng = rng(seed, self.name());
        let mut out = Outcome::default();
        let mut results: Vec<(usize, ItemResult)> = Vec::with_capacity(n * self.rounds);
        let start = Instant::now();
        trace::reset();
        for _ in 0..self.rounds {
            // Traced, the replica runs each tournament on this thread, as
            // the service's single worker and its client would.
            let svc = (!traced).then(service);
            for i in shuffled(n, &mut order_rng) {
                trace::set_item(results.len() as u64);
                let t = Instant::now();
                let r = match &svc {
                    Some(svc) => real(svc, &s.requests[i]),
                    None => replica(&s.requests[i]),
                };
                out.latencies.push(ms_since(t));
                results.push((i, r));
            }
        }
        out.wall = start.elapsed();
        if traced {
            out.traces.push(trace::take());
        }

        let mut first: Vec<Option<(String, Compiled)>> = vec![None; n];
        for (i, r) in results {
            let name = &s.suite[i].name;
            match (r, &first[i]) {
                (Err(e), _) => out.failures.push(format!("{name}: {e}")),
                (Ok(w), None) => first[i] = Some(w),
                (Ok((label, c)), Some((label0, c0))) => {
                    if label != *label0 || c.function.static_size() != c0.function.static_size() {
                        out.failures
                            .push(format!("{name}: winner differs between rounds"));
                    }
                }
            }
        }
        let outputs: Vec<Output<'_>> = first
            .into_iter()
            .zip(&s.suite)
            .filter_map(|(w, input)| {
                w.map(|(_, c)| Output {
                    function: c.function,
                    args: &input.args,
                    memory: &input.memory,
                    expect: Expect::Ret(input.expected),
                })
            })
            .collect();
        out.totals = check_outputs(&outputs, &mut out.failures);
        out
    }
}

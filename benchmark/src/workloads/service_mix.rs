//! `service-mix`: reads beside writes on one long-lived compile service.
//!
//! Set-up generates `chf_ir::testgen` programs (`max_depth: 4`, so 2–10×
//! larger than the paper suites), prints them to `.til` and profiles the
//! parsed form on fixed train args. Two client threads each keep one request
//! outstanding against a one-worker service, so a compile can wait behind
//! the other client's. A client sends each of its fresh programs as source
//! text with its profile, and after each one repeats two programs drawn
//! uniformly from its last 16 completed ones: two thirds of the requests
//! are cache hits (parse, cache key, revalidation; they set p50) and one
//! third compile whole larger functions (they set p99). With half hits,
//! p50 would sit on the boundary between the hit and miss latencies and
//! jump between them from run to run; drawing from all completed programs
//! would repeat the first few of each seed's order most, and p50 would
//! follow their sizes from seed to seed.
//!
//! The program set is the same at every seed, so the deterministic totals
//! (`code_insts`, `dyn_blocks`, `sim_cycles`) are too; the seed decides
//! which client sends which program, in what order, and what it repeats.

use super::{
    check_outputs, ms_since, rng, shuffled, Expect, InputHasher, Outcome, Output, Workload,
};
use crate::replica;
use crate::trace::{self, span};
use chf_core::pipeline::CompileConfig;
use chf_core::tournament::BehaviourDigest;
use chf_ir::function::Function;
use chf_ir::profile::ProfileData;
use chf_ir::testgen::{generate, GenConfig, SplitMix64};
use chf_service::{
    CompileRequest, CompileResponse, CompileService, Program, RequestOptions, RequestStatus,
    ServiceConfig,
};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// Client threads, each with one request outstanding.
pub const CLIENTS: usize = 2;

/// Worker threads of the service: one, as the run is pinned to one CPU.
pub const WORKERS: usize = 1;

/// Repeats sent after each fresh program.
pub const REPEATS: usize = 2;

/// Repeats are drawn from this many most recently completed programs.
pub const RECENT: usize = 16;

/// Generator seed of program `i` is `GEN_BASE + i`.
const GEN_BASE: u64 = 0x5e41_1ce0_0000;

/// The workload, with its number of distinct programs (`1 + REPEATS`
/// requests each).
pub struct ServiceMix {
    /// Distinct programs per run.
    pub programs: usize,
}

/// One generated program and its reference behaviour.
pub struct Input {
    text: String,
    function: Function,
    profile: ProfileData,
    args: Vec<i64>,
    reference: BehaviourDigest,
}

/// Inputs of [`ServiceMix`] and the service they are sent to.
pub struct State {
    inputs: Vec<Input>,
    svc: CompileService,
}

/// One answered request.
struct Answer {
    input: usize,
    repeat: bool,
    resp: CompileResponse,
}

fn gen_config() -> GenConfig {
    GenConfig {
        max_depth: 4,
        ..GenConfig::default()
    }
}

fn request(input: &Input) -> CompileRequest {
    CompileRequest {
        program: Program::Source(input.text.clone()),
        profile: input.profile.clone(),
        config: CompileConfig::convergent(),
        options: RequestOptions::default(),
    }
}

impl Workload for ServiceMix {
    type State = State;

    fn name(&self) -> &'static str {
        "service-mix"
    }

    fn setup(&self) -> Result<State, String> {
        let config = gen_config();
        let mut inputs = Vec::with_capacity(self.programs);
        for i in 0..self.programs as u64 {
            let text = generate(GEN_BASE + i, &config).to_string();
            let function = chf_ir::parse::parse_function(&text)
                .map_err(|e| format!("program {i} does not parse back: {e}"))?;
            let mut rng = SplitMix64::new(GEN_BASE ^ i.rotate_left(32));
            let args: Vec<i64> = (0..function.params)
                .map(|_| rng.below(64) as i64 - 16)
                .collect();
            let r = chf_sim::functional::run(&function, &args, &[], &Default::default())
                .map_err(|e| format!("program {i} does not run: {e}"))?;
            inputs.push(Input {
                reference: r.digest(),
                profile: r.profile,
                text,
                function,
                args,
            });
        }
        let svc = CompileService::new(ServiceConfig {
            workers: WORKERS,
            cache_capacity: self.programs.max(1024),
            ..ServiceConfig::default()
        });
        Ok(State { inputs, svc })
    }

    fn inputs_digest(&self, s: &State) -> u64 {
        let mut h = InputHasher::default();
        for p in &s.inputs {
            h.add(&p.function, &p.args, &[], &p.profile);
        }
        h.finish()
    }

    fn guard(&self, s: &State) -> Result<(), String> {
        for p in &s.inputs {
            let config = CompileConfig::convergent();
            let real = chf_core::try_compile(&p.function, &p.profile, &config)
                .map_err(|e| format!("{}: {e}", p.function.name))?;
            let rep = replica::compile(&p.function, &p.profile, &config)
                .map_err(|e| format!("{}: replica failed: {e}", p.function.name))?;
            replica::same(&real, &rep)?;
        }
        Ok(())
    }

    fn run(&self, s: &State, seed: u64, traced: bool) -> Outcome {
        let mut seeds = rng(seed, self.name());
        let order = shuffled(s.inputs.len(), &mut seeds);
        let client_seeds: Vec<u64> = (0..CLIENTS).map(|_| seeds.next()).collect();
        // Replays wait until every client is done and then take turns, so
        // they never share the CPU with the service or with each other.
        let replays = (Barrier::new(CLIENTS), Mutex::new(()));
        let start = Instant::now();
        let clients: Vec<Client> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let mine: Vec<usize> = order.iter().copied().skip(c).step_by(CLIENTS).collect();
                    let (seed, replays) = (client_seeds[c], &replays);
                    scope.spawn(move || client(s, &mine, seed, traced, replays))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client threads do not panic"))
                .collect()
        });
        let wall = clients
            .iter()
            .map(|c| c.end - start)
            .max()
            .unwrap_or_default();

        let mut out = Outcome {
            wall,
            service: Some(s.svc.stats()),
            ..Outcome::default()
        };
        let mut answers = Vec::new();
        for c in clients {
            for (ms, a) in c.answers {
                out.latencies.push(ms);
                answers.push(a);
            }
            out.traces.extend(c.trace);
            out.failures.extend(c.mismatches);
        }

        // Checked after the timed loop: every answer is `Done`; each fresh
        // compile reproduces its input's behaviour, and each repeat returns
        // the same function as the fresh compile of its program.
        let mut fresh: Vec<Option<Function>> = vec![None; s.inputs.len()];
        for a in answers.iter().filter(|a| !a.repeat) {
            match (&a.resp.status, &a.resp.compiled) {
                (RequestStatus::Done, Some(c)) => fresh[a.input] = Some(c.function.clone()),
                (status, _) => out.failures.push(format!(
                    "{}: {status:?} {:?}",
                    s.inputs[a.input].function.name, a.resp.error
                )),
            }
        }
        for a in answers.iter().filter(|a| a.repeat) {
            let name = &s.inputs[a.input].function.name;
            match (&a.resp.status, &a.resp.compiled, &fresh[a.input]) {
                (RequestStatus::Done, Some(c), Some(f))
                    if c.function.to_string() == f.to_string() => {}
                (RequestStatus::Done, ..) => out
                    .failures
                    .push(format!("{name}: repeat differs from its fresh compile")),
                (status, ..) => out
                    .failures
                    .push(format!("{name}: repeat {status:?} {:?}", a.resp.error)),
            }
        }
        let outputs: Vec<Output<'_>> = fresh
            .into_iter()
            .zip(&s.inputs)
            .filter_map(|(f, p)| {
                f.map(|function| Output {
                    function,
                    args: &p.args,
                    memory: &[],
                    expect: Expect::Digest(p.reference.clone()),
                })
            })
            .collect();
        out.totals = check_outputs(&outputs, &mut out.failures);
        out
    }
}

/// What one client thread returns.
struct Client {
    /// Latency and answer of every request, in sending order.
    answers: Vec<(f64, Answer)>,
    /// When the client's last request was answered.
    end: Instant,
    /// The client's span buffer, when traced.
    trace: Option<trace::ThreadTrace>,
    /// Replicas that differed from the service's artifact.
    mismatches: Vec<String>,
}

/// One client: send each program of `mine`, then `REPEATS` repeats drawn
/// uniformly from the `RECENT` programs it completed last. When traced,
/// record the service's spans of each request, and once every client is
/// done, break them into layers in its turn.
fn client(
    s: &State,
    mine: &[usize],
    seed: u64,
    traced: bool,
    replays: &(Barrier, Mutex<()>),
) -> Client {
    let mut rng = SplitMix64::new(seed);
    let mut completed = Vec::with_capacity(mine.len());
    let mut answers = Vec::with_capacity((1 + REPEATS) * mine.len());
    let mut spans = Vec::new();
    trace::reset();
    for &fresh in mine {
        completed.push(fresh);
        let mut sends = vec![(fresh, false)];
        for _ in 0..REPEATS {
            let back = rng.below(completed.len().min(RECENT) as u64) as usize;
            sends.push((completed[completed.len() - 1 - back], true));
        }
        for (input, is_repeat) in sends {
            let req = request(&s.inputs[input]);
            trace::set_item(answers.len() as u64);
            let t = Instant::now();
            let id = s.svc.submit(req);
            let submitted = Instant::now();
            let resp = s.svc.wait(id);
            let ms = ms_since(t);
            if traced {
                spans.push(record(t, submitted, &resp));
            }
            answers.push((
                ms,
                Answer {
                    input,
                    repeat: is_repeat,
                    resp,
                },
            ));
        }
    }
    let end = Instant::now();
    trace::stop_clock();
    replays.0.wait();
    let _turn = replays.1.lock().expect("no client panics while replaying");
    let mut mismatches = Vec::new();
    for (k, (submit, compile)) in spans.into_iter().enumerate() {
        let a = &answers[k].1;
        trace::set_item(k as u64);
        if let Err(e) = replay(&s.inputs[a.input], submit, compile, &a.resp) {
            mismatches.push(e);
        }
    }
    Client {
        answers,
        end,
        trace: traced.then(trace::take),
        mismatches,
    }
}

/// Record the service's spans of one answered request: `service.submit`
/// on the client, and, unless the cache answered, `service.queue_wait` and
/// `service.compile` from the durations the response reports. Returns the
/// submit and compile span indices.
fn record(
    sent: Instant,
    submitted: Instant,
    resp: &CompileResponse,
) -> (Option<usize>, Option<usize>) {
    let submit = trace::record("service.submit", sent, submitted);
    if resp.cache_hit {
        return (submit, None);
    }
    let now = Instant::now();
    let began = now.checked_sub(resp.compile_time).unwrap_or(submitted);
    let queued = began.checked_sub(resp.queue_wait).unwrap_or(submitted);
    trace::record("service.queue_wait", queued, began);
    (submit, trace::record("service.compile", began, now))
}

/// Break a request's service spans into layers by replaying their work:
/// the parse inside `service.submit`, and for a compiled request the input
/// verification and the replica compile inside `service.compile`.
///
/// # Errors
/// A replica that differs from the service's artifact.
fn replay(
    p: &Input,
    submit: Option<usize>,
    compile: Option<usize>,
    resp: &CompileResponse,
) -> Result<(), String> {
    let parsed = trace::replay(submit, || {
        span("ir.parse", || chf_ir::parse::parse_function(&p.text))
    });
    if compile.is_none() {
        return Ok(());
    }
    let f = parsed.map_err(|e| format!("{}: replica parse failed: {e}", p.function.name))?;
    let rep = trace::replay(compile, || {
        let _ = span("ir.verify", || chf_ir::verify::verify_full(&f));
        replica::compile(&f, &p.profile, &CompileConfig::convergent())
    });
    match (rep, &resp.compiled) {
        (Ok(rep), Some(real)) => replica::same(real, &rep),
        (rep, real) => Err(format!(
            "{}: replica {:?}, service {}",
            p.function.name,
            rep.err(),
            if real.is_some() { "compiled" } else { "failed" }
        )),
    }
}

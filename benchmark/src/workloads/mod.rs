//! The four closed-loop workloads, and what they share: the outcome of a
//! timed run, the post-run output check, and the input fingerprint.

pub mod service_mix;
pub mod simulate;
pub mod tables;
pub mod tournament;

use crate::trace::{self, span, ThreadTrace};
use chf_ir::function::Function;
use chf_ir::fxhash::FxHasher;
use chf_ir::profile::ProfileData;
use chf_ir::testgen::SplitMix64;
use chf_service::stats::ServiceStats;
use chf_sim::functional::{run, run_lowered, FuncResult, RunConfig, SimError};
use chf_sim::timing::{simulate_timing, simulate_timing_lowered, TimingConfig, TimingResult};
use chf_sim::LoweredProgram;
use std::hash::Hasher as _;
use std::time::Duration;

/// Workload names, in the order `run` without `--workload` runs them.
pub const NAMES: [&str; 4] = ["tables", "tournament-cold", "simulate", "service-mix"];

/// What one timed run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Per item attempted: call to return, or submit to response, in ms.
    pub latencies: Vec<f64>,
    /// Wall time of the timed region.
    pub wall: Duration,
    /// One line per item that errored, was not `Done`, or was wrong.
    pub failures: Vec<String>,
    /// Deterministic totals over the distinct outputs.
    pub totals: OutputTotals,
    /// Span buffers of every tracing thread (traced runs only).
    pub traces: Vec<ThreadTrace>,
    /// Service counters at the end of the run, where a service was used.
    pub service: Option<ServiceStats>,
}

/// Static and dynamic size of a workload's distinct outputs.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct OutputTotals {
    /// Static instructions.
    pub code_insts: u64,
    /// Functional-simulator dynamic blocks on the reference input.
    pub dyn_blocks: u64,
    /// Event-core cycles on the reference input.
    pub sim_cycles: u64,
}

/// A workload: inputs built once in set-up, then timed runs over them.
pub trait Workload {
    /// Inputs, pre-compiled programs and services built by [`Workload::setup`].
    type State;

    /// The workload's name on the command line.
    fn name(&self) -> &'static str;

    /// Build the inputs; everything before the first timed item.
    ///
    /// # Errors
    /// An input that fails to build, profile or pre-compile.
    fn setup(&self) -> Result<Self::State, String>;

    /// Fingerprint of the inputs (see [`InputHasher`]).
    fn inputs_digest(&self, state: &Self::State) -> u64;

    /// Check that the stage-by-stage replicas reproduce the real calls on
    /// every input.
    ///
    /// # Errors
    /// The first difference found.
    fn guard(&self, state: &Self::State) -> Result<(), String>;

    /// One timed run. `traced` swaps in the replicas and records spans.
    fn run(&self, state: &Self::State, seed: u64, traced: bool) -> Outcome;
}

/// What a distinct output must reproduce.
#[derive(Clone, Debug)]
pub enum Expect {
    /// The workload's hand-written expected return value.
    Ret(i64),
    /// The functional digest of the uncompiled input on the same input.
    Digest(chf_core::tournament::BehaviourDigest),
}

/// One distinct output of a run with its reference input.
#[derive(Clone, Debug)]
pub struct Output<'a> {
    /// The compiled function.
    pub function: Function,
    /// Reference arguments.
    pub args: &'a [i64],
    /// Reference initial memory.
    pub memory: &'a [(i64, i64)],
    /// What it must reproduce.
    pub expect: Expect,
}

/// Run every distinct output on its reference input after the timed loop:
/// check it against its reference and total its size, dynamic blocks and
/// event-core cycles. Wrong outputs are appended to `failures`.
pub fn check_outputs(outputs: &[Output<'_>], failures: &mut Vec<String>) -> OutputTotals {
    let mut t = OutputTotals::default();
    for o in outputs {
        let name = &o.function.name;
        t.code_insts += o.function.static_size() as u64;
        let r = match run(&o.function, o.args, o.memory, &RunConfig::default()) {
            Ok(r) => r,
            Err(e) => {
                failures.push(format!("{name}: functional run failed: {e}"));
                continue;
            }
        };
        t.dyn_blocks += r.blocks_executed;
        let ok = match &o.expect {
            Expect::Ret(v) => r.ret == Some(*v),
            Expect::Digest(d) => &r.digest() == d,
        };
        if !ok {
            failures.push(format!("{name}: output differs from its reference"));
        }
        match simulate_timing(&o.function, o.args, o.memory, &TimingConfig::trips()) {
            Ok(timing) if timing.ret == r.ret => t.sim_cycles += timing.cycles,
            Ok(_) => failures.push(format!("{name}: event core and functional disagree")),
            Err(e) => failures.push(format!("{name}: timing run failed: {e}")),
        }
    }
    t
}

/// Event-core timing of a lowered program, in a `sim.timing` span.
///
/// # Errors
/// As `simulate_timing_lowered`.
pub fn timing(
    p: &LoweredProgram,
    args: &[i64],
    memory: &[(i64, i64)],
) -> Result<TimingResult, SimError> {
    let t = span("sim.timing", || {
        simulate_timing_lowered(p, args, memory, &TimingConfig::trips())
    })?;
    trace::add("sim.cycles", t.cycles as f64);
    trace::add("sim.insts", t.insts_executed as f64);
    Ok(t)
}

/// Functional run of a lowered program, in a `sim.functional` span.
///
/// # Errors
/// As `run_lowered`.
pub fn functional(
    p: &LoweredProgram,
    args: &[i64],
    memory: &[(i64, i64)],
) -> Result<FuncResult, SimError> {
    let r = span("sim.functional", || {
        run_lowered(p, args, memory, &RunConfig::default())
    })?;
    trace::add("sim.insts", r.insts_executed as f64);
    Ok(r)
}

/// Lower a function for simulation, in a `sim.lower` span.
pub fn lower(f: &Function) -> LoweredProgram {
    span("sim.lower", || LoweredProgram::lower(f))
}

/// The 24 microbenchmarks followed by the 19 composites.
pub fn suite() -> Vec<chf_workloads::Workload> {
    let mut all = chf_workloads::microbenchmarks();
    all.extend(chf_workloads::spec_suite());
    all
}

/// Fingerprint of the suite's inputs (see [`InputHasher`]).
pub fn suite_digest(suite: &[chf_workloads::Workload]) -> u64 {
    let mut h = InputHasher::default();
    for w in suite {
        h.add(&w.function, &w.args, &w.memory, &w.profile);
    }
    h.finish()
}

/// `0..n` in an order drawn from `rng` (Fisher–Yates).
pub fn shuffled(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    v
}

/// Item-order stream for `seed`, distinct per workload.
pub fn rng(seed: u64, workload: &str) -> SplitMix64 {
    let mut h = FxHasher::default();
    h.write(workload.as_bytes());
    SplitMix64::new(seed ^ h.finish())
}

/// FxHash over the printed input functions, arguments, memory images and
/// profiles, so an edit to the input generators cannot change a workload
/// unnoticed. Profiles are hashed in sorted order (their maps are not).
#[derive(Default)]
pub struct InputHasher(FxHasher);

impl InputHasher {
    /// Add one program and its inputs.
    pub fn add(&mut self, f: &Function, args: &[i64], memory: &[(i64, i64)], p: &ProfileData) {
        let h = &mut self.0;
        h.write(f.to_string().as_bytes());
        h.write_usize(args.len());
        args.iter().for_each(|a| h.write_i64(*a));
        h.write_usize(memory.len());
        for (a, v) in memory {
            h.write_i64(*a);
            h.write_i64(*v);
        }
        let mut blocks: Vec<_> = p.block_counts.iter().map(|(b, n)| (b.0, *n)).collect();
        blocks.sort_unstable();
        let mut exits: Vec<_> = p
            .exit_counts
            .iter()
            .map(|((b, i), n)| (b.0, *i, *n))
            .collect();
        exits.sort_unstable();
        let mut trips: Vec<_> = p.trip_histograms.iter().map(|(b, t)| (b.0, t)).collect();
        trips.sort_unstable_by_key(|(b, _)| *b);
        h.write_usize(blocks.len());
        for (b, n) in blocks {
            h.write_u32(b);
            h.write_u64(n);
        }
        h.write_usize(exits.len());
        for (b, i, n) in exits {
            h.write_u32(b);
            h.write_usize(i);
            h.write_u64(n);
        }
        h.write_usize(trips.len());
        for (b, t) in trips {
            h.write_u32(b);
            h.write_usize(t.counts.len());
            for (k, n) in &t.counts {
                h.write_u64(*k);
                h.write_u64(*n);
            }
        }
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

//! `simulate`: lowering, functional execution and event-core timing of the
//! basic-block and `(IUPO)` forms of all 43 programs, compiled in set-up.
//! Formation is absent from the timed region, so simulator changes show
//! here alone and a formation change must read as no change.

use super::{
    check_outputs, functional, lower, ms_since, rng, shuffled, suite, suite_digest, timing, Expect,
    Outcome, Output, Workload,
};
use crate::replica;
use crate::trace;
use chf_core::pipeline::{CompileConfig, Compiled, PhaseOrdering};
use std::time::Instant;

/// The two forms simulated per program.
pub const FORMS: [PhaseOrdering; 2] = [PhaseOrdering::BasicBlocks, PhaseOrdering::Iupo_];

/// The workload, with its run length in rounds over all programs.
pub struct Simulate {
    /// Rounds per run.
    pub rounds: usize,
}

/// Inputs of [`Simulate`]: the suite and its compiled forms, `FORMS.len()`
/// per program in suite order.
pub struct State {
    suite: Vec<chf_workloads::Workload>,
    compiled: Vec<Compiled>,
}

/// Return values of the functional and timing runs, dynamic blocks and
/// cycles.
type ItemResult = Result<(Option<i64>, Option<i64>, u64, u64), String>;

impl Workload for Simulate {
    type State = State;

    fn name(&self) -> &'static str {
        "simulate"
    }

    fn setup(&self) -> Result<State, String> {
        let suite = suite();
        let mut compiled = Vec::with_capacity(suite.len() * FORMS.len());
        for w in &suite {
            for o in FORMS {
                let c = chf_core::try_compile(
                    &w.function,
                    &w.profile,
                    &CompileConfig::with_ordering(o),
                )
                .map_err(|e| format!("{} {}: {e}", w.name, o.label()))?;
                compiled.push(c);
            }
        }
        Ok(State { suite, compiled })
    }

    fn inputs_digest(&self, s: &State) -> u64 {
        suite_digest(&s.suite)
    }

    fn guard(&self, s: &State) -> Result<(), String> {
        for (i, real) in s.compiled.iter().enumerate() {
            let w = &s.suite[i / FORMS.len()];
            let config = CompileConfig::with_ordering(FORMS[i % FORMS.len()]);
            let rep = replica::compile(&w.function, &w.profile, &config)
                .map_err(|e| format!("{}: replica failed: {e}", w.name))?;
            replica::same(real, &rep)?;
        }
        Ok(())
    }

    fn run(&self, s: &State, seed: u64, traced: bool) -> Outcome {
        let n = s.compiled.len();
        let mut order_rng = rng(seed, self.name());
        let mut out = Outcome::default();
        let mut results: Vec<(usize, ItemResult)> = Vec::with_capacity(n * self.rounds);
        trace::reset();
        let start = Instant::now();
        for _ in 0..self.rounds {
            for i in shuffled(n, &mut order_rng) {
                let w = &s.suite[i / FORMS.len()];
                trace::set_item(results.len() as u64);
                let t = Instant::now();
                let p = lower(&s.compiled[i].function);
                let r = functional(&p, &w.args, &w.memory).and_then(|r| {
                    timing(&p, &w.args, &w.memory)
                        .map(|t| (r.ret, t.ret, r.blocks_executed, t.cycles))
                });
                out.latencies.push(ms_since(t));
                results.push((i, r.map_err(|e| e.to_string())));
            }
        }
        out.wall = start.elapsed();
        if traced {
            out.traces.push(trace::take());
        }

        let mut first: Vec<Option<(u64, u64)>> = vec![None; n];
        for (i, r) in results {
            let w = &s.suite[i / FORMS.len()];
            let label = format!("{} {}", w.name, FORMS[i % FORMS.len()].label());
            match r {
                Err(e) => out.failures.push(format!("{label}: {e}")),
                Ok((fret, tret, ..)) if fret != Some(w.expected) || tret != fret => {
                    out.failures.push(format!(
                        "{label}: returned {fret:?} / {tret:?}, expected {}",
                        w.expected
                    ))
                }
                Ok((.., blocks, cycles)) => {
                    if *first[i].get_or_insert((blocks, cycles)) != (blocks, cycles) {
                        out.failures
                            .push(format!("{label}: counts differ between rounds"));
                    }
                }
            }
        }
        let outputs: Vec<Output<'_>> = s
            .compiled
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let w = &s.suite[i / FORMS.len()];
                Output {
                    function: c.function.clone(),
                    args: &w.args,
                    memory: &w.memory,
                    expect: Expect::Ret(w.expected),
                }
            })
            .collect();
        out.totals = check_outputs(&outputs, &mut out.failures);
        out
    }
}

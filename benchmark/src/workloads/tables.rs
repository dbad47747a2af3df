//! `tables`: the Table 1 + Table 3 matrix, as people run it to reproduce
//! the paper. Each item compiles one (program, ordering) pair and simulates
//! it: the event core for the 24 microbenchmarks, the functional simulator
//! for the 19 composites. Formation and scalar optimization dominate, so
//! any change to either shows here.

use super::{
    check_outputs, functional, lower, ms_since, rng, shuffled, suite, suite_digest, timing, Expect,
    Outcome, Output, Workload,
};
use crate::replica;
use crate::trace;
use chf_core::pipeline::{CompileConfig, PhaseOrdering};
use chf_ir::function::Function;
use std::time::Instant;

/// Every ordering of Tables 1 and 3, `BB` first.
pub const ORDERINGS: [PhaseOrdering; 5] = [
    PhaseOrdering::BasicBlocks,
    PhaseOrdering::Upio,
    PhaseOrdering::Iupo,
    PhaseOrdering::IupThenO,
    PhaseOrdering::Iupo_,
];

/// The workload, with its run length in rounds of the whole matrix.
pub struct Tables {
    /// Rounds per run.
    pub rounds: usize,
}

/// Inputs of [`Tables`].
pub struct State {
    suite: Vec<chf_workloads::Workload>,
    micros: usize,
}

/// What one item returned: the compiled function's size and its return
/// value.
type ItemResult = Result<(usize, Option<i64>), String>;

impl Workload for Tables {
    type State = State;

    fn name(&self) -> &'static str {
        "tables"
    }

    fn setup(&self) -> Result<State, String> {
        Ok(State {
            suite: suite(),
            micros: chf_workloads::micro::all().len(),
        })
    }

    fn inputs_digest(&self, s: &State) -> u64 {
        suite_digest(&s.suite)
    }

    fn guard(&self, s: &State) -> Result<(), String> {
        for w in &s.suite {
            for o in ORDERINGS {
                let config = CompileConfig::with_ordering(o);
                let real = chf_core::try_compile(&w.function, &w.profile, &config);
                let rep = replica::compile(&w.function, &w.profile, &config);
                match (real, rep) {
                    (Ok(real), Ok(rep)) => replica::same(&real, &rep)?,
                    (real, rep) => {
                        return Err(format!(
                            "{} {}: real {:?} vs replica {:?}",
                            w.name,
                            o.label(),
                            real.err(),
                            rep.err()
                        ))
                    }
                }
            }
        }
        Ok(())
    }

    fn run(&self, s: &State, seed: u64, traced: bool) -> Outcome {
        let n = s.suite.len() * ORDERINGS.len();
        let mut order_rng = rng(seed, self.name());
        let mut first: Vec<Option<Function>> = vec![None; n];
        let mut results: Vec<(usize, ItemResult)> = Vec::with_capacity(n * self.rounds);
        let mut out = Outcome::default();
        trace::reset();
        let start = Instant::now();
        for _ in 0..self.rounds {
            for item in shuffled(n, &mut order_rng) {
                let (w, o) = (&s.suite[item / ORDERINGS.len()], item % ORDERINGS.len());
                let micro = item / ORDERINGS.len() < s.micros;
                trace::set_item(results.len() as u64);
                let t = Instant::now();
                let config = CompileConfig::with_ordering(ORDERINGS[o]);
                let compiled = if traced {
                    replica::compile(&w.function, &w.profile, &config)
                } else {
                    chf_core::try_compile(&w.function, &w.profile, &config)
                };
                let result = compiled.map_err(|e| e.to_string()).and_then(|c| {
                    let p = lower(&c.function);
                    let ret = if micro {
                        timing(&p, &w.args, &w.memory).map(|t| t.ret)
                    } else {
                        functional(&p, &w.args, &w.memory).map(|r| r.ret)
                    };
                    ret.map(|ret| (c.function, ret)).map_err(|e| e.to_string())
                });
                out.latencies.push(ms_since(t));
                results.push((
                    item,
                    result.map(|(f, ret)| {
                        let size = f.static_size();
                        first[item].get_or_insert(f);
                        (size, ret)
                    }),
                ));
            }
        }
        out.wall = start.elapsed();
        if traced {
            out.traces.push(trace::take());
        }

        // Checked after the timed loop: every item returned the expected
        // value and matched the first compile of the same pair.
        let label = |item: usize| {
            let w = &s.suite[item / ORDERINGS.len()];
            format!("{} {}", w.name, ORDERINGS[item % ORDERINGS.len()].label())
        };
        for (item, r) in &results {
            let expected = s.suite[item / ORDERINGS.len()].expected;
            let size0 = first[*item].as_ref().map(Function::static_size);
            match r {
                Err(e) => out.failures.push(format!("{}: {e}", label(*item))),
                Ok((_, ret)) if *ret != Some(expected) => out.failures.push(format!(
                    "{}: returned {ret:?}, expected {expected}",
                    label(*item)
                )),
                Ok((size, _)) if Some(*size) != size0 => out
                    .failures
                    .push(format!("{}: output differs between rounds", label(*item))),
                Ok(_) => {}
            }
        }
        let outputs: Vec<Output<'_>> = first
            .into_iter()
            .enumerate()
            .filter_map(|(item, f)| {
                let w = &s.suite[item / ORDERINGS.len()];
                f.map(|function| Output {
                    function,
                    args: &w.args,
                    memory: &w.memory,
                    expect: Expect::Ret(w.expected),
                })
            })
            .collect();
        out.totals = check_outputs(&outputs, &mut out.failures);
        out
    }
}

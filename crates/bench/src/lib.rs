#![warn(missing_docs)]
//! # chf-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§7):
//!
//! * [`table1`] — cycle-count improvement of the four phase orderings over
//!   basic blocks on the 24 microbenchmarks, with `m/t/u/p` statistics;
//! * [`table2`] — the VLIW, convergent-VLIW, depth-first and breadth-first
//!   heuristics on the same suite;
//! * [`table3`] — block-count improvement on the 19 SPEC-like composites
//!   (functional simulation);
//! * [`fig7`] — the cycle-count-reduction vs block-count-reduction
//!   correlation with its least-squares r²;
//! * [`whole_program`] — end-to-end cycle simulation of the composites
//!   (what §7.3 called "prohibitively slow"), with a measured-vs-model
//!   comparison against the block-count proxy.
//!
//! Binaries `table1`/`table2`/`table3`/`fig7`/`whole_program`/`summary`
//! print the tables.

pub mod csv;
pub mod fig7;
pub mod render;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod whole_program;

use chf_core::pipeline::{try_compile, CompileConfig};
use chf_sim::functional::{run, FuncResult, RunConfig};
use chf_sim::timing::{simulate_timing, TimingConfig, TimingResult};
use chf_workloads::Workload;

/// Compile `w` under `config` and run the timing simulator, checking that
/// observable behaviour is preserved. Every failure mode — compilation
/// error, simulation error, or a behaviour change — is reported as `Err`
/// with a message naming the workload; nothing on this path panics, so the
/// parallel harness can degrade a bad workload to a marked table row.
///
/// # Errors
/// A descriptive message when compilation fails, simulation fails, or the
/// compiled code's return value differs from the workload's expectation.
pub fn try_compile_and_time(
    w: &Workload,
    config: &CompileConfig,
) -> Result<(TimingResult, chf_core::FormationStats), String> {
    let compiled = try_compile(&w.function, &w.profile, config)
        .map_err(|e| format!("{}: compilation failed: {e}", w.name))?;
    let t = simulate_timing(
        &compiled.function,
        &w.args,
        &w.memory,
        &TimingConfig::trips(),
    )
    .map_err(|e| format!("{}: timing simulation failed: {e}", w.name))?;
    if t.ret != Some(w.expected) {
        return Err(format!(
            "{}: compiled code returned {:?}, expected {}",
            w.name, t.ret, w.expected
        ));
    }
    Ok((t, compiled.stats))
}

/// Compile `w` under `config` and run the functional simulator (block
/// counts), checking behaviour, as [`try_compile_and_time`] does.
///
/// # Errors
/// As [`try_compile_and_time`].
pub fn try_compile_and_count(
    w: &Workload,
    config: &CompileConfig,
) -> Result<(FuncResult, chf_core::FormationStats), String> {
    let compiled = try_compile(&w.function, &w.profile, config)
        .map_err(|e| format!("{}: compilation failed: {e}", w.name))?;
    let r = run(
        &compiled.function,
        &w.args,
        &w.memory,
        &RunConfig::default(),
    )
    .map_err(|e| format!("{}: functional simulation failed: {e}", w.name))?;
    if r.ret != Some(w.expected) {
        return Err(format!(
            "{}: compiled code returned {:?}, expected {}",
            w.name, r.ret, w.expected
        ));
    }
    Ok((r, compiled.stats))
}

/// Percent improvement of `new` over `base` (positive = faster/fewer).
pub fn percent_improvement(base: u64, new: u64) -> f64 {
    if base == 0 {
        return 0.0;
    }
    (base as f64 - new as f64) / base as f64 * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_improvement_signs() {
        assert_eq!(percent_improvement(100, 80), 20.0);
        assert_eq!(percent_improvement(100, 120), -20.0);
        assert_eq!(percent_improvement(0, 5), 0.0);
    }

    #[test]
    fn compile_and_time_validates_behaviour() {
        let w = chf_workloads::micro::vadd();
        let (t, _) = try_compile_and_time(&w, &CompileConfig::convergent()).unwrap();
        assert!(t.cycles > 0);
    }

    #[test]
    fn compile_and_count_validates_behaviour() {
        let w = chf_workloads::micro::sieve();
        let (r, stats) = try_compile_and_count(&w, &CompileConfig::convergent()).unwrap();
        assert!(r.blocks_executed > 0);
        assert!(stats.merges > 0);
    }
}

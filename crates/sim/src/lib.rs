#![warn(missing_docs)]
//! # chf-sim — simulators for EDGE hyperblock programs
//!
//! Both simulators execute a pre-decoded program representation
//! ([`lower::LoweredProgram`]): a [`chf_ir::function::Function`] is decoded
//! **once** into dense blocks with flat operand indices, packed dependence
//! metadata, LSQ store maps, and exit tables, and the handle is reusable
//! across runs (the oracle, the benchmark harness, and whole-program
//! simulation all lower once and simulate many times).
//!
//! * [`functional`] — a fast interpreter that executes a program, checks
//!   dynamic invariants, collects execution profiles (block counts, edge
//!   counts, loop trip-count histograms), and reports the observable outcome
//!   (return value plus final memory). It is both the *correctness oracle*
//!   for every compiler transformation and the source of the block-count
//!   metric used for the paper's SPEC2000 evaluation (Table 3).
//!
//! * [`timing`] — a TRIPS-like cycle-level model (paper §7), event-driven
//!   over the lowered form: per-block fetch/map overhead, dataflow issue
//!   with an operand wake-up calendar queue, issue-width contention and
//!   operand-network latency, an 8-block in-flight window, next-block
//!   prediction with misprediction flushes, and in-order block commit. One
//!   sequential engine runs every program, whole composites included. It
//!   reproduces the first-order effects the paper's analysis rests on, not
//!   the authors' exact cycle counts (see DESIGN.md, substitution 1).
//!
//! * [`timing_legacy`] (feature `legacy-sim`, default-on for one release) —
//!   the original direct-interpretation cores, kept as the differential
//!   reference: the rewritten engines must agree with them cycle-for-cycle
//!   and bit-for-bit (`tests/differential.rs`).
//!
//! The [`predictor`] module provides the next-block (exit) predictor shared
//! by the timing model.

pub mod functional;
pub mod lower;
pub mod predictor;
pub mod timing;
#[cfg(feature = "legacy-sim")]
pub mod timing_legacy;

pub use functional::{run, run_lowered, FuncResult, RunConfig, SimError};
pub use lower::LoweredProgram;
pub use predictor::{ExitPredictor, PredictorConfig, PredictorKind};
pub use timing::{
    simulate_timing, simulate_timing_lowered, simulate_timing_lowered_traced,
    simulate_timing_traced, BlockEvent, MemoryOrdering, TimingConfig, TimingResult, TimingTrace,
};

#![warn(missing_docs)]
//! # chf-core — convergent hyperblock formation
//!
//! The primary contribution of *"Merging Head and Tail Duplication for
//! Convergent Hyperblock Formation"* (Maher, Smith, Burger, McKinley —
//! MICRO 2006): an algorithm that iteratively applies if-conversion,
//! peeling, unrolling, and scalar optimizations until hyperblocks converge
//! on the structural constraints of an EDGE (TRIPS) ISA.
//!
//! Module map (paper section in parentheses):
//!
//! * [`constraints`] — the TRIPS structural block constraints (§2);
//! * [`ifconvert`] — `Combine`: predicates a successor into a hyperblock (§4.1);
//! * [`duplication`] — the unified duplication step behind tail duplication,
//!   peeling, and unrolling (§4.1, Figures 2–4);
//! * [`convergent`] — `ExpandBlock` / `MergeBlocks` (§4.2, Figure 5);
//! * [`policy`] — breadth-first, depth-first, and VLIW block selection (§5);
//! * [`tournament`] — adaptive per-function policy portfolios: compile
//!   every `(policy, budget)` entrant, score on the training input, keep
//!   the winner (beyond the paper; the service caches winners by CFG
//!   shape);
//! * [`unroll`] — discrete profile-driven loop unrolling/peeling used by the
//!   classical phase-ordering baselines (§3, §7.1);
//! * [`reverse`] — reverse if-conversion / block splitting (§6);
//! * [`pipeline`] — the compiler configurations of Tables 1–3: `BB`, `UPIO`,
//!   `IUPO`, `(IUP)O`, `(IUPO)`.
//!
//! Robustness layer (not in the paper, required to trust its numbers):
//!
//! * [`error`] — the typed error carried by contained formation failures;
//! * [`chaos`] — seeded fault injection and the one campaign engine
//!   (`CHF_FAULT_SEED`);
//! * [`oracle`] — the per-commit differential oracle and its greedy
//!   reproducer-writing reducer.

pub mod chaos;
pub mod constraints;
pub mod convergent;
pub mod duplication;
pub mod error;
pub mod fanout;
pub mod forloop;
pub mod ifconvert;
pub mod oracle;
pub mod pipeline;
pub mod policy;
pub mod regalloc;
pub mod reverse;
pub mod tournament;
pub mod unroll;

pub use chaos::{ChaosSpec, FaultKind};
pub use constraints::BlockConstraints;
pub use convergent::{
    form_hyperblocks, form_hyperblocks_with_profile, FormationConfig, FormationStats, SeedOrder,
};
pub use error::ChfError;
pub use oracle::OracleConfig;
pub use pipeline::{compile, try_compile, CompileConfig, Compiled, PhaseOrdering};
pub use policy::PolicyKind;
pub use tournament::{run_tournament, ScoreMetric, TournamentConfig, TournamentResult};

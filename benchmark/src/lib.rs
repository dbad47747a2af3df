//! # chf-benchmark
//!
//! The benchmark of the convergent hyperblock formation workspace: four
//! closed-loop workloads that each stress a different layer (`tables`,
//! `tournament-cold`, `simulate`, `service-mix`), end-to-end metrics from
//! untraced runs, per-layer metrics from a traced run whose spans sit
//! around calls into each crate's public functions, and a comparator for
//! two sets of runs. See `README.md` beside this crate for the metric and
//! workload tables.

pub mod compare;
pub mod metrics;
pub mod replica;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workloads;

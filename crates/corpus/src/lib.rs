#![warn(missing_docs)]
//! # chf-corpus — the persistent differential-fuzzing trace corpus
//!
//! Every chaos/oracle campaign in this workspace used to start from scratch
//! and discard what it learned. This crate makes that learning persistent:
//!
//! * [`manifest`] — the sidecar schema pinning each `.til` entry's expected
//!   functional digest, timing digest, formation outcome (`m/t/u/p` plus
//!   tournament winner), and the generator plan that produced it;
//! * [`store`] — the on-disk corpus under `tests/corpus/{failing,passing}/`:
//!   loading, validation, and collision-proof admission;
//! * [`measure`](mod@measure) — the one measurement pipeline (verify → compile → oracle
//!   → event-sim → tournament) both replay and admission share, and the
//!   coverage-cell keys derived from it;
//! * [`replay`] — the deterministic regression gate: re-run every entry and
//!   fail on any digest or outcome drift, worker-count-independently;
//! * [`fuzz`] — the coverage-guided loop: mutate corpus entries and fresh
//!   generator plans ([`chf_ir::testgen`]), keep only candidates reaching
//!   unseen coverage cells, shrink them with the oracle's greedy reducer,
//!   and admit them with a dedup key.
//!
//! The corpus plays the role `failing_traces/` / `passing_traces/` splits
//! play in hardware-model differential testing: a shared, growing benchmark
//! set that pins transformation quality across time rather than one-off
//! fuzz runs.

pub mod fuzz;
pub mod manifest;
pub mod measure;
pub mod replay;
pub mod store;

pub use fuzz::{run_fuzz, FuzzConfig, FuzzReport};
pub use manifest::{Expect, Manifest, Measured};
pub use measure::{measure, MeasureError, Measurement};
pub use replay::{replay_corpus, Drift, ReplayReport};
pub use store::{admit, load_corpus, Class, CorpusEntry, CORPUS_DIR};

//! Determinism guard: regenerating every archived CSV through the parallel
//! evaluation harness must reproduce the committed `results/` files byte
//! for byte.
//!
//! This pins three properties at once:
//!
//! 1. the compiler is deterministic (no hash-iteration or thread-scheduling
//!    order leaks into decisions);
//! 2. the parallel harness reassembles results in suite order, so worker
//!    count cannot change the output;
//! 3. performance work on the formation path does not silently change the
//!    *results* of formation — the committed tables stay the source of
//!    truth.
//!
//! If a deliberate algorithmic change moves the numbers, regenerate the
//! archives with `cargo run --release -p chf-bench --bin summary` and commit
//! the new CSVs alongside the change.

use chf_bench::{fig7, table1, table2, table3, whole_program};

fn committed(name: &str) -> String {
    let path = format!("{}/results/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Regenerate Table 1 (and its derived Figure 7) with several worker counts
/// and diff against the committed archives.
#[test]
fn table1_and_fig7_csvs_are_reproducible() {
    let expected_t1 = committed("table1.csv");
    let expected_f7 = committed("fig7.csv");
    for workers in [1, 4] {
        let rows = table1::run_with(workers);
        assert_eq!(
            table1::csv(&rows),
            expected_t1,
            "table1.csv drifted (workers={workers})"
        );
        let pts = fig7::points(&rows);
        let fit = fig7::linear_fit(&pts);
        assert_eq!(
            fig7::csv(&pts, &fit),
            expected_f7,
            "fig7.csv drifted (workers={workers})"
        );
    }
}

/// Regenerate Table 2 through the parallel harness and diff.
#[test]
fn table2_csv_is_reproducible() {
    let rows = table2::run_with(4);
    assert_eq!(table2::csv(&rows), committed("table2.csv"));
}

/// Regenerate the Table 2 budget ablation through the parallel harness
/// (two worker counts) and diff — the trial-budget ledger must be as
/// deterministic as the formation results themselves.
#[test]
fn table2_budget_csv_is_reproducible() {
    let expected = committed("table2_budget.csv");
    for workers in [1, 4] {
        let rows = table2::run_budget_with(workers, table2::DEFAULT_TRIAL_BUDGET);
        assert_eq!(
            table2::budget_csv(&rows),
            expected,
            "table2_budget.csv drifted (workers={workers})"
        );
    }
}

/// Regenerate Table 3 through the parallel harness and diff.
#[test]
fn table3_csv_is_reproducible() {
    let rows = table3::run_with(4);
    assert_eq!(table3::csv(&rows), committed("table3.csv"));
}

/// Regenerate the whole-program sweep at three worker counts and diff —
/// worker scheduling must not leak into the measured cycle counts.
#[test]
fn whole_program_csv_is_reproducible() {
    let expected = committed("whole_program.csv");
    for workers in [1, 2, 8] {
        let (rows, fit) = whole_program::run_with(workers, usize::MAX);
        for r in &rows {
            assert!(r.error.is_none(), "{}: {:?}", r.name, r.error);
        }
        assert_eq!(
            whole_program::csv(&rows, &fit),
            expected,
            "whole_program.csv drifted (workers={workers})"
        );
    }
}

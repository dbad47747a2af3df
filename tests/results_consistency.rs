//! Checks over the committed `results/*.csv` archives alone — no compiles.
//!
//! Every header names each column once, and the columns that two tables
//! measure under the same configuration agree: Table 2's `BF` is Table 1's
//! `(IUPO)`, Table 3's `(IUPO)` is the whole-program convergent form, and
//! the three SPEC-suite tables share one basic-block baseline.

use std::collections::{BTreeMap, HashSet};

fn committed(name: &str) -> String {
    let path = format!("{}/results/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// A results CSV: benchmark name → column name → cell. Comment lines
/// (`# fit: …`) are skipped.
fn table(name: &str) -> BTreeMap<String, BTreeMap<String, String>> {
    let text = committed(name);
    let mut lines = text.lines().filter(|l| !l.starts_with('#'));
    let header: Vec<&str> = lines.next().expect("header line").split(',').collect();
    lines
        .map(|line| {
            let cells: Vec<&str> = line.split(',').collect();
            assert_eq!(cells.len(), header.len(), "{name}: ragged row {line}");
            let row = header
                .iter()
                .zip(&cells)
                .map(|(h, c)| (h.to_string(), c.to_string()))
                .collect();
            (cells[0].to_string(), row)
        })
        .collect()
}

/// Assert that `column_a` of table `a` equals `column_b` of table `b` on
/// every benchmark of `a`, and that `b` has every benchmark of `a`.
fn agree(a: &str, column_a: &str, b: &str, column_b: &str) {
    let (ta, tb) = (table(a), table(b));
    assert!(!ta.is_empty(), "{a} has no rows");
    for (bench, row) in &ta {
        let other = tb
            .get(bench)
            .unwrap_or_else(|| panic!("{b} has no row for {bench}"));
        assert_eq!(
            row[column_a], other[column_b],
            "{bench}: {a} {column_a} != {b} {column_b}"
        );
    }
}

#[test]
fn every_results_header_names_each_column_once() {
    let dir = format!("{}/results", env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("results directory") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_none_or(|e| e != "csv") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable CSV");
        let header = text.lines().next().unwrap_or_default();
        let mut seen = HashSet::new();
        for column in header.split(',') {
            assert!(
                seen.insert(column),
                "{}: column {column} appears twice",
                path.display()
            );
        }
        checked += 1;
    }
    assert!(checked >= 6, "only {checked} CSVs under {dir}");
}

#[test]
fn identical_configurations_agree_across_tables() {
    // Table 2's BF column is Table 1's (IUPO) ordering: same compile, same
    // timing simulation.
    agree("table2.csv", "bb_cycles", "table1.csv", "bb_cycles");
    for column in ["cycles", "improvement", "util"] {
        agree(
            "table2.csv",
            &format!("BF_{column}"),
            "table1.csv",
            &format!("conv_IUPO_{column}"),
        );
    }
    // The whole-program convergent form is Table 3's (IUPO) column.
    agree(
        "table3.csv",
        "conv_IUPO_blocks",
        "whole_program.csv",
        "hb_blocks",
    );
    // One basic-block baseline across the SPEC-suite tables.
    agree("table3.csv", "bb_blocks", "table2_budget.csv", "bb_blocks");
    agree("table3.csv", "bb_blocks", "whole_program.csv", "bb_blocks");
}

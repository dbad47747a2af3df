//! CSV serialization of experiment results, for plotting Figure 7 and
//! archiving table data (`summary` writes these under `results/`).
//!
//! Every table writes its rows through [`write_rows`], which owns the
//! poisoned-row format; a table supplies only its header and column cells.

use crate::fig7::Fit;
use crate::matrix::Row;
use std::fmt::Write as _;

/// The sentinel written in place of numbers for a poisoned row. Downstream
/// consumers (plot scripts, spreadsheet imports) can filter on the first
/// data column equalling this token.
pub const POISONED_SENTINEL: &str = "POISONED";

/// A failure message flattened to a single CSV-safe cell (no commas, no
/// newlines).
fn csv_safe(msg: &str) -> String {
    msg.replace(['\n', '\r'], " ").replace(',', ";")
}

/// The CSV-safe, distinct column-name prefix of a table label: spaces
/// become `_`, and a parenthesised (convergent) phase group becomes
/// `conv_` plus its phases, so `(IUP)O` → `conv_IUP_O` and `(IUPO)` →
/// `conv_IUPO` stay apart from `IUPO`.
pub fn slug(label: &str) -> String {
    let body = label.trim_matches(['(', ')']).replace([')', ' '], "_");
    if label.starts_with('(') {
        format!("conv_{body}")
    } else {
        body
    }
}

/// `,<slug>_<suffix>` for every suffix of every column of the first healthy
/// row, in column order — a table header's per-column part (empty when
/// every row is poisoned).
pub fn label_columns(rows: &[Row], suffixes: &[&str]) -> String {
    let mut out = String::new();
    for label in crate::matrix::labels(rows) {
        let slug = slug(label);
        for suffix in suffixes {
            let _ = write!(out, ",{slug}_{suffix}");
        }
    }
    out
}

/// A table as CSV: the `header` line, then one line per row — its name
/// followed by `cells(row)` (which starts with a comma) for a healthy row,
/// or `name,POISONED,<message>` for a poisoned one: a sentinel line, never
/// fabricated zeros.
pub fn write_rows(header: &str, rows: &[Row], cells: impl Fn(&Row) -> String) -> String {
    let mut out = format!("{header}\n");
    for r in rows {
        match &r.error {
            Some(err) => {
                let _ = writeln!(out, "{},{POISONED_SENTINEL},{}", r.name, csv_safe(err));
            }
            None => {
                let _ = writeln!(out, "{}{}", r.name, cells(r));
            }
        }
    }
    out
}

/// The trailing comment line recording a least-squares fit.
pub fn fit_line(fit: &Fit) -> String {
    format!(
        "# fit: slope={:.4} intercept={:.2} r2={:.4}\n",
        fit.slope, fit.intercept, fit.r2
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_are_distinct_and_csv_safe() {
        let labels = ["UPIO", "IUPO", "(IUP)O", "(IUPO)", "Convergent VLIW", "BF"];
        let slugs: Vec<String> = labels.iter().map(|l| slug(l)).collect();
        assert_eq!(
            slugs,
            [
                "UPIO",
                "IUPO",
                "conv_IUP_O",
                "conv_IUPO",
                "Convergent_VLIW",
                "BF"
            ]
        );
        for s in &slugs {
            assert!(
                s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "{s}"
            );
        }
    }
}

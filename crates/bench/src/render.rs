//! Plain-text table rendering shared by the experiment binaries.

use crate::matrix::{labels, Measure, Row};

/// Render a table: a header row plus data rows, columns padded to fit.
pub fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            if i == 0 {
                line.push_str(&format!("{:<width$}", cell, width = widths[i]));
            } else {
                line.push_str(&format!("{:>width$}", cell, width = widths[i]));
            }
        }
        line
    };
    out.push_str(&fmt_row(header, &widths));
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Lays out an `Average` row's cells from the mean improvement of each
/// column (see [`render_rows`]).
pub type AverageCells = fn(&[f64]) -> Vec<String>;

/// Render matrix rows under `header`. A healthy row shows its name and
/// `cells(row)`; a poisoned one its name and `FAILED: <error>`. With
/// `average`, an `Average` row over the healthy rows follows: `average`
/// lays out the mean improvement of each column (the portfolio's last, when
/// the rows have one) after the row's name.
pub fn render_rows(
    header: Vec<String>,
    rows: &[Row],
    cells: impl Fn(&Row) -> Vec<String>,
    average: Option<AverageCells>,
) -> String {
    let mut body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| match &r.error {
            Some(err) => vec![r.name.clone(), format!("FAILED: {err}")],
            None => std::iter::once(r.name.clone()).chain(cells(r)).collect(),
        })
        .collect();
    let healthy: Vec<&Row> = rows.iter().filter(|r| r.error.is_none()).collect();
    if let (Some(average), Some(first)) = (average, healthy.first()) {
        let n = healthy.len() as f64;
        let mut means: Vec<f64> = (0..first.cells.len())
            .map(|k| healthy.iter().map(|r| r.cells[k].improvement).sum::<f64>() / n)
            .collect();
        if first.portfolio.is_some() {
            let sum: f64 = healthy
                .iter()
                .filter_map(|r| r.portfolio.as_ref())
                .map(|p| p.improvement)
                .sum();
            means.push(sum / n);
        }
        body.push(
            std::iter::once("Average".to_string())
                .chain(average(&means))
                .collect(),
        );
    }
    render_table(&header, &body)
}

/// Render the paper's plain improvement layout (Tables 2 and 3): the
/// baseline's count under `baseline` (`BB cycles`, `BB blocks`), then each
/// column's percent improvement, then the `Average` row.
pub fn render_improvements(rows: &[Row], baseline: &str, count: fn(&Measure) -> u64) -> String {
    let mut header: Vec<String> = vec!["benchmark".into(), baseline.into()];
    header.extend(labels(rows).into_iter().map(String::from));
    let cells = |r: &Row| {
        let mut row = vec![count(&r.baseline).to_string()];
        row.extend(r.cells.iter().map(|c| pct(c.improvement)));
        row
    };
    render_rows(
        header,
        rows,
        cells,
        Some(|means| {
            let mut avg = vec![String::new()];
            avg.extend(means.iter().map(|m| pct(*m)));
            avg
        }),
    )
}

/// Format a percentage with one decimal, like the paper's tables.
pub fn pct(v: f64) -> String {
    format!("{v:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let header = vec!["name".into(), "x".into()];
        let rows = vec![
            vec!["long_benchmark".into(), "1.5".into()],
            vec!["b".into(), "100.0".into()],
        ];
        let t = render_table(&header, &rows);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("long_benchmark"));
        // Right-aligned numeric column.
        assert!(lines[3].ends_with("100.0"));
    }

    #[test]
    fn pct_format() {
        assert_eq!(pct(16.24), "16.2");
        assert_eq!(pct(-5.0), "-5.0");
    }
}

//! Fixed-width text tables for experiment output.
//!
//! The experiment binaries print paper-style tables; this module keeps the
//! formatting in one place (right-aligned numeric cells, a header rule,
//! stable column widths) so every table and figure harness reads the same.

use axcc_core::axioms::Metric;
use axcc_core::AxiomScores;
use std::fmt::Write as _;

/// A simple column-aligned text table.
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    ///
    /// # Panics
    ///
    /// Panics if the row's length differs from the header's.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row arity {} != header arity {}",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with a header rule; first column left-aligned, the rest
    /// right-aligned (numeric convention).
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                if i == 0 {
                    let _ = write!(out, "{:<width$}", cell, width = widths[i]);
                } else {
                    let _ = write!(out, "{:>width$}", cell, width = widths[i]);
                }
            }
            out.push('\n');
        };
        write_row(&self.headers, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(row, &mut out);
        }
        out
    }
}

/// Format a score for table cells: fixed 3 decimals, `inf` for unbounded,
/// `-` for absent.
pub fn fmt_score(v: f64) -> String {
    if v.is_nan() {
        "-".to_string()
    } else if v.is_infinite() {
        "inf".to_string()
    } else if (f64::MIN_POSITIVE..0.0005).contains(&v.abs()) {
        // Preserve tiny-but-nonzero scores (e.g. Theorem 3 bounds ~1e-4).
        format!("{v:.1e}")
    } else {
        format!("{v:.3}")
    }
}

/// An empty table of protocols' eight scores, one column per metric in
/// [`Metric::ALL`] order; [`scores_row`] fills it.
pub fn scores_table() -> TextTable {
    TextTable::new([
        "protocol", "eff", "fast", "loss", "fair", "conv", "robust", "friendly", "latency",
    ])
}

/// A [`scores_table`] row: `name`, then `s`'s eight scores.
pub fn scores_row(name: String, s: &AxiomScores) -> Vec<String> {
    let scores = Metric::ALL.map(|m| fmt_score(s.get(m)));
    std::iter::once(name).chain(scores).collect()
}

/// Format a ratio as the paper's Table 2 does: `2.48x`.
pub fn fmt_ratio(v: f64) -> String {
    format!("{v:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(["Protocol", "Eff", "Fair"]);
        t.row(["AIMD(1,0.5)", "0.500", "1.000"]);
        t.row(["MIMD(1.01,0.875)", "0.875", "0.000"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equal width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
        assert!(lines[0].starts_with("Protocol"));
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        TextTable::new(["a", "b"]).row(["only one"]);
    }

    #[test]
    fn score_formatting() {
        assert_eq!(fmt_score(0.5), "0.500");
        assert_eq!(fmt_score(f64::INFINITY), "inf");
        assert_eq!(fmt_score(f64::NAN), "-");
        assert_eq!(fmt_score(0.0), "0.000");
        assert_eq!(fmt_score(0.0001234), "1.2e-4");
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(fmt_ratio(2.481), "2.48x");
        assert_eq!(fmt_ratio(1.0), "1.00x");
    }

    #[test]
    fn len_and_empty() {
        let mut t = TextTable::new(["x"]);
        assert!(t.is_empty());
        t.row(["1"]);
        assert_eq!(t.len(), 1);
    }
}

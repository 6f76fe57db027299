//! Aligned ASCII tables for the experiment binaries.

use std::fmt::Write as _;

/// A simple column-aligned table builder.
#[derive(Clone, Debug, Default)]
pub struct AsciiTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl AsciiTable {
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let sep = |out: &mut String| {
            for w in &widths {
                let _ = write!(out, "+{}", "-".repeat(w + 2));
            }
            out.push_str("+\n");
        };
        sep(&mut out);
        for (i, h) in self.header.iter().enumerate() {
            let _ = write!(out, "| {:width$} ", h, width = widths[i]);
        }
        out.push_str("|\n");
        sep(&mut out);
        for row in &self.rows {
            for i in 0..cols {
                let _ = write!(out, "| {:>width$} ", row[i], width = widths[i]);
            }
            out.push_str("|\n");
        }
        sep(&mut out);
        out
    }
}

/// Format a ratio as the paper's normalized execution time (1.00 = the
/// full-map baseline).
pub fn norm(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = AsciiTable::new(&["proto", "cycles"]);
        t.row(&["fm".into(), "123456".into()]);
        t.row(&["L1".into(), "9".into()]);
        let s = t.render();
        assert!(s.contains("proto"));
        assert!(s.contains("cycles"));
        assert!(s.contains("| 123456 |"));
        let widths: Vec<usize> = s.lines().map(str::len).collect();
        assert!(
            widths.windows(2).all(|w| w[0] == w[1]),
            "ragged table:\n{s}"
        );
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_arity_checked() {
        let mut t = AsciiTable::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn norm_formats_three_decimals() {
        assert_eq!(norm(1.0), "1.000");
        assert_eq!(norm(0.97312), "0.973");
    }
}

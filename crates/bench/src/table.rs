//! Minimal fixed-width text table renderer for the experiment reports.

/// A text table with a header row and aligned columns.
///
/// # Example
///
/// ```
/// use gust_bench::TextTable;
///
/// let mut t = TextTable::new(["matrix", "cycles"]);
/// t.push_row(["scircuit", "75000"]);
/// let s = t.render();
/// assert!(s.contains("scircuit"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<I, S>(header: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header's.
    pub fn push_row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.header.len(),
            "row width must match header width"
        );
        self.rows.push(row);
    }

    /// Renders with padded columns, a separator under the header, and a
    /// trailing newline.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a float in short engineering style (3 significant digits).
#[must_use]
pub fn sig3(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    let a = v.abs();
    if (0.01..1000.0).contains(&a) {
        format!("{v:.3}")
            .trim_end_matches('0')
            .trim_end_matches('.')
            .to_string()
    } else {
        format!("{v:.2e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(["a", "long-header"]);
        t.push_row(["wide-cell", "x"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a          long-header"));
        assert!(lines[2].starts_with("wide-cell  x"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_mismatched_rows() {
        let mut t = TextTable::new(["a", "b"]);
        t.push_row(["only-one"]);
    }

    #[test]
    fn sig3_ranges() {
        assert_eq!(sig3(0.0), "0");
        assert_eq!(sig3(1.5), "1.5");
        assert_eq!(sig3(411.0), "411");
        assert_eq!(sig3(1.234e-5), "1.23e-5");
        assert_eq!(sig3(5.0e6), "5.00e6");
    }
}

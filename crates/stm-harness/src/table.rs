//! Minimal text-table formatting for experiment output.

use std::fmt;

/// A simple column-aligned table with a title and caption.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Table title (e.g. `"Figure 2: STMBench7 throughput"`).
    pub title: String,
    /// Explanatory caption printed under the title.
    pub caption: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (each the same length as `headers`).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, caption: impl Into<String>) -> Self {
        Table {
            title: title.into(),
            caption: caption.into(),
            headers: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Sets the column headers.
    pub fn headers<I, S>(mut self, headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.headers = headers.into_iter().map(Into::into).collect();
        self
    }

    /// Appends a data row.
    pub fn push_row<I, S>(&mut self, row: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.rows.push(row.into_iter().map(Into::into).collect());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn column_widths(&self) -> Vec<usize> {
        let columns = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(columns) {
                if cell.len() > widths[i] {
                    widths[i] = cell.len();
                }
            }
        }
        widths
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.title)?;
        if !self.caption.is_empty() {
            writeln!(f, "{}", self.caption)?;
        }
        let widths = self.column_widths();
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                let width = widths.get(i).copied().unwrap_or(cell.len());
                line.push_str(&format!("{cell:>width$}  "));
            }
            writeln!(f, "{}", line.trim_end())
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().map(|w| w + 2).sum();
        writeln!(f, "{}", "-".repeat(total.max(4)))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats a throughput value in the paper's "10^3 tx/s" style.
pub fn format_ktps(throughput: f64) -> String {
    format!("{:.2}", throughput / 1_000.0)
}

/// Formats a duration in seconds.
pub fn format_seconds(duration: std::time::Duration) -> String {
    format!("{:.3}", duration.as_secs_f64())
}

/// Formats a "speedup minus one" value as the paper's figures do.
pub fn format_speedup_minus_one(ratio: f64) -> String {
    format!("{:+.3}", ratio - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_header_and_rows() {
        let mut table = Table::new("Figure X", "caption").headers(["threads", "tx/s"]);
        table.push_row(["1", "100"]);
        table.push_row(["2", "180"]);
        let rendered = table.to_string();
        assert!(rendered.contains("Figure X"));
        assert!(rendered.contains("caption"));
        assert!(rendered.contains("threads"));
        assert!(rendered.contains("180"));
        assert_eq!(table.len(), 2);
        assert!(!table.is_empty());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(format_ktps(2_500.0), "2.50");
        assert_eq!(
            format_seconds(std::time::Duration::from_millis(1500)),
            "1.500"
        );
        assert_eq!(format_speedup_minus_one(1.25), "+0.250");
        assert_eq!(format_speedup_minus_one(0.9), "-0.100");
    }

    #[test]
    fn columns_align_to_longest_cell() {
        let mut table = Table::new("T", "").headers(["a", "b"]);
        table.push_row(["looooong", "1"]);
        let widths = table.column_widths();
        assert_eq!(widths[0], "looooong".len());
    }

    #[test]
    fn an_empty_caption_prints_no_line_and_an_empty_table_a_short_rule() {
        let table = Table::new("T", "");
        assert!(table.is_empty());
        assert_eq!(table.to_string(), "== T ==\n\n----\n");
        let table = Table::new("T", "why").headers(["a"]);
        assert_eq!(table.to_string(), "== T ==\nwhy\na\n----\n");
    }

    #[test]
    fn cells_are_right_aligned_and_lines_carry_no_trailing_space() {
        let mut table = Table::new("T", "").headers(["threads", "x"]);
        table.push_row(["1", "12345"]);
        let rendered = table.to_string();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines[1], "threads      x");
        assert_eq!(lines[2], "-".repeat(7 + 2 + 5 + 2));
        assert_eq!(lines[3], "      1  12345");
        assert!(lines.iter().all(|line| !line.ends_with(' ')));
    }

    #[test]
    fn a_row_longer_than_the_headers_still_renders_every_cell() {
        let mut table = Table::new("T", "").headers(["a"]);
        table.push_row(["1", "extra"]);
        assert_eq!(table.column_widths(), vec![1]);
        let rendered = table.to_string();
        assert_eq!(rendered.lines().last(), Some("1  extra"));
    }

    #[test]
    fn formatters_round_to_their_stated_precision() {
        assert_eq!(format_ktps(0.0), "0.00");
        assert_eq!(format_ktps(1_234_567.0), "1234.57");
        assert_eq!(
            format_seconds(std::time::Duration::from_micros(1_600)),
            "0.002"
        );
        assert_eq!(format_seconds(std::time::Duration::ZERO), "0.000");
        assert_eq!(format_speedup_minus_one(1.0), "+0.000");
    }
}

//! Minimal fixed-width table rendering for the experiments.
//!
//! The experiments of `ptp_bench::paper` print the same rows the paper
//! states; this module keeps their formatting consistent and dependency-free.

/// A simple left-aligned text table.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Table {
        Table { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Table {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders with padded columns and a separator under the header.
    /// Widths count characters, not bytes, so a cell like `∞ → 5T rule`
    /// pads like any other.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let width = |cell: &String| cell.chars().count();
        let mut widths: Vec<usize> = self.header.iter().map(width).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(width(&row[c]));
            }
        }
        let render_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    line.push_str("  ");
                }
                line.push_str(cell);
                line.extend(std::iter::repeat_n(' ', widths[c] - width(cell)));
            }
            line.trim_end().to_string()
        };
        let mut out = render_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_padded_columns() {
        let mut t = Table::new(vec!["case", "bound"]);
        t.row(vec!["2.1", "T"]);
        t.row(vec!["3.2.2.2", "5T"]);
        t.row(vec!["∞ → 5T rule", "∞"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with("case"));
        assert!(lines[2].starts_with("2.1"));
        // Column alignment, in characters: "bound"/"T"/"∞" start at the same
        // column, and the separator is exactly as wide as the header.
        let column = |line: &str, byte: usize| line[..byte].chars().count();
        let col = column(lines[0], lines[0].find("bound").unwrap());
        assert_eq!(column(lines[2], lines[2].find('T').unwrap()), col);
        assert_eq!(column(lines[4], lines[4].rfind('∞').unwrap()), col);
        assert_eq!(lines[1].chars().count(), lines[0].chars().count());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_panics() {
        Table::new(vec!["a", "b"]).row(vec!["only-one"]);
    }
}

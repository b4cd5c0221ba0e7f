//! Plain-text table formatting for the experiment binaries.

/// A simple fixed-width table printer (also emits GitHub-flavoured markdown
/// so rows can be pasted straight into EXPERIMENTS.md).
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (must have as many cells as there are headers).
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match the header"
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` iff no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        widths
    }

    /// Render as fixed-width text.
    fn to_text(&self) -> String {
        let widths = self.widths();
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let header: Vec<String> = self
            .headers
            .iter()
            .zip(&widths)
            .map(|(h, w)| format!("{h:>w$}", w = w))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            out.push_str(&cells.join("  "));
            out.push('\n');
        }
        out
    }

    /// Render as a markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.title));
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.headers.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// Print the text rendering to stdout.
    pub fn print(&self) {
        println!("{}", self.to_text());
    }
}

/// Format a `Duration` with a stable, compact unit.
pub fn fmt_duration(d: std::time::Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.0}µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn table_renders_text_and_markdown() {
        let mut t = Table::new("demo", &["p", "time"]);
        t.add_row(vec!["1".into(), "2.0s".into()]);
        t.add_row(vec!["16".into(), "0.5s".into()]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let text = t.to_text();
        assert!(text.contains("demo"));
        assert!(text.contains("16"));
        let md = t.to_markdown();
        assert!(md.contains("| p | time |"));
        assert!(md.contains("| 16 | 0.5s |"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_rows_are_rejected() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.add_row(vec!["1".into()]);
    }

    #[test]
    fn duration_formatting_uses_sane_units() {
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.00ms");
        assert_eq!(fmt_duration(Duration::from_micros(7)), "7µs");
    }
}

//! Plain-text tables and CSV for the experiment binaries.
//!
//! Deliberately dependency-free: experiment outputs are rows of numbers
//! with headers, rendered as aligned ASCII (for the terminal) or CSV (for
//! plotting elsewhere).

/// A simple column-aligned table builder.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; must match the header arity.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity {} != header arity {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let emit = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(c);
                for _ in c.len()..widths[i] {
                    out.push(' ');
                }
            }
            // Trim trailing padding.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        emit(&mut out, &self.headers);
        let sep: Vec<String> = (0..cols).map(|i| "-".repeat(widths[i])).collect();
        emit(&mut out, &sep);
        for row in &self.rows {
            emit(&mut out, row);
        }
        out
    }

    /// Render as CSV (no quoting needed for numeric content; commas in
    /// cells are replaced by semicolons defensively).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let emit = |out: &mut String, cells: &[String]| {
            let line: Vec<String> = cells.iter().map(|c| c.replace(',', ";")).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        emit(&mut out, &self.headers);
        for row in &self.rows {
            emit(&mut out, row);
        }
        out
    }
}

/// Format a float with sensible experiment precision.
pub fn fnum(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new(vec!["n", "phi"]);
        t.row(vec!["128", "0.5"]);
        t.row(vec!["4096", "1.25"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("n "));
        assert!(lines[1].starts_with("----"));
        assert!(s.contains("4096"));
    }

    #[test]
    fn csv_roundtrip_shape() {
        let mut t = TextTable::new(vec!["a", "b", "c"]);
        t.row(vec!["1", "2", "3"]);
        let csv = t.to_csv();
        assert_eq!(csv, "a,b,c\n1,2,3\n");
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        TextTable::new(vec!["a"]).row(vec!["1", "2"]);
    }

    #[test]
    fn fnum_ranges() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(0.12345), "0.1235");
        assert_eq!(fnum(12.345), "12.35");
        assert_eq!(fnum(12345.6), "12346");
    }
}

//! Shared scaffolding for the experiment binaries.
//!
//! Every `src/bin/*` target regenerates one table or figure of the
//! paper. They share this crate's plain-text table renderer and the
//! seed/scale banner, so outputs are uniform and reproducible. Set
//! `ELEV_SCALE=full` for paper-scale runs (minutes); the default
//! `quick` scale finishes in seconds. Set `ELEV_SEED=<u64>` to change
//! the master seed (default 42), and `ELEV_THREADS=<n>` to size the
//! worker pool (results are bit-identical at every thread count).
//!
//! [`harness`] is the timing harness the `kernels`, `train` and `serve`
//! bench suites share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;

use elev_core::experiments::ExperimentScale;
use evalkit::FoldOutcome;

/// The master seed for an experiment run (`ELEV_SEED`, default 42).
pub fn seed_from_env() -> u64 {
    std::env::var("ELEV_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(42)
}

/// Prints the standard banner and returns `(seed, scale)`.
pub fn start(experiment: &str, paper_ref: &str) -> (u64, ExperimentScale) {
    let seed = seed_from_env();
    let scale = ExperimentScale::from_env();
    let mode = if scale == ExperimentScale::full() {
        "full"
    } else if scale == ExperimentScale::medium() {
        "medium"
    } else {
        "quick"
    };
    let threads = exec::Executor::from_env().threads();
    println!("== {experiment} — reproducing {paper_ref} ==");
    println!("seed {seed}, scale {mode} ({scale:?}), threads {threads}");
    println!();
    (seed, scale)
}

/// A minimal fixed-width text table.
#[derive(Debug, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
        .validate()
    }

    fn validate(self) -> Self {
        assert!(!self.header.is_empty(), "table needs columns");
        self
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders and prints.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a percentage with one decimal, like the paper's tables.
pub fn pct(v: f64) -> String {
    format!("{:.1}", v * 100.0)
}

/// Standard A/R/F1 cells for a [`FoldOutcome`] (the Tables V/VI layout;
/// A is the paper's one-vs-rest accuracy, see `evalkit` docs).
pub fn arf_cells(o: &FoldOutcome) -> Vec<String> {
    vec![pct(o.ovr_accuracy), pct(o.recall), pct(o.f1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("long-name"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = TextTable::new(&["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn pct_formats_like_paper() {
        assert_eq!(pct(0.9583), "95.8");
        assert_eq!(pct(1.0), "100.0");
    }
}

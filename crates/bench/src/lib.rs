//! Shared harness support for the figure/table reproduction benches.
//!
//! Every bench target prints its figure's series as an aligned table on
//! stdout and writes `target/experiments/<id>.csv` so results can be
//! plotted. Working-set sizes are scaled down from the paper's tens of
//! gigabytes to tens-to-hundreds of megabytes (DESIGN.md §1: far-memory
//! behaviour is scale-invariant in the pattern and the compute/access
//! ratio); thread counts and offload ratios match the paper.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

pub mod scale_bench;

/// Collects one experiment's rows and emits table + CSV.
pub struct Experiment {
    id: &'static str,
    title: &'static str,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Experiment {
    /// Starts an experiment with CSV column headers.
    pub fn new(id: &'static str, title: &'static str, columns: &[&str]) -> Self {
        println!("\n=== {id}: {title} ===");
        Experiment {
            id,
            title,
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds one row of cells (already formatted).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Prints the aligned table and writes the CSV; returns the CSV path.
    pub fn finish(&self) -> PathBuf {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", fmt_row(&self.columns));
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }

        let dir =
            PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
                .join("experiments");
        fs::create_dir_all(&dir).expect("create experiments dir");
        let path = dir.join(format!("{}.csv", self.id));
        let mut f = fs::File::create(&path).expect("create csv");
        writeln!(f, "# {}: {}", self.id, self.title).expect("write csv");
        writeln!(f, "{}", self.columns.join(",")).expect("write csv");
        for row in &self.rows {
            writeln!(f, "{}", row.join(",")).expect("write csv");
        }
        println!("-> {}", path.display());
        path
    }
}

/// Standard scaled-down experiment sizes (pages).
pub mod scale {
    /// Working set for app-level figures (~190 MiB).
    pub const APP_WSS: u64 = 49_152;
    /// Working set for fault-storm microbenchmarks (~470 MiB).
    pub const STORM_WSS: u64 = 120_000;
    /// Per-thread ops for app-level figures.
    pub const APP_OPS: u64 = 4_000;
    /// Paper thread count for throughput figures.
    pub const THREADS: usize = 48;
    /// Paper thread count for latency figures (single socket).
    pub const LAT_THREADS: usize = 24;
}

/// Formats a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a float with 1 decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_roundtrip() {
        let mut e = Experiment::new("selftest", "self test", &["a", "b"]);
        e.row(vec!["1".into(), "2".into()]);
        let path = e.finish();
        let content = std::fs::read_to_string(path).expect("csv readable");
        assert!(content.contains("a,b"));
        assert!(content.contains("1,2"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut e = Experiment::new("selftest2", "x", &["a", "b"]);
        e.row(vec!["1".into()]);
    }
}

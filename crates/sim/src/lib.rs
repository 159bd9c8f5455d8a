//! Experiment infrastructure shared by the paper-reproduction binaries.
//!
//! Nothing here is specific to replica placement: [`Summary`] aggregates
//! repeated measurements, [`Table`] renders the paper-style grids as
//! aligned text, [`Csv`] and [`JsonLines`] persist raw series for
//! external plotting, [`json`] is the one JSON reader and writer (sweep
//! specs, churn traces, reports, certificates), [`record`] is the one
//! JSONL record shape and [`mod@bench`] the one benchmark-snapshot shape,
//! [`churn`] generates seeded cluster-membership event
//! traces for the dynamic experiments, [`topo`] generates seeded
//! failure-domain topology layouts, and [`seed_for`] derives stable
//! per-run RNG seeds so every experiment is reproducible run-to-run.

#![forbid(unsafe_code)]

pub mod bench;
pub mod churn;
pub mod json;
pub mod record;
pub mod topo;
pub mod workload;

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Mean / standard deviation / extrema of a sample.
///
/// # Examples
///
/// ```
/// use wcp_sim::Summary;
///
/// let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
/// assert_eq!(s.mean, 5.0);
/// assert!((s.std - 2.138).abs() < 1e-3); // sample std (n−1)
/// assert_eq!(s.min, 2.0);
/// assert_eq!(s.max, 9.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (`n−1` denominator; 0 for n < 2).
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Sample size.
    pub count: usize,
}

impl Summary {
    /// Aggregates a slice (empty slices give a zeroed summary).
    #[must_use]
    pub fn of(values: &[f64]) -> Self {
        let count = values.len();
        if count == 0 {
            return Self {
                mean: 0.0,
                std: 0.0,
                min: 0.0,
                max: 0.0,
                count,
            };
        }
        let mean = values.iter().sum::<f64>() / count as f64;
        let var = if count > 1 {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (count as f64 - 1.0)
        } else {
            0.0
        };
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &v in values {
            min = min.min(v);
            max = max.max(v);
        }
        Self {
            mean,
            std: var.sqrt(),
            min,
            max,
            count,
        }
    }
}

/// Derives a stable 64-bit seed from an experiment label and run index
/// (FNV-1a), so reruns and per-figure streams are independent yet
/// reproducible.
///
/// # Examples
///
/// ```
/// assert_eq!(wcp_sim::seed_for("fig07", 3), wcp_sim::seed_for("fig07", 3));
/// assert_ne!(wcp_sim::seed_for("fig07", 3), wcp_sim::seed_for("fig07", 4));
/// ```
#[must_use]
pub fn seed_for(label: &str, index: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in label.bytes().chain(index.to_le_bytes()) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A right-aligned text table in the style of the paper's figures.
///
/// # Examples
///
/// ```
/// use wcp_sim::Table;
///
/// let mut t = Table::new(vec!["b".into(), "k=2".into(), "k=3".into()]);
/// t.row(vec!["600".into(), "75".into(), "57".into()]);
/// let text = t.render();
/// assert!(text.contains("b"));
/// assert!(text.lines().count() >= 3);
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
}

impl Table {
    /// Creates a table with column headers.
    #[must_use]
    pub fn new(headers: Vec<String>) -> Self {
        Self {
            headers,
            rows: Vec::new(),
            title: None,
        }
    }

    /// Sets a title line printed above the header.
    pub fn title(&mut self, title: impl Into<String>) -> &mut Self {
        self.title = Some(title.into());
        self
    }

    /// Appends a row (shorter rows are padded with blanks).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Renders the aligned table.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain([self.headers.len()])
            .max()
            .unwrap_or(0);
        let mut width = vec![0usize; cols];
        let measure = |row: &[String], width: &mut Vec<usize>| {
            for (i, cell) in row.iter().enumerate() {
                width[i] = width[i].max(cell.chars().count());
            }
        };
        measure(&self.headers, &mut width);
        for row in &self.rows {
            measure(row, &mut width);
        }
        let mut out = String::new();
        if let Some(t) = &self.title {
            let _ = writeln!(out, "{t}");
        }
        let fmt_row = |row: &[String], out: &mut String| {
            for (i, w) in width.iter().enumerate() {
                let cell = row.get(i).map_or("", String::as_str);
                let pad = w - cell.chars().count();
                let _ = write!(out, "{}{}  ", " ".repeat(pad), cell);
            }
            let _ = writeln!(out);
        };
        fmt_row(&self.headers, &mut out);
        let total: usize = width.iter().map(|w| w + 2).sum();
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            fmt_row(row, &mut out);
        }
        out
    }
}

/// Folds commas out of a CSV cell (the [`Csv`] writer does not quote),
/// e.g. strategy names like `simple(x=1, λ=10)`.
///
/// # Examples
///
/// ```
/// assert_eq!(wcp_sim::csv_safe("simple(x=1, λ=10)"), "simple(x=1; λ=10)");
/// assert_eq!(wcp_sim::csv_safe("ring"), "ring");
/// ```
#[must_use]
pub fn csv_safe(cell: &str) -> String {
    cell.replace(',', ";")
}

/// Line-oriented CSV writer (no quoting — writers must keep commas out of
/// cells; [`csv_safe`] folds them from free-form labels).
#[derive(Debug)]
pub struct Csv {
    path: PathBuf,
    lines: Vec<String>,
}

impl Csv {
    /// Starts a CSV with a header row.
    #[must_use]
    pub fn new(path: impl Into<PathBuf>, header: &[&str]) -> Self {
        Self {
            path: path.into(),
            lines: vec![header.join(",")],
        }
    }

    /// Appends a data row.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        self.lines.push(cells.join(","));
        self
    }

    /// Writes the file, creating parent directories.
    ///
    /// # Errors
    ///
    /// I/O errors from create/write.
    pub fn write(&self) -> std::io::Result<()> {
        if let Some(parent) = self.path.parent() {
            fs::create_dir_all(parent)?;
        }
        let mut f = fs::File::create(&self.path)?;
        for line in &self.lines {
            writeln!(f, "{line}")?;
        }
        Ok(())
    }

    /// The output path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Line-oriented JSON writer: one JSON object per line (the `jsonl`
/// convention), so sweep results stream to disk without an in-memory
/// document model.
///
/// # Examples
///
/// ```
/// use wcp_sim::JsonLines;
///
/// let dir = std::env::temp_dir().join("wcp-sim-doc-jsonl");
/// let mut out = JsonLines::new(dir.join("cells.jsonl"));
/// out.record("{\"cell\": 0}");
/// assert_eq!(out.len(), 1);
/// out.write()?;
/// # std::fs::remove_dir_all(dir).ok();
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct JsonLines {
    path: PathBuf,
    lines: Vec<String>,
}

impl JsonLines {
    /// Starts an empty JSON-lines file at `path`.
    #[must_use]
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            lines: Vec::new(),
        }
    }

    /// Appends one pre-serialized JSON object.
    pub fn record(&mut self, json: impl Into<String>) -> &mut Self {
        self.lines.push(json.into());
        self
    }

    /// Number of records buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True when no record has been appended yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Writes the file, creating parent directories.
    ///
    /// # Errors
    ///
    /// I/O errors from create/write.
    pub fn write(&self) -> std::io::Result<()> {
        if let Some(parent) = self.path.parent() {
            fs::create_dir_all(parent)?;
        }
        let mut f = fs::File::create(&self.path)?;
        for line in &self.lines {
            writeln!(f, "{line}")?;
        }
        Ok(())
    }

    /// The output path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Resolves the directory experiment CSVs are written to: the
/// `WCP_RESULTS_DIR` environment variable if set, else `results/` under
/// the current directory.
#[must_use]
pub fn results_dir() -> PathBuf {
    std::env::var_os("WCP_RESULTS_DIR").map_or_else(|| PathBuf::from("results"), PathBuf::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_single_value() {
        let s = Summary::of(&[5.0]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.count, 1);
    }

    #[test]
    fn summary_empty() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn table_alignment() {
        let mut t = Table::new(vec!["a".into(), "long-header".into()]);
        t.row(vec!["12345".into(), "1".into()]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        // All rows share the same rendered width.
        assert!(lines[0].trim_end().len() <= lines[1].len());
    }

    #[test]
    fn seeds_are_stable_and_distinct() {
        let a = seed_for("x", 0);
        let b = seed_for("x", 1);
        let c = seed_for("y", 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, seed_for("x", 0));
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("wcp-sim-test");
        let path = dir.join("out.csv");
        let mut csv = Csv::new(&path, &["a", "b"]);
        csv.row(&["1".into(), "2".into()]);
        csv.write().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "a,b\n1,2\n");
        let _ = std::fs::remove_dir_all(dir);
    }
}

//! # ompss-bench — the paper's evaluation, regenerated
//!
//! One registry, [`figures::ALL`], lists every figure/table of Bueno et
//! al. (IPPS 2012) §IV–V that `results/` holds; the `all_figures`
//! binary regenerates all of it, or the ids named on its command line
//! (`all_figures fig05 fig09`):
//!
//! | id | reproduces |
//! |----|------------|
//! | `fig05` | Fig. 5 — matmul, multi-GPU, cache × scheduler (+ `fig05_multigpu.prv`/`.row`) |
//! | `fig06` | Fig. 6 — STREAM, multi-GPU, cache × scheduler |
//! | `fig07` | Fig. 7 — Perlin, multi-GPU, Flush/NoFlush × cache |
//! | `fig08` | Fig. 8 — N-Body, multi-GPU, cache policies |
//! | `fig09` | Fig. 9 — matmul, cluster, StoS × init × presend (+ `fig09_cluster.prv`/`.row`) |
//! | `fig10` | Fig. 10 — matmul, best OmpSs vs MPI+CUDA |
//! | `fig11` | Fig. 11 — STREAM, cluster, OmpSs vs MPI+CUDA |
//! | `fig12` | Fig. 12 — Perlin, cluster, Flush/NoFlush |
//! | `fig13` | Fig. 13 — N-Body, cluster, OmpSs vs MPI+CUDA |
//! | `figWS` | weak scaling, flat vs sharded control plane (beyond the paper) |
//! | `table1` | Table I — useful lines of code per version |
//!
//! Each entry prints an aligned text table (series × sweep points)
//! and saves machine-readable JSON. Absolute values come from the
//! simulated platform models; the *shapes* — who wins, by what factor,
//! where the crossovers sit — are the reproduction targets recorded in
//! `EXPERIMENTS.md`.

#![warn(missing_docs)]

use std::fs;
use std::path::{Path, PathBuf};

use ompss_json::{Json, ToJson};

/// One data point of a series.
#[derive(Debug, Clone)]
pub struct Point {
    /// Sweep coordinate (e.g. "2 GPUs", "4").
    pub x: String,
    /// Metric value.
    pub y: f64,
}

/// One line/bar-group of a figure.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label (e.g. "wb / affinity").
    pub label: String,
    /// Points in sweep order.
    pub points: Vec<Point>,
}

impl Series {
    /// New empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Series { label: label.into(), points: Vec::new() }
    }

    /// Append a point.
    pub fn push(&mut self, x: impl Into<String>, y: f64) {
        self.points.push(Point { x: x.into(), y });
    }

    /// The value at sweep coordinate `x`.
    pub fn at(&self, x: &str) -> Option<f64> {
        self.points.iter().find(|p| p.x == x).map(|p| p.y)
    }
}

/// A regenerated figure or table.
#[derive(Debug, Clone)]
pub struct FigureData {
    /// Identifier (`fig05`, `table1`, ...).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Metric/unit of the y values.
    pub y_label: String,
    /// All series.
    pub series: Vec<Series>,
    /// Shape findings and reproduction notes.
    pub notes: Vec<String>,
    /// Machine-readable run reports keyed by configuration label
    /// (`"<series>@<x><unit>"`); embedded verbatim in the saved JSON.
    pub reports: Vec<(String, Json)>,
}

impl FigureData {
    /// Start a figure.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        FigureData {
            id: id.into(),
            title: title.into(),
            y_label: y_label.into(),
            series: Vec::new(),
            notes: Vec::new(),
            reports: Vec::new(),
        }
    }

    /// Add a completed series.
    pub fn add(&mut self, s: Series) {
        self.series.push(s);
    }

    /// Record a reproduction note (printed and saved).
    pub fn note(&mut self, n: impl Into<String>) {
        self.notes.push(n.into());
    }

    /// Attach the [`RunReport`](ompss_runtime::RunReport) JSON of one
    /// measured configuration, keyed by a label such as `"wb/affinity@4gpus"`.
    pub fn attach_report(&mut self, key: impl Into<String>, report: Json) {
        self.reports.push((key.into(), report));
    }

    /// Find a series by label.
    pub fn series(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Render an aligned text table: one row per series, one column per
    /// sweep coordinate.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} [{}]\n", self.id, self.title, self.y_label));
        let xs: Vec<String> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|p| p.x.clone()).collect())
            .unwrap_or_default();
        let label_w = self.series.iter().map(|s| s.label.len()).max().unwrap_or(8).max(8);
        out.push_str(&format!("{:label_w$}", ""));
        for x in &xs {
            out.push_str(&format!(" {x:>10}"));
        }
        out.push('\n');
        for s in &self.series {
            out.push_str(&format!("{:label_w$}", s.label));
            for x in &xs {
                match s.at(x) {
                    Some(y) => out.push_str(&format!(" {y:>10.1}")),
                    None => out.push_str(&format!(" {:>10}", "-")),
                }
            }
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        out
    }

    /// Print the table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// Save as JSON under `dir/<id>.json`.
    pub fn save(&self, dir: &Path) {
        fs::create_dir_all(dir).expect("create results dir");
        let path = dir.join(format!("{}.json", self.id));
        fs::write(&path, self.to_json().to_pretty_string())
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }
}

impl ToJson for Point {
    fn to_json(&self) -> Json {
        Json::object().field("x", self.x.as_str()).field("y", self.y)
    }
}

impl ToJson for Series {
    fn to_json(&self) -> Json {
        Json::object()
            .field("label", self.label.as_str())
            .field("points", Json::Arr(self.points.iter().map(ToJson::to_json).collect()))
    }
}

impl ToJson for FigureData {
    fn to_json(&self) -> Json {
        let mut reports = Json::object();
        for (k, v) in &self.reports {
            reports.set(k, v.clone());
        }
        Json::object()
            .field("id", self.id.as_str())
            .field("title", self.title.as_str())
            .field("y_label", self.y_label.as_str())
            .field("series", Json::Arr(self.series.iter().map(ToJson::to_json).collect()))
            .field("notes", Json::Arr(self.notes.iter().map(|n| Json::Str(n.clone())).collect()))
            .field("reports", reports)
    }
}

/// The default results directory (`<workspace>/results`).
///
/// Under cargo the manifest dir locates the workspace root; a bare
/// binary invocation (no `CARGO_MANIFEST_DIR`) writes to `./results`
/// rather than guessing at parent directories.
pub fn results_dir() -> PathBuf {
    let p = match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(m) => Path::new(&m).join("../../results"),
        Err(_) => PathBuf::from("results"),
    };
    fs::create_dir_all(&p).expect("create results dir");
    p.canonicalize().expect("canonicalize results dir")
}

/// Path to the apps crate sources (for Table I line counting). Same
/// fallback rule as [`results_dir`]: without cargo's manifest dir,
/// resolve from the workspace root as the working directory.
pub fn apps_src_dir() -> PathBuf {
    let p = match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(m) => Path::new(&m).join("../apps/src"),
        Err(_) => PathBuf::from("crates/apps/src"),
    };
    p.canonicalize().expect("apps source dir")
}

/// Count "useful" lines of a Rust source file, the paper's Table I
/// metric: non-blank lines that are not pure comments (line comments,
/// doc comments, `//!` headers).
pub fn useful_lines(path: &Path) -> usize {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    text.lines().map(str::trim).filter(|l| !l.is_empty()).filter(|l| !l.starts_with("//")).count()
}

pub mod figures;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_and_lookup() {
        let mut s = Series::new("wb");
        s.push("1", 10.0);
        s.push("2", 20.0);
        assert_eq!(s.at("2"), Some(20.0));
        assert_eq!(s.at("4"), None);
    }

    #[test]
    fn render_aligns_columns() {
        let mut f = FigureData::new("figX", "test", "GFLOPS");
        let mut s = Series::new("a");
        s.push("1", 1.0);
        s.push("2", 2.0);
        f.add(s);
        f.note("shape ok");
        let r = f.render();
        assert!(r.contains("figX"));
        assert!(r.contains("note: shape ok"));
        assert!(r.lines().count() >= 4);
    }

    #[test]
    fn useful_lines_skips_comments_and_blanks() {
        let dir = std::env::temp_dir().join("ompss-bench-test");
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("loc.rs");
        fs::write(&p, "// comment\n\nfn main() {\n    //! doc\n    let x = 1; // trailing\n}\n")
            .unwrap();
        assert_eq!(useful_lines(&p), 3);
    }
}

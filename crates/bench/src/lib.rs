//! Shared harness for the table/figure regeneration binaries.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` that regenerates it: `table1` (index sizes), `table2_5`
//! (Tables 2–5, Figures 5–6), `tables6_7` (load balance), `table8` (the
//! time-varying case), and the three `ablation_*` studies (partition, index,
//! metacell size); each binary's module docs say what it reproduces. This
//! library holds what they share: dataset construction with on-disk caching,
//! environment knobs, and plain-text table formatting. A cached dataset
//! that no longer opens (another store format) is rebuilt.
//!
//! Environment knobs:
//!
//! * `OOCISO_DIMS`   — volume dimensions as `NXxNYxNZ` (default `256x256x240`,
//!   the paper's own down-sampled demo size; the full dataset is
//!   2048×2048×1920 — set it if you have the hours and the disk).
//! * `OOCISO_SEED`   — RM proxy seed (default `0x524D2006`).
//! * `OOCISO_STEP`   — default time step for single-step tables (default 250,
//!   matching the paper's Figure 4 demo).
//! * `OOCISO_DATA`   — cache directory (default `target/oociso-bench-data`).

use oociso_cluster::{Cluster, ClusterBuildOptions};
use oociso_volume::{Dims3, RmProxy, Volume};
use std::path::PathBuf;

/// Parse `OOCISO_DIMS` (`NXxNYxNZ`).
pub fn bench_dims() -> Dims3 {
    match std::env::var("OOCISO_DIMS") {
        Ok(s) => {
            let parts: Vec<usize> = s
                .split(['x', 'X'])
                .map(|p| p.parse().expect("OOCISO_DIMS must be NXxNYxNZ"))
                .collect();
            assert_eq!(parts.len(), 3, "OOCISO_DIMS must be NXxNYxNZ");
            Dims3::new(parts[0], parts[1], parts[2])
        }
        Err(_) => Dims3::new(256, 256, 240),
    }
}

/// RM proxy seed.
pub fn bench_seed() -> u64 {
    std::env::var("OOCISO_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x524D_2006)
}

/// Time step for single-step experiments.
pub fn bench_step() -> u32 {
    std::env::var("OOCISO_STEP")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(250)
}

/// Cache directory for preprocessed datasets.
pub fn data_dir() -> PathBuf {
    std::env::var("OOCISO_DATA")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/oociso-bench-data"))
}

/// Generate (or reuse a cached volume of) the RM proxy time step.
pub fn rm_volume(step: u32, dims: Dims3) -> Volume<u8> {
    RmProxy::with_seed(bench_seed()).volume(step, dims)
}

/// Build (or reopen from cache) a `p`-node cluster for the given step/dims.
/// Returns the cluster and whether it was rebuilt.
pub fn cached_cluster(step: u32, dims: Dims3, nodes: usize) -> (Cluster<u8>, bool) {
    let dir = data_dir().join(format!(
        "rm-s{}-t{}-{}x{}x{}-p{}",
        bench_seed(),
        step,
        dims.nx,
        dims.ny,
        dims.nz,
        nodes
    ));
    if let Ok(c) = Cluster::<u8>::open(&dir, true) {
        return (c, false);
    }
    let vol = rm_volume(step, dims);
    let (c, stats) = Cluster::build(
        &vol,
        &dir,
        nodes,
        &ClusterBuildOptions {
            metacell_k: 9,
            mmap: true,
        },
    )
    .expect("cluster build");
    eprintln!(
        "[build] p={nodes}: {} metacells kept ({} culled, {:.1}% of raw size)",
        stats.kept_metacells,
        stats.culled_metacells,
        stats.size_ratio() * 100.0
    );
    (c, true)
}

/// The paper's isovalue sweep: 10 to 210 in steps of 20.
pub fn paper_isovalues() -> Vec<f32> {
    (0..=10).map(|i| 10.0 + 20.0 * i as f32).collect()
}

/// Plain-text table printer with right-aligned columns.
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&" ".repeat(widths[i] - c.len()));
                line.push_str(c);
            }
            line
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

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format a `Duration` in seconds with 3 decimals.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Write CSV rows to a file under the data dir, returning the path.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let path = data_dir().join(name);
    if let Some(p) = path.parent() {
        std::fs::create_dir_all(p).ok();
    }
    let mut text = String::from(header);
    text.push('\n');
    for r in rows {
        text.push_str(r);
        text.push('\n');
    }
    std::fs::write(&path, text).expect("csv write");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_dims_are_paper_demo() {
        if std::env::var("OOCISO_DIMS").is_err() {
            assert_eq!(bench_dims(), Dims3::new(256, 256, 240));
        }
    }

    #[test]
    fn isovalue_sweep_matches_paper() {
        let isos = paper_isovalues();
        assert_eq!(isos.len(), 11);
        assert_eq!(isos[0], 10.0);
        assert_eq!(isos[10], 210.0);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["iso", "triangles"]);
        t.row(vec!["10".into(), "123456".into()]);
        t.row(vec!["210".into(), "7".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("triangles"));
        assert!(lines[2].ends_with("123456"));
        assert!(lines[3].ends_with("7"));
    }
}

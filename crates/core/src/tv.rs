//! Time-varying databases (§5.2).
//!
//! "To index time-varying data of m time steps, we can use the same indexing
//! scheme for each time step separately resulting in an indexing structure of
//! size O(m n log n)." Each step gets its own cluster subdirectory; *all*
//! step indexes are held in memory (for the paper's 270-step RM dataset that
//! is 1.6 MB total), while the metacell data stays on the per-node disks.

use crate::db::ExtractResult;
use oociso_cluster::{Cluster, PreprocessOptions};
use oociso_volume::{ScalarValue, Volume};
use std::io;
use std::path::{Path, PathBuf};

fn step_dir(root: &Path, step: usize) -> PathBuf {
    root.join(format!("step{step:04}"))
}

const TV_META: &str = "timevarying.meta";

/// A time-varying isosurface database: one compact-interval-tree index per
/// time step, all resident in memory; data out-of-core per step.
pub struct TimeVaryingDatabase<S: ScalarValue> {
    steps: Vec<Cluster<S>>,
    root: PathBuf,
}

impl<S: ScalarValue> TimeVaryingDatabase<S> {
    /// Preprocess a series of time steps produced by `gen(step) -> Volume`.
    pub fn preprocess_series(
        root: &Path,
        num_steps: usize,
        opts: &PreprocessOptions,
        mut gen: impl FnMut(usize) -> Volume<S>,
    ) -> io::Result<Self> {
        assert!(num_steps > 0);
        std::fs::create_dir_all(root)?;
        let mut steps = Vec::with_capacity(num_steps);
        for s in 0..num_steps {
            let vol = gen(s);
            let (cluster, _) = Cluster::build(&vol, &step_dir(root, s), opts)?;
            steps.push(cluster);
        }
        std::fs::write(root.join(TV_META), format!("steps={num_steps}\n"))?;
        Ok(TimeVaryingDatabase {
            steps,
            root: root.to_path_buf(),
        })
    }

    /// Open a preprocessed series.
    pub fn open(root: &Path, mmap: bool) -> io::Result<Self> {
        let meta = std::fs::read_to_string(root.join(TV_META))?;
        let num_steps: usize = meta
            .lines()
            .find_map(|l| l.strip_prefix("steps="))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad timevarying.meta"))?;
        let steps = (0..num_steps)
            .map(|s| Cluster::open(&step_dir(root, s), mmap))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(TimeVaryingDatabase {
            steps,
            root: root.to_path_buf(),
        })
    }

    /// Number of time steps.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Extract the isosurface of time step `step` at isovalue `iso`:
    /// "determining the appropriate indexing structure for that time step …
    /// can easily be performed since the whole indexing structure is in main
    /// memory".
    pub fn extract(&self, step: usize, iso: f32) -> io::Result<ExtractResult> {
        let e = self.steps[step].extract(iso)?;
        let (mesh, report) = e.into_merged();
        Ok(ExtractResult { mesh, report })
    }

    /// The cluster of one step (distributions, index inspection).
    pub fn step(&self, step: usize) -> &Cluster<S> {
        &self.steps[step]
    }

    /// Total in-memory index size across all steps and nodes — the paper's
    /// headline "1.6 MB for 270 time steps".
    pub fn index_bytes(&self) -> u64 {
        self.steps
            .iter()
            .flat_map(|c| c.trees().iter())
            .map(|t| oociso_itree::size::compact_size(t, S::BYTES).bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oociso_volume::{Dims3, RmProxy};

    fn tmpdir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("oociso_tv_{}_{}", std::process::id(), name));
        p
    }

    #[test]
    fn series_roundtrip() {
        let root = tmpdir("series");
        let proxy = RmProxy::with_seed(5);
        let dims = Dims3::new(24, 24, 23);
        let db = TimeVaryingDatabase::preprocess_series(
            &root,
            4,
            &PreprocessOptions {
                nodes: 2,
                ..Default::default()
            },
            |s| proxy.volume(60 + s as u32 * 10, dims),
        )
        .unwrap();
        assert_eq!(db.num_steps(), 4);
        let tri_counts: Vec<u64> = (0..4)
            .map(|s| db.extract(s, 128.0).unwrap().report.total_triangles())
            .collect();
        assert!(tri_counts.iter().any(|&t| t > 0));

        // reopen and re-query: identical
        let db2 = TimeVaryingDatabase::<u8>::open(&root, true).unwrap();
        for (s, &expected) in tri_counts.iter().enumerate() {
            assert_eq!(
                db2.extract(s, 128.0).unwrap().report.total_triangles(),
                expected
            );
        }
        assert!(db.index_bytes() > 0);
        assert_eq!(db.index_bytes(), db2.index_bytes());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn missing_meta_rejected() {
        let root = tmpdir("nometa");
        std::fs::create_dir_all(&root).unwrap();
        assert!(TimeVaryingDatabase::<u8>::open(&root, false).is_err());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn index_grows_linearly_with_steps() {
        let root1 = tmpdir("lin1");
        let root3 = tmpdir("lin3");
        let proxy = RmProxy::with_seed(9);
        let dims = Dims3::new(20, 20, 19);
        let opts = PreprocessOptions::default();
        let db1 = TimeVaryingDatabase::preprocess_series(&root1, 1, &opts, |s| {
            proxy.volume(100 + s as u32, dims)
        })
        .unwrap();
        let db3 = TimeVaryingDatabase::preprocess_series(&root3, 3, &opts, |s| {
            proxy.volume(100 + s as u32, dims)
        })
        .unwrap();
        // ~3 similar steps → ~3× the index (within 2× slack for content drift)
        let ratio = db3.index_bytes() as f64 / db1.index_bytes() as f64;
        assert!(ratio > 1.5 && ratio < 6.0, "ratio {ratio}");
        std::fs::remove_dir_all(&root1).ok();
        std::fs::remove_dir_all(&root3).ok();
    }
}

//! Cluster directory metadata.
//!
//! A preprocessed cluster directory holds, per node, a brick store
//! (`nodeNNN.bricks`) and an index (`nodeNNN.index`), plus one `cluster.meta`
//! file recording what produced them. The format is a simple `key=value` text
//! file so a human can inspect a dataset directory.
//!
//! Its `format` line versions the whole directory. `oociso-cluster-v2` stores
//! packed metacell records (`oociso_metacell::record`) with a length word in
//! every header; `v1` stored the raw ones. There is one reader, so a `v1`
//! directory is rejected with a pointer to re-run the preprocessing.

use oociso_volume::Dims3;
use std::io::{self, Read, Write};
use std::path::Path;

/// Metadata describing a preprocessed cluster directory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterMeta {
    /// Grid dimensions of the source volume (vertices).
    pub dims: Dims3,
    /// Metacell vertices per axis (the paper's `k = 9`).
    pub metacell_k: usize,
    /// Scalar type name ("u8", "u16", "f32").
    pub scalar: String,
    /// Number of nodes (stripes).
    pub nodes: usize,
}

impl ClusterMeta {
    /// File name inside the cluster directory.
    pub const FILE: &'static str = "cluster.meta";
    /// The store format this build writes and reads.
    pub const FORMAT: &'static str = "oociso-cluster-v2";

    /// Write to `dir/cluster.meta`.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut f = std::fs::File::create(dir.join(Self::FILE))?;
        writeln!(f, "format={}", Self::FORMAT)?;
        writeln!(f, "nx={}", self.dims.nx)?;
        writeln!(f, "ny={}", self.dims.ny)?;
        writeln!(f, "nz={}", self.dims.nz)?;
        writeln!(f, "metacell_k={}", self.metacell_k)?;
        writeln!(f, "scalar={}", self.scalar)?;
        writeln!(f, "nodes={}", self.nodes)?;
        Ok(())
    }

    /// Read from `dir/cluster.meta`.
    pub fn load(dir: &Path) -> io::Result<ClusterMeta> {
        let mut text = String::new();
        std::fs::File::open(dir.join(Self::FILE))?.read_to_string(&mut text)?;
        let mut nx = None;
        let mut ny = None;
        let mut nz = None;
        let mut k = None;
        let mut scalar = None;
        let mut nodes = None;
        let mut format = None;
        for line in text.lines() {
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            match key {
                "format" => format = Some(value),
                "nx" => nx = value.parse().ok(),
                "ny" => ny = value.parse().ok(),
                "nz" => nz = value.parse().ok(),
                "metacell_k" => k = value.parse().ok(),
                "scalar" => scalar = Some(value.to_string()),
                "nodes" => nodes = value.parse().ok(),
                _ => {}
            }
        }
        let missing = || io::Error::new(io::ErrorKind::InvalidData, "incomplete cluster.meta");
        match format {
            Some(Self::FORMAT) => {}
            Some("oociso-cluster-v1") => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{} holds an oociso-cluster-v1 store (raw metacell records); this \
                         build reads {} only — re-run `oociso preprocess` on the source volume",
                        dir.display(),
                        Self::FORMAT
                    ),
                ))
            }
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown cluster.meta format {other:?}"),
                ))
            }
        }
        Ok(ClusterMeta {
            dims: Dims3::new(
                nx.ok_or_else(missing)?,
                ny.ok_or_else(missing)?,
                nz.ok_or_else(missing)?,
            ),
            metacell_k: k.ok_or_else(missing)?,
            scalar: scalar.ok_or_else(missing)?,
            nodes: nodes.ok_or_else(missing)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("oociso_meta_{}_{}", std::process::id(), name));
        p
    }

    #[test]
    fn roundtrip() {
        let dir = tmpdir("rt");
        let meta = ClusterMeta {
            dims: Dims3::new(256, 256, 240),
            metacell_k: 9,
            scalar: "u8".to_string(),
            nodes: 4,
        };
        meta.save(&dir).unwrap();
        assert_eq!(ClusterMeta::load(&dir).unwrap(), meta);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_fields_rejected() {
        let dir = tmpdir("bad");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(ClusterMeta::FILE),
            "format=oociso-cluster-v2\nnx=8\n",
        )
        .unwrap();
        assert!(ClusterMeta::load(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_format_rejected() {
        let dir = tmpdir("fmt");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(ClusterMeta::FILE), "format=other\n").unwrap();
        assert!(ClusterMeta::load(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}

//! Disk farms: one independent store per cluster node.
//!
//! The paper's parallel scheme assumes "a multiprocessor environment in which
//! each node has access to its own local disk". A [`DiskFarm`] materializes
//! that as `p` record-store files in a directory, written together during
//! preprocessing (when bricks are striped) and opened together at query time.

use crate::store::RecordStore;
use std::io;
use std::path::{Path, PathBuf};

/// Naming scheme for per-node store files.
fn node_store_path(dir: &Path, node: usize) -> PathBuf {
    dir.join(format!("node{node:03}.bricks"))
}

/// A set of `p` independent per-node stores under one directory.
pub struct DiskFarm {
    dir: PathBuf,
    nodes: usize,
}

impl DiskFarm {
    /// Describe a farm of `nodes` stores under `dir` (no I/O yet).
    pub fn new(dir: &Path, nodes: usize) -> Self {
        assert!(nodes > 0, "a farm needs at least one node");
        DiskFarm {
            dir: dir.to_path_buf(),
            nodes,
        }
    }

    /// Number of nodes (= local disks).
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Directory holding the store files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of one node's store file.
    pub fn store_path(&self, node: usize) -> PathBuf {
        assert!(node < self.nodes);
        node_store_path(&self.dir, node)
    }

    /// Open every node store for reading.
    pub fn open_stores(&self, mmap: bool) -> io::Result<Vec<RecordStore>> {
        (0..self.nodes)
            .map(|i| {
                let p = self.store_path(i);
                if mmap {
                    RecordStore::open_mmap(&p)
                } else {
                    RecordStore::open(&p)
                }
            })
            .collect()
    }

    /// Total bytes across all node stores.
    pub fn total_bytes(&self) -> io::Result<u64> {
        let mut total = 0;
        for i in 0..self.nodes {
            total += std::fs::metadata(self.store_path(i))?.len();
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("oociso_farm_{}_{}", std::process::id(), name));
        p
    }

    #[test]
    fn farm_creates_p_stores() {
        let dir = tmpdir("create");
        let farm = DiskFarm::new(&dir, 4);
        std::fs::create_dir_all(&dir).unwrap();
        for i in 0..4 {
            std::fs::write(farm.store_path(i), [i as u8; 16]).unwrap();
        }
        assert_eq!(farm.total_bytes().unwrap(), 64);
        let stores = farm.open_stores(false).unwrap();
        assert_eq!(stores.len(), 4);
        for (i, s) in stores.iter().enumerate() {
            let v = s.read_span(crate::Span { offset: 0, len: 16 }).unwrap();
            assert!(v.iter().all(|&b| b == i as u8));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_paths_distinct_and_stable() {
        let farm = DiskFarm::new(Path::new("/tmp/x"), 3);
        let p0 = farm.store_path(0);
        let p1 = farm.store_path(1);
        assert_ne!(p0, p1);
        assert_eq!(p0, farm.store_path(0));
    }

    #[test]
    #[should_panic]
    fn zero_nodes_rejected() {
        let _ = DiskFarm::new(Path::new("/tmp/x"), 0);
    }

    #[test]
    fn mmap_open_works() {
        let dir = tmpdir("mmap");
        let farm = DiskFarm::new(&dir, 2);
        std::fs::create_dir_all(&dir).unwrap();
        for i in 0..2 {
            std::fs::write(farm.store_path(i), b"abcdef").unwrap();
        }
        let stores = farm.open_stores(true).unwrap();
        assert_eq!(
            stores[1]
                .read_span(crate::Span { offset: 0, len: 6 })
                .unwrap(),
            b"abcdef"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

//! The single-volume database: one to `p` simulated cluster nodes.

use oociso_cluster::{Cluster, ClusterExtraction, PreprocessOptions, QueryReport};
use oociso_march::IndexedMesh;
use oociso_metacell::PreprocessStats;
use oociso_render::{Camera, Framebuffer, TileLayout};
use oociso_volume::{ScalarValue, Volume};
use std::io;
use std::path::Path;

/// The result of an extraction: the surface plus the per-phase report.
#[derive(Clone, Debug)]
pub struct ExtractResult {
    /// The isosurface as an indexed mesh (global coordinates, vertex units).
    /// Marching Cubes vertices are **welded across metacell and node
    /// seams**, so wherever the isosurface is closed the mesh is watertight
    /// (`oociso_march::topology::analyze_mesh` reports zero boundary edges).
    /// Call [`IndexedMesh::to_soup`] for an unindexed triangle list.
    pub mesh: IndexedMesh,
    /// Phase timings, I/O counters, per-node rows.
    pub report: QueryReport,
}

/// A `p`-node out-of-core isosurface database. With
/// [`PreprocessOptions::default`] `p = 1`: the serial workstation case, and
/// the baseline the speedup tables divide by.
pub struct ClusterDatabase<S: ScalarValue> {
    cluster: Cluster<S>,
    preprocess_stats: Option<PreprocessStats>,
}

impl<S: ScalarValue> ClusterDatabase<S> {
    /// Preprocess an in-memory volume into `dir`: the out-of-core build of
    /// [`ClusterDatabase::preprocess_file`], its z-slabs copied out of `vol`.
    pub fn preprocess(vol: &Volume<S>, dir: &Path, opts: &PreprocessOptions) -> io::Result<Self> {
        let (cluster, stats) = Cluster::build(vol, dir, opts)?;
        Ok(ClusterDatabase {
            cluster,
            preprocess_stats: Some(stats),
        })
    }

    /// Preprocess a raw volume *file* out-of-core (one streaming scan plus a
    /// spill of the encoded records; peak memory one z-slab + index).
    pub fn preprocess_file(
        volume_path: &Path,
        dir: &Path,
        opts: &PreprocessOptions,
    ) -> io::Result<Self> {
        let (cluster, stats) = Cluster::build_from_file(volume_path, dir, opts)?;
        Ok(ClusterDatabase {
            cluster,
            preprocess_stats: Some(stats),
        })
    }

    /// Open a previously preprocessed directory.
    pub fn open(dir: &Path, mmap: bool) -> io::Result<Self> {
        Ok(ClusterDatabase {
            cluster: Cluster::open(dir, mmap)?,
            preprocess_stats: None,
        })
    }

    /// Extract the isosurface at `iso` (parallel across nodes), returning the
    /// merged mesh and the full report. Each node streams records from disk
    /// into its triangulation workers through a bounded queue, so retrieval
    /// and triangulation overlap (see [`NodeReport`]'s overlap metrics).
    pub fn extract(&self, iso: f32) -> io::Result<ExtractResult> {
        self.extract_with_options(iso, &oociso_cluster::ExtractOptions::default())
    }

    /// [`ClusterDatabase::extract`] with explicit options (worker count,
    /// extraction kernel, trace).
    pub fn extract_with_options(
        &self,
        iso: f32,
        opts: &oociso_cluster::ExtractOptions,
    ) -> io::Result<ExtractResult> {
        let e = self.cluster.extract_with_options(iso, opts)?;
        let (mesh, report) = e.into_merged();
        Ok(ExtractResult { mesh, report })
    }

    /// Extract without merging: per-node meshes plus report (what the
    /// rendering path and the balance tables consume).
    pub fn extract_per_node(&self, iso: f32) -> io::Result<ClusterExtraction> {
        self.cluster.extract(iso)
    }

    /// Extract the isosurface at `iso` and build the LOD pyramid described
    /// by `lods` from the merged **welded** mesh: level 0 is the full
    /// watertight surface, each further level is quadric edge-collapse
    /// decimated to its vertex ratio. Per-level stats ride in
    /// [`QueryReport::lod_levels`]. This is what the query server caches
    /// and serves per level.
    pub fn extract_lods(
        &self,
        iso: f32,
        lods: &oociso_cluster::LodSpec,
    ) -> io::Result<(oociso_march::LodChain, QueryReport)> {
        let opts = oociso_cluster::ExtractOptions {
            lods: lods.clone(),
            ..Default::default()
        };
        self.extract_lods_opts(iso, &opts)
    }

    /// [`ClusterDatabase::extract_lods`] under full extraction options —
    /// how the query server threads its per-request trace into the
    /// pipeline. A SurfaceNets pyramid builds from the seam-stitched,
    /// smoothed mesh (vertex-unique by cell ownership, so no weld pass runs
    /// first). The extraction's span tree
    /// (`extract`/`node`/`pipeline`/... plus the `merge_weld`/`stitch` and
    /// `lod` roots) lands in `opts.trace`.
    pub fn extract_lods_opts(
        &self,
        iso: f32,
        opts: &oociso_cluster::ExtractOptions,
    ) -> io::Result<(oociso_march::LodChain, QueryReport)> {
        let e = self.cluster.extract_with_options(iso, opts)?;
        Ok(e.into_lod_chain())
    }

    /// Full pipeline: extract, render per node, sort-last composite.
    pub fn extract_and_render(
        &self,
        iso: f32,
        camera: &Camera,
        tiles: &TileLayout,
        base_color: [f32; 3],
    ) -> io::Result<(Framebuffer, ClusterExtraction)> {
        self.cluster
            .extract_and_render(iso, camera, tiles, base_color)
    }

    /// Preprocessing statistics (only available right after building).
    pub fn preprocess_stats(&self) -> Option<&PreprocessStats> {
        self.preprocess_stats.as_ref()
    }

    /// The underlying cluster (index access, distributions).
    pub fn cluster(&self) -> &Cluster<S> {
        &self.cluster
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.cluster.nodes()
    }

    /// Swap node `node`'s brick store — how tests and benchmarks interpose
    /// a throttled or fault-injecting device on the read path.
    pub fn replace_store(&mut self, node: usize, store: oociso_exio::RecordStore) {
        self.cluster.replace_store(node, store);
    }

    /// Total index size in bytes across all nodes (paper-style entry
    /// encoding; the RM single-step index is ~6 KB).
    pub fn index_bytes(&self) -> u64 {
        self.cluster
            .trees()
            .iter()
            .map(|t| oociso_itree::size::compact_size(t, S::BYTES).bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oociso_volume::field::{FieldExt, SphereField};
    use oociso_volume::Dims3;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("oociso_db_{}_{}", std::process::id(), name));
        p
    }

    fn vol() -> Volume<u8> {
        SphereField::centered(0.3, 120.0).sample(Dims3::new(25, 25, 25))
    }

    #[test]
    fn quickstart_flow() {
        let dir = tmpdir("quick");
        let db = ClusterDatabase::preprocess(&vol(), &dir, &PreprocessOptions::default()).unwrap();
        let surface = db.extract(120.0).unwrap();
        assert!(surface.mesh.len() > 100);
        // the kernel's triangle count covers welded-away collapses too (the
        // integer isovalue can land crossings exactly on lattice corners)
        assert_eq!(
            surface.mesh.len() as u64 + surface.report.total_weld().degenerate_dropped,
            surface.report.total_triangles()
        );
        assert!(db.index_bytes() > 0);
        assert!(db.preprocess_stats().unwrap().kept_metacells > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cluster_db_matches_serial_db() {
        let v = vol();
        let d1 = tmpdir("serial");
        let d4 = tmpdir("cluster");
        let serial = ClusterDatabase::preprocess(&v, &d1, &PreprocessOptions::default()).unwrap();
        let opts = PreprocessOptions {
            nodes: 4,
            ..Default::default()
        };
        let cluster = ClusterDatabase::preprocess(&v, &d4, &opts).unwrap();
        for iso in [90.0, 120.0, 150.0] {
            let a = serial.extract(iso).unwrap();
            let b = cluster.extract(iso).unwrap();
            assert_eq!(a.mesh.len(), b.mesh.len(), "iso {iso}");
        }
        std::fs::remove_dir_all(&d1).ok();
        std::fs::remove_dir_all(&d4).ok();
    }

    #[test]
    fn worker_counts_agree_and_empty_iso_is_sane() {
        use oociso_cluster::ExtractOptions;
        let v = vol();
        let d = tmpdir("workers");
        let db = ClusterDatabase::preprocess(
            &v,
            &d,
            &PreprocessOptions {
                nodes: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let default = db.extract(120.0).unwrap();
        let one = db
            .extract_with_options(
                120.0,
                &ExtractOptions {
                    workers: Some(1),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(default.mesh.positions(), one.mesh.positions());
        assert_eq!(default.mesh.indices(), one.mesh.indices());
        for n in &default.report.nodes {
            assert!(n.workers > 0);
            assert_eq!(n.exec.records_emitted, n.active_metacells);
        }

        // the sphere field peaks at level + slope·radius = 180 → no surface
        let empty = db.extract(250.0).unwrap();
        assert!(empty.mesh.is_empty());
        assert_eq!(empty.report.total_triangles(), 0);
        for n in &empty.report.nodes {
            assert_eq!(n.workers, 0, "empty extraction must not spawn workers");
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn render_produces_pixels() {
        let v = vol();
        let d = tmpdir("render");
        let db = ClusterDatabase::preprocess(&v, &d, &PreprocessOptions::default()).unwrap();
        let surface = db.extract(120.0).unwrap();
        let camera = oociso_render::Camera::orbiting(&surface.mesh.bounds(), 0.7, 0.4, 2.5);
        let tiles = TileLayout::new(1, 1, 96, 96);
        let (fb, res) = db
            .extract_and_render(120.0, &camera, &tiles, [0.8, 0.8, 0.9])
            .unwrap();
        assert!(fb.covered_pixels() > 50);
        assert!(res.report.nodes[0].rendering > std::time::Duration::ZERO);
        std::fs::remove_dir_all(&d).ok();
    }
}

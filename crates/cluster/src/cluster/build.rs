//! Build and open: the preprocessing options, the one store writer (slab
//! scan → spill → striped trees → placement writes) and [`Cluster`] itself.

use crate::meta::ClusterMeta;
use oociso_exio::{DiskFarm, RecordStore, WriteAt};
use oociso_itree::{persist, CompactIntervalTree, MetacellRecordFormat};
use oociso_metacell::{MetacellInterval, MetacellLayout, PreprocessStats};
use oociso_volume::{Dims3, ScalarValue, Volume};
use std::io::{self, Read, Seek, Write};
use std::path::{Path, PathBuf};

/// Preprocessing options.
#[derive(Clone, Copy, Debug)]
pub struct PreprocessOptions {
    /// Metacell vertices per axis (the paper uses 9 → 734-byte raw u8
    /// records; stored packed).
    pub metacell_k: usize,
    /// Number of cluster nodes / disk stripes (1 = serial, the default).
    pub nodes: usize,
    /// Memory-map the brick stores for reading.
    pub mmap: bool,
}

impl Default for PreprocessOptions {
    fn default() -> Self {
        PreprocessOptions {
            metacell_k: 9,
            nodes: 1,
            mmap: false,
        }
    }
}

/// A `p`-node cluster over a preprocessed dataset directory.
///
/// Each node owns `node<i>.bricks` (its stripe of every brick) and
/// `node<i>.index` (its local compact interval tree). Queries run one OS
/// thread per node, sharing nothing but the read-only index and its own
/// store — the paper's shared-nothing execution, minus MPI.
pub struct Cluster<S: ScalarValue> {
    pub(super) dir: PathBuf,
    pub(super) nodes: usize,
    pub(super) layout: MetacellLayout,
    pub(super) format: MetacellRecordFormat<S>,
    pub(super) trees: Vec<CompactIntervalTree>,
    pub(super) stores: Vec<RecordStore>,
}

pub(super) fn index_path(dir: &Path, node: usize) -> PathBuf {
    dir.join(format!("node{node:03}.index"))
}

/// Where pass 1 of the build spills its encoded records.
pub(super) fn spill_path(dir: &Path) -> PathBuf {
    dir.join("preprocess.spill")
}

/// The spill file of the build: every kept record, encoded once, in scan
/// order. Removed when dropped — after a successful build and on every
/// error path alike.
struct Spill {
    path: PathBuf,
    file: std::fs::File,
}

impl Spill {
    fn create(dir: &Path) -> io::Result<Spill> {
        let path = spill_path(dir);
        let file = std::fs::File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(Spill { path, file })
    }
}

impl Drop for Spill {
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}

/// The build up to its index files: one scan of the volume's z-slabs and
/// two sequential passes over a spill, peak memory one z-slab plus a length
/// per kept record.
///
/// 1. Scan the z-slabs `read_slab(z0, count)` returns, computing each
///    metacell's `(vmin, vmax)` interval (constant metacells culled),
///    encoding each kept record once and appending it to a spill file in
///    `dir`.
/// 2. Build the striped trees with a *dry-run* sink that only assigns each
///    record its destination `(stripe, offset)` from the spilled lengths.
/// 3. Create the stores at their final sizes (`create_stores`, given each
///    stripe's length) and stream the spill into them, each record written
///    at its placement.
///
/// Generic over the store sinks so failing devices can exercise the error
/// path; any read or write failure surfaces as `Err`, and the spill is gone
/// either way.
pub(super) fn write_stores<S: ScalarValue, W: WriteAt>(
    dims: Dims3,
    read_slab: impl FnMut(usize, usize) -> io::Result<Volume<S>>,
    dir: &Path,
    nodes: usize,
    k: usize,
    create_stores: impl FnOnce(&[u64]) -> io::Result<Vec<W>>,
) -> io::Result<(Vec<CompactIntervalTree>, PreprocessStats)> {
    let spill = Spill::create(dir)?;
    let mut intervals: Vec<MetacellInterval> = Vec::new();
    let mut lengths: Vec<u32> = Vec::new();
    let mut out = io::BufWriter::new(&spill.file);
    let mut stats = oociso_metacell::scan_slabs(dims, k, read_slab, |built| {
        let record = built.record.encode();
        out.write_all(&record)?;
        intervals.push(built.interval);
        lengths.push(record.len() as u32);
        Ok(())
    })?;
    out.flush()?;
    drop(out);
    stats.stored_bytes = lengths.iter().map(|&len| u64::from(len)).sum();

    // placement[kept_index] = (stripe, offset); intervals are sorted by id
    let mut cursors = vec![0u64; nodes];
    let mut placement: Vec<(usize, u64)> = vec![(0, 0); intervals.len()];
    let trees = CompactIntervalTree::build_striped(&intervals, nodes, &mut |stripe, iv| {
        let idx = intervals
            .binary_search_by_key(&iv.id, |v| v.id)
            .expect("id from this scan");
        let len = u64::from(lengths[idx]);
        let offset = cursors[stripe];
        cursors[stripe] += len;
        placement[idx] = (stripe, offset);
        Ok(oociso_exio::Span { offset, len })
    })?;

    let sinks = create_stores(&cursors)?;
    let mut spilled = io::BufReader::new(&spill.file);
    spilled.seek(io::SeekFrom::Start(0))?;
    let mut record = Vec::new();
    for (&len, &(stripe, offset)) in lengths.iter().zip(&placement) {
        record.resize(len as usize, 0);
        spilled.read_exact(&mut record)?;
        sinks[stripe].write_all_at(&record, offset)?;
    }
    Ok((trees, stats))
}

/// The store offset one past the last byte a node's index addresses.
fn index_end(tree: &CompactIntervalTree) -> u64 {
    let entries = tree.nodes().iter().flat_map(|n| &n.entries);
    entries.map(|e| e.span.end()).max().unwrap_or(0)
}

impl<S: ScalarValue> Cluster<S> {
    /// Preprocess `vol` into `dir` for `opts.nodes` nodes: the build of
    /// [`Cluster::build_from_file`], with its z-slabs copied out of `vol`
    /// one at a time.
    pub fn build(
        vol: &Volume<S>,
        dir: &Path,
        opts: &PreprocessOptions,
    ) -> io::Result<(Self, PreprocessStats)> {
        let dims = vol.dims();
        Self::build_slabs(
            dims,
            |z0, count| Ok(vol.extract_box((0, 0, z0), (dims.nx, dims.ny, z0 + count))),
            dir,
            opts,
        )
    }

    /// Preprocess a raw volume **file** into `dir` without ever holding the
    /// volume in memory — the true out-of-core preprocessing path.
    ///
    /// One streaming scan of the file encodes every kept record once into a
    /// spill beside the stores; the striped trees are then built from the
    /// records' lengths and the spill streamed into place (the paper likens
    /// preprocessing cost to an external sort). Peak memory is one slab
    /// (`nx × ny × k` samples) plus the interval list, a length per kept
    /// record and the index — independent of `nz`.
    pub fn build_from_file(
        volume_path: &Path,
        dir: &Path,
        opts: &PreprocessOptions,
    ) -> io::Result<(Self, PreprocessStats)> {
        let mut reader = oociso_volume::io::RawVolumeReader::<S>::open(volume_path)?;
        let dims = reader.dims();
        Self::build_slabs(dims, |z0, count| reader.read_slab(z0, count), dir, opts)
    }

    /// The one build: scan metacells slab by slab, cull constants, stripe
    /// bricks round-robin across per-node stores (each record encoded once),
    /// build and persist per-node compact interval trees.
    fn build_slabs(
        dims: Dims3,
        read_slab: impl FnMut(usize, usize) -> io::Result<Volume<S>>,
        dir: &Path,
        opts: &PreprocessOptions,
    ) -> io::Result<(Self, PreprocessStats)> {
        let nodes = opts.nodes;
        assert!(nodes > 0);
        std::fs::create_dir_all(dir)?;
        let farm = DiskFarm::new(dir, nodes);
        let (trees, stats) = write_stores(dims, read_slab, dir, nodes, opts.metacell_k, |lens| {
            lens.iter()
                .enumerate()
                .map(|(i, &len)| {
                    let f = std::fs::File::create(farm.store_path(i))?;
                    f.set_len(len)?;
                    Ok(f)
                })
                .collect()
        })?;
        let layout = MetacellLayout::new(dims, opts.metacell_k);
        Self::finish_build(dir, layout, trees, opts.mmap).map(|c| (c, stats))
    }

    /// Persist the trees and the metadata of freshly written stores, and
    /// open the result.
    fn finish_build(
        dir: &Path,
        layout: MetacellLayout,
        trees: Vec<CompactIntervalTree>,
        mmap: bool,
    ) -> io::Result<Self> {
        for (i, tree) in trees.iter().enumerate() {
            persist::save(tree, &index_path(dir, i))?;
        }
        ClusterMeta {
            dims: layout.volume_dims(),
            metacell_k: layout.k(),
            scalar: S::NAME.to_string(),
            nodes: trees.len(),
        }
        .save(dir)?;
        let stores = DiskFarm::new(dir, trees.len()).open_stores(mmap)?;
        Ok(Cluster {
            dir: dir.to_path_buf(),
            nodes: trees.len(),
            layout,
            format: MetacellRecordFormat::new(layout),
            trees,
            stores,
        })
    }

    /// Open a previously built cluster directory. A directory of another
    /// store format (`cluster.meta`'s `format` line), scalar type, or with a
    /// node store whose length is not what its index addresses (a truncated
    /// or foreign `nodeNNN.bricks`) is [`io::ErrorKind::InvalidData`].
    pub fn open(dir: &Path, mmap: bool) -> io::Result<Self> {
        let meta = ClusterMeta::load(dir)?;
        if meta.scalar != S::NAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "scalar mismatch: dataset is {}, requested {}",
                    meta.scalar,
                    S::NAME
                ),
            ));
        }
        let layout = MetacellLayout::new(meta.dims, meta.metacell_k);
        let farm = DiskFarm::new(dir, meta.nodes);
        let stores = farm.open_stores(mmap)?;
        let trees = (0..meta.nodes)
            .map(|i| persist::load(&index_path(dir, i)))
            .collect::<io::Result<Vec<_>>>()?;
        for (node, (tree, store)) in trees.iter().zip(&stores).enumerate() {
            let end = index_end(tree);
            if store.len() != end {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "node {node}: store {} holds {} bytes, its index addresses {end}",
                        farm.store_path(node).display(),
                        store.len()
                    ),
                ));
            }
        }
        Ok(Cluster {
            dir: dir.to_path_buf(),
            nodes: meta.nodes,
            layout,
            format: MetacellRecordFormat::new(layout),
            trees,
            stores,
        })
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The metacell layout of the dataset.
    pub fn layout(&self) -> &MetacellLayout {
        &self.layout
    }

    /// Per-node index trees (read-only).
    pub fn trees(&self) -> &[CompactIntervalTree] {
        &self.trees
    }

    /// Dataset directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Bytes of node `node`'s brick store.
    pub fn store_bytes(&self, node: usize) -> u64 {
        self.stores[node].len()
    }

    /// Swap one node's record store (I/O-modeling experiments: throttled or
    /// instrumented devices). The replacement must serve byte-identical data
    /// at the same offsets as the original store or queries will decode
    /// garbage.
    pub fn replace_store(&mut self, node: usize, store: RecordStore) {
        self.stores[node] = store;
    }
}

//! The cluster: build, open, and query.

use crate::meta::ClusterMeta;
use crate::timing::{NodeReport, QueryReport};
use oociso_exio::{BoundedQueue, DiskFarm, RecordStore, WriteAt};
use oociso_itree::plan::{execute_plan_at, ExecStats};
use oociso_itree::{persist, CompactIntervalTree, MetacellRecordFormat};
use oociso_march::mc::McStats;
use oociso_march::weld::WeldStats;
use oociso_march::{
    smooth_surface_nets, stitch_seams, Backend, BackendScratch, BlockDomain, BlockOutput,
    DecimateStats, ExtractionBackend, IndexedMesh, LodChain, MeshWelder, SeamQuad, TriangleSoup,
    Vec3, SN_SMOOTH_PASSES,
};
use oociso_metacell::{
    scan_volume, MetacellInterval, MetacellLayout, MetacellRecord, PreprocessStats,
};
use oociso_obs::{Span, Trace};
use oociso_render::{rasterize_mesh, Camera, Framebuffer, TileLayout};
use oociso_volume::{ScalarValue, Volume};
use std::collections::BTreeMap;
use std::io::{self, Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Options for building a cluster dataset.
#[derive(Clone, Copy, Debug)]
pub struct ClusterBuildOptions {
    /// Metacell vertices per axis (paper: 9).
    pub metacell_k: usize,
    /// Open the brick stores memory-mapped.
    pub mmap: bool,
}

impl Default for ClusterBuildOptions {
    fn default() -> Self {
        ClusterBuildOptions {
            metacell_k: 9,
            mmap: false,
        }
    }
}

/// Bound (in full-metacell records of work) of the retrieval→triangulation
/// queue. It must hold one run-reader refill's records (`STREAM_CHUNK`,
/// 32 KiB, is 100–140 packed u8 metacells on smooth fields), or the producer
/// blocks mid-refill and the device idles while the workers catch up.
/// Staging stays tens of KB, what 64 raw records took.
pub const QUEUE_RECORDS: usize = 192;

/// LOD pyramid request: vertex-count targets of the extra levels, each a
/// fraction of the full-resolution vertex count, strictly decreasing (the
/// serving default is 25 % and 6 %). Empty = no decimation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LodSpec {
    /// Per-level vertex ratios, e.g. `[0.25, 0.06]` for a 100 %/25 %/6 %
    /// pyramid.
    pub ratios: Vec<f64>,
}

impl LodSpec {
    /// No extra levels (full resolution only).
    pub fn none() -> LodSpec {
        LodSpec::default()
    }

    /// The serving default: 100 % / 25 % / 6 %.
    pub fn pyramid() -> LodSpec {
        LodSpec {
            ratios: vec![0.25, 0.06],
        }
    }

    /// Total level count including the implicit full-resolution level 0.
    pub fn levels(&self) -> usize {
        1 + self.ratios.len()
    }
}

/// Options for one extraction query.
#[derive(Clone, Debug)]
pub struct ExtractOptions {
    /// Per-node worker count (`None` → cores ÷ nodes, see
    /// [`Cluster::extract`]).
    pub workers: Option<usize>,
    /// LOD pyramid to build from the merged welded mesh — consumed by
    /// [`ClusterExtraction::into_lod_chain`]; empty (the default) skips
    /// decimation entirely.
    pub lods: LodSpec,
    /// Extraction kernel. [`Backend::Mc`] (default) triangulates per cell
    /// and welds vertices across metacell and node seams, so the merged
    /// surface is watertight wherever the isosurface is closed;
    /// [`Backend::SurfaceNets`] emits one vertex per active cell with
    /// deferred seam quads stitched during [`ClusterExtraction::into_merged`]
    /// — vertices are globally unique by construction, so it never welds.
    pub backend: Backend,
    /// Request trace the extraction records its phase spans into
    /// (`extract` → per-node `node` → `pipeline` with `execute_plan`,
    /// `queue_wait`, `triangulate`, `weld`; the merge/LOD stages add
    /// `merge_weld`/`stitch`, `lod`, and per-level `decimate` spans). The
    /// report's `Duration` fields are set from these spans' measured values,
    /// so trace and report always agree exactly. Defaults to a detached
    /// trace, which bounds the cost for untraced callers at the trace's
    /// event cap; served queries pass the wire-identified request trace.
    pub trace: Trace,
}

impl Default for ExtractOptions {
    fn default() -> Self {
        ExtractOptions {
            workers: None,
            lods: LodSpec::none(),
            backend: Backend::Mc,
            trace: Trace::detached(),
        }
    }
}

/// The result of one parallel extraction: per-node indexed meshes plus the
/// per-phase report.
#[derive(Clone, Debug)]
pub struct ClusterExtraction {
    /// One indexed mesh per node (local geometry, already in global
    /// coordinates). An MC node mesh is fully welded — one vertex per
    /// distinct quantized position across all of the node's metacells.
    pub meshes: Vec<IndexedMesh>,
    /// Per-node vertex→cell tables for the SurfaceNets backend (parallel to
    /// each node mesh's vertices; empty for MC). The cell key is the global
    /// identity of the vertex — what the seam stitch joins on.
    pub cells: Vec<Vec<u64>>,
    /// Per-node deferred seam quads for the SurfaceNets backend (empty for
    /// MC) — resolved by [`ClusterExtraction::into_merged`].
    pub seams: Vec<Vec<SeamQuad>>,
    /// Per-node finished seam welders of an MC extraction: each holds its
    /// node mesh's weld table and seam list ([`MeshWelder::seams`], the
    /// ascending ids of the vertices that may have a twin in another node's
    /// mesh — all the cross-node merge looks up). The merge continues node
    /// 0's welder, so its table is never rebuilt. Empty welders for
    /// SurfaceNets.
    pub welders: Vec<MeshWelder>,
    /// Per-node and aggregate measurements.
    pub report: QueryReport,
    /// LOD pyramid [`ClusterExtraction::into_lod_chain`] will build from the
    /// merged mesh (set from [`ExtractOptions::lods`]).
    pub lods: LodSpec,
    /// The kernel that produced this extraction.
    pub backend: Backend,
    /// The request trace the extraction recorded into (from
    /// [`ExtractOptions::trace`]); the merge and LOD stages append their
    /// spans here too.
    pub trace: Trace,
}

impl ClusterExtraction {
    /// Merge all node meshes into one soup (for export or soup-consuming
    /// callers). Triangles are materialized straight into one pre-reserved
    /// soup — no per-node intermediate soups, no cloning.
    ///
    /// For the SurfaceNets backend the soup holds only the node-local
    /// geometry — the deferred seam quads between nodes (and the smoothing
    /// passes) only materialize in [`ClusterExtraction::into_merged`].
    pub fn merged_soup(&self) -> TriangleSoup {
        let total: usize = self.meshes.iter().map(IndexedMesh::len).sum();
        let mut out = TriangleSoup::with_capacity(total);
        for m in &self.meshes {
            m.append_to_soup(&mut out);
        }
        out
    }

    /// Consume the extraction into the merged mesh plus the report. MC node
    /// meshes join through one deterministic [`MeshWelder`] so vertices fuse
    /// across node seams and the full-database mesh is watertight wherever
    /// the surface is closed: node 0's welded mesh is the output as-is and
    /// its finished welder goes on (its table already holds node 0's seams),
    /// and every further node's mesh is joined onto it by its seam list and
    /// an index remap — byte-identical to re-welding the concatenated node
    /// meshes, hashing nothing but the other nodes' seams. The merge stage's
    /// [`WeldStats`] land in [`QueryReport::merge_weld`].
    /// The split return lets callers keep the report without cloning it.
    pub fn into_merged(self) -> (IndexedMesh, QueryReport) {
        let ClusterExtraction {
            meshes,
            cells,
            seams,
            welders,
            mut report,
            lods: _,
            backend,
            trace,
        } = self;
        if backend == Backend::SurfaceNets {
            // SurfaceNets merge: concatenate node meshes (vertices are
            // globally unique by cell ownership — nothing to weld), resolve
            // the deferred seam quads against the concatenated vertex→cell
            // table, then run the bounded smoothing passes over the stitched
            // surface so smoothing reaches across node seams.
            let sp = trace.span("stitch");
            let total: usize = meshes.iter().map(IndexedMesh::len).sum();
            let mut out = IndexedMesh::with_capacity(total);
            let mut all_cells: Vec<u64> = Vec::with_capacity(cells.iter().map(Vec::len).sum());
            for (m, c) in meshes.into_iter().zip(cells) {
                out.merge(m);
                all_cells.extend(c);
            }
            let mut all_seams: Vec<SeamQuad> = seams.into_iter().flatten().collect();
            report.stitch_triangles = stitch_seams(&mut out, &all_cells, &mut all_seams);
            smooth_surface_nets(
                &mut out,
                &all_cells,
                Vec3::ZERO,
                Vec3::new(1.0, 1.0, 1.0),
                SN_SMOOTH_PASSES,
            );
            report.merge_weld_wall = sp.finish();
            report.total_wall += report.merge_weld_wall;
            return (out, report);
        }
        let mut nodes = meshes.into_iter().zip(welders);
        let (mut out, mut welder) = nodes.next().unwrap_or_default();
        if nodes.len() == 0 {
            // single welded node: already seam-free, nothing to join
            return (out, report);
        }
        let mut sp = trace.span("merge_weld");
        welder.begin_stage(&out);
        for (m, node_welder) in nodes {
            welder.append_welded(&mut out, &m, node_welder.seams());
        }
        report.merge_weld = welder.finish(&out);
        for (name, value) in weld_fields(&report.merge_weld) {
            sp.field(name, value);
        }
        report.merge_weld_wall = sp.finish();
        // the merge weld is part of producing this result: fold it into the
        // end-to-end wall so downstream ratios (e.g. weld cost vs total)
        // compare like with like
        report.total_wall += report.merge_weld_wall;
        (out, report)
    }

    /// Consume the extraction into the full LOD pyramid plus the report:
    /// merge (welding node seams as [`ClusterExtraction::into_merged`]
    /// does), then build one decimated level per ratio of the requested
    /// [`LodSpec`] — **post-weld**, so every level simplifies the watertight
    /// global mesh rather than per-node fragments. Per-level
    /// [`oociso_march::DecimateStats`] land in [`QueryReport::lod_levels`]
    /// and the decimation wall in [`QueryReport::lod_wall`]. An empty spec
    /// yields a 1-level chain (full resolution only).
    pub fn into_lod_chain(self) -> (LodChain, QueryReport) {
        let ratios = self.lods.ratios.clone();
        let trace = self.trace.clone();
        let (mesh, mut report) = self.into_merged();
        let sp = trace.span("lod");
        let chain = LodChain::build_observed(mesh, &ratios, |level, wall, stats| {
            sp.annotate("decimate", wall, &decimate_fields(level, stats));
        });
        report.lod_wall = sp.finish();
        report.lod_levels = chain
            .levels()
            .iter()
            .map(|l| crate::timing::LodReport {
                target_ratio: l.target_ratio,
                vertices: l.mesh.num_vertices() as u64,
                triangles: l.mesh.len() as u64,
                max_error: l.stats.max_error,
                world_error: l.cumulative_error.sqrt(),
                collapses: l.stats.collapses,
            })
            .collect();
        report.total_wall += report.lod_wall;
        (chain, report)
    }
}

/// A `p`-node cluster over a preprocessed dataset directory.
///
/// Each node owns `node<i>.bricks` (its stripe of every brick) and
/// `node<i>.index` (its local compact interval tree). Queries run one OS
/// thread per node, sharing nothing but the read-only index and its own
/// store — the paper's shared-nothing execution, minus MPI.
pub struct Cluster<S: ScalarValue> {
    dir: PathBuf,
    nodes: usize,
    layout: MetacellLayout,
    format: MetacellRecordFormat<S>,
    trees: Vec<CompactIntervalTree>,
    stores: Vec<RecordStore>,
}

/// The weld counters every `weld`/`merge_weld` span carries.
fn weld_fields(weld: &WeldStats) -> [(&'static str, u64); 4] {
    [
        ("input", weld.input_vertices),
        ("hashed", weld.hashed_vertices),
        ("merged", weld.vertices_merged()),
        ("dropped", weld.degenerate_dropped),
    ]
}

/// The counters every per-level `decimate` span annotation carries: the
/// level, its collapses over both phases, the tiles the parallel phase
/// used, the collapses the global finishing phase applied and the
/// collapse passes walked in all of them.
pub fn decimate_fields(level: usize, stats: &DecimateStats) -> [(&'static str, u64); 5] {
    [
        ("level", level as u64),
        ("collapses", stats.collapses),
        ("tiles", stats.tiles),
        ("finish_collapses", stats.finish_collapses),
        ("passes", stats.passes),
    ]
}

/// The read-stream counters every `execute_plan` span carries.
fn exec_fields(span: &mut Span, exec: &ExecStats) {
    span.field("read_calls", exec.read_calls);
    span.field("runs", exec.runs);
    span.field("bytes_read", exec.bytes_read);
}

fn index_path(dir: &Path, node: usize) -> PathBuf {
    dir.join(format!("node{node:03}.index"))
}

/// Where pass 1 of the out-of-core build spills its encoded records.
fn spill_path(dir: &Path) -> PathBuf {
    dir.join("preprocess.spill")
}

/// The spill file of the out-of-core build: every kept record, encoded once,
/// in scan order. Removed when dropped — after a successful build and on
/// every error path alike.
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

/// The out-of-core build up to its index files: one scan of the volume file
/// and two sequential passes over a spill, peak memory one z-slab plus a
/// length per kept record.
///
/// 1. Scan z-slabs, computing each metacell's `(vmin, vmax)` interval
///    (constant metacells culled), encoding each kept record once and
///    appending it to a spill file in `dir`.
/// 2. Build the striped trees with a *dry-run* sink that only assigns each
///    record its destination `(stripe, offset)` from the spilled lengths.
/// 3. Create the stores at their final sizes (`create_stores`, given each
///    stripe's length) and stream the spill into them, each record written
///    at its placement.
///
/// Generic over the store sinks so failing devices can exercise the error
/// path; any write failure surfaces as `Err`, and the spill is gone either
/// way.
fn write_stores<S: ScalarValue, W: WriteAt>(
    volume_path: &Path,
    dir: &Path,
    nodes: usize,
    k: usize,
    create_stores: impl FnOnce(&[u64]) -> io::Result<Vec<W>>,
) -> io::Result<(Vec<CompactIntervalTree>, PreprocessStats)> {
    let mut reader = oociso_volume::io::RawVolumeReader::<S>::open(volume_path)?;
    let spill = Spill::create(dir)?;
    let mut intervals: Vec<MetacellInterval> = Vec::new();
    let mut lengths: Vec<u32> = Vec::new();
    let mut out = io::BufWriter::new(&spill.file);
    let mut stats = oociso_metacell::scan_reader(&mut reader, k, |built| {
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

/// One node's extraction result: its mesh (plus SurfaceNets' cell table and
/// seam quads), its finished seam welder (empty for SurfaceNets) and its
/// report row.
type NodeOutput = (BlockOutput, MeshWelder, NodeReport);

/// A node mesh under construction. Each worker triangulates a record into
/// its own part buffer and then offers the part here, under the node's
/// lock: the part joins the node mesh at once if it is the next in
/// sequence order (followed by every stashed successor that is now in
/// order), and waits in the stash otherwise. With one worker nothing is
/// ever stashed; with more, the stash holds only the parts that finished
/// ahead of their turn.
struct Assembly {
    /// Sequence number of the next part to join.
    next: u64,
    /// The node output so far.
    out: BlockOutput,
    /// MC's seam welder; `None` for SurfaceNets, whose parts concatenate.
    welder: Option<MeshWelder>,
    /// Parts that finished ahead of their turn, by sequence number.
    stash: BTreeMap<u64, BlockOutput>,
    /// Summed time spent joining parts.
    busy: Duration,
}

impl Assembly {
    fn new(weld: bool) -> Assembly {
        Assembly {
            next: 0,
            out: BlockOutput::default(),
            welder: weld.then(MeshWelder::new),
            stash: BTreeMap::new(),
            busy: Duration::ZERO,
        }
    }

    /// Offer part `seq`: join it and its stashed successors if it is next,
    /// else move it into the stash, leaving `part` a fresh buffer.
    fn offer(&mut self, seq: u64, part: &mut BlockOutput) {
        if seq != self.next {
            self.stash.insert(seq, std::mem::take(part));
            return;
        }
        let t = Instant::now();
        self.join(part);
        while let Some(mut stashed) = self.stash.remove(&self.next) {
            self.join(&mut stashed);
        }
        self.busy += t.elapsed();
    }

    /// Append the next part: welded on its candidates (MC) or concatenated
    /// (SurfaceNets, whose vertex order is the order of its cell table).
    fn join(&mut self, part: &mut BlockOutput) {
        match &mut self.welder {
            Some(w) => w.append_seams(&mut self.out.mesh, &part.mesh, &part.weld_candidates),
            None => self.out.mesh.merge(std::mem::take(&mut part.mesh)),
        }
        self.out.cells.append(&mut part.cells);
        self.out.seams.append(&mut part.seams);
        self.next += 1;
    }
}

/// The store offset one past the last byte a node's index addresses.
fn index_end(tree: &CompactIntervalTree) -> u64 {
    let entries = tree.nodes().iter().flat_map(|n| &n.entries);
    entries.map(|e| e.span.end()).max().unwrap_or(0)
}

impl<S: ScalarValue> Cluster<S> {
    /// Preprocess `vol` into `dir` for `nodes` nodes: scan metacells, cull
    /// constants, stripe bricks round-robin across per-node stores (each
    /// record encoded once, as its brick is written), build and persist
    /// per-node compact interval trees.
    pub fn build(
        vol: &Volume<S>,
        dir: &Path,
        nodes: usize,
        opts: &ClusterBuildOptions,
    ) -> io::Result<(Self, PreprocessStats)> {
        assert!(nodes > 0);
        let layout = MetacellLayout::new(vol.dims(), opts.metacell_k);
        let (built, mut stats) = scan_volume(vol, &layout);
        let intervals: Vec<MetacellInterval> = built.iter().map(|b| b.interval).collect();

        let farm = DiskFarm::new(dir, nodes);
        let mut writers = farm.create_writers()?;
        let trees = CompactIntervalTree::build_striped(&intervals, nodes, &mut |stripe, iv| {
            let idx = built
                .binary_search_by_key(&iv.id, |b| b.interval.id)
                .expect("interval id from this build");
            let record = built[idx].record.encode();
            stats.stored_bytes += record.len() as u64;
            writers[stripe].append(&record)
        })?;
        for w in writers {
            w.finish()?;
        }
        Self::finish_build(dir, layout, trees, opts.mmap).map(|c| (c, stats))
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
        nodes: usize,
        opts: &ClusterBuildOptions,
    ) -> io::Result<(Self, PreprocessStats)> {
        assert!(nodes > 0);
        let dims = oociso_volume::io::RawVolumeReader::<S>::open(volume_path)?.dims();
        let layout = MetacellLayout::new(dims, opts.metacell_k);
        std::fs::create_dir_all(dir)?;
        let farm = DiskFarm::new(dir, nodes);
        let (trees, stats) =
            write_stores::<S, _>(volume_path, dir, nodes, opts.metacell_k, |lens| {
                lens.iter()
                    .enumerate()
                    .map(|(i, &len)| {
                        let f = std::fs::File::create(farm.store_path(i))?;
                        f.set_len(len)?;
                        Ok(f)
                    })
                    .collect()
            })?;
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

    /// Intra-node worker count: divide the machine's cores across the
    /// simulated nodes (at least one worker each). `OOCISO_THREADS`
    /// overrides the core count — handy for scaling experiments.
    fn default_workers(&self) -> usize {
        let cores = std::env::var("OOCISO_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            });
        (cores / self.nodes).max(1)
    }

    /// Run the parallel extraction for `iso`: every node plans against its
    /// local index, streams its active metacells, and triangulates — one
    /// thread per node, no cross-node communication. Within each node the
    /// paper's phases (i) and (ii) pipeline: the node thread executes the
    /// plan and streams each record through a bounded queue into a scoped
    /// worker pool (cores divided evenly among nodes), so disk and cores
    /// overlap and a 1-node "cluster" still saturates the machine.
    pub fn extract(&self, iso: f32) -> io::Result<ClusterExtraction> {
        self.extract_with_options(iso, &ExtractOptions::default())
    }

    /// [`Cluster::extract`] with an explicit per-node worker count.
    pub fn extract_with_workers(&self, iso: f32, workers: usize) -> io::Result<ClusterExtraction> {
        self.extract_with_options(
            iso,
            &ExtractOptions {
                workers: Some(workers),
                ..Default::default()
            },
        )
    }

    /// [`Cluster::extract`] with explicit options (workers, kernel, LOD
    /// pyramid, trace).
    pub fn extract_with_options(
        &self,
        iso: f32,
        opts: &ExtractOptions,
    ) -> io::Result<ClusterExtraction> {
        let workers = opts
            .workers
            .unwrap_or_else(|| self.default_workers())
            .max(1);
        let backend = opts.backend;
        let mut sp_extract = opts.trace.span("extract");
        sp_extract.field("iso_millis", (iso as f64 * 1e3) as u64);
        sp_extract.field("nodes", self.nodes as u64);
        let results: Vec<io::Result<NodeOutput>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.nodes)
                .map(|i| {
                    let mut nspan = sp_extract.child("node");
                    nspan.field("node", i as u64);
                    scope.spawn(move || self.node_extract(i, iso, workers, backend, nspan))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("node thread panicked"))
                .collect()
        });
        let mut meshes = Vec::with_capacity(self.nodes);
        let mut cells = Vec::with_capacity(self.nodes);
        let mut seams = Vec::with_capacity(self.nodes);
        let mut welders = Vec::with_capacity(self.nodes);
        let mut nodes = Vec::with_capacity(self.nodes);
        for r in results {
            let (out, welder, report) = r?;
            meshes.push(out.mesh);
            cells.push(out.cells);
            seams.push(out.seams);
            welders.push(welder);
            nodes.push(report);
        }
        let report = QueryReport {
            isovalue: iso,
            nodes,
            composite_wire_bytes: 0,
            composite_wall: Duration::ZERO,
            total_wall: sp_extract.finish(),
            ..Default::default()
        };
        Ok(ClusterExtraction {
            meshes,
            cells,
            seams,
            welders,
            report,
            lods: opts.lods.clone(),
            backend,
            trace: opts.trace.clone(),
        })
    }

    /// One node's extraction work, run on the node's thread: the paper's
    /// phases (i) and (ii) as one pipeline. This thread produces — executes
    /// the plan, pushing each active record into a bounded queue as it is
    /// decoded from disk — while `workers` consumers triangulate records as
    /// they arrive, each reusing one decode buffer and one slab scratch.
    /// Every record carries its emission sequence number and becomes its own
    /// mesh part, which the worker that made it joins into the node mesh
    /// ([`Assembly`]) as soon as the part's turn comes — parts join in
    /// sequence order, so the output is bit-identical for any worker count,
    /// and per-record granularity load-balances dense metacells for free.
    fn node_extract(
        &self,
        node: usize,
        iso: f32,
        workers: usize,
        backend: Backend,
        mut span: Span,
    ) -> io::Result<NodeOutput> {
        /// Closes the queue when dropped. Every pipeline thread holds one, so
        /// an unwinding producer or a worker that met a corrupt record
        /// releases everyone else — workers drain and exit, a blocked
        /// producer's push fails — instead of leaving them parked on a queue
        /// nobody will touch again (the scope would then never join and the
        /// panic would never propagate). Closing twice is harmless, so
        /// normal exits need no special case.
        struct CloseOnDrop<'a, T>(&'a BoundedQueue<T>);
        impl<T> Drop for CloseOnDrop<'_, T> {
            fn drop(&mut self) {
                self.0.close();
            }
        }

        let store = &self.stores[node];
        let io_before = store.device().io_snapshot();
        let t0 = Instant::now();
        let plan = self.trees[node].plan(S::query_key(iso));
        if plan.actions.is_empty() {
            // Nothing can be active at this isovalue on this node (the tree
            // pruned every brick): skip the pipeline entirely — no worker
            // threads spawn, so the report states 0 workers.
            let elapsed = t0.elapsed();
            span.annotate("execute_plan", elapsed, &[]);
            return Ok((
                BlockOutput::default(),
                MeshWelder::new(),
                NodeReport {
                    node,
                    workers: 0,
                    amc_retrieval: elapsed,
                    extraction_wall: elapsed,
                    io: store.device().io_snapshot().since(&io_before),
                    ..Default::default()
                },
            ));
        }

        // Admission is weighted by the planner's per-record cell count, so
        // the bound caps queued *work*: `QUEUE_RECORDS` is a budget of that
        // many full metacells' worth of cells — a few dense (full) records
        // fill it while many clamped edge slivers share it.
        let full_cells = {
            let span = (self.layout.k() - 1) as u64;
            span * span * span
        };
        // (sequence, store offset, record)
        let queue: BoundedQueue<(u64, u64, Vec<u8>)> =
            BoundedQueue::weighted(QUEUE_RECORDS as u64 * full_cells);
        let backend_impl = backend.instance::<S>();
        // Welding fuses duplicated MC seam vertices; SurfaceNets vertices
        // are globally unique by cell ownership, so its parts concatenate.
        let assembly = Mutex::new(Assembly::new(backend == Backend::Mc));
        let sp_pipe = span.child("pipeline");
        let (exec, amc_retrieval, outs) = std::thread::scope(|scope| {
            let queue = &queue;
            let assembly = &assembly;
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(move || -> io::Result<(McStats, Duration)> {
                        let _close = CloseOnDrop(queue);
                        let mut mc = McStats::default();
                        let mut busy = Duration::ZERO;
                        let mut scratch = BackendScratch::new();
                        let mut scalars: Vec<S> = Vec::new();
                        let mut part = BlockOutput::default();
                        while let Some((seq, offset, rec)) = queue.pop() {
                            let t = Instant::now();
                            part.clear();
                            mc.merge(&self.triangulate_record(
                                node,
                                backend_impl,
                                offset,
                                &rec,
                                iso,
                                &mut part,
                                &mut scratch,
                                &mut scalars,
                            )?);
                            busy += t.elapsed();
                            let mut assembly = assembly.lock().expect("assembly poisoned");
                            assembly.offer(seq, &mut part);
                        }
                        Ok((mc, busy))
                    })
                })
                .collect();

            // Producer: phase (i) on this thread. Push can only fail once the
            // queue is closed — after a worker died; the records it would
            // have carried are moot, so the result is ignored.
            let mut sp_exec = sp_pipe.child("execute_plan");
            let exec = {
                let _close = CloseOnDrop(queue);
                let mut seq = 0u64;
                execute_plan_at(&plan, store, &self.format, |id, offset, bytes| {
                    let work = self.layout.num_cells(id) as u64;
                    let _ = queue.push((seq, offset, bytes.to_vec()), bytes.len() as u64, work);
                    seq += 1;
                })
                // _close drops here: the queue closes on success, on a failed
                // plan execution, and on unwind alike, so consumers always
                // drain and exit instead of deadlocking the scope.
            };
            if let Ok(exec) = &exec {
                exec_fields(&mut sp_exec, exec);
            }
            let amc_retrieval = sp_exec.finish();
            let outs: Vec<io::Result<(McStats, Duration)>> = handles
                .into_iter()
                .map(|h| h.join().expect("extraction worker panicked"))
                .collect();
            (exec, amc_retrieval, outs)
        });
        let exec = exec?;
        let outs = outs.into_iter().collect::<io::Result<Vec<_>>>()?;

        let mut triangulation_busy = Duration::ZERO;
        let mut mc = McStats::default();
        for (w, (stats, busy)) in outs.into_iter().enumerate() {
            sp_pipe.annotate("triangulate", busy, &[("worker", w as u64)]);
            triangulation_busy += busy;
            mc.merge(&stats);
        }
        let Assembly {
            next,
            out,
            welder,
            stash,
            busy: join_busy,
        } = assembly.into_inner().expect("assembly poisoned");
        debug_assert!(next == exec.records_emitted && stash.is_empty());
        // the joins ran on the workers, inside the pipeline span: weld_wall
        // is their summed busy time, already part of extraction_wall
        let (welder, weld_stats, weld_wall) = match welder {
            Some(welder) => {
                let stats = welder.stats(&out.mesh);
                sp_pipe.annotate("weld", join_busy, &weld_fields(&stats));
                (welder, stats, join_busy)
            }
            None => (MeshWelder::new(), WeldStats::default(), Duration::ZERO),
        };
        let qstats = queue.stats();
        let waits = queue.waits();
        sp_pipe.annotate(
            "queue_wait",
            waits.push_wait,
            &[
                ("pop_wait_us", waits.pop_wait.as_micros() as u64),
                ("push_wakes", qstats.push_wakes),
                ("pop_wakes", qstats.pop_wakes),
            ],
        );
        let extraction_wall = sp_pipe.finish();
        span.field("active_metacells", exec.records_emitted);
        span.field("triangles", mc.triangles);

        Ok((
            out,
            welder,
            NodeReport {
                node,
                workers,
                active_metacells: exec.records_emitted,
                cells_visited: mc.cells_visited,
                active_cells: mc.active_cells,
                triangles: mc.triangles,
                bytes_read: qstats.pushed_bytes,
                amc_retrieval,
                extraction_wall,
                retrieval_busy: amc_retrieval.saturating_sub(waits.push_wait),
                triangulation_busy,
                peak_queue_records: qstats.peak_items,
                peak_queue_bytes: qstats.peak_bytes,
                peak_queue_work: qstats.peak_weight,
                exec,
                weld: weld_stats,
                weld_wall,
                rendering: Duration::ZERO,
                io: store.device().io_snapshot().since(&io_before),
            },
        ))
    }

    /// Extract one encoded record, read from store offset `at` of `node`,
    /// into `out` through the chosen backend, reusing the caller's decode
    /// buffer and kernel scratch. A record that does not decode is
    /// [`io::ErrorKind::InvalidData`] naming the node, the offset and what
    /// the decoder found wrong (the metacell id among it).
    #[allow(clippy::too_many_arguments)]
    fn triangulate_record(
        &self,
        node: usize,
        backend: &dyn ExtractionBackend<S>,
        at: u64,
        rec: &[u8],
        iso: f32,
        out: &mut BlockOutput,
        scratch: &mut BackendScratch,
        scalars: &mut Vec<S>,
    ) -> io::Result<McStats> {
        let (id, ..) = MetacellRecord::<S>::try_decode_scalars_into(rec, &self.layout, scalars)
            .map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("node {node}, record at store offset {at}: {e}"),
                )
            })?;
        let (origin, _) = self.layout.vertex_box(id);
        let local = Volume::from_vec(self.layout.cell_dims(id), std::mem::take(scalars));
        let domain = BlockDomain {
            origin,
            volume_dims: self.layout.volume_dims(),
        };
        let stats = backend.extract_block(&local, iso, &domain, out, scratch);
        *scalars = local.into_vec();
        Ok(stats)
    }

    /// Swap one node's record store (I/O-modeling experiments: throttled or
    /// instrumented devices). The replacement must serve byte-identical data
    /// at the same offsets as the original store or queries will decode
    /// garbage.
    pub fn replace_store(&mut self, node: usize, store: RecordStore) {
        self.stores[node] = store;
    }

    /// Extract, render locally on every node, and sort-last composite onto
    /// the tiled display (§5.1's full pipeline, metric (iii) included). The
    /// report's `composite_wire_bytes` is what the shuffle would move;
    /// [`crate::SimulatedTimeModel::composite_time`] prices it.
    pub fn extract_and_render(
        &self,
        iso: f32,
        camera: &Camera,
        tiles: &TileLayout,
        base_color: [f32; 3],
    ) -> io::Result<(Framebuffer, ClusterExtraction)> {
        let t_total = Instant::now();
        let mut extraction = self.extract(iso)?;

        // Per-node local rendering (one thread per node, own framebuffer).
        let frames: Vec<(Framebuffer, Duration)> = std::thread::scope(|scope| {
            let handles: Vec<_> = extraction
                .meshes
                .iter()
                .map(|mesh| {
                    scope.spawn(move || {
                        let mut fb = Framebuffer::new(tiles.width, tiles.height);
                        let t = Instant::now();
                        rasterize_mesh(mesh, camera, base_color, &mut fb);
                        (fb, t.elapsed())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("render thread panicked"))
                .collect()
        });
        let mut buffers = Vec::with_capacity(frames.len());
        for (i, (fb, dt)) in frames.into_iter().enumerate() {
            extraction.report.nodes[i].rendering = dt;
            buffers.push(fb);
        }

        // Sort-last composite: the only communication of the whole query.
        let t_comp = Instant::now();
        let (wall, wire_bytes) = tiles.composite(&buffers);
        extraction.report.composite_wall = t_comp.elapsed();
        extraction.report.composite_wire_bytes = wire_bytes;
        extraction.report.total_wall = t_total.elapsed();
        Ok((wall, extraction))
    }

    /// Per-node `(active_metacells, triangles)` distribution for an isovalue —
    /// the rows of Tables 6 and 7.
    pub fn distribution(&self, iso: f32) -> io::Result<Vec<(u64, u64)>> {
        let e = self.extract(iso)?;
        Ok(e.report
            .nodes
            .iter()
            .map(|n| (n.active_metacells, n.triangles))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oociso_march::mc::marching_cubes;
    use oociso_render::rasterize_soup;
    use oociso_volume::field::{FieldExt, SphereField};
    use oociso_volume::Dims3;

    fn tmpdir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("oociso_cluster_{}_{}", std::process::id(), name));
        p
    }

    fn test_volume() -> Volume<u8> {
        SphereField::centered(0.32, 128.0).sample(Dims3::new(33, 33, 33))
    }

    #[test]
    fn parallel_matches_serial_triangles() {
        let vol = test_volume();
        // ground truth: whole-volume marching cubes
        let mut truth = TriangleSoup::new();
        marching_cubes(
            &vol,
            128.0,
            Vec3::ZERO,
            Vec3::new(1.0, 1.0, 1.0),
            &mut truth,
        );

        let d1 = tmpdir("p1");
        let (c1, stats1) = Cluster::build(&vol, &d1, 1, &ClusterBuildOptions::default()).unwrap();
        let e1 = c1.extract(128.0).unwrap();
        assert_eq!(e1.report.total_triangles() as usize, truth.len());
        assert!(stats1.kept_metacells > 0);

        let d4 = tmpdir("p4");
        let (c4, stats4) = Cluster::build(&vol, &d4, 4, &ClusterBuildOptions::default()).unwrap();
        let e4 = c4.extract(128.0).unwrap();
        assert_eq!(e4.report.total_triangles() as usize, truth.len());
        assert_eq!(stats1.kept_metacells, stats4.kept_metacells);
        assert_eq!(
            e1.report.total_active_metacells(),
            e4.report.total_active_metacells()
        );
        std::fs::remove_dir_all(&d1).ok();
        std::fs::remove_dir_all(&d4).ok();
    }

    fn assert_same_triangle_stream(a: &TriangleSoup, b: &TriangleSoup, ctx: &str) {
        assert_eq!(a.len(), b.len(), "{ctx}: triangle count");
        for (x, y) in a.triangles().iter().zip(b.triangles()) {
            assert_eq!(x, y, "{ctx}: triangle stream diverged");
        }
    }

    #[test]
    fn worker_count_does_not_change_output() {
        let vol = test_volume();
        let dir = tmpdir("workers");
        let (c, _) = Cluster::build(&vol, &dir, 1, &ClusterBuildOptions::default()).unwrap();
        let base = c.extract_with_workers(128.0, 1).unwrap();
        assert_eq!(base.report.nodes[0].workers, 1);
        let base_soup = base.merged_soup();
        assert!(!base_soup.is_empty());
        for workers in [2, 3, 8] {
            // spawns exactly the requested pool
            let e = c.extract_with_workers(128.0, workers).unwrap();
            assert_eq!(e.report.nodes[0].workers, workers, "workers={workers}");
            // per-record parts joined in sequence order → the triangle
            // stream is bit-identical, not just multiset-equal
            assert_same_triangle_stream(
                &e.merged_soup(),
                &base_soup,
                &format!("workers={workers}"),
            );
            assert_eq!(e.report.total_triangles(), base.report.total_triangles());
            let n = &e.report.nodes[0];
            assert!(n.peak_queue_bytes > 0);
            assert!(n.bytes_read >= n.peak_queue_bytes);
            assert!(n.peak_queue_work <= QUEUE_RECORDS as u64 * 512);
            assert_eq!(n.exec.records_emitted, n.active_metacells);
            assert!(n.exec.bulk_actions + n.exec.prefix_actions > 0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_active_isovalue_reports_zero_workers() {
        // test_volume's sphere field peaks at level + slope·radius = 192, so
        // iso 250 cannot activate any metacell
        let vol = test_volume();
        let dir = tmpdir("empty_iso");
        let (c, _) = Cluster::build(&vol, &dir, 2, &ClusterBuildOptions::default()).unwrap();
        let e = c.extract_with_workers(250.0, 4).unwrap();
        assert!(e.merged_soup().is_empty());
        assert_eq!(e.report.total_triangles(), 0);
        assert_eq!(e.report.total_active_metacells(), 0);
        for n in &e.report.nodes {
            assert_eq!(n.workers, 0, "empty node must spawn no pool");
            assert_eq!(n.bytes_read, 0);
            assert_eq!(n.io.read_calls, 0, "empty plan reads nothing");
            assert_eq!(n.peak_queue_records, 0);
        }
        // merged report stays usable downstream
        let (mesh, report) = e.into_merged();
        assert!(mesh.is_empty());
        assert_eq!(report.total_triangles(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `into_merged` ≡ `welded()` of the concatenated node meshes, byte for
    /// byte (`==` on floats would let `-0.0` pass for `0.0`), counters too.
    fn assert_merge_equals_reweld(e: ClusterExtraction, ctx: &str) {
        let mut concat = IndexedMesh::new();
        for m in &e.meshes {
            concat.merge(m.clone());
        }
        let (expect, expect_stats) = concat.welded();
        let joined = e.meshes.len() > 1;
        let (mesh, report) = e.into_merged();
        let bits = |m: &IndexedMesh| -> Vec<[u32; 3]> {
            let p = m.positions().iter();
            p.map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
                .collect()
        };
        assert_eq!(bits(&mesh), bits(&expect), "{ctx}: positions");
        assert_eq!(mesh.indices(), expect.indices(), "{ctx}: indices");
        if joined {
            let got = report.merge_weld;
            assert!(got.hashed_vertices <= expect_stats.hashed_vertices);
            let hashed_vertices = expect_stats.hashed_vertices;
            let got = WeldStats {
                hashed_vertices,
                ..got
            };
            assert_eq!(got, expect_stats, "{ctx}: merge counters");
        }
    }

    #[test]
    fn merge_by_remap_equals_rewelding_the_node_meshes() {
        // iso 128 on u8 samples: crossings land on lattice points, so the
        // node welds see endpoint snaps and collapsed triangles
        let vol = test_volume();
        for nodes in 1..=4 {
            let dir = tmpdir(&format!("remap{nodes}"));
            let (c, _) =
                Cluster::build(&vol, &dir, nodes, &ClusterBuildOptions::default()).unwrap();
            let mut first: Option<ClusterExtraction> = None;
            for workers in [1, 2, 3] {
                let ctx = format!("{nodes} nodes, {workers} workers");
                let e = c.extract_with_workers(128.0, workers).unwrap();
                assert!(e.report.total_weld().degenerate_dropped > 0, "{ctx}");
                let first = first.get_or_insert_with(|| e.clone());
                assert_eq!(e.meshes, first.meshes, "{ctx}");
                let seams = |e: &ClusterExtraction| -> Vec<Vec<u32>> {
                    e.welders.iter().map(|w| w.seams().to_vec()).collect()
                };
                assert_eq!(seams(&e), seams(first), "{ctx}");
                for (m, w) in e.meshes.iter().zip(&e.welders) {
                    assert!(w.seams().windows(2).all(|w| w[0] < w[1]), "{ctx}");
                    assert!(w.seams().len() < m.num_vertices(), "{ctx}: seam set only");
                }
                assert_merge_equals_reweld(e, &ctx);
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Every active metacell of `test_volume` at iso 128 as an MC part, in
    /// scan order.
    fn mc_parts() -> Vec<BlockOutput> {
        let vol = test_volume();
        let layout = MetacellLayout::new(vol.dims(), 9);
        let (built, _) = scan_volume(&vol, &layout);
        let mc = Backend::Mc.instance::<u8>();
        let mut scratch = BackendScratch::new();
        let part = |b: &oociso_metacell::BuiltMetacell<u8>| {
            let (origin, _) = layout.vertex_box(b.record.id);
            let domain = BlockDomain {
                origin,
                volume_dims: layout.volume_dims(),
            };
            let mut out = BlockOutput::default();
            mc.extract_block(
                &b.record.to_volume(),
                128.0,
                &domain,
                &mut out,
                &mut scratch,
            );
            out
        };
        let parts = built.iter().map(part);
        parts.filter(|p| !p.mesh.is_empty()).collect()
    }

    #[test]
    fn assembly_joins_shuffled_parts_in_sequence_order() {
        let parts = mc_parts();
        assert!(parts.len() > 8, "fixture drifted");
        let mut in_order = Assembly::new(true);
        for (seq, p) in parts.iter().enumerate() {
            in_order.offer(seq as u64, &mut p.clone());
            assert!(in_order.stash.is_empty(), "an in-order part was stashed");
        }
        // a fixed Fisher–Yates shuffle of the arrival order
        let mut order: Vec<usize> = (0..parts.len()).collect();
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        for i in (1..order.len()).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        let mut shuffled = Assembly::new(true);
        let mut peak_stash = 0;
        for &seq in &order {
            let mut part = parts[seq].clone();
            shuffled.offer(seq as u64, &mut part);
            peak_stash = peak_stash.max(shuffled.stash.len());
        }
        assert!(peak_stash > 0, "the shuffle never arrived out of order");
        assert!(shuffled.stash.is_empty(), "parts left in the stash");
        assert_eq!(shuffled.next, parts.len() as u64);
        let bits = |m: &IndexedMesh| -> Vec<[u32; 3]> {
            let p = m.positions().iter();
            p.map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
                .collect()
        };
        let (got, want) = (&shuffled.out.mesh, &in_order.out.mesh);
        assert_eq!(bits(got), bits(want));
        assert_eq!(got.indices(), want.indices());
        let (a, b) = (shuffled.welder.unwrap(), in_order.welder.unwrap());
        assert_eq!(a.seams(), b.seams());
        assert_eq!(a.stats(got), b.stats(want));
        // and both are the weld of the concatenated parts
        let mut concat = IndexedMesh::new();
        for p in &parts {
            concat.merge(p.mesh.clone());
        }
        assert_eq!(bits(&concat.welded().0), bits(want));
    }

    #[test]
    fn merge_adopts_or_appends_an_empty_node_mesh() {
        // a blob straddling a metacell corner: at iso 1 three nodes hold
        // 4 + 4 + 0 active metacells, with seams between the first two
        let vol = Volume::<u8>::generate(Dims3::new(33, 33, 17), |x, y, z| {
            let d = |a: usize, c: f32| (a as f32 - c) * (a as f32 - c);
            let r = (d(x, 8.6) + d(y, 8.4) + d(z, 9.2)).sqrt();
            (200.0 - 30.0 * r).max(0.0) as u8
        });
        let dir = tmpdir("emptynode");
        let (c, _) = Cluster::build(&vol, &dir, 3, &ClusterBuildOptions::default()).unwrap();
        let e = c.extract(1.0).unwrap();
        let active: Vec<bool> = e.meshes.iter().map(|m| !m.is_empty()).collect();
        assert_eq!(active, [true, true, false], "fixture drifted");
        assert!(e.clone().into_merged().1.merge_weld.vertices_merged() > 0);
        assert_merge_equals_reweld(e.clone(), "empty node last");
        // the round-robin deal starts every brick at node 0, so an empty
        // node never *precedes* a busy one in a real query; rotate one there
        let mut rotated = e;
        rotated.meshes.rotate_right(1);
        rotated.welders.rotate_right(1);
        rotated.report.nodes.rotate_right(1);
        assert!(rotated.meshes[0].is_empty());
        assert_merge_equals_reweld(rotated, "empty node first");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn extraction_matches_reference_kernel_exactly() {
        // cluster path (slab kernel over decoded metacell records) vs the
        // monolithic reference kernel: identical canonical triangle multiset
        let vol = test_volume();
        let mut truth = TriangleSoup::new();
        marching_cubes(
            &vol,
            128.0,
            Vec3::ZERO,
            Vec3::new(1.0, 1.0, 1.0),
            &mut truth,
        );
        let dir = tmpdir("exact");
        let (c, _) = Cluster::build(&vol, &dir, 3, &ClusterBuildOptions::default()).unwrap();
        let e = c.extract(128.0).unwrap();
        // the integer isovalue on u8 samples puts some crossings exactly on
        // cell corners; those triangles collapse under quantization and the
        // node welds drop them, so the extracted multiset must equal truth
        // minus exactly the collapsed triangles
        let (kept, collapsed) =
            oociso_march::split_collapsed(oociso_march::canonical_triangles(&truth));
        assert!(collapsed > 0, "iso 128 should collapse corner crossings");
        assert_eq!(e.report.total_weld().degenerate_dropped, collapsed as u64);
        assert_eq!(kept, oociso_march::canonical_triangles(&e.merged_soup()));
        // per-node meshes really are indexed: shared crossings deduplicated
        for m in &e.meshes {
            assert!(m.num_vertices() < 3 * m.len(), "no dedup in node mesh");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Rebuild a node store over a throttled in-memory copy of its bricks:
    /// reads sleep like a slow disk while the CPU stays free, exactly the
    /// regime the streaming pipeline exists for.
    fn throttled_store(
        dir: &Path,
        node: usize,
        latency: Duration,
        bytes_per_sec: f64,
    ) -> RecordStore {
        let bytes = std::fs::read(DiskFarm::new(dir, node + 1).store_path(node)).unwrap();
        RecordStore::from_device(Box::new(oociso_exio::ThrottledDevice::new(
            oociso_exio::MemDevice::new(bytes),
            latency,
            bytes_per_sec,
        )))
    }

    #[test]
    fn streaming_overlaps_retrieval_with_triangulation() {
        // A dense gyroid keeps triangulation busy; the throttled device makes
        // retrieval take real wall-clock. Phase-serially the two costs add;
        // the pipeline must hide most of the shorter phase.
        use oociso_volume::field::GyroidField;
        // Both phases must be long enough to measure in this build profile:
        // an optimized kernel triangulates the 65³ gyroid in under 10 ms, so
        // grow the volume until triangulation alone takes 40 ms (twice the
        // floor asserted below), then throttle the store so retrieval takes
        // about twice as long as that triangulation did — the shorter phase
        // is then the one the pipeline can hide entirely.
        let dir = tmpdir("throttle");
        let mut n = 65;
        let (mut c, plain) = loop {
            let vol: Volume<u8> = GyroidField {
                cells: 3.0,
                level: 128.0,
                amplitude: 70.0,
            }
            .sample(Dims3::cube(n));
            let (c, _) = Cluster::build(&vol, &dir, 1, &ClusterBuildOptions::default()).unwrap();
            let plain = c.extract_with_workers(128.0, 1).unwrap(); // also warms the store
            if plain.report.nodes[0].triangulation_busy >= Duration::from_millis(40) || n >= 257 {
                break (c, plain);
            }
            n += 32;
        };
        let np = plain.report.nodes[0];
        // triangulation alone: one worker's busy time on the unthrottled run,
        // triangulating records and joining the parts into the node mesh
        let triangulation = np.triangulation_busy + np.weld_wall;
        let bytes_per_sec = np.exec.bytes_read as f64 / (2.0 * triangulation.as_secs_f64());
        let throttle = || throttled_store(&dir, 0, Duration::from_micros(200), bytes_per_sec);

        // retrieval alone: the same plan over a fresh throttled device into a
        // sink that discards every record
        let plan = c.trees()[0].plan(u8::query_key(128.0));
        let t = Instant::now();
        oociso_itree::plan::execute_plan(&plan, &throttle(), &c.format, |_, _| {}).unwrap();
        let retrieval = t.elapsed();

        // The run reader hands over at most one refill's records between
        // reads (`STREAM_CHUNK` = 32 KiB, whatever bricks or runs they came
        // from). The queue bound covers that burst of packed records; a
        // smaller one makes the producer block mid-refill and shrinks the
        // single-core overlap window to the bound.
        c.replace_store(0, throttle()); // fresh device, fresh I/O counters
        let streamed = c.extract_with_workers(128.0, 1).unwrap();

        // throttling must not change the geometry
        assert_same_triangle_stream(&streamed.merged_soup(), &plain.merged_soup(), "throttled");

        let ns = &streamed.report.nodes[0];
        let serial = retrieval + triangulation;
        let shorter = retrieval.min(triangulation);
        assert!(
            shorter > Duration::from_millis(20),
            "phases too short to measure overlap: retrieval {retrieval:?}, triangulation {triangulation:?}"
        );
        // the pipeline must beat phase-serial execution by a real margin —
        // at least a third of the shorter phase hidden (generous to absorb
        // scheduler noise; ideal overlap hides all of it)
        assert!(
            ns.extraction_wall + shorter / 3 < serial,
            "no overlap: streamed wall {:?} vs phase-serial {serial:?} (retrieval {retrieval:?} + triangulation {triangulation:?})",
            ns.extraction_wall,
        );
        assert!(
            ns.overlap_saved() > Duration::ZERO,
            "report must show saved wall-clock: {ns:?}"
        );
        assert!(ns.overlap_fraction() > 0.0);
        // bounded staging: the queue held at most its bound of work, while
        // the active set it streamed is larger than the bound
        let full_cells = (c.layout().k() as u64 - 1).pow(3);
        for n in [&np, ns] {
            assert!(n.active_metacells > QUEUE_RECORDS as u64, "{n:?}");
            assert!(
                n.peak_queue_work <= QUEUE_RECORDS as u64 * full_cells,
                "{n:?}"
            );
            assert!(n.peak_queue_bytes < n.bytes_read, "{n:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streaming_read_failure_is_err_not_deadlock() {
        // Truncate the store: plan execution hits EOF mid-stream. The
        // pipeline must close the queue, reap its workers, and surface Err.
        let vol = test_volume();
        let dir = tmpdir("trunc");
        let (mut c, _) = Cluster::build(&vol, &dir, 1, &ClusterBuildOptions::default()).unwrap();
        // keep only a sliver: any planned read must run past EOF
        let full = std::fs::read(DiskFarm::new(&dir, 1).store_path(0)).unwrap();
        let sliver = full[..4].to_vec();
        c.replace_store(0, RecordStore::in_memory(sliver));
        let err = c.extract_with_workers(128.0, 3).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Extract at `iso` on 3 workers, expecting `Err` of `kind`.
    fn extract_err(c: &Cluster<u8>, iso: f32, kind: io::ErrorKind, what: &str) -> String {
        let err = c.extract_with_workers(iso, 3).expect_err(what);
        assert_eq!(err.kind(), kind, "{what}: {err}");
        err.to_string()
    }

    /// Build a one-node dataset and return it with its root's first brick
    /// (largest vmax: a whole Case 1 bulk range at an isovalue equal to that
    /// vmax, so the scan reaches its end) and the store offsets of that
    /// brick's records.
    fn one_node_with_root_brick(
        dir: &Path,
    ) -> (CompactIntervalTree, oociso_itree::BrickEntry, Vec<u64>) {
        let (c, _) =
            Cluster::build(&test_volume(), dir, 1, &ClusterBuildOptions::default()).unwrap();
        let tree = c.trees()[0].clone();
        drop(c);
        let store = std::fs::read(DiskFarm::new(dir, 1).store_path(0)).unwrap();
        let root = tree.root().expect("non-empty tree") as usize;
        let brick = tree.nodes()[root].entries[0];
        assert!(
            brick.span.end() < store.len() as u64,
            "fixture: not the store's last brick"
        );
        let mut starts = Vec::new();
        let mut at = brick.span.offset;
        while at < brick.span.end() {
            starts.push(at);
            at += MetacellRecord::<u8>::peek_len(&store[at as usize..]) as u64;
        }
        assert_eq!(starts.len(), brick.count as usize);
        (tree, brick, starts)
    }

    #[test]
    fn corrupt_index_spans_are_err_not_panic_or_hang() {
        // An index whose brick span ends inside a record header or inside a
        // record payload must surface as `Err` from the query — in release
        // builds too, where the old executor's debug assertions
        // were compiled out and the node thread indexed past its buffer. One
        // claiming bytes past the store's end is refused by `open`.
        let dir = tmpdir("corrupt_index");
        let (tree, brick, starts) = one_node_with_root_brick(&dir);
        let root = tree.root().unwrap() as usize;
        let last = starts.last().unwrap() - brick.span.offset;
        let header = MetacellRecord::<u8>::HEADER_LEN as u64;
        let store_len = Cluster::<u8>::open(&dir, false).unwrap().store_bytes(0);
        let cases = [
            ("header", last + 2),
            ("payload", last + header + 1),
            ("store", store_len + 1000),
        ];
        for (what, len) in cases {
            let mut nodes = tree.nodes().to_vec();
            nodes[root].entries[0].span.len = len;
            let bad = CompactIntervalTree::from_parts(
                nodes,
                tree.root(),
                tree.num_intervals(),
                tree.num_endpoints(),
            );
            persist::save(&bad, &index_path(&dir, 0)).unwrap();
            match Cluster::<u8>::open(&dir, false) {
                Ok(c) => {
                    let msg =
                        extract_err(&c, brick.vmax_key as f32, io::ErrorKind::InvalidData, what);
                    assert!(msg.contains(what), "{msg}");
                }
                Err(err) => {
                    assert_eq!(what, "store", "{err}");
                    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                    assert!(err.to_string().contains("index addresses"), "{err}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_record_payload_is_invalid_data_naming_node_id_and_offset() {
        // a width nibble of 15 in the brick's first record: the index and the
        // header are intact, only the decoder can tell — in release too
        let dir = tmpdir("corrupt_payload");
        let (_, brick, starts) = one_node_with_root_brick(&dir);
        let path = DiskFarm::new(&dir, 1).store_path(0);
        let mut store = std::fs::read(&path).unwrap();
        let at = starts[0] as usize;
        assert!(
            !MetacellRecord::<u8>::peek_raw(&store[at..]),
            "fixture: a packed record"
        );
        let (id, _) = MetacellRecord::<u8>::peek_header(&store[at..]);
        store[at + MetacellRecord::<u8>::HEADER_LEN] = 0xff;
        std::fs::write(&path, store).unwrap();
        let c = Cluster::<u8>::open(&dir, false).unwrap();
        let msg = extract_err(
            &c,
            brick.vmax_key as f32,
            io::ErrorKind::InvalidData,
            "payload",
        );
        let want = [
            "node 0".to_string(),
            format!("store offset {at}"),
            format!("metacell {id}"),
        ];
        assert!(want.iter().all(|w| msg.contains(w.as_str())), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_store_is_rejected_at_open() {
        // one byte short of what the index addresses: `open` names the node,
        // the store bytes and the index end, instead of the first query
        // failing with a bare read past the end of the device
        let dir = tmpdir("truncated_store");
        let (c, _) =
            Cluster::build(&test_volume(), &dir, 2, &ClusterBuildOptions::default()).unwrap();
        let len = c.store_bytes(1);
        drop(c);
        let f = std::fs::File::options()
            .write(true)
            .open(DiskFarm::new(&dir, 2).store_path(1))
            .unwrap();
        f.set_len(len - 1).unwrap();
        drop(f);
        let err = Cluster::<u8>::open(&dir, true)
            .err()
            .expect("a truncated store opened");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        let want = [
            "node 1".to_string(),
            format!("holds {} bytes", len - 1),
            format!("addresses {len}"),
        ];
        assert!(want.iter().all(|w| msg.contains(w.as_str())), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v1_store_is_rejected_with_a_re_preprocess_message() {
        // a hand-written directory of the raw-record format: no dual reader,
        // just the way forward
        let dir = tmpdir("v1");
        std::fs::create_dir_all(&dir).unwrap();
        let meta =
            "format=oociso-cluster-v1\nnx=33\nny=33\nnz=33\nmetacell_k=9\nscalar=u8\nnodes=1\n";
        std::fs::write(dir.join(ClusterMeta::FILE), meta).unwrap();
        std::fs::write(DiskFarm::new(&dir, 1).store_path(0), [0u8; 734]).unwrap();
        let err = Cluster::<u8>::open(&dir, false)
            .err()
            .expect("a v1 store opened");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains("oociso-cluster-v1") && msg.contains("re-run `oociso preprocess`"),
            "{msg}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn build_write_failure_surfaces_as_err() {
        // A sink that admits a few records then reports a full disk: the
        // spill's pass into the stores must abort with Err instead of
        // panicking mid-stream, and leave no spill behind.
        struct FullDisk {
            writes: std::cell::Cell<usize>,
        }
        impl oociso_exio::WriteAt for FullDisk {
            fn write_all_at(&self, _buf: &[u8], _offset: u64) -> io::Result<()> {
                let n = self.writes.get() + 1;
                self.writes.set(n);
                if n > 2 {
                    Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"))
                } else {
                    Ok(())
                }
            }
        }

        let vol = test_volume();
        let vol_path = tmpdir("fullvol.vol");
        oociso_volume::io::write_volume(&vol_path, &vol).unwrap();
        let dir = tmpdir("fulldisk");
        std::fs::create_dir_all(&dir).unwrap();
        let disk = FullDisk {
            writes: std::cell::Cell::new(0),
        };
        let err = write_stores::<u8, _>(&vol_path, &dir, 1, 9, |lens| {
            assert!(lens[0] > 0, "need records to pass the fuse");
            Ok(vec![&disk])
        })
        .expect_err("full disk must fail the pass");
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(disk.writes.get(), 3, "pass must stop at the failing write");
        assert!(
            !spill_path(&dir).exists(),
            "the spill outlived a failed build"
        );
        std::fs::remove_file(&vol_path).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_core_build_matches_in_memory_build() {
        let vol = test_volume();
        let vol_path = tmpdir("ooc.vol");
        oociso_volume::io::write_volume(&vol_path, &vol).unwrap();

        let d_mem = tmpdir("ooc_mem");
        let d_file = tmpdir("ooc_file");
        let opts = ClusterBuildOptions::default();
        let (c_mem, s_mem) = Cluster::build(&vol, &d_mem, 3, &opts).unwrap();
        let (c_file, s_file) =
            Cluster::<u8>::build_from_file(&vol_path, &d_file, 3, &opts).unwrap();
        assert!(
            !spill_path(&d_file).exists(),
            "the spill outlived the build"
        );
        assert_eq!(s_mem, s_file);
        assert!(0 < s_file.stored_bytes && s_file.stored_bytes < s_file.kept_bytes);
        let stores: u64 = (0..3).map(|i| c_file.store_bytes(i)).sum();
        assert_eq!(stores, s_file.stored_bytes);
        // store files byte-identical
        for i in 0..3 {
            let a = std::fs::read(d_mem.join(format!("node{i:03}.bricks"))).unwrap();
            let b = std::fs::read(d_file.join(format!("node{i:03}.bricks"))).unwrap();
            assert_eq!(a, b, "node {i} store differs");
        }
        // queries agree
        for iso in [80.0, 128.0, 180.0] {
            let em = c_mem.extract(iso).unwrap();
            let ef = c_file.extract(iso).unwrap();
            assert_eq!(em.report.total_triangles(), ef.report.total_triangles());
            assert_eq!(
                em.report.total_active_metacells(),
                ef.report.total_active_metacells()
            );
        }
        std::fs::remove_file(&vol_path).ok();
        std::fs::remove_dir_all(&d_mem).ok();
        std::fs::remove_dir_all(&d_file).ok();
    }

    #[test]
    fn reopen_preserves_queries() {
        let vol = test_volume();
        let dir = tmpdir("reopen");
        let (c, _) = Cluster::build(&vol, &dir, 2, &ClusterBuildOptions::default()).unwrap();
        let before = c.extract(100.0).unwrap();
        drop(c);
        let c2 = Cluster::<u8>::open(&dir, true).unwrap();
        let after = c2.extract(100.0).unwrap();
        assert_eq!(
            before.report.total_triangles(),
            after.report.total_triangles()
        );
        assert_eq!(
            before.report.total_active_metacells(),
            after.report.total_active_metacells()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_scalar_rejected_on_open() {
        let vol = test_volume();
        let dir = tmpdir("scalar");
        let (_c, _) = Cluster::build(&vol, &dir, 1, &ClusterBuildOptions::default()).unwrap();
        assert!(Cluster::<u16>::open(&dir, false).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn balance_across_nodes() {
        let vol = test_volume();
        let dir = tmpdir("balance");
        let (c, _) = Cluster::build(&vol, &dir, 4, &ClusterBuildOptions::default()).unwrap();
        for iso in [60.0, 100.0, 128.0, 160.0, 200.0] {
            let dist = c.distribution(iso).unwrap();
            let total: u64 = dist.iter().map(|d| d.0).sum();
            if total < 16 {
                continue;
            }
            let max = dist.iter().map(|d| d.0).max().unwrap();
            let mean = total as f64 / dist.len() as f64;
            assert!(
                max as f64 / mean < 1.75,
                "iso {iso}: metacell distribution {dist:?}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_phases_populated() {
        let vol = test_volume();
        let dir = tmpdir("phases");
        let (c, _) = Cluster::build(&vol, &dir, 2, &ClusterBuildOptions::default()).unwrap();
        let e = c.extract(128.0).unwrap();
        for n in &e.report.nodes {
            assert!(n.bytes_read > 0);
            assert!(n.io.read_calls > 0);
            assert!(n.cells_visited >= n.active_cells);
            assert!(n.triangles > 0);
            assert!(n.extraction_wall > Duration::ZERO);
        }
        let exec = e.report.total_exec();
        assert_eq!(exec.records_emitted, e.report.total_active_metacells());
        assert!(exec.bulk_actions + exec.prefix_actions > 0);
        assert!(e.report.total_wall > Duration::ZERO);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_durations_equal_trace_span_sums() {
        // Satellite of the observability layer: the report's Duration fields
        // are *derived views* of the trace's spans — set from the same
        // measured values — so the sums must match exactly, not
        // approximately.
        let vol = test_volume();
        let dir = tmpdir("trace_equiv");
        let (c, _) = Cluster::build(&vol, &dir, 2, &ClusterBuildOptions::default()).unwrap();
        let trace = Trace::new(42, 4096);
        let e = c
            .extract_with_options(
                128.0,
                &ExtractOptions {
                    workers: Some(2),
                    lods: LodSpec::pyramid(),
                    trace: trace.clone(),
                    ..Default::default()
                },
            )
            .unwrap();
        let nodes = e.report.nodes.clone();
        assert!(
            nodes.iter().all(|n| n.active_metacells > 0),
            "equivalence needs every node active"
        );
        let sum = |f: fn(&NodeReport) -> Duration| nodes.iter().map(f).sum::<Duration>();
        assert_eq!(trace.sum("execute_plan"), sum(|n| n.amc_retrieval));
        assert_eq!(trace.sum("triangulate"), sum(|n| n.triangulation_busy));
        assert_eq!(trace.sum("weld"), sum(|n| n.weld_wall));
        // extraction_wall is the whole pipeline span, the joins inside it
        assert_eq!(trace.sum("pipeline"), sum(|n| n.extraction_wall));
        for n in &nodes {
            assert!(n.weld_wall <= n.extraction_wall, "{n:?}");
        }
        assert_eq!(trace.sum("extract"), e.report.total_wall);

        let (chain, report) = e.into_lod_chain();
        assert_eq!(trace.sum("merge_weld"), report.merge_weld_wall);
        assert_eq!(trace.sum("lod"), report.lod_wall);
        assert_eq!(
            report.total_wall,
            trace.sum("extract") + trace.sum("merge_weld") + trace.sum("lod")
        );
        // the weld spans carry their stage's counters, field for field
        let events = trace.events();
        let fields_of = |name: &str| -> Vec<Vec<(&'static str, u64)>> {
            let named = events.iter().filter(|e| e.name == name);
            named.map(|e| e.fields.clone()).collect()
        };
        let weld_spans = fields_of("weld");
        assert_eq!(weld_spans.len(), 2);
        for n in &nodes {
            assert!(weld_spans.contains(&weld_fields(&n.weld).to_vec()));
        }
        assert_eq!(
            fields_of("merge_weld"),
            [weld_fields(&report.merge_weld).to_vec()]
        );
        // one decimate annotation per coarse level, carrying its stats
        let decimate_spans = fields_of("decimate");
        assert_eq!(decimate_spans.len(), chain.len() - 1);
        for (i, fields) in decimate_spans.iter().enumerate() {
            let level = &chain.levels()[i + 1];
            assert_eq!(fields, &decimate_fields(i + 1, &level.stats).to_vec());
        }
        let hashed = report.total_weld().hashed_vertices;
        assert!(0 < hashed && hashed < report.total_weld().input_vertices);
        // the queue_wait annotation carries the wakes each side was issued
        for fields in fields_of("queue_wait") {
            let names: Vec<&str> = fields.iter().map(|f| f.0).collect();
            assert_eq!(names, ["pop_wait_us", "push_wakes", "pop_wakes"]);
        }
        let tree = trace.render_tree();
        assert!(tree.starts_with("extract "), "unexpected tree:\n{tree}");
        assert!(tree.contains("execute_plan"));
        assert!(tree.contains("queue_wait"));
        assert!(tree.contains("decimate"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn render_composites_all_nodes() {
        let vol = test_volume();
        let dir = tmpdir("render");
        let (c, _) = Cluster::build(&vol, &dir, 4, &ClusterBuildOptions::default()).unwrap();
        let e0 = c.extract(128.0).unwrap();
        let soup = e0.merged_soup();
        let bounds = soup.bounds();
        let camera = Camera::orbiting(&bounds, 0.6, 0.5, 2.5);
        let tiles = TileLayout::paper_wall(128, 128);
        let (wall, e) = c
            .extract_and_render(128.0, &camera, &tiles, [0.9, 0.85, 0.6])
            .unwrap();
        assert!(wall.covered_pixels() > 100, "sphere should cover pixels");
        assert!(e.report.composite_wire_bytes > 0);
        for n in &e.report.nodes {
            assert!(n.rendering > Duration::ZERO);
        }

        // the composited wall must equal rendering the merged soup directly
        let mut reference = Framebuffer::new(128, 128);
        rasterize_soup(&soup, &camera, [0.9, 0.85, 0.6], &mut reference);
        let mut diff = 0usize;
        for y in 0..128 {
            for x in 0..128 {
                if reference.color_at(x, y) != wall.color_at(x, y) {
                    diff += 1;
                }
            }
        }
        // identical except possibly where equal depths tie-break differently
        assert!(diff < 40, "{diff} differing pixels");
        std::fs::remove_dir_all(&dir).ok();
    }
}

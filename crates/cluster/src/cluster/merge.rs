//! Merge: the per-node outputs of one extraction, the two functions that
//! decide the kernel ([`join_part`], [`merge_nodes`]), and the merged mesh
//! or LOD pyramid built from them.

use crate::timing::QueryReport;
use oociso_march::weld::WeldStats;
use oociso_march::{
    smooth_surface_nets, stitch_seams, Backend, BlockOutput, DecimateStats, IndexedMesh, LodChain,
    MeshWelder, SeamQuad, Vec3, SN_SMOOTH_PASSES,
};
use oociso_obs::Trace;

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

/// One node's extraction output: everything its parts joined into (the
/// mesh, plus SurfaceNets' cell table and seam quads) and the finished
/// welder that joined them, whose table and seam list
/// ([`MeshWelder::seams`]) are what the cross-node merge looks up.
#[derive(Clone, Debug, Default)]
pub(super) struct NodeOutput {
    pub(super) out: BlockOutput,
    pub(super) welder: MeshWelder,
}

/// The node join, one of the two places the kernel is decided (the other
/// is [`merge_nodes`]): append the next part to the node output. An MC part
/// welds onto the node mesh on its weld candidates. A SurfaceNets part,
/// whose vertices are globally unique by cell ownership, is concatenated
/// through the welder with no lookup, so its vertices keep the order of its
/// cell table and the welder counts them in and out unmerged.
pub(super) fn join_part(backend: Backend, node: &mut NodeOutput, part: &mut BlockOutput) {
    let NodeOutput { out, welder } = node;
    match backend {
        Backend::Mc => welder.append_seams(&mut out.mesh, &part.mesh, &part.weld_candidates),
        Backend::SurfaceNets => welder.append_welded(&mut out.mesh, &part.mesh, &[]),
    }
    out.cells.append(&mut part.cells);
    out.seams.append(&mut part.seams);
}

/// The cross-node merge, the other place the kernel is decided (the first
/// is [`join_part`]), recording its counters and wall into `report` and its
/// span into `trace`.
///
/// MC node meshes join through one deterministic [`MeshWelder`] so vertices
/// fuse across node seams: node 0's welded mesh is the output as-is and its
/// finished welder goes on (its table already holds node 0's seams), and
/// every further node's mesh is joined onto it by its seam list and an
/// index remap — byte-identical to re-welding the concatenated node meshes,
/// hashing nothing but the other nodes' seams. The stage's [`WeldStats`]
/// land in [`QueryReport::merge_weld`].
///
/// SurfaceNets node meshes concatenate (vertices are globally unique by
/// cell ownership — nothing to weld); the deferred seam quads resolve
/// against the concatenated vertex→cell table, then the bounded smoothing
/// passes run over the stitched surface so smoothing reaches across node
/// seams.
fn merge_nodes(
    backend: Backend,
    nodes: Vec<NodeOutput>,
    report: &mut QueryReport,
    trace: &Trace,
) -> IndexedMesh {
    match backend {
        Backend::Mc => {
            let mut nodes = nodes.into_iter();
            let NodeOutput {
                out: first,
                mut welder,
            } = nodes.next().unwrap_or_default();
            let mut out = first.mesh;
            if nodes.len() == 0 {
                // single welded node: already seam-free, nothing to join
                return out;
            }
            let mut sp = trace.span("merge_weld");
            welder.begin_stage(&out);
            for node in nodes {
                welder.append_welded(&mut out, &node.out.mesh, node.welder.seams());
            }
            report.merge_weld = welder.finish(&out);
            for (name, value) in weld_fields(&report.merge_weld) {
                sp.field(name, value);
            }
            report.merge_weld_wall = sp.finish();
            // the merge weld is part of producing this result: fold it into
            // the end-to-end wall so downstream ratios (e.g. weld cost vs
            // total) compare like with like
            report.total_wall += report.merge_weld_wall;
            out
        }
        Backend::SurfaceNets => {
            let sp = trace.span("stitch");
            let total: usize = nodes.iter().map(|n| n.out.mesh.len()).sum();
            let mut out = IndexedMesh::with_capacity(total);
            let cells = nodes.iter().map(|n| n.out.cells.len()).sum();
            let mut all_cells: Vec<u64> = Vec::with_capacity(cells);
            let mut all_seams: Vec<SeamQuad> = Vec::new();
            for node in nodes {
                out.merge(node.out.mesh);
                all_cells.extend(node.out.cells);
                all_seams.extend(node.out.seams);
            }
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
            out
        }
    }
}

/// The result of one parallel extraction: each node's output — its mesh,
/// read through [`ClusterExtraction::node_meshes`], and what the merge
/// needs to join it to the others — plus the per-phase report.
#[derive(Clone, Debug)]
pub struct ClusterExtraction {
    /// One output per node, in node order.
    pub(super) nodes: Vec<NodeOutput>,
    /// Per-node and aggregate measurements.
    pub report: QueryReport,
    /// The kernel that produced this extraction.
    pub(super) backend: Backend,
    /// The request trace the extraction recorded into (from
    /// [`ExtractOptions::trace`](super::ExtractOptions::trace)); the merge
    /// and LOD stages append their spans here too.
    pub(super) trace: Trace,
}

impl ClusterExtraction {
    /// Each node's mesh, in node order: its local geometry, already in
    /// global coordinates. An MC node mesh is fully welded — one vertex per
    /// distinct quantized position across all of the node's metacells. A
    /// SurfaceNets node mesh lacks the seam quads between nodes and the
    /// smoothing, which only [`ClusterExtraction::into_merged`] applies.
    pub fn node_meshes(&self) -> impl ExactSizeIterator<Item = &IndexedMesh> {
        self.nodes.iter().map(|n| &n.out.mesh)
    }

    /// Consume the extraction into the merged mesh plus the report: the
    /// node meshes joined by `merge_nodes`, watertight wherever the
    /// surface is closed. The split return lets callers keep the report
    /// without cloning it.
    pub fn into_merged(self) -> (IndexedMesh, QueryReport) {
        let ClusterExtraction {
            nodes,
            mut report,
            backend,
            trace,
        } = self;
        let mesh = merge_nodes(backend, nodes, &mut report, &trace);
        (mesh, report)
    }

    /// Consume the extraction into the full LOD pyramid plus the report:
    /// merge (as [`ClusterExtraction::into_merged`] does), then build one
    /// decimated level per vertex ratio of `ratios` (strictly decreasing,
    /// see [`LodSpec::ratios`]) — **post-merge**, so every level simplifies
    /// the watertight global mesh rather than per-node fragments. Per-level
    /// [`oociso_march::DecimateStats`] land in [`QueryReport::lod_levels`]
    /// and the decimation wall in [`QueryReport::lod_wall`]. No ratios
    /// yield a 1-level chain (full resolution only).
    pub fn into_lod_chain(self, ratios: &[f64]) -> (LodChain, QueryReport) {
        let trace = self.trace.clone();
        let (mesh, mut report) = self.into_merged();
        let sp = trace.span("lod");
        let chain = LodChain::build_observed(mesh, ratios, |level, wall, stats| {
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

/// The weld counters every `weld`/`merge_weld` span carries.
pub(super) fn weld_fields(weld: &WeldStats) -> [(&'static str, u64); 4] {
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

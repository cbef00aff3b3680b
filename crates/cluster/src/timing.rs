//! Per-phase timing reports.

use oociso_exio::IoSnapshot;
use oociso_itree::plan::ExecStats;
use oociso_march::WeldStats;
use std::time::Duration;

/// One node's measurements for one isosurface query — the row format of the
/// paper's Tables 2–5 (AMC retrieval, triangulation, rendering) plus I/O
/// counters for the modeled times and overlap metrics showing how much of
/// phase (i) hid behind phase (ii).
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeReport {
    /// Node index.
    pub node: usize,
    /// Intra-node triangulation workers actually spawned for this query
    /// (0 when the plan was empty and the pool never started).
    pub workers: usize,
    /// Active metacells this node retrieved.
    pub active_metacells: u64,
    /// Unit cells scanned inside those metacells.
    pub cells_visited: u64,
    /// Cells that produced triangles.
    pub active_cells: u64,
    /// Triangles generated.
    pub triangles: u64,
    /// Bytes of metacell records read.
    pub bytes_read: u64,
    /// Measured wall-clock of AMC retrieval (the paper's metric (i)): time
    /// until the plan finished executing. This includes time blocked on
    /// queue backpressure and runs concurrently with triangulation.
    pub amc_retrieval: Duration,
    /// Measured wall-clock of the whole extraction pipeline (retrieval,
    /// triangulation and the node weld, overlapped): from pipeline start
    /// until the last part has joined the node mesh.
    pub extraction_wall: Duration,
    /// Producer time actually retrieving/decoding records — `amc_retrieval`
    /// minus time blocked pushing into a full queue.
    pub retrieval_busy: Duration,
    /// Summed worker time spent triangulating (CPU-busy, so with `w` workers
    /// this can exceed `extraction_wall` by up to `w×`). The time the same
    /// workers spend joining parts into the node mesh is `weld_wall`.
    pub triangulation_busy: Duration,
    /// High-water mark of records queued between the phases.
    pub peak_queue_records: u64,
    /// High-water mark of record bytes queued between the phases — the
    /// pipeline's actual staging memory.
    pub peak_queue_bytes: u64,
    /// High-water mark of queued *work* (planner cell estimates) between the
    /// phases — what the weighted queue admission actually bounds.
    pub peak_queue_work: u64,
    /// Plan-execution counters: bulk/prefix actions, rejected records, and
    /// the read stream's shape (`read_calls` in `runs`, `bytes_read`).
    pub exec: ExecStats,
    /// Counters of the node join, which welds MC's metacell seams. A
    /// SurfaceNets node is concatenated through the same welder, so its
    /// counters read every vertex in and out with nothing hashed, merged or
    /// dropped.
    pub weld: WeldStats,
    /// Summed time the workers spent joining parts into the node mesh — the
    /// node's seam weld (MC) or concatenation (SurfaceNets). A busy-time
    /// sum like `triangulation_busy`, but the joins hold the node's assembly
    /// lock, so they never overlap one another: it fits inside
    /// `extraction_wall`, which already counts it.
    pub weld_wall: Duration,
    /// Measured wall-clock time rasterizing locally (zero if not rendering).
    pub rendering: Duration,
    /// I/O counters for this node's reads during the query.
    pub io: IoSnapshot,
}

impl NodeReport {
    /// Measured total for this node: the overlapped pipeline wall (node
    /// weld included) plus local rendering.
    pub fn wall_total(&self) -> Duration {
        self.extraction_wall + self.rendering
    }

    /// Per-worker phase (ii) time (`(triangulation_busy + weld_wall) /
    /// workers`): the wall-clock the workers' share of the pipeline —
    /// triangulating records and joining the parts — would take alone, so
    /// the overlap metrics below measure *pipelining* and don't credit plain
    /// multi-worker parallelism (which the busy sums would inflate
    /// `workers`×).
    fn triangulation_phase(&self) -> Duration {
        (self.triangulation_busy + self.weld_wall) / self.workers.max(1) as u32
    }

    /// Wall-clock the pipeline saved versus running its phases back-to-back:
    /// `(retrieval_busy + (triangulation_busy + weld_wall)/workers) −
    /// extraction_wall` (≈ zero when nothing overlapped).
    pub fn overlap_saved(&self) -> Duration {
        (self.retrieval_busy + self.triangulation_phase()).saturating_sub(self.extraction_wall)
    }

    /// Fraction of the shorter phase hidden by the pipeline: 0 = fully
    /// serial, 1 = completely overlapped (clamped).
    pub fn overlap_fraction(&self) -> f64 {
        let shorter = self
            .retrieval_busy
            .min(self.triangulation_phase())
            .as_secs_f64();
        if shorter <= 0.0 {
            return 0.0;
        }
        (self.overlap_saved().as_secs_f64() / shorter).min(1.0)
    }
}

/// One LOD pyramid level's row in a [`QueryReport`] — the decimation
/// analogue of a `NodeReport`: what the level cost and what survived.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LodReport {
    /// Requested vertex fraction of the full-resolution mesh (level 0 = 1).
    pub target_ratio: f64,
    /// Surviving vertices.
    pub vertices: u64,
    /// Surviving triangles.
    pub triangles: u64,
    /// Largest quadric error of any collapse applied building this level
    /// (squared world-space distance; 0 for level 0).
    pub max_error: f64,
    /// Accumulated world-space error gauge versus full resolution
    /// (`LodChain::world_error`).
    pub world_error: f64,
    /// Edge collapses applied for this level.
    pub collapses: u64,
}

/// A whole-cluster query report.
#[derive(Clone, Debug, Default)]
pub struct QueryReport {
    /// The queried isovalue (real-valued).
    pub isovalue: f32,
    /// Per-node rows.
    pub nodes: Vec<NodeReport>,
    /// Weld counters of the cross-node merge stage
    /// ([`oociso_march::MeshWelder`] run by `ClusterExtraction::into_merged`;
    /// zeroed until that merge happens, for SurfaceNets, or when the cluster
    /// has a single node).
    pub merge_weld: WeldStats,
    /// Measured wall-clock of the cross-node merge stage (the merge weld
    /// for MC; the seam stitch + smoothing for SurfaceNets).
    pub merge_weld_wall: Duration,
    /// Triangles appended by the SurfaceNets seam stitch during
    /// `ClusterExtraction::into_merged` (0 for MC, and until that merge
    /// runs). Counted into [`QueryReport::total_triangles`].
    pub stitch_triangles: u64,
    /// Per-level rows of the LOD pyramid (`ClusterExtraction::into_lod_chain`;
    /// empty until that runs, or when no LODs were requested).
    pub lod_levels: Vec<LodReport>,
    /// Measured wall-clock building the LOD pyramid.
    pub lod_wall: Duration,
    /// Bytes the sort-last shuffle moved (0 until rendering runs).
    pub composite_wire_bytes: u64,
    /// Measured wall-clock of the composite step.
    pub composite_wall: Duration,
    /// Measured end-to-end wall clock (threads + composite, plus the
    /// cross-node merge weld once `into_merged` has run).
    pub total_wall: Duration,
}

impl QueryReport {
    /// Total active metacells across nodes.
    pub fn total_active_metacells(&self) -> u64 {
        self.nodes.iter().map(|n| n.active_metacells).sum()
    }

    /// Total triangles across nodes (plus the SurfaceNets seam stitch, once
    /// the merge stage has run).
    pub fn total_triangles(&self) -> u64 {
        self.nodes.iter().map(|n| n.triangles).sum::<u64>() + self.stitch_triangles
    }

    /// Total bytes read across nodes.
    pub fn total_bytes_read(&self) -> u64 {
        self.nodes.iter().map(|n| n.bytes_read).sum()
    }

    /// The slowest node's measured time — the parallel completion time.
    pub fn bottleneck_wall(&self) -> Duration {
        self.nodes
            .iter()
            .map(NodeReport::wall_total)
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// Measured triangle throughput (millions of triangles per second of
    /// end-to-end wall time) — the paper's headline "3.5 ∼ 4.0 M tri/s".
    pub fn mtris_per_sec(&self) -> f64 {
        let secs = self.total_wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.total_triangles() as f64 / 1e6 / secs
    }

    /// Max/mean imbalance of active metacells (Table 6's balance statistic).
    pub fn metacell_imbalance(&self) -> f64 {
        imbalance(self.nodes.iter().map(|n| n.active_metacells))
    }

    /// Max/mean imbalance of triangles (Table 7's balance statistic).
    pub fn triangle_imbalance(&self) -> f64 {
        imbalance(self.nodes.iter().map(|n| n.triangles))
    }

    /// Largest per-node staging high-water mark: the most record bytes any
    /// node held queued between retrieval and triangulation — the actual
    /// peak extraction memory per node (bounded by the queue), not the whole
    /// active set.
    pub fn max_peak_queue_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.peak_queue_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Wall-clock the pipeline saved versus phase-serial execution, summed
    /// across nodes (see [`NodeReport::overlap_saved`]).
    pub fn total_overlap_saved(&self) -> Duration {
        self.nodes.iter().map(NodeReport::overlap_saved).sum()
    }

    /// Plan-execution counters summed across nodes (total bulk/prefix
    /// actions and rejected records of the whole query).
    pub fn total_exec(&self) -> ExecStats {
        self.nodes
            .iter()
            .fold(ExecStats::default(), |acc, n| acc.merged(&n.exec))
    }

    /// Device I/O counters summed across nodes (seeks, forward skips, the
    /// inputs of [`oociso_exio::IoCostModel::modeled_time`]).
    pub fn total_io(&self) -> IoSnapshot {
        self.nodes
            .iter()
            .fold(IoSnapshot::default(), |acc, n| acc.merged(&n.io))
    }

    /// Bytes fetched from the stores per byte of active record delivered
    /// (1.0 = nothing read that was not emitted; 0 when nothing was active).
    pub fn bytes_per_active_byte(&self) -> f64 {
        match self.total_bytes_read() {
            0 => 0.0,
            active => self.total_exec().bytes_read as f64 / active as f64,
        }
    }

    /// Weld counters summed over every stage of the query: each node's
    /// metacell-seam weld plus the cross-node merge weld. The sums of
    /// `vertices_merged()`/`degenerate_dropped`/`hashed_vertices` are exact
    /// totals; `input_vertices` counts a vertex once per stage it entered.
    pub fn total_weld(&self) -> WeldStats {
        self.nodes
            .iter()
            .fold(self.merge_weld, |acc, n| acc.merged(&n.weld))
    }

    /// Time spent welding, summed over nodes and the merge stage. A
    /// CPU-style sum: the node welds ran concurrently, so with two or more
    /// nodes this can exceed the query's wall — compare it with summed busy
    /// times, and [`QueryReport::weld_critical_path`] with `total_wall`.
    pub fn total_weld_wall(&self) -> Duration {
        self.merge_weld_wall + self.nodes.iter().map(|n| n.weld_wall).sum::<Duration>()
    }

    /// Wall-clock the weld adds to the query: the slowest node's weld (the
    /// node welds overlap one another; each node's joins are serialized by
    /// its assembly lock, so its `weld_wall` is wall-clock inside its
    /// pipeline) plus the serial merge stage. Each join is counted once.
    pub fn weld_critical_path(&self) -> Duration {
        let slowest = self.nodes.iter().map(|n| n.weld_wall).max();
        self.merge_weld_wall + slowest.unwrap_or(Duration::ZERO)
    }
}

fn imbalance(counts: impl Iterator<Item = u64>) -> f64 {
    let v: Vec<u64> = counts.collect();
    if v.is_empty() {
        return 1.0;
    }
    let total: u64 = v.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let mean = total as f64 / v.len() as f64;
    *v.iter().max().unwrap() as f64 / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A node row with `ms` = (amc_retrieval, extraction_wall, rendering).
    fn node(n: usize, amc: u64, tris: u64, ms: (u64, u64, u64)) -> NodeReport {
        NodeReport {
            node: n,
            active_metacells: amc,
            triangles: tris,
            amc_retrieval: Duration::from_millis(ms.0),
            extraction_wall: Duration::from_millis(ms.1),
            rendering: Duration::from_millis(ms.2),
            ..Default::default()
        }
    }

    #[test]
    fn aggregation() {
        let r = QueryReport {
            isovalue: 70.0,
            nodes: vec![
                node(0, 100, 5000, (10, 30, 5)),
                node(1, 110, 5500, (11, 33, 5)),
            ],
            composite_wire_bytes: 1024,
            composite_wall: Duration::from_millis(2),
            total_wall: Duration::from_millis(40),
            ..Default::default()
        };
        assert_eq!(r.total_active_metacells(), 210);
        assert_eq!(r.total_triangles(), 10_500);
        assert_eq!(r.bottleneck_wall(), Duration::from_millis(38));
        let rate = r.mtris_per_sec();
        assert!((rate - 10_500.0 / 1e6 / 0.040).abs() < 1e-6);
    }

    #[test]
    fn weld_share_of_the_wall_uses_the_critical_path_not_the_sum() {
        // two nodes welding 12 ms each, side by side, then a 22 ms merge in
        // a 45 ms query: 46 ms of welding was done, 34 ms of it on the wall
        let welding = |n: usize| NodeReport {
            weld_wall: Duration::from_millis(12),
            ..node(n, 1, 1, (0, 0, 0))
        };
        let r = QueryReport {
            nodes: vec![welding(0), welding(1)],
            merge_weld_wall: Duration::from_millis(22),
            total_wall: Duration::from_millis(45),
            ..Default::default()
        };
        assert_eq!(r.total_weld_wall(), Duration::from_millis(46));
        assert!(r.total_weld_wall() > r.total_wall, "a sum, not a share");
        assert_eq!(r.weld_critical_path(), Duration::from_millis(34));
        assert!(r.weld_critical_path() <= r.total_wall);
        assert_eq!(QueryReport::default().weld_critical_path(), Duration::ZERO);
    }

    #[test]
    fn imbalance_stats() {
        let r = QueryReport {
            isovalue: 0.0,
            nodes: vec![node(0, 10, 100, (0, 0, 0)), node(1, 30, 100, (0, 0, 0))],
            ..Default::default()
        };
        assert!((r.metacell_imbalance() - 1.5).abs() < 1e-9);
        assert!((r.triangle_imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_report_is_sane() {
        let r = QueryReport::default();
        assert_eq!(r.total_triangles(), 0);
        assert_eq!(r.mtris_per_sec(), 0.0);
        assert_eq!(r.bottleneck_wall(), Duration::ZERO);
        assert_eq!(r.metacell_imbalance(), 1.0);
        assert_eq!(r.max_peak_queue_bytes(), 0);
        assert_eq!(r.total_overlap_saved(), Duration::ZERO);
    }

    #[test]
    fn overlap_metrics() {
        // 100 ms retrieval + 60 ms triangulation overlapped into 110 ms wall:
        // 50 ms hidden = 5/6 of the shorter phase.
        let n = NodeReport {
            amc_retrieval: Duration::from_millis(100),
            extraction_wall: Duration::from_millis(110),
            retrieval_busy: Duration::from_millis(100),
            triangulation_busy: Duration::from_millis(60),
            rendering: Duration::from_millis(7),
            ..Default::default()
        };
        assert_eq!(n.wall_total(), Duration::from_millis(117));
        assert_eq!(n.overlap_saved(), Duration::from_millis(50));
        assert!((n.overlap_fraction() - 50.0 / 60.0).abs() < 1e-9);
        // the same 60 ms of worker time split into triangulating and
        // joining parts: the joins ran inside the pipeline, so the wall
        // counts them once and the overlap is unchanged
        let joined = NodeReport {
            triangulation_busy: Duration::from_millis(40),
            weld_wall: Duration::from_millis(20),
            ..n
        };
        assert_eq!(joined.wall_total(), n.wall_total());
        assert_eq!(joined.overlap_saved(), n.overlap_saved());

        // fully serial: nothing hidden
        let serial = NodeReport {
            extraction_wall: Duration::from_millis(160),
            retrieval_busy: Duration::from_millis(100),
            triangulation_busy: Duration::from_millis(60),
            ..Default::default()
        };
        assert_eq!(serial.overlap_saved(), Duration::ZERO);
        assert_eq!(serial.overlap_fraction(), 0.0);

        // 4 workers, phases back to back: triangulation_busy is a CPU-time
        // sum (~4× the phase wall); plain parallelism must not read as overlap
        let batch = NodeReport {
            workers: 4,
            extraction_wall: Duration::from_millis(160), // 100 retrieval + 60 tri wall
            retrieval_busy: Duration::from_millis(100),
            triangulation_busy: Duration::from_millis(220), // 4 workers ≈ 55 ms each
            ..Default::default()
        };
        assert_eq!(batch.overlap_saved(), Duration::ZERO);
        assert_eq!(batch.overlap_fraction(), 0.0);
    }
}

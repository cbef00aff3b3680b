//! The node pipeline: one thread per node plans against its index and
//! streams its active records through a bounded queue into a worker pool
//! that triangulates them and joins each part into the node output
//! ([`Assembly`]); plus the render-and-composite path on top of it.

use super::build::Cluster;
use super::merge::{join_part, weld_fields, ClusterExtraction, NodeOutput};
use crate::timing::{NodeReport, QueryReport};
use oociso_exio::BoundedQueue;
use oociso_itree::plan::{execute_plan_at, ExecStats};
use oociso_march::mc::McStats;
use oociso_march::{Backend, BackendScratch, BlockDomain, BlockOutput, ExtractionBackend};
use oociso_metacell::MetacellRecord;
use oociso_obs::{Span, Trace};
use oociso_render::{rasterize_mesh, Camera, Framebuffer, TileLayout};
use oociso_volume::{ScalarValue, Volume};
use std::collections::BTreeMap;
use std::io;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Bound (in full-metacell records of work) of the retrieval→triangulation
/// queue. It must hold one run-reader refill's records (`STREAM_CHUNK`,
/// 32 KiB, is 100–140 packed u8 metacells on smooth fields), or the producer
/// blocks mid-refill and the device idles while the workers catch up.
/// Staging stays tens of KB, what 64 raw records took.
pub const QUEUE_RECORDS: usize = 192;

/// Options for one extraction query.
#[derive(Clone, Debug)]
pub struct ExtractOptions {
    /// Per-node worker count (`None` → cores ÷ nodes, see
    /// [`Cluster::extract`]).
    pub workers: Option<usize>,
    /// Extraction kernel. [`Backend::Mc`] (default) triangulates per cell
    /// and welds vertices across metacell and node seams, so the merged
    /// surface is watertight wherever the isosurface is closed;
    /// [`Backend::SurfaceNets`] emits one vertex per active cell with
    /// deferred seam quads stitched during [`ClusterExtraction::into_merged`]
    /// — vertices are globally unique by construction, so it never welds.
    /// `join_part` and `merge_nodes` (`merge.rs`) are the only code that
    /// tells the two apart.
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
            backend: Backend::default(),
            trace: Trace::detached(),
        }
    }
}

/// The read-stream counters every `execute_plan` span carries.
fn exec_fields(span: &mut Span, exec: &ExecStats) {
    span.field("read_calls", exec.read_calls);
    span.field("runs", exec.runs);
    span.field("bytes_read", exec.bytes_read);
}

/// A node output under construction. Each worker triangulates a record
/// into its own part buffer and then offers the part here, under the node's
/// lock: the part joins the node output at once if it is the next in
/// sequence order (followed by every stashed successor that is now in
/// order), and waits in the stash otherwise. With one worker nothing is
/// ever stashed; with more, the stash holds only the parts that finished
/// ahead of their turn.
pub(super) struct Assembly {
    /// Sequence number of the next part to join.
    pub(super) next: u64,
    /// The kernel the parts came from, for [`join_part`].
    backend: Backend,
    /// The node output so far.
    pub(super) node: NodeOutput,
    /// Parts that finished ahead of their turn, by sequence number.
    pub(super) stash: BTreeMap<u64, BlockOutput>,
    /// Summed time spent joining parts.
    busy: Duration,
}

impl Assembly {
    pub(super) fn new(backend: Backend) -> Assembly {
        Assembly {
            next: 0,
            backend,
            node: NodeOutput::default(),
            stash: BTreeMap::new(),
            busy: Duration::ZERO,
        }
    }

    /// Offer part `seq`: join it and its stashed successors if it is next,
    /// else move it into the stash, leaving `part` a fresh buffer.
    pub(super) fn offer(&mut self, seq: u64, part: &mut BlockOutput) {
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

    /// Append the next part.
    fn join(&mut self, part: &mut BlockOutput) {
        join_part(self.backend, &mut self.node, part);
        self.next += 1;
    }
}

impl<S: ScalarValue> Cluster<S> {
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

    /// [`Cluster::extract`] with explicit options (workers, kernel, trace).
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
        let results: Vec<io::Result<(NodeOutput, NodeReport)>> = std::thread::scope(|scope| {
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
        let (outputs, reports) = results
            .into_iter()
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .unzip();
        let report = QueryReport {
            isovalue: iso,
            nodes: reports,
            total_wall: sp_extract.finish(),
            ..Default::default()
        };
        Ok(ClusterExtraction {
            nodes: outputs,
            report,
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
    /// mesh part, which the worker that made it joins into the node output
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
    ) -> io::Result<(NodeOutput, NodeReport)> {
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
                NodeOutput::default(),
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
        let assembly = Mutex::new(Assembly::new(backend));
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
            node: output,
            stash,
            busy: weld_wall,
            ..
        } = assembly.into_inner().expect("assembly poisoned");
        debug_assert!(next == exec.records_emitted && stash.is_empty());
        // the joins ran on the workers, inside the pipeline span: weld_wall
        // is their summed busy time, already part of extraction_wall
        let weld_stats = output.welder.stats(&output.out.mesh);
        sp_pipe.annotate("weld", weld_wall, &weld_fields(&weld_stats));
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
            output,
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
                .node_meshes()
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
}

//! The layer walk: every call the benchmark makes *below* the
//! `ClusterDatabase` / `IsoServer` / `Client` facade is in this file, so a
//! move in the library's public API is a one-file change here.
//!
//! A traced run first replays its workload, then walks the same isovalues
//! serially through the layers, one span per call into a public function.
//! Timings are read back from those spans; counts come from the values the
//! calls return.

use crate::trace::{SpanId, Tracer};
use oociso::core::{ClusterDatabase, ExtractOptions, PreprocessOptions, QueryReport};
use oociso::exio::{DiskFarm, IoCostModel, MemDevice, RecordStore, Span, ThrottledDevice};
use oociso::itree::{execute_plan, persist, size, CompactIntervalTree, MetacellRecordFormat};
use oociso::march::{
    Backend, BackendScratch, BlockDomain, BlockOutput, IndexedMesh, LodChain, MeshWelder,
};
use oociso::metacell::{scan_reader, MetacellInterval, MetacellLayout, MetacellRecord};
use oociso::serve::protocol::{encode_mesh_response_frame, read_frame, FrameIn, VERSION};
use oociso::serve::{CachedSurface, Client, ResultCache};
use oociso::volume::io::RawVolumeReader;
use oociso::volume::{ScalarValue, Volume};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Duration;

pub const METACELL_K: usize = 9;
/// One node thread per core of the target box; still exercises the
/// cross-node merge weld.
pub const NODES: usize = 2;
/// The `oociso serve` default pyramid, 100 % / 25 % / 6 %.
pub const LOD_RATIOS: [f64; 2] = [0.25, 0.06];
/// The repository's `pipeline_overlap` disk: the device sleeps, the CPU
/// stays free.
const SLOW_DISK_LATENCY: Duration = Duration::from_micros(500);
const SLOW_DISK_BYTES_PER_S: f64 = 25.0e6;
/// Pings per walked operation (each its own span; the metric is their median).
const PINGS: usize = 20;

pub fn preprocess_options() -> PreprocessOptions {
    PreprocessOptions {
        metacell_k: METACELL_K,
        nodes: NODES,
        mmap: true,
    }
}

fn slow_store(dir: &Path, node: usize) -> io::Result<RecordStore> {
    let bricks = std::fs::read(DiskFarm::new(dir, NODES).store_path(node))?;
    Ok(RecordStore::from_device(Box::new(ThrottledDevice::new(
        MemDevice::new(bricks),
        SLOW_DISK_LATENCY,
        SLOW_DISK_BYTES_PER_S,
    ))))
}

/// Put every node's bricks of the database in `dir` behind the slow disk.
pub fn throttle(db: &mut ClusterDatabase<u8>, dir: &Path) -> io::Result<()> {
    for node in 0..db.nodes() {
        db.replace_store(node, slow_store(dir, node)?);
    }
    Ok(())
}

/// Counts of the set-up layers (paper Table 1).
pub struct SetupCounts {
    pub kept: u64,
    pub culled: u64,
    pub index_bytes: u64,
}

/// Walk the set-up layers on their own: one `metacell.scan` pass into a
/// discarding sink, then `itree.build` (striped build with offsets assigned
/// but no payload written, plus saving each node's index under `scratch`).
pub fn walk_setup(tr: &mut Tracer, volume: &Path, scratch: &Path) -> io::Result<SetupCounts> {
    let mut reader = RawVolumeReader::<u8>::open(volume)?;
    let layout = MetacellLayout::new(reader.dims(), METACELL_K);
    let sp = tr.root("metacell.scan", 0);
    let stats = scan_reader(&mut reader, METACELL_K, |_| Ok(()))?;
    tr.end(sp);

    let mut intervals: Vec<MetacellInterval> = Vec::new();
    scan_reader(&mut reader, METACELL_K, |built| {
        intervals.push(built.interval);
        Ok(())
    })?;
    std::fs::create_dir_all(scratch)?;
    let sp = tr.root("itree.build", 0);
    let mut cursors = [0u64; NODES];
    let trees = CompactIntervalTree::build_striped(&intervals, NODES, &mut |stripe, iv| {
        let len = layout.record_len(iv.id, u8::BYTES) as u64;
        let offset = cursors[stripe];
        cursors[stripe] += len;
        Ok(Span { offset, len })
    })?;
    for (node, tree) in trees.iter().enumerate() {
        persist::save(tree, &scratch.join(format!("node{node}.index")))?;
    }
    tr.end(sp);
    Ok(SetupCounts {
        kept: stats.kept_metacells as u64,
        culled: stats.culled_metacells as u64,
        index_bytes: trees
            .iter()
            .map(|t| size::compact_size(t, u8::BYTES).bytes)
            .sum(),
    })
}

/// Counts of one end-to-end operation (a sweep, or one served isovalue),
/// summed over its isovalues and nodes.
#[derive(Clone, Debug, Default)]
pub struct OpCounts {
    // itree / exio: the plans and their execution on the workload's device
    pub plan_actions: u64,
    pub records_accepted: u64,
    pub records_rejected: u64,
    pub active_bytes: u64,
    pub read_calls: u64,
    pub bytes_read: u64,
    pub seeks: u64,
    pub skip_bytes: u64,
    pub modeled_s: f64,
    // march: the single-thread kernel walk
    pub cells_visited: u64,
    pub active_cells: u64,
    pub triangles: u64,
    pub weld_vertices_merged: u64,
    pub decimate_collapses: u64,
    pub lod_world_error: [f64; 2],
    // cluster: the composed extraction's own report
    pub node_metacells: [u64; NODES],
    pub node_triangles: [u64; NODES],
    pub peak_queue_bytes: u64,
    pub report_triangles: u64,
    pub report_wall_s: f64,
    // serve
    pub wire_bytes_full: u64,
    pub wire_bytes_coarse: u64,
}

impl OpCounts {
    /// Fold one query's report in (Tables 6–7 balance, queue peak, MTri/s).
    pub fn absorb_report(&mut self, report: &QueryReport) {
        for n in &report.nodes {
            self.node_metacells[n.node] += n.active_metacells;
            self.node_triangles[n.node] += n.triangles;
        }
        self.peak_queue_bytes = self.peak_queue_bytes.max(report.max_peak_queue_bytes());
        self.report_triangles += report.total_triangles();
        self.report_wall_s += report.total_wall.as_secs_f64();
    }
}

/// Max ÷ mean of per-node counts (1.0 = perfectly balanced).
pub fn imbalance(per_node: &[u64]) -> f64 {
    let total: u64 = per_node.iter().sum();
    match total {
        0 => 1.0,
        _ => {
            *per_node.iter().max().expect("at least one node") as f64 * per_node.len() as f64
                / total as f64
        }
    }
}

/// How far down the stack an operation reaches.
#[derive(Clone, Copy, PartialEq)]
pub enum Depth {
    /// Plan → retrieve → decode → triangulate → weld: what an in-process
    /// extraction does (the composed call itself is timed by the replay).
    Extraction,
    /// Additionally the composed extraction, the LOD pyramid, the cache,
    /// the wire encoding, a loopback socket and the client decode: what a
    /// served miss does.
    Served,
}

/// State the walk keeps between isovalues.
pub struct Walker {
    /// On the workload's device; source of the trees and the layout, and the
    /// target of the composed call.
    db: ClusterDatabase<u8>,
    /// The workload's device again, for the bare retrieval probe.
    stores: Vec<RecordStore>,
    /// Page-cache-hot mmap stores the kernel walk collects its records from.
    hot: Vec<RecordStore>,
    cache: ResultCache,
    loopback: (TcpStream, TcpStream),
    /// A connection to the workload's live server, for the ping floor.
    ping: Option<Client>,
}

impl Walker {
    pub fn open(
        dir: &Path,
        slow_disk: bool,
        cache_bytes: u64,
        ping: Option<Client>,
    ) -> io::Result<Walker> {
        let mut db = ClusterDatabase::<u8>::open(dir, true)?;
        let farm = DiskFarm::new(dir, NODES);
        let hot = farm.open_stores(true)?;
        let stores = if slow_disk {
            throttle(&mut db, dir)?;
            (0..NODES)
                .map(|node| slow_store(dir, node))
                .collect::<io::Result<_>>()?
        } else {
            farm.open_stores(true)?
        };
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let tx = TcpStream::connect(listener.local_addr()?)?;
        let (rx, _) = listener.accept()?;
        tx.set_nodelay(true)?;
        Ok(Walker {
            db,
            stores,
            hot,
            cache: ResultCache::new(cache_bytes),
            loopback: (tx, rx),
            ping,
        })
    }

    /// Walk `iso` through the layers under `parent`, adding to `counts`.
    pub fn walk(
        &mut self,
        tr: &mut Tracer,
        parent: SpanId,
        request: u64,
        iso: f32,
        depth: Depth,
        counts: &mut OpCounts,
    ) -> io::Result<()> {
        let cluster = self.db.cluster();
        let layout = *cluster.layout();
        let format = MetacellRecordFormat::<u8>::new(layout);
        let key = u8::query_key(iso);

        for node in 0..NODES {
            let sp = tr.begin("itree.plan", parent, request);
            let plan = cluster.trees()[node].plan(key);
            tr.end(sp);
            counts.plan_actions += plan.actions.len() as u64;

            let device = self.stores[node].device();
            let before = device.io_snapshot();
            let mut active_bytes = 0u64;
            let sp = tr.begin("exio.retrieve", parent, request);
            let exec = execute_plan(&plan, &self.stores[node], &format, |_, record| {
                active_bytes += record.len() as u64;
            })?;
            tr.end(sp);
            let io = device.io_snapshot().since(&before);
            counts.records_accepted += exec.records_emitted;
            counts.records_rejected += exec.records_rejected;
            counts.active_bytes += active_bytes;
            counts.read_calls += io.read_calls;
            counts.bytes_read += io.bytes_read;
            counts.seeks += io.seeks;
            counts.skip_bytes += io.skip_bytes;
            counts.modeled_s += IoCostModel::paper_disk().modeled_time(&io).as_secs_f64();

            // the same records again from the hot store, kept this time
            let mut records: Vec<Vec<u8>> = Vec::with_capacity(exec.records_emitted as usize);
            execute_plan(&plan, &self.hot[node], &format, |_, record| {
                records.push(record.to_vec());
            })?;

            // decode as the pipeline's workers do: one reused buffer
            let mut scalars: Vec<u8> = Vec::new();
            let sp = tr.begin("metacell.decode", parent, request);
            for record in &records {
                MetacellRecord::<u8>::decode_scalars_into(record, &layout, &mut scalars);
            }
            tr.end(sp);

            let blocks: Vec<(BlockDomain, Volume<u8>)> = records
                .iter()
                .map(|record| {
                    let (id, ..) =
                        MetacellRecord::<u8>::decode_scalars_into(record, &layout, &mut scalars);
                    let domain = BlockDomain {
                        origin: layout.vertex_box(id).0,
                        volume_dims: layout.volume_dims(),
                    };
                    (
                        domain,
                        Volume::from_vec(layout.cell_dims(id), scalars.clone()),
                    )
                })
                .collect();
            drop(records);

            let mut scratch = BackendScratch::new();
            let mc = Backend::Mc.instance::<u8>();
            let sp = tr.begin("march.mc", parent, request);
            let parts: Vec<IndexedMesh> = blocks
                .iter()
                .map(|(domain, block)| {
                    let mut out = BlockOutput::default();
                    let stats = mc.extract_block(block, iso, domain, &mut out, &mut scratch);
                    counts.cells_visited += stats.cells_visited;
                    counts.active_cells += stats.active_cells;
                    counts.triangles += stats.triangles;
                    out.mesh
                })
                .collect();
            tr.end(sp);

            let sp = tr.begin("march.weld", parent, request);
            let mut welded = IndexedMesh::with_capacity(parts.iter().map(IndexedMesh::len).sum());
            let mut welder = MeshWelder::new();
            for part in &parts {
                welded.merge_welded(part, &mut welder);
            }
            let weld = welder.finish(&welded);
            tr.end(sp);
            counts.weld_vertices_merged += weld.vertices_merged();
            drop((parts, welded));

            let sn = Backend::SurfaceNets.instance::<u8>();
            let sp = tr.begin("march.sn", parent, request);
            for (domain, block) in &blocks {
                let mut out = BlockOutput::default();
                sn.extract_block(block, iso, domain, &mut out, &mut scratch);
            }
            tr.end(sp);
        }
        if depth == Depth::Extraction {
            return Ok(());
        }

        let sp = tr.begin("cluster.extract", parent, request);
        let extraction = cluster.extract_with_options(iso, &ExtractOptions::default())?;
        tr.end(sp);
        let sp = tr.begin("cluster.merge", parent, request);
        let (mesh, report) = extraction.into_merged();
        tr.end(sp);
        counts.absorb_report(&report);

        let chain = LodChain::build_observed(mesh, &LOD_RATIOS, |level, wall, stats| {
            let name = ["march.decimate_l1", "march.decimate_l2"][level - 1];
            tr.closed(name, parent, request, wall);
            counts.decimate_collapses += stats.collapses;
        });
        counts.lod_world_error = [chain.world_error(1), chain.world_error(2)];

        // a miss inserts the whole pyramid; a hit looks one level up
        let active_metacells = report.total_active_metacells();
        for (lod, level) in chain.levels().iter().enumerate() {
            let surface = CachedSurface {
                mesh: level.mesh.clone(),
                active_metacells,
                world_error: chain.world_error(lod),
            };
            let sp = tr.begin("serve.cache_insert", parent, request);
            self.cache
                .insert(iso, Backend::Mc.id(), lod as u16, surface);
            tr.end(sp);
        }
        for lod in 0..chain.len() as u16 {
            let sp = tr.begin("serve.cache_get", parent, request);
            let hit = self.cache.get(iso, Backend::Mc.id(), lod);
            tr.end(sp);
            drop(hit);
        }

        let mut frames = Vec::new();
        for (lod, encode, decode) in [
            (0u16, "serve.encode_full", "serve.decode_full"),
            (2u16, "serve.encode_coarse", "serve.decode_coarse"),
        ] {
            let mesh = &chain.levels()[lod as usize].mesh;
            let sp = tr.begin(encode, parent, request);
            let frame = encode_mesh_response_frame(
                true,
                active_metacells,
                lod,
                false,
                Backend::Mc.id(),
                0,
                mesh,
                VERSION,
            );
            tr.end(sp);
            let sp = tr.begin(decode, parent, request);
            let decoded = read_frame(&mut frame.as_slice())?;
            tr.end(sp);
            if !matches!(decoded, Some(FrameIn::Ok { .. })) {
                return Err(io::Error::other("encoded mesh frame did not decode"));
            }
            frames.push(frame);
        }
        counts.wire_bytes_full += frames[0].len() as u64;
        counts.wire_bytes_coarse += frames[1].len() as u64;

        // the full frame through a bare socket pair: the kernel's share of a hit
        let (tx, rx) = &mut self.loopback;
        let mut received = vec![0u8; frames[0].len()];
        let sp = tr.begin("serve.loopback_full", parent, request);
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| tx.write_all(&frames[0]));
            rx.read_exact(&mut received)?;
            writer.join().expect("loopback writer panicked")
        })?;
        tr.end(sp);

        if let Some(client) = &mut self.ping {
            for _ in 0..PINGS {
                let sp = tr.begin("serve.ping", parent, request);
                client.ping(0)?;
                tr.end(sp);
            }
        }
        Ok(())
    }
}

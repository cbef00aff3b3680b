//! The cluster's tests, build through merge.

use super::build::{index_path, spill_path, write_stores};
use super::extract::Assembly;
use super::merge::{weld_fields, NodeOutput};
use super::*;
use crate::meta::ClusterMeta;
use crate::timing::NodeReport;
use oociso_exio::{DiskFarm, RecordStore};
use oociso_itree::{persist, CompactIntervalTree};
use oociso_march::mc::marching_cubes;
use oociso_march::weld::WeldStats;
use oociso_march::{Backend, BackendScratch, BlockDomain, BlockOutput, IndexedMesh, Vec3};
use oociso_metacell::{MetacellLayout, MetacellRecord};
use oociso_obs::Trace;
use oociso_render::rasterize_mesh;
use oociso_render::{Camera, Framebuffer, TileLayout};
use oociso_volume::field::{FieldExt, SphereField};
use oociso_volume::Dims3;
use oociso_volume::{ScalarValue, Volume};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn tmpdir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("oociso_cluster_{}_{}", std::process::id(), name));
    p
}

fn test_volume() -> Volume<u8> {
    SphereField::centered(0.32, 128.0).sample(Dims3::new(33, 33, 33))
}

fn opts(nodes: usize) -> PreprocessOptions {
    PreprocessOptions {
        nodes,
        ..Default::default()
    }
}

/// Extraction options with `n` workers per node.
fn with_workers(n: usize) -> ExtractOptions {
    ExtractOptions {
        workers: Some(n),
        ..Default::default()
    }
}

/// The node meshes, node after node, concatenated without a weld.
fn node_mesh(e: &ClusterExtraction) -> IndexedMesh {
    let mut out = IndexedMesh::new();
    for m in e.node_meshes() {
        out.merge(m.clone());
    }
    out
}

#[test]
fn parallel_matches_serial_triangles() {
    let vol = test_volume();
    // ground truth: whole-volume marching cubes
    let mut truth = IndexedMesh::new();
    marching_cubes(
        &vol,
        128.0,
        Vec3::ZERO,
        Vec3::new(1.0, 1.0, 1.0),
        &mut truth,
    );

    let d1 = tmpdir("p1");
    let (c1, stats1) = Cluster::build(&vol, &d1, &opts(1)).unwrap();
    let e1 = c1.extract(128.0).unwrap();
    assert_eq!(e1.report.total_triangles() as usize, truth.len());
    assert!(stats1.kept_metacells > 0);

    let d4 = tmpdir("p4");
    let (c4, stats4) = Cluster::build(&vol, &d4, &opts(4)).unwrap();
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

fn assert_same_triangle_stream(a: &IndexedMesh, b: &IndexedMesh, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: triangle count");
    for (x, y) in a.triangles().zip(b.triangles()) {
        assert_eq!(x, y, "{ctx}: triangle stream diverged");
    }
}

#[test]
fn worker_count_does_not_change_output() {
    let vol = test_volume();
    let dir = tmpdir("workers");
    let (c, _) = Cluster::build(&vol, &dir, &opts(1)).unwrap();
    let base = c.extract_with_options(128.0, &with_workers(1)).unwrap();
    assert_eq!(base.report.nodes[0].workers, 1);
    let base_mesh = node_mesh(&base);
    assert!(!base_mesh.is_empty());
    for workers in [2, 3, 8] {
        // spawns exactly the requested pool
        let e = c
            .extract_with_options(128.0, &with_workers(workers))
            .unwrap();
        assert_eq!(e.report.nodes[0].workers, workers, "workers={workers}");
        // per-record parts joined in sequence order → the triangle
        // stream is bit-identical, not just multiset-equal
        assert_same_triangle_stream(&node_mesh(&e), &base_mesh, &format!("workers={workers}"));
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
    let (c, _) = Cluster::build(&vol, &dir, &opts(2)).unwrap();
    let e = c.extract_with_options(250.0, &with_workers(4)).unwrap();
    assert!(node_mesh(&e).is_empty());
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
    for m in e.node_meshes() {
        concat.merge(m.clone());
    }
    let (expect, expect_stats) = concat.welded();
    let joined = e.node_meshes().len() > 1;
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
        let (c, _) = Cluster::build(&vol, &dir, &opts(nodes)).unwrap();
        let mut first: Option<ClusterExtraction> = None;
        for workers in [1, 2, 3] {
            let ctx = format!("{nodes} nodes, {workers} workers");
            let e = c
                .extract_with_options(128.0, &with_workers(workers))
                .unwrap();
            assert!(e.report.total_weld().degenerate_dropped > 0, "{ctx}");
            let first = first.get_or_insert_with(|| e.clone());
            assert!(e.node_meshes().eq(first.node_meshes()), "{ctx}");
            let seams = |e: &ClusterExtraction| -> Vec<Vec<u32>> {
                e.nodes.iter().map(|n| n.welder.seams().to_vec()).collect()
            };
            assert_eq!(seams(&e), seams(first), "{ctx}");
            for NodeOutput { out, welder: w } in &e.nodes {
                assert!(w.seams().windows(2).all(|w| w[0] < w[1]), "{ctx}");
                assert!(
                    w.seams().len() < out.mesh.num_vertices(),
                    "{ctx}: seam set only"
                );
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
    let (built, _) = oociso_metacell::scan_volume(&vol, &layout);
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
    let mut in_order = Assembly::new(Backend::Mc);
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
    let mut shuffled = Assembly::new(Backend::Mc);
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
    let (got, want) = (&shuffled.node.out.mesh, &in_order.node.out.mesh);
    assert_eq!(bits(got), bits(want));
    assert_eq!(got.indices(), want.indices());
    let (a, b) = (&shuffled.node.welder, &in_order.node.welder);
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
    let (c, _) = Cluster::build(&vol, &dir, &opts(3)).unwrap();
    let e = c.extract(1.0).unwrap();
    let active: Vec<bool> = e.node_meshes().map(|m| !m.is_empty()).collect();
    assert_eq!(active, [true, true, false], "fixture drifted");
    assert!(e.clone().into_merged().1.merge_weld.vertices_merged() > 0);
    assert_merge_equals_reweld(e.clone(), "empty node last");
    // the round-robin deal starts every brick at node 0, so an empty
    // node never *precedes* a busy one in a real query; rotate one there
    let mut rotated = e;
    rotated.nodes.rotate_right(1);
    rotated.report.nodes.rotate_right(1);
    assert!(rotated.nodes[0].out.mesh.is_empty());
    assert_merge_equals_reweld(rotated, "empty node first");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn extraction_matches_reference_kernel_exactly() {
    // cluster path (slab kernel over decoded metacell records) vs the
    // monolithic reference kernel: identical canonical triangle multiset
    let vol = test_volume();
    let mut truth = IndexedMesh::new();
    marching_cubes(
        &vol,
        128.0,
        Vec3::ZERO,
        Vec3::new(1.0, 1.0, 1.0),
        &mut truth,
    );
    let dir = tmpdir("exact");
    let (c, _) = Cluster::build(&vol, &dir, &opts(3)).unwrap();
    let e = c.extract(128.0).unwrap();
    // the integer isovalue on u8 samples puts some crossings exactly on
    // cell corners; those triangles collapse under quantization and the
    // node welds drop them, so the extracted multiset must equal truth
    // minus exactly the collapsed triangles
    let (kept, collapsed) = oociso_march::split_collapsed(truth.canonical_triangles());
    assert!(collapsed > 0, "iso 128 should collapse corner crossings");
    assert_eq!(e.report.total_weld().degenerate_dropped, collapsed as u64);
    assert_eq!(kept, node_mesh(&e).canonical_triangles());
    // per-node meshes really are indexed: shared crossings deduplicated
    for m in e.node_meshes() {
        assert!(m.num_vertices() < 3 * m.len(), "no dedup in node mesh");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Rebuild a node store over a throttled in-memory copy of its bricks:
/// reads sleep like a slow disk while the CPU stays free, exactly the
/// regime the streaming pipeline exists for.
fn throttled_store(dir: &Path, node: usize, latency: Duration, bytes_per_sec: f64) -> RecordStore {
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
        let (c, _) = Cluster::build(&vol, &dir, &opts(1)).unwrap();
        let plain = c.extract_with_options(128.0, &with_workers(1)).unwrap(); // also warms the store
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
    let streamed = c.extract_with_options(128.0, &with_workers(1)).unwrap();

    // throttling must not change the geometry
    assert_same_triangle_stream(&node_mesh(&streamed), &node_mesh(&plain), "throttled");

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
    let (mut c, _) = Cluster::build(&vol, &dir, &opts(1)).unwrap();
    // keep only a sliver: any planned read must run past EOF
    let full = std::fs::read(DiskFarm::new(&dir, 1).store_path(0)).unwrap();
    let sliver = full[..4].to_vec();
    c.replace_store(0, RecordStore::in_memory(sliver));
    let err = c.extract_with_options(128.0, &with_workers(3)).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    std::fs::remove_dir_all(&dir).ok();
}

/// Extract at `iso` on 3 workers, expecting `Err` of `kind`.
fn extract_err(c: &Cluster<u8>, iso: f32, kind: io::ErrorKind, what: &str) -> String {
    let err = c
        .extract_with_options(iso, &with_workers(3))
        .expect_err(what);
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
    let (c, _) = Cluster::build(&test_volume(), dir, &opts(1)).unwrap();
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
                let msg = extract_err(&c, brick.vmax_key as f32, io::ErrorKind::InvalidData, what);
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
    let (c, _) = Cluster::build(&test_volume(), &dir, &opts(2)).unwrap();
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
    let meta = "format=oociso-cluster-v1\nnx=33\nny=33\nnz=33\nmetacell_k=9\nscalar=u8\nnodes=1\n";
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
    let dims = vol.dims();
    let dir = tmpdir("fulldisk");
    std::fs::create_dir_all(&dir).unwrap();
    let disk = FullDisk {
        writes: std::cell::Cell::new(0),
    };
    let read_slab = |z0, count| Ok(vol.extract_box((0, 0, z0), (dims.nx, dims.ny, z0 + count)));
    let err = write_stores::<u8, _>(dims, read_slab, &dir, 1, 9, |lens| {
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
    std::fs::remove_dir_all(&dir).ok();
}

/// Every file of `dir`, by name, with its bytes.
fn dir_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect()
}

#[test]
fn out_of_core_build_matches_in_memory_build() {
    let vol = test_volume();
    let vol_path = tmpdir("ooc.vol");
    oociso_volume::io::write_volume(&vol_path, &vol).unwrap();

    for (nodes, metacell_k) in [(1, 5), (1, 9), (3, 5), (3, 9)] {
        let ctx = format!("nodes {nodes}, k {metacell_k}");
        let d_mem = tmpdir(&format!("ooc_mem_{nodes}_{metacell_k}"));
        let d_file = tmpdir(&format!("ooc_file_{nodes}_{metacell_k}"));
        let opts = PreprocessOptions {
            metacell_k,
            nodes,
            mmap: false,
        };
        let (c_mem, s_mem) = Cluster::build(&vol, &d_mem, &opts).unwrap();
        let (c_file, s_file) = Cluster::<u8>::build_from_file(&vol_path, &d_file, &opts).unwrap();
        assert_eq!(s_mem, s_file, "{ctx}");
        assert!(
            0 < s_file.stored_bytes && s_file.stored_bytes < s_file.kept_bytes,
            "{ctx}"
        );
        let stores: u64 = (0..nodes).map(|i| c_file.store_bytes(i)).sum();
        assert_eq!(stores, s_file.stored_bytes, "{ctx}");
        // every file byte-identical: bricks, indexes, cluster.meta, and
        // no spill left behind in either directory
        let (mem, file) = (dir_files(&d_mem), dir_files(&d_file));
        let names: Vec<&String> = file.keys().collect();
        assert_eq!(names.len(), 2 * nodes + 1, "{ctx}: {names:?}");
        assert!(!spill_path(&d_mem).exists(), "{ctx}: in-memory spill left");
        assert!(!spill_path(&d_file).exists(), "{ctx}: file spill left");
        assert_eq!(mem.keys().collect::<Vec<_>>(), names, "{ctx}");
        for (name, bytes) in &file {
            assert!(mem[name] == *bytes, "{ctx}: {name} differs");
        }
        // queries agree
        for iso in [80.0, 128.0, 180.0] {
            let em = c_mem.extract(iso).unwrap();
            let ef = c_file.extract(iso).unwrap();
            assert_eq!(
                em.report.total_triangles(),
                ef.report.total_triangles(),
                "{ctx}"
            );
            assert_eq!(
                em.report.total_active_metacells(),
                ef.report.total_active_metacells(),
                "{ctx}"
            );
        }
        std::fs::remove_dir_all(&d_mem).ok();
        std::fs::remove_dir_all(&d_file).ok();
    }
    std::fs::remove_file(&vol_path).ok();
}

#[test]
fn reopen_preserves_queries() {
    let vol = test_volume();
    let dir = tmpdir("reopen");
    let (c, _) = Cluster::build(&vol, &dir, &opts(2)).unwrap();
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
    let (_c, _) = Cluster::build(&vol, &dir, &opts(1)).unwrap();
    assert!(Cluster::<u16>::open(&dir, false).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn balance_across_nodes() {
    let vol = test_volume();
    let dir = tmpdir("balance");
    let (c, _) = Cluster::build(&vol, &dir, &opts(4)).unwrap();
    for iso in [60.0, 100.0, 128.0, 160.0, 200.0] {
        let nodes = c.extract(iso).unwrap().report.nodes;
        let dist: Vec<u64> = nodes.iter().map(|n| n.active_metacells).collect();
        let total: u64 = dist.iter().sum();
        if total < 16 {
            continue;
        }
        let max = *dist.iter().max().unwrap();
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
    let (c, _) = Cluster::build(&vol, &dir, &opts(2)).unwrap();
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
    let (c, _) = Cluster::build(&vol, &dir, &opts(2)).unwrap();
    let trace = Trace::new(42, 4096);
    let e = c
        .extract_with_options(
            128.0,
            &ExtractOptions {
                workers: Some(2),
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

    let (chain, report) = e.into_lod_chain(&LodSpec::pyramid().ratios);
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
    let (c, _) = Cluster::build(&vol, &dir, &opts(4)).unwrap();
    let e0 = c.extract(128.0).unwrap();
    let mesh = node_mesh(&e0);
    let bounds = mesh.bounds();
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

    // the composited wall must equal rendering the merged mesh directly
    let mut reference = Framebuffer::new(128, 128);
    rasterize_mesh(&mesh, &camera, [0.9, 0.85, 0.6], &mut reference);
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

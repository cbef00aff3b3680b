//! Cross-crate integration: the out-of-core parallel pipeline must produce
//! exactly the geometry a direct in-memory marching-cubes pass produces,
//! for every node count — and the streaming retrieval→triangulation
//! pipeline must be *bit-identical* across worker counts, for every
//! extraction backend.

mod common;

use common::{tmpdir, truth};
use oociso::cluster::{Cluster, ExtractOptions, QUEUE_RECORDS};
use oociso::core::{ClusterDatabase, PreprocessOptions};
use oociso::march::{Backend, IndexedMesh, Vec3};
use oociso::volume::{Dims3, RmProxy, Volume};
use proptest::prelude::*;

use oociso::march::canonical_triangles as canon;
use oociso::march::split_collapsed;

#[test]
fn database_extraction_equals_direct_marching_cubes() {
    let fields: Vec<(&str, Volume<u8>)> = vec![
        ("sphere", common::sphere_vol(Dims3::new(30, 28, 26))),
        ("torus", common::torus_vol(Dims3::new(33, 33, 21))),
        (
            "rm",
            RmProxy::with_seed(11).volume(180, Dims3::new(32, 32, 30)),
        ),
    ];
    for (name, vol) in &fields {
        let reference = truth(vol, 128.0);
        let dir = tmpdir(&format!("eq_{name}"));
        let db = ClusterDatabase::preprocess(vol, &dir, &PreprocessOptions::default()).unwrap();
        let got = db.extract(128.0).unwrap();
        // the integer isovalue lands some crossings exactly on cell corners
        // of the u8 lattice; the weld drops those collapsed triangles and
        // must account for every one of them
        let (kept, collapsed) = split_collapsed(canon(&reference));
        assert_eq!(
            canon(&got.mesh.to_soup()),
            kept,
            "{name}: database extraction must equal direct MC minus collapses"
        );
        assert_eq!(
            got.report.total_weld().degenerate_dropped,
            collapsed as u64,
            "{name}: every dropped triangle accounted"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn every_node_count_yields_identical_geometry() {
    let vol = RmProxy::with_seed(23).volume(210, Dims3::new(40, 40, 38));
    let (reference, collapsed) = split_collapsed(canon(&truth(&vol, 110.0)));
    for nodes in [1usize, 2, 3, 4, 8] {
        let dir = tmpdir(&format!("p{nodes}"));
        let db = ClusterDatabase::preprocess(
            &vol,
            &dir,
            &PreprocessOptions {
                nodes,
                ..Default::default()
            },
        )
        .unwrap();
        let got = db.extract(110.0).unwrap();
        assert_eq!(
            canon(&got.mesh.to_soup()),
            reference,
            "p={nodes}: geometry must be independent of striping"
        );
        assert_eq!(
            got.report.total_weld().degenerate_dropped,
            collapsed as u64,
            "p={nodes}: collapse count must be independent of striping"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn extraction_sweep_is_superset_free() {
    // across a dense isovalue sweep, triangle counts from the database match
    // direct MC exactly (retrieving a superset of metacells must not create
    // spurious geometry)
    let vol = common::gyroid_vol(Dims3::cube(28));
    let dir = tmpdir("sweep");
    let db = ClusterDatabase::preprocess(&vol, &dir, &PreprocessOptions::default()).unwrap();
    for iso in (40..=215).step_by(25) {
        let iso = iso as f32;
        let got = db.extract(iso).unwrap();
        // welded triangle count + the triangles the weld collapsed (integer
        // isovalues can land crossings on lattice corners) = the reference
        // kernel's count, exactly
        assert_eq!(
            got.mesh.len() as u64 + got.report.total_weld().degenerate_dropped,
            truth(&vol, iso).len() as u64,
            "iso {iso}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn watertight_through_the_full_pipeline() {
    // a sphere extracted *through the database* (split into metacells,
    // striped over 3 nodes, read back) must still be a closed surface.
    // A half-integer isovalue keeps crossings off the integer u8 lattice —
    // integer isovalues put crossings exactly on shared grid vertices, whose
    // zero-area triangles confuse naive edge counting (geometry is still
    // crack-free; the canon-equality tests above cover that case).
    let vol: Volume<u8> = common::sphere_vol_r(0.3, Dims3::cube(33));
    let dir = tmpdir("watertight");
    let db = ClusterDatabase::preprocess(
        &vol,
        &dir,
        &PreprocessOptions {
            nodes: 3,
            ..Default::default()
        },
    )
    .unwrap();
    let mesh = db.extract(128.5).unwrap().mesh;
    assert!(mesh.len() > 500);
    let key = |v: Vec3| {
        let q = 1_048_576.0;
        (
            (v.x * q).round() as i64,
            (v.y * q).round() as i64,
            (v.z * q).round() as i64,
        )
    };
    let mut edges = std::collections::HashMap::new();
    for t in mesh.triangles() {
        for i in 0..3 {
            let a = key(t.v[i]);
            let b = key(t.v[(i + 1) % 3]);
            let e = if a < b { (a, b) } else { (b, a) };
            *edges.entry(e).or_insert(0u32) += 1;
        }
    }
    let bad = edges.values().filter(|&&c| c != 2).count();
    assert_eq!(bad, 0, "{bad} non-manifold edges of {}", edges.len());
    std::fs::remove_dir_all(&dir).ok();
}

fn assert_meshes_bit_identical(a: &IndexedMesh, b: &IndexedMesh, ctx: &str) {
    assert_eq!(a.positions(), b.positions(), "{ctx}: vertex stream differs");
    assert_eq!(a.indices(), b.indices(), "{ctx}: index stream differs");
}

/// Extract `iso` from `cluster` with `workers` per node through `backend`,
/// merged.
fn extract(cluster: &Cluster<u8>, iso: f32, workers: usize, backend: Backend) -> IndexedMesh {
    let opts = ExtractOptions {
        workers: Some(workers),
        backend,
        ..Default::default()
    };
    let e = cluster.extract_with_options(iso, &opts).unwrap();
    e.into_merged().0
}

/// Streaming extraction at any worker count must emit the byte-for-byte
/// same mesh as one worker, for **every** extraction backend: per-record
/// parts merge by plan-emission sequence number, whatever worker
/// triangulated them, and the SurfaceNets seam stitch + smoothing run over
/// that same deterministic merge.
fn check_worker_counts_agree(name: &str, vol: &Volume<u8>, iso: f32) {
    let dir = tmpdir(&format!("sb_{name}_{}", (iso * 10.0) as i32));
    let (cluster, _) = Cluster::build(vol, &dir, &PreprocessOptions::default()).unwrap();
    for backend in Backend::ALL {
        let base = extract(&cluster, iso, 1, backend);
        for workers in [2usize, 3, 8] {
            let ctx = format!("{name} iso={iso} {backend} workers={workers}");
            let mesh = extract(&cluster, iso, workers, backend);
            assert_meshes_bit_identical(&mesh, &base, &ctx);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Weighted-admission regression on a dense tiling: 33³ splits into 9³-vertex
/// metacells exactly (4 × 8 cells per axis), so every record carries the full
/// 8³ = 512-cell weight and the gyroid keeps essentially all of them active.
/// The queue bound must cap queued work at `QUEUE_RECORDS × 512` cells —
/// admission cannot over-admit full-weight records the way it deliberately
/// over-admits clamped edge records — and the stream must stay bit-identical
/// to one worker under both backends.
#[test]
fn weighted_admission_caps_queued_work_on_dense_metacells() {
    let vol: Volume<u8> = common::gyroid_vol(Dims3::cube(33));
    let iso = 127.5f32;
    let dir = tmpdir("dense_admission");
    let (cluster, _) = Cluster::build(&vol, &dir, &PreprocessOptions::default()).unwrap();
    for backend in Backend::ALL {
        let base = extract(&cluster, iso, 1, backend);
        let e = cluster
            .extract_with_options(
                iso,
                &ExtractOptions {
                    workers: Some(4),
                    backend,
                    ..Default::default()
                },
            )
            .unwrap();
        let n = &e.report.nodes[0];
        assert!(
            n.peak_queue_work <= QUEUE_RECORDS as u64 * 512,
            "{backend}: peak work {} cells exceeds the weighted bound",
            n.peak_queue_work
        );
        assert!(
            n.peak_queue_work >= 512,
            "{backend}: at least one full record must have been admitted, got {}",
            n.peak_queue_work
        );
        let (mesh, _) = e.into_merged();
        assert_meshes_bit_identical(&mesh, &base, &format!("{backend} workers=4"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn streaming_extraction_is_bit_identical_to_batch_sphere(
        iso in 80.0f32..180.0,
        dim in 25usize..34,
    ) {
        let vol: Volume<u8> = common::sphere_vol_r(0.33, Dims3::new(dim, dim, dim - 2));
        check_worker_counts_agree("sphere", &vol, iso);
    }

    #[test]
    fn streaming_extraction_is_bit_identical_to_batch_gyroid(
        iso in 70.0f32..190.0,
        dim in 24usize..32,
    ) {
        let vol: Volume<u8> = common::gyroid_vol(Dims3::cube(dim));
        check_worker_counts_agree("gyroid", &vol, iso);
    }
}

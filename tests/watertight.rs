//! Watertightness and weld invariants of the out-of-core pipeline.
//!
//! The decomposition extracts every metacell (and every cluster node)
//! independently; welding is what turns that pile of sub-meshes back into
//! one watertight surface. These tests pin the properties that make welding
//! trustworthy:
//!
//! * **closure** — for closed synthetic fields the welded full-database mesh
//!   has zero boundary edges, zero non-manifold edges, and the ground-truth
//!   Euler characteristic, across worker counts × metacell sizes × node
//!   counts (while per-metacell meshes concatenated without a weld are
//!   provably open along every seam);
//! * **topology-only** — welding never moves geometry: the canonical
//!   triangle multiset is identical to a direct marching-cubes pass (minus
//!   exactly the counted collapsed triangles when the isosurface passes
//!   through cell corners).

mod common;

use common::{tmpdir, truth};
use oociso::cluster::{Cluster, ExtractOptions};
use oociso::core::{ClusterDatabase, PreprocessOptions};
use oociso::march::{
    analyze, analyze_mesh, analyze_mesh_connectivity, canonical_triangles, Backend, IndexedMesh,
};
use oociso::volume::field::{FieldExt, GyroidField, SphereField};
use oociso::volume::{Dims3, Volume};
use proptest::prelude::*;

/// The property behind the suite: for a closed field, every (workers ×
/// metacell size) combination of the welded out-of-core extraction yields
/// the exact topology of a direct in-memory marching-cubes pass — closed,
/// manifold, same Euler characteristic — on a 3-node cluster whose striping
/// puts node seams everywhere. The same matrix also covers LOD determinism:
/// quadric decimation of each combination's welded mesh must be
/// byte-identical within a metacell size (the meshes themselves are), and
/// must stay closed-manifold with the reference Euler characteristic.
fn check_watertight_everywhere(
    name: &str,
    vol: &Volume<u8>,
    iso: f32,
    expect_components: usize,
    sn_matches_reference: bool,
) {
    let reference = analyze(&truth(vol, iso));
    assert!(
        reference.is_closed(),
        "{name}: ground truth must be closed, got {reference:?}"
    );
    assert_eq!(reference.components, expect_components, "{name}");
    // SurfaceNets topology is decomposition-invariant: the pre-smoothing
    // surface is bit-identical across metacell sizes, so the analyzed
    // report must agree between k = 5 and k = 9
    let mut sn_topo_across_k = None;
    for metacell_k in [5usize, 9] {
        let dir = tmpdir(&format!("prop_{name}_{metacell_k}_{}", (iso * 10.0) as i64));
        let (cluster, _) = Cluster::build(
            vol,
            &dir,
            &PreprocessOptions {
                metacell_k,
                nodes: 3,
                mmap: false,
            },
        )
        .unwrap();
        // decimation baseline for this metacell size (triangle stream order
        // differs across k, so bit-identity is asserted within each k)
        let mut decimated_baseline: Option<IndexedMesh> = None;
        for workers in [1usize, 2, 8] {
            let ctx = format!("{name} iso={iso} k={metacell_k} workers={workers}");
            let e = cluster.extract_with_workers(iso, workers).unwrap();
            let (mesh, report) = e.into_merged();
            // the strong form of watertight: closed by *raw index
            // connectivity*, not just after analysis-time welding
            let topo = analyze_mesh_connectivity(&mesh);
            assert!(topo.is_closed(), "{ctx}: boundary edges: {topo:?}");
            // non-manifold pinches only where the quantized field truly
            // self-touches — i.e. exactly where direct MC has them too
            assert_eq!(topo, reference, "{ctx}: topology must match direct MC");
            assert_eq!(analyze_mesh(&mesh), reference, "{ctx}");
            assert_eq!(
                topo.euler_characteristic(),
                reference.euler_characteristic(),
                "{ctx}"
            );
            // the welded mesh carries no duplicate or orphan vertices
            assert_eq!(topo.vertices, mesh.num_vertices(), "{ctx}");
            // off-lattice isovalue: nothing may collapse
            assert_eq!(report.total_weld().degenerate_dropped, 0, "{ctx}");
            assert!(
                report.total_weld().vertices_merged() > 0,
                "{ctx}: seams must exist for the weld to close"
            );

            // LOD determinism rides the same matrix: decimation is a
            // pure function of the welded mesh, so every worker count
            // must decimate to the same bytes and keep the
            // closed-manifold topology class
            let (decimated, dstats) = oociso::march::decimate_to_ratio(&mesh, 0.25);
            let dtopo = analyze_mesh_connectivity(&decimated);
            assert!(dtopo.is_closed(), "{ctx}: decimated: {dtopo:?}");
            // where the quantized field genuinely self-touches the
            // reference already has a non-manifold pinch; decimation
            // pins it — the count must carry over exactly, never grow
            assert_eq!(
                dtopo.non_manifold_edges, reference.non_manifold_edges,
                "{ctx}: decimated: {dtopo:?}"
            );
            assert_eq!(
                dtopo.euler_characteristic(),
                reference.euler_characteristic(),
                "{ctx}: decimation changed the Euler characteristic"
            );
            assert_eq!(dtopo.components, reference.components, "{ctx}");
            assert!(
                dstats.output_vertices < dstats.input_vertices,
                "{ctx}: {dstats:?}"
            );
            match &decimated_baseline {
                None => decimated_baseline = Some(decimated),
                Some(base) => assert_eq!(
                    &decimated, base,
                    "{ctx}: decimated mesh must be bit-identical across workers"
                ),
            }
        }

        // SurfaceNets rides the same matrix: no welding (its vertices are
        // globally unique by cell ownership), bit-identical within a
        // decomposition, and closed with the reference's topology class
        let mut sn_baseline: Option<IndexedMesh> = None;
        for workers in [1usize, 2, 8] {
            let ctx = format!("{name} sn iso={iso} k={metacell_k} workers={workers}");
            let (mesh, _report) = cluster
                .extract_with_options(
                    iso,
                    &ExtractOptions {
                        workers: Some(workers),
                        backend: Backend::SurfaceNets,
                        ..Default::default()
                    },
                )
                .unwrap()
                .into_merged();
            let topo = analyze_mesh_connectivity(&mesh);
            assert!(topo.is_closed(), "{ctx}: boundary edges: {topo:?}");
            // no duplicate or orphan vertices — without any weld pass
            assert_eq!(topo.vertices, mesh.num_vertices(), "{ctx}");
            // topology-class equivalence with slab MC: on a
            // well-resolved manifold surface the two discretizations of
            // the same level set must agree on components and genus.
            // Thin features (tunnels ~1 cell wide, as on the clipped
            // gyroid at these dims) are a genuine discretization
            // difference — SN's one-vertex-per-cell can merge or close
            // them — so callers opt out there and rely on the closure,
            // bit-identity, and cross-k invariants instead
            if sn_matches_reference && reference.non_manifold_edges == 0 {
                assert_eq!(topo.components, reference.components, "{ctx}");
                assert_eq!(
                    topo.euler_characteristic(),
                    reference.euler_characteristic(),
                    "{ctx}"
                );
            }
            match &sn_baseline {
                None => sn_baseline = Some(mesh),
                Some(base) => assert_eq!(
                    &mesh, base,
                    "{ctx}: SurfaceNets must be bit-identical across workers"
                ),
            }
            match &sn_topo_across_k {
                None => sn_topo_across_k = Some(topo),
                Some(base) => assert_eq!(
                    &topo, base,
                    "{ctx}: SurfaceNets topology must not depend on metacell size"
                ),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn welded_sphere_is_watertight_across_modes_workers_and_metacell_sizes(
        dim in 24usize..31,
        iso_step in 110u32..150,
    ) {
        // half-integer isovalues keep crossings off the u8 lattice
        let iso = iso_step as f32 + 0.5;
        let vol: Volume<u8> = SphereField::centered(0.3, 128.0).sample(Dims3::new(dim, dim, dim - 1));
        check_watertight_everywhere("sphere", &vol, iso, 1, true);
    }

    #[test]
    fn welded_clipped_gyroid_is_watertight_across_modes_workers_and_metacell_sizes(
        dim in 26usize..33,
        iso_step in 123u32..134,
    ) {
        let iso = iso_step as f32 + 0.5;
        let vol: Volume<u8> = common::clipped_gyroid_vol(Dims3::cube(dim));
        let reference = analyze(&truth(&vol, iso));
        // the clipped gyroid's genus (and component count) depends on dim and
        // iso; take the component count from ground truth and let
        // check_watertight_everywhere verify the full report matches
        check_watertight_everywhere("clipped_gyroid", &vol, iso, reference.components, false);
    }
}

/// The acceptance invariant, pinned as a plain test: a welded multi-node
/// sphere extraction is closed where the same metacells' meshes
/// concatenated without a weld are open along every seam — and the welded
/// mesh is the surface a direct marching-cubes pass produces (identical
/// canonical triangle multisets and topology).
#[test]
fn welding_closes_node_seams_that_unwelded_merge_leaves_open() {
    let vol: Volume<u8> = SphereField::centered(0.3, 128.0).sample(Dims3::cube(33));
    let dir = tmpdir("accept");
    let db = ClusterDatabase::preprocess(
        &vol,
        &dir,
        &PreprocessOptions {
            nodes: 3,
            ..Default::default()
        },
    )
    .unwrap();
    let iso = 128.5f32;
    let welded = db.extract(iso).unwrap();
    let unwelded = common::unwelded_blocks(&vol, iso);
    let reference = truth(&vol, iso);

    let wt = analyze_mesh(&welded.mesh);
    assert!(wt.is_closed(), "welded sphere must be closed: {wt:?}");
    assert_eq!(wt.non_manifold_edges, 0);
    assert_eq!(wt.components, 1);
    assert_eq!(wt.euler_characteristic(), 2, "{wt:?}");
    // closed by raw index connectivity too — the property decimation needs
    assert_eq!(analyze_mesh_connectivity(&welded.mesh), wt);

    // without a weld every seam vertex is duplicated: index connectivity
    // is open along every metacell seam and shatters into pieces …
    let open = analyze_mesh_connectivity(&unwelded);
    assert!(
        !open.is_closed() && open.boundary_edges > 0,
        "unwelded blocks must be open along metacell seams: {open:?}"
    );
    assert!(open.components > 1, "{open:?}");
    assert!(
        welded.mesh.num_vertices() < unwelded.num_vertices(),
        "weld must shrink the vertex table: {} vs {}",
        welded.mesh.num_vertices(),
        unwelded.num_vertices()
    );
    // … while `analyze_mesh` (which welds internally) agrees the *surface*
    // is the same: the unwelded mesh is open only by representation
    assert_eq!(analyze_mesh(&unwelded), wt);
    assert_eq!(analyze(&reference), wt);

    // welding is topology-only: the canonical triangle multiset of direct MC
    assert_eq!(
        welded.mesh.canonical_triangles(),
        canonical_triangles(&reference)
    );
    assert_eq!(welded.report.total_weld().degenerate_dropped, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Welding never moves geometry for any zoo field — closed or open, smooth
/// or noisy: the welded extraction and a direct marching-cubes pass produce
/// the identical canonical triangle multiset, and the analyzed topology
/// (which is weld-agnostic by construction) is the same.
#[test]
fn welding_is_topology_only_across_the_field_zoo() {
    for (name, vol) in &common::zoo() {
        let dir = tmpdir(&format!("zoo_{name}"));
        let db = ClusterDatabase::preprocess(
            vol,
            &dir,
            &PreprocessOptions {
                nodes: 2,
                ..Default::default()
            },
        )
        .unwrap();
        for iso in [96.5f32, 128.5, 160.5] {
            let welded = db.extract(iso).unwrap();
            let reference = truth(vol, iso);
            let ctx = format!("{name} iso={iso}");
            assert_eq!(
                welded.mesh.canonical_triangles(),
                canonical_triangles(&reference),
                "{ctx}: weld moved geometry"
            );
            assert_eq!(welded.report.total_weld().degenerate_dropped, 0, "{ctx}");
            assert_eq!(
                analyze_mesh(&welded.mesh),
                analyze(&reference),
                "{ctx}: weld changed topology"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// An isosurface passing exactly through cell corners makes several edge
/// crossings coincide: the weld must drop those exactly-degenerate triangles
/// (counting them), keep everything else, and still deliver a closed clean
/// mesh. A single sample spiked to the isovalue surrounded by zeros is the
/// worst case — every one of its triangles collapses to a point.
#[test]
fn corner_crossings_collapse_and_are_dropped_with_a_counter() {
    let dims = Dims3::cube(19);
    // spike at (3,3,3) exactly at the isovalue; a solid ball elsewhere keeps
    // the surface non-empty, closed, and crossing mid-edge (255→0 at t≈0.5)
    let vol: Volume<u8> = Volume::generate(dims, |x, y, z| {
        if (x, y, z) == (3, 3, 3) {
            128
        } else {
            let (dx, dy, dz) = (x as f32 - 12.0, y as f32 - 12.0, z as f32 - 12.0);
            if (dx * dx + dy * dy + dz * dz).sqrt() < 4.3 {
                255
            } else {
                0
            }
        }
    });
    let iso = 128.0f32;
    let reference = truth(&vol, iso);

    let dir = tmpdir("spike");
    let db = ClusterDatabase::preprocess(
        &vol,
        &dir,
        &PreprocessOptions {
            nodes: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let welded = db.extract(iso).unwrap();

    // the 8 cells around the spike each emit one point-collapsed triangle
    let dropped = welded.report.total_weld().degenerate_dropped;
    assert_eq!(dropped, 8, "{:?}", welded.report.total_weld());
    assert_eq!(welded.mesh.len() as u64 + dropped, reference.len() as u64);
    assert_eq!(welded.report.total_triangles(), reference.len() as u64);

    // the kept multiset is exactly the reference minus its collapsed entries
    let (kept, collapsed) =
        oociso::march::split_collapsed(oociso::march::canonical_triangles(&reference));
    assert_eq!(collapsed as u64, dropped);
    assert_eq!(welded.mesh.canonical_triangles(), kept);

    // no zero-area junk or orphan vertices survive in the welded mesh: the
    // ball is a clean closed component and the spike leaves no trace
    let topo = analyze_mesh_connectivity(&welded.mesh);
    assert_eq!(topo, analyze_mesh(&welded.mesh));
    assert!(topo.is_closed_manifold(), "{topo:?}");
    assert_eq!(topo.components, 1);
    assert_eq!(topo.euler_characteristic(), 2, "{topo:?}");
    assert_eq!(topo.vertices, welded.mesh.num_vertices());
    for tri in welded.mesh.indices().chunks_exact(3) {
        assert!(
            tri[0] != tri[1] && tri[1] != tri[2] && tri[0] != tri[2],
            "collapsed triangle survived the weld"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Weld cost probe for docs/perf.md — run manually:
/// `cargo test --release --test watertight -- --ignored print_weld_cost --nocapture`
#[test]
#[ignore]
fn print_weld_cost() {
    let vol: Volume<u8> = GyroidField {
        cells: 3.0,
        level: 128.0,
        amplitude: 70.0,
    }
    .sample(Dims3::cube(65));
    let dir = tmpdir("weldcost");
    let db = ClusterDatabase::preprocess(
        &vol,
        &dir,
        &PreprocessOptions {
            nodes: 1,
            ..Default::default()
        },
    )
    .unwrap();
    for _ in 0..5 {
        let e = db.extract(128.5).unwrap();
        let r = &e.report;
        let w = r.total_weld();
        println!(
            "65^3 gyroid: {} tris, extraction wall {:.3} ms, weld wall {:.3} ms ({:.2}%), \
             hashed {} and merged {} of {} vertices",
            r.total_triangles(),
            r.nodes[0].extraction_wall.as_secs_f64() * 1e3,
            r.total_weld_wall().as_secs_f64() * 1e3,
            100.0 * r.total_weld_wall().as_secs_f64()
                / r.nodes[0].extraction_wall.as_secs_f64().max(1e-9),
            w.hashed_vertices,
            w.vertices_merged(),
            w.input_vertices,
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

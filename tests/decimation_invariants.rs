//! Property-based invariants of quadric edge-collapse decimation over the
//! out-of-core pipeline's welded meshes.
//!
//! The field zoo (smooth closed sphere, genus-1 torus, open periodic
//! gyroid, rough open noise) × isovalues × target ratios is swept for the
//! properties the LOD subsystem leans on:
//!
//! * **topology safety** — closed-manifold inputs stay closed-manifold with
//!   an unchanged Euler characteristic; open inputs keep their boundary
//!   edge count exactly (boundary vertices are pinned, never collapsed
//!   through or moved);
//! * **budget** — the surviving vertex count respects the requested ratio
//!   whenever the decimator reports the target reached, and a miss is only
//!   ever the boundary-pinning floor, never overshoot;
//! * **fidelity** — every surviving vertex lies within the reported
//!   quadric-error gauge (`DecimateStats::world_error`) of the original
//!   surface, measured as true point-to-triangle distance;
//! * **determinism** — byte-identical output across repeated runs and
//!   across extraction worker counts (the LOD analogue of the weld
//!   determinism matrix in `tests/watertight.rs`).
//!
//! Plus the degenerate inputs a serving decimator must survive: empty
//! meshes, a single triangle, all-collinear (singular) quadrics, and an
//! unwelded mesh whose every metacell seam is boundary.

mod common;

use oociso::cluster::ExtractOptions;
use oociso::core::{ClusterDatabase, PreprocessOptions};
use oociso::march::{
    analyze_mesh_connectivity, decimate_to_error, decimate_to_ratio, IndexedMesh, Triangle, Vec3,
};
use oociso::volume::{Dims3, Volume};
use proptest::prelude::*;
use std::collections::HashSet;

/// Distance from `p` to the closest point of triangle `t` (Ericson's
/// closest-point-on-triangle, all branches).
fn dist_point_tri(p: Vec3, t: &Triangle) -> f32 {
    let (a, b, c) = (t.v[0], t.v[1], t.v[2]);
    let ab = b - a;
    let ac = c - a;
    let ap = p - a;
    let d1 = ab.dot(ap);
    let d2 = ac.dot(ap);
    if d1 <= 0.0 && d2 <= 0.0 {
        return (p - a).length();
    }
    let bp = p - b;
    let d3 = ab.dot(bp);
    let d4 = ac.dot(bp);
    if d3 >= 0.0 && d4 <= d3 {
        return (p - b).length();
    }
    let vc = d1 * d4 - d3 * d2;
    if vc <= 0.0 && d1 >= 0.0 && d3 <= 0.0 {
        let v = d1 / (d1 - d3);
        return (p - (a + ab * v)).length();
    }
    let cp = p - c;
    let d5 = ab.dot(cp);
    let d6 = ac.dot(cp);
    if d6 >= 0.0 && d5 <= d6 {
        return (p - c).length();
    }
    let vb = d5 * d2 - d1 * d6;
    if vb <= 0.0 && d2 >= 0.0 && d6 <= 0.0 {
        let w = d2 / (d2 - d6);
        return (p - (a + ac * w)).length();
    }
    let va = d3 * d6 - d5 * d4;
    if va <= 0.0 && (d4 - d3) >= 0.0 && (d5 - d6) >= 0.0 {
        let w = (d4 - d3) / ((d4 - d3) + (d5 - d6));
        return (p - (b + (c - b) * w)).length();
    }
    let denom = 1.0 / (va + vb + vc);
    let v = vb * denom;
    let w = vc * denom;
    (p - (a + ab * v + ac * w)).length()
}

/// Max distance from (a deterministic sample of) `dec`'s vertices to the
/// original surface. Sampling caps the O(V × T) cost; the stride is fixed,
/// so the same meshes always measure the same vertices.
fn max_deviation(dec: &IndexedMesh, orig: &IndexedMesh, max_samples: usize) -> f32 {
    let tris: Vec<Triangle> = orig.triangles().collect();
    let stride = (dec.num_vertices() / max_samples.max(1)).max(1);
    dec.positions()
        .iter()
        .step_by(stride)
        .map(|&p| {
            tris.iter()
                .map(|t| dist_point_tri(p, t))
                .fold(f32::INFINITY, f32::min)
        })
        .fold(0.0, f32::max)
}

/// Positions (bit-keyed) of vertices on a boundary or non-manifold edge of
/// `mesh`, under raw index connectivity — the set the decimator pins.
fn boundary_vertex_positions(mesh: &IndexedMesh) -> HashSet<(u32, u32, u32)> {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for tri in mesh.indices().chunks_exact(3) {
        for i in 0..3 {
            let (a, b) = (tri[i], tri[(i + 1) % 3]);
            if a != b {
                edges.push(if a < b { (a, b) } else { (b, a) });
            }
        }
    }
    edges.sort_unstable();
    let mut out = HashSet::new();
    let mut i = 0;
    while i < edges.len() {
        let mut j = i + 1;
        while j < edges.len() && edges[j] == edges[i] {
            j += 1;
        }
        if j - i != 2 {
            for v in [edges[i].0, edges[i].1] {
                let p = mesh.positions()[v as usize];
                out.insert((p.x.to_bits(), p.y.to_bits(), p.z.to_bits()));
            }
        }
        i = j;
    }
    out
}

fn position_set(mesh: &IndexedMesh) -> HashSet<(u32, u32, u32)> {
    mesh.positions()
        .iter()
        .map(|p| (p.x.to_bits(), p.y.to_bits(), p.z.to_bits()))
        .collect()
}

/// The per-mesh property block shared by the zoo sweep.
fn check_decimation(name: &str, mesh: &IndexedMesh, ratio: f64) {
    let ctx = format!("{name} ratio={ratio}");
    let before = analyze_mesh_connectivity(mesh);
    let (dec, stats) = decimate_to_ratio(mesh, ratio);
    let after = analyze_mesh_connectivity(&dec);

    // --- topology safety ---------------------------------------------
    assert_eq!(
        after.euler_characteristic(),
        before.euler_characteristic(),
        "{ctx}: Euler characteristic changed"
    );
    assert_eq!(after.components, before.components, "{ctx}");
    assert_eq!(
        after.boundary_edges, before.boundary_edges,
        "{ctx}: boundary must be pinned exactly"
    );
    assert_eq!(
        after.non_manifold_edges, before.non_manifold_edges,
        "{ctx}: decimation must not create (or destroy) non-manifold edges"
    );
    if before.is_closed_manifold() {
        assert!(after.is_closed_manifold(), "{ctx}: {after:?}");
    }
    // pinned boundary vertices survive with their exact positions
    let pinned_before = boundary_vertex_positions(mesh);
    let out_positions = position_set(&dec);
    assert!(
        pinned_before.is_subset(&out_positions),
        "{ctx}: a pinned boundary vertex vanished or moved"
    );

    // --- budget -------------------------------------------------------
    let target = (mesh.num_vertices() as f64 * ratio).ceil() as u64;
    if stats.reached_target {
        assert!(
            stats.output_vertices <= target,
            "{ctx}: {} > target {target}",
            stats.output_vertices
        );
    } else {
        // the only legitimate miss is the boundary-pinning floor: every
        // pinned vertex must survive, so the output can never go below
        // them — and a guarded exhaustion must land in their vicinity
        assert!(
            stats.output_vertices <= (2 * stats.pinned_vertices).max(target),
            "{ctx}: target missed but output {} is far above the pinned floor {}",
            stats.output_vertices,
            stats.pinned_vertices
        );
        assert!(stats.pinned_vertices > 0, "{ctx}: unexplained target miss");
    }
    assert_eq!(stats.output_vertices, dec.num_vertices() as u64, "{ctx}");
    assert_eq!(stats.output_triangles, dec.len() as u64, "{ctx}");
    // manifold collapse bookkeeping: one vertex and two faces per collapse
    assert_eq!(
        stats.input_triangles - stats.output_triangles,
        2 * stats.collapses,
        "{ctx}"
    );

    // --- fidelity -----------------------------------------------------
    // every surviving vertex lies within the reported quadric-error gauge
    // of the original surface (empirically the true deviation stays under
    // ~0.35× the gauge; asserting ≤ 1× leaves margin without being vacuous
    // — the gauge itself is small next to the mesh)
    let diag = (mesh.bounds().hi - mesh.bounds().lo).length();
    let dev = max_deviation(&dec, mesh, 300) as f64;
    assert!(
        dev <= stats.world_error().max(1e-3),
        "{ctx}: deviation {dev} exceeds quadric gauge {}",
        stats.world_error()
    );
    assert!(
        dev <= 0.05 * diag as f64,
        "{ctx}: deviation {dev} exceeds 5% of the mesh diagonal {diag}"
    );

    // --- determinism (repeated run) ----------------------------------
    let (dec2, stats2) = decimate_to_ratio(mesh, ratio);
    assert_eq!(dec, dec2, "{ctx}: repeated runs must be bit-identical");
    assert_eq!(stats, stats2, "{ctx}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The headline sweep: every zoo field × a proptest-chosen half-integer
    /// isovalue × both pyramid ratios.
    #[test]
    fn zoo_decimation_preserves_topology_budget_and_error_bound(
        iso_step in 97u32..160,
    ) {
        let iso = iso_step as f32 + 0.5;
        for (name, vol) in &common::zoo() {
            let dir = common::tmpdir(&format!("dec_{name}_{iso_step}"));
            let db = ClusterDatabase::preprocess(
                vol,
                &dir,
                &PreprocessOptions { nodes: 2, ..Default::default() },
            )
            .unwrap();
            let mesh = db.extract(iso).unwrap().mesh;
            std::fs::remove_dir_all(&dir).ok();
            if mesh.len() < 100 {
                continue; // degenerate surfaces are covered by the plain tests
            }
            for ratio in [0.25f64, 0.06] {
                check_decimation(&format!("{name} iso={iso}"), &mesh, ratio);
            }
        }
    }
}

/// Worker counts must not leak into LOD output: the welded mesh is already
/// proven worker-invariant, and decimation is a pure function of it — so the
/// decimated bytes must match across the same worker matrix the weld tests
/// sweep.
#[test]
fn decimation_is_bit_identical_across_worker_counts() {
    let vol = common::gyroid_vol(Dims3::cube(28));
    let dir = common::tmpdir("dec_workers");
    let db = ClusterDatabase::preprocess(
        &vol,
        &dir,
        &PreprocessOptions {
            nodes: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let mut baseline: Option<(IndexedMesh, IndexedMesh)> = None;
    for workers in [1usize, 2, 8] {
        let mesh = db
            .extract_with_options(
                128.5,
                &ExtractOptions {
                    workers: Some(workers),
                    ..Default::default()
                },
            )
            .unwrap()
            .mesh;
        let (dec, _) = decimate_to_ratio(&mesh, 0.25);
        match &baseline {
            None => baseline = Some((mesh, dec)),
            Some((bm, bd)) => {
                assert_eq!(&mesh, bm, "workers={workers}: welded mesh differs");
                assert_eq!(&dec, bd, "workers={workers}: decimated mesh differs");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `decimate_to_error` honors its bound: no applied collapse exceeds it and
/// the surface stays within the gauge of the original.
#[test]
fn error_bound_mode_is_respected_on_the_zoo() {
    for (name, vol) in &common::zoo() {
        let dir = common::tmpdir(&format!("dec_err_{name}"));
        let db = ClusterDatabase::preprocess(
            vol,
            &dir,
            &PreprocessOptions {
                nodes: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let mesh = db.extract(128.5).unwrap().mesh;
        std::fs::remove_dir_all(&dir).ok();
        let bound = 0.01f64; // squared world distance
        let (dec, stats) = decimate_to_error(&mesh, bound);
        assert!(stats.max_error <= bound, "{name}: {stats:?}");
        assert!(
            stats.output_vertices < stats.input_vertices,
            "{name}: a hot bound should still find cheap collapses"
        );
        let dev = max_deviation(&dec, &mesh, 300) as f64;
        assert!(dev <= stats.world_error().max(1e-3), "{name}: dev {dev}");
    }
}

/// The acceptance bar: on the 65³ (ball-clipped, hence closed) gyroid,
/// `decimate_to_ratio(0.25)` yields a closed-manifold mesh within the
/// vertex budget whose max quadric error is bounded and reported,
/// bit-identical across runs and worker counts, with the boundary-free
/// topology of the input preserved exactly.
#[test]
fn gyroid_65_quarter_ratio_acceptance() {
    let vol = common::clipped_gyroid_vol(Dims3::cube(65));
    let dir = common::tmpdir("dec_accept65");
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
    let before = analyze_mesh_connectivity(&mesh);
    assert!(before.is_closed_manifold(), "{before:?}");

    let (dec, stats) = decimate_to_ratio(&mesh, 0.25);
    assert!(stats.reached_target, "{stats:?}");
    let target = (mesh.num_vertices() as f64 * 0.25).ceil() as usize;
    assert!(
        dec.num_vertices() <= target,
        "{} > {target}",
        dec.num_vertices()
    );
    let after = analyze_mesh_connectivity(&dec);
    assert!(after.is_closed_manifold(), "{after:?}");
    assert_eq!(after.euler_characteristic(), before.euler_characteristic());
    assert_eq!(after.components, before.components);
    // the max quadric error is bounded (reported, finite, and small next
    // to the mesh) …
    assert!(stats.max_error.is_finite() && stats.max_error >= 0.0);
    let diag = (mesh.bounds().hi - mesh.bounds().lo).length() as f64;
    assert!(
        stats.world_error() < 0.02 * diag,
        "world error {} vs diagonal {diag}",
        stats.world_error()
    );
    // … within 3 % of the priority-queue decimator the error-ordered passes
    // replaced (0.2565 on this mesh at commit 74d9aa2) …
    assert!(
        stats.world_error() <= 1.03 * 0.2565,
        "world error {} vs the priority-queue decimator's 0.2565",
        stats.world_error()
    );
    // … and honest: true deviation stays within the gauge
    let dev = max_deviation(&dec, &mesh, 200) as f64;
    assert!(
        dev <= stats.world_error().max(1e-3),
        "dev {dev} > {stats:?}"
    );

    // bit-identical across repeated runs and worker counts
    let (dec2, stats2) = decimate_to_ratio(&mesh, 0.25);
    assert_eq!(dec, dec2);
    assert_eq!(stats, stats2);
    let mesh_w8 = db
        .extract_with_options(
            128.5,
            &ExtractOptions {
                workers: Some(8),
                ..Default::default()
            },
        )
        .unwrap()
        .mesh;
    let (dec8, _) = decimate_to_ratio(&mesh_w8, 0.25);
    assert_eq!(dec, dec8, "worker count leaked into the decimated bytes");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// degenerate inputs
// ---------------------------------------------------------------------

#[test]
fn empty_and_single_triangle_inputs_pass_through() {
    let (out, stats) = decimate_to_ratio(&IndexedMesh::new(), 0.25);
    assert!(out.is_empty());
    assert_eq!(stats.collapses, 0);

    // a single triangle is 100% boundary: fully pinned, byte-identical out
    let mut tri = IndexedMesh::new();
    let a = tri.push_vertex(Vec3::new(0.0, 0.0, 0.0));
    let b = tri.push_vertex(Vec3::new(2.0, 0.0, 0.0));
    let c = tri.push_vertex(Vec3::new(0.0, 2.0, 0.0));
    tri.push_triangle(a, b, c);
    let (out, stats) = decimate_to_ratio(&tri, 0.0);
    assert_eq!(out.positions(), tri.positions());
    assert_eq!(out.indices(), tri.indices());
    assert_eq!(stats.collapses, 0);
    assert_eq!(stats.pinned_vertices, 3);
}

/// A flat triangulated sheet: every vertex quadric is a stack of coplanar
/// planes — the 3×3 system is singular for all of them ("all-collinear
/// quadrics"), so each collapse must take the deterministic fallback
/// placement. The sheet must stay exactly planar, its rim must be pinned,
/// and the disk topology must survive.
#[test]
fn all_collinear_quadrics_use_the_fallback_and_stay_planar() {
    let n = 12usize; // (n+1)² vertices, 2n² triangles
    let mut sheet = IndexedMesh::new();
    for y in 0..=n {
        for x in 0..=n {
            sheet.push_vertex(Vec3::new(x as f32, y as f32, 3.25));
        }
    }
    let id = |x: usize, y: usize| (y * (n + 1) + x) as u32;
    for y in 0..n {
        for x in 0..n {
            sheet.push_triangle(id(x, y), id(x + 1, y), id(x + 1, y + 1));
            sheet.push_triangle(id(x, y), id(x + 1, y + 1), id(x, y + 1));
        }
    }
    let before = analyze_mesh_connectivity(&sheet);
    assert_eq!(before.euler_characteristic(), 1, "a disk");
    assert_eq!(before.boundary_edges, 4 * n);

    let (dec, stats) = decimate_to_ratio(&sheet, 0.3);
    assert!(stats.collapses > 0, "interior must still be collapsible");
    assert!(
        dec.num_vertices() < sheet.num_vertices(),
        "flat sheet must shrink"
    );
    // exactly planar: singular quadrics never invent an off-plane position
    for p in dec.positions() {
        assert_eq!(p.z.to_bits(), 3.25f32.to_bits(), "left the plane: {p:?}");
    }
    let after = analyze_mesh_connectivity(&dec);
    assert_eq!(after.euler_characteristic(), 1);
    assert_eq!(after.boundary_edges, 4 * n, "rim must be pinned");
    assert!(
        boundary_vertex_positions(&sheet).is_subset(&position_set(&dec)),
        "every rim vertex survives at its exact position"
    );
    // deterministic despite every candidate taking the fallback path
    let (dec2, _) = decimate_to_ratio(&sheet, 0.3);
    assert_eq!(dec, dec2);
}

/// Per-metacell meshes concatenated without a weld leave every seam open:
/// under index connectivity the mesh is a pile of bounded fragments. The
/// decimator must pin all of those boundaries — never collapse through a
/// seam — while still simplifying fragment interiors.
#[test]
fn open_unwelded_mesh_keeps_every_seam_vertex() {
    let vol: Volume<u8> = common::sphere_vol(Dims3::cube(30));
    let mesh = common::unwelded_blocks(&vol, 128.5);
    let before = analyze_mesh_connectivity(&mesh);
    assert!(before.boundary_edges > 0, "unwelded mesh must be open");

    let (dec, stats) = decimate_to_ratio(&mesh, 0.25);
    let after = analyze_mesh_connectivity(&dec);
    assert_eq!(
        after.boundary_edges, before.boundary_edges,
        "seam boundaries must be pinned, never collapsed through"
    );
    assert_eq!(after.components, before.components);
    assert_eq!(after.euler_characteristic(), before.euler_characteristic());
    assert!(
        boundary_vertex_positions(&mesh).is_subset(&position_set(&dec)),
        "every seam vertex survives at its exact position"
    );
    // interiors big enough to carry collapses did shrink (the sphere's
    // metacell fragments have interior vertices at 30³)
    assert!(
        dec.num_vertices() < mesh.num_vertices(),
        "{stats:?}: nothing was simplified"
    );
}

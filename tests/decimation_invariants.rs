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
    analyze_mesh_connectivity, decimate_to_ratio, DecimateStats, IndexedMesh, LodChain, Triangle,
    Vec3,
};
use oociso::volume::{Dims3, RmProxy, Volume};
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

// ---------------------------------------------------------------------
// recorded bytes
// ---------------------------------------------------------------------

/// One recorded pyramid level: counts, the FNV-1a of positions then
/// indices, and every [`DecimateStats`] field (`max_error` by its bits).
struct Recorded {
    vertices: usize,
    triangles: usize,
    fnv: u64,
    stats: DecimateStats,
}

/// FNV-1a (64-bit, one step per 32-bit word) over the position bit
/// patterns followed by the indices — the benchmark harness's mesh digest.
fn fnv(mesh: &IndexedMesh) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut step = |word: u32| h = (h ^ word as u64).wrapping_mul(0x0000_0100_0000_01b3);
    for p in mesh.positions() {
        step(p.x.to_bits());
        step(p.y.to_bits());
        step(p.z.to_bits());
    }
    mesh.indices().iter().copied().for_each(&mut step);
    h
}

/// The welded mesh of `vol` at `iso`, preprocessed into two nodes.
fn welded(name: &str, vol: &Volume<u8>, iso: f32) -> IndexedMesh {
    let dir = common::tmpdir(&format!("dec_golden_{name}"));
    let db = ClusterDatabase::preprocess(
        vol,
        &dir,
        &PreprocessOptions {
            nodes: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let mesh = db.extract(iso).unwrap().mesh;
    std::fs::remove_dir_all(&dir).ok();
    mesh
}

/// The serving pyramid (25 % then 6 %) over four welded surfaces — tiled
/// and single-tile passes, closed and open inputs — must reproduce the
/// bytes and counters recorded before the decimator's internals last
/// changed. Any edit to the decimator that moves one output byte, one
/// collapse or one rejection fails here; a deliberate change of output has
/// to re-record the table and say why.
#[test]
fn decimated_levels_are_the_recorded_bytes() {
    let surfaces = [
        (
            "rm_64x64x60_iso190",
            welded(
                "rm",
                &RmProxy::with_seed(0x524D_2006).volume(250, Dims3::new(64, 64, 60)),
                190.0,
            ),
        ),
        (
            "torus_64_iso128.5",
            welded("torus", &common::torus_vol(Dims3::cube(64)), 128.5),
        ),
        (
            "noise_40_iso128.5",
            welded("noise", &common::noise_vol(Dims3::cube(40)), 128.5),
        ),
        (
            "clipped_gyroid_65_iso128.5",
            welded(
                "gyroid65",
                &common::clipped_gyroid_vol(Dims3::cube(65)),
                128.5,
            ),
        ),
    ];
    let mut actual = String::new();
    let mut levels = Vec::new();
    for (name, mesh) in &surfaces {
        for (i, level) in LodChain::coarse_levels(mesh, &[0.25, 0.06], |_, _, _| {})
            .into_iter()
            .enumerate()
        {
            let s = &level.stats;
            actual += &format!(
                "    // {name} level {}\n    rec({}, {}, {:#018x}, [{}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}], {:#018x}, {}),\n",
                i + 1,
                level.mesh.num_vertices(),
                level.mesh.len(),
                fnv(&level.mesh),
                s.input_vertices,
                s.input_triangles,
                s.output_vertices,
                s.output_triangles,
                s.collapses,
                s.finish_collapses,
                s.tiles,
                s.passes,
                s.rejected_link,
                s.rejected_flip,
                s.pinned_vertices,
                s.max_error.to_bits(),
                s.reached_target,
            );
            levels.push((format!("{name} level {}", i + 1), level));
        }
    }
    let recorded = recorded_levels();
    assert_eq!(levels.len(), recorded.len(), "actual table:\n{actual}");
    for ((ctx, level), want) in levels.iter().zip(&recorded) {
        assert_eq!(
            level.mesh.num_vertices(),
            want.vertices,
            "{ctx}; actual table:\n{actual}"
        );
        assert_eq!(
            level.mesh.len(),
            want.triangles,
            "{ctx}; actual table:\n{actual}"
        );
        assert_eq!(fnv(&level.mesh), want.fnv, "{ctx}; actual table:\n{actual}");
        assert_eq!(level.stats, want.stats, "{ctx}; actual table:\n{actual}");
    }
}

/// A [`Recorded`] level from its table row: the eleven integer stats in
/// field order, then `max_error`'s bits and `reached_target`.
fn rec(
    vertices: usize,
    triangles: usize,
    fnv: u64,
    n: [u64; 11],
    max_error: u64,
    reached_target: bool,
) -> Recorded {
    Recorded {
        vertices,
        triangles,
        fnv,
        stats: DecimateStats {
            input_vertices: n[0],
            input_triangles: n[1],
            output_vertices: n[2],
            output_triangles: n[3],
            collapses: n[4],
            finish_collapses: n[5],
            tiles: n[6],
            passes: n[7],
            rejected_link: n[8],
            rejected_flip: n[9],
            pinned_vertices: n[10],
            max_error: f64::from_bits(max_error),
            reached_target,
        },
    }
}

fn recorded_levels() -> Vec<Recorded> {
    vec![
        // rm_64x64x60_iso190 level 1
        rec(
            4289,
            6010,
            0x9f5f3790d047e8af,
            [17154, 31740, 4289, 6010, 12865, 3917, 7, 67, 1655, 282, 946],
            0x4003baefbe988000,
            true,
        ),
        // rm_64x64x60_iso190 level 2
        rec(
            2124,
            1680,
            0x5c8a2e9217a25223,
            [4289, 6010, 2124, 1680, 2165, 2165, 1, 24, 24912, 7, 946],
            0x412b5c5fdcd67f80,
            false,
        ),
        // torus_64_iso128.5 level 1
        rec(
            1946,
            3892,
            0xbd16361b834166e2,
            [7784, 15568, 1946, 3892, 5838, 1331, 3, 35, 0, 690, 0],
            0x3faa31e15d400000,
            true,
        ),
        // torus_64_iso128.5 level 2
        rec(
            468,
            936,
            0x26ac9f75b6b0fef7,
            [1946, 3892, 468, 936, 1478, 1478, 1, 7, 0, 10, 0],
            0x3fe5e6ca3c8dc000,
            true,
        ),
        // noise_40_iso128.5 level 1
        rec(
            3665,
            5944,
            0x957d27f5d4286962,
            [14658, 27930, 3665, 5944, 10993, 3924, 6, 59, 340, 203, 1410],
            0x3ffdfb5a94d98000,
            true,
        ),
        // noise_40_iso128.5 level 2
        rec(
            1553,
            1720,
            0x6140788ec7bb873d,
            [3665, 5944, 1553, 1720, 2112, 2112, 1, 10, 2343, 108, 1410],
            0x40d7a056c5eb22a0,
            false,
        ),
        // clipped_gyroid_65_iso128.5 level 1
        rec(
            3075,
            6166,
            0x19f57577cc35b2ff,
            [12300, 24616, 3075, 6166, 9225, 2643, 6, 57, 3, 429, 0],
            0x3fb0ecb0de7e0000,
            true,
        ),
        // clipped_gyroid_65_iso128.5 level 2
        rec(
            738,
            1492,
            0x04e46a1abc03997a,
            [3075, 6166, 738, 1492, 2337, 2337, 1, 10, 0, 31, 0],
            0x3ff70eee3f7c0000,
            true,
        ),
    ]
}

//! Property tests for the marching-cubes core: all 256 configurations via
//! random single-cell volumes, plus complementarity and edge-incidence
//! invariants on random multi-cell fields.

use oociso_march::{marching_cubes, marching_tetrahedra, IndexedMesh, Vec3};
use oociso_volume::{Dims3, Volume};
use proptest::prelude::*;

fn single_cell(values: [u8; 8]) -> Volume<u8> {
    // corner order must match tables::CORNERS
    let mut data = vec![0u8; 8];
    let corners = [
        (0, 0, 0),
        (1, 0, 0),
        (1, 1, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 0, 1),
        (1, 1, 1),
        (0, 1, 1),
    ];
    let dims = Dims3::cube(2);
    for (i, &(x, y, z)) in corners.iter().enumerate() {
        data[dims.index(x, y, z)] = values[i];
    }
    Volume::from_vec(dims, data)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn single_cell_triangles_lie_on_cube_edges(values in any::<[u8; 8]>(), iso in 1u32..255) {
        let iso = iso as f32 - 0.5; // avoid exact vertex hits
        let vol = single_cell(values);
        let mut mesh = IndexedMesh::new();
        marching_cubes(&vol, iso, Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0), &mut mesh);
        for t in mesh.triangles() {
            for v in &t.v {
                // every vertex lies on a cube edge: two coordinates integral
                let frac = |x: f32| x.fract().abs() > 1e-6 && (1.0 - x.fract()).abs() > 1e-6;
                let fractional = [frac(v.x), frac(v.y), frac(v.z)];
                prop_assert!(fractional.iter().filter(|&&f| f).count() <= 1,
                    "vertex {v:?} not on an edge");
                prop_assert!((-1e-5..=1.00001).contains(&v.x));
                prop_assert!((-1e-5..=1.00001).contains(&v.y));
                prop_assert!((-1e-5..=1.00001).contains(&v.z));
            }
        }
    }

    #[test]
    fn complementary_fields_same_crossing_points(values in any::<[u8; 8]>(), iso in 1u32..255) {
        // Inverting the field around the isovalue flips inside/outside. The
        // crossing points are identical; the triangulation may differ (the
        // separate-inside-corners ambiguity rule is intentionally asymmetric
        // under complement — both topologies are valid isosurfaces).
        let iso_f = iso as f32 - 0.5;
        let vol = single_cell(values);
        let inv_values: Vec<u8> = vol.data().iter().map(|&v| 255 - v).collect();
        let inv = Volume::from_vec(Dims3::cube(2), inv_values);
        let mut a = IndexedMesh::new();
        marching_cubes(&vol, iso_f, Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0), &mut a);
        let mut b = IndexedMesh::new();
        marching_cubes(&inv, 255.0 - iso_f, Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0), &mut b);
        let points = |s: &IndexedMesh| {
            let mut v: Vec<(i64, i64, i64)> = s
                .triangles()
                .flat_map(|t| t.v)
                .map(|p| {
                    let q = 1_048_576.0;
                    ((p.x * q).round() as i64, (p.y * q).round() as i64, (p.z * q).round() as i64)
                })
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        prop_assert_eq!(points(&a), points(&b));
        prop_assert_eq!(a.is_empty(), b.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_fields_have_even_interior_edge_parity(seed in any::<u64>()) {
        // Crack detection on arbitrary fields: every mesh edge whose
        // endpoints are strictly interior to the volume must be incident to
        // an EVEN number of triangles. A crack (one cell emitting a face
        // segment its neighbour does not match) shows up as odd parity.
        // (Exactly-2 is too strong: a fan diagonal may coincide with a
        // neighbour cell's face segment, legally yielding 4.)
        let dims = Dims3::new(9, 9, 9);
        let vol = Volume::<u8>::generate(dims, |x, y, z| {
            (oociso_volume::noise::splitmix64(
                seed ^ ((x + 31 * y + 977 * z) as u64)) & 0xff) as u8
        });
        let mut mesh = IndexedMesh::new();
        marching_cubes(&vol, 127.5, Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0), &mut mesh);
        let q = 1_048_576.0;
        let key = |v: Vec3| {
            ((v.x * q).round() as i64, (v.y * q).round() as i64, (v.z * q).round() as i64)
        };
        let hi = 8i64 * q as i64;
        let on_boundary = |k: (i64, i64, i64)| {
            k.0 == 0 || k.1 == 0 || k.2 == 0 || k.0 == hi || k.1 == hi || k.2 == hi
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
        for (e, c) in edges {
            if on_boundary(e.0) && on_boundary(e.1) {
                continue; // surface may legitimately end at the volume edge
            }
            prop_assert!(c % 2 == 0, "edge {e:?} has odd parity {c}: crack");
        }
    }

    #[test]
    fn mt_and_mc_agree_on_cell_activity(seed in any::<u64>()) {
        // both extractors produce geometry in exactly the same set of cells
        // (surface area agreement is checked elsewhere; here: emptiness)
        let dims = Dims3::new(6, 6, 6);
        let vol = Volume::<u8>::generate(dims, |x, y, z| {
            (oociso_volume::noise::splitmix64(
                seed ^ ((x + 17 * y + 389 * z) as u64)) & 0xff) as u8
        });
        let mut mc = IndexedMesh::new();
        marching_cubes(&vol, 127.5, Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0), &mut mc);
        let mut mt = IndexedMesh::new();
        marching_tetrahedra(&vol, 127.5, Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0), &mut mt);
        prop_assert_eq!(mc.is_empty(), mt.is_empty());
        if !mc.is_empty() {
            let ratio = mt.area() / mc.area().max(1e-9);
            prop_assert!((0.7..1.4).contains(&ratio), "area ratio {ratio}");
        }
    }
}

// ---------------------------------------------------------------------------
// Slab kernel ⇔ reference kernel equivalence over the field zoo.
// ---------------------------------------------------------------------------

use oociso_march::{marching_cubes_indexed, SlabScratch};
use oociso_volume::field::{FieldExt, GyroidField, NoiseField, SphereField};
use oociso_volume::ScalarValue;

/// One volume of the zoo, quantized to scalar type `S`.
fn zoo_volume<S: ScalarValue>(kind: usize, seed: u64, dims: Dims3) -> Volume<S> {
    match kind {
        0 => SphereField::centered(0.25 + (seed % 5) as f32 * 0.04, 128.0).sample(dims),
        1 => GyroidField {
            cells: 2.0 + (seed % 4) as f32,
            level: 128.0,
            amplitude: 80.0,
        }
        .sample(dims),
        _ => NoiseField {
            seed,
            frequency: 3.0,
            octaves: 3,
            lo: 0.0,
            hi: 255.0,
        }
        .sample(dims),
    }
}

/// Assert the slab kernel and the reference kernel agree on `vol`.
fn assert_kernels_equivalent<S: ScalarValue>(vol: &Volume<S>, iso: f32) -> Result<(), String> {
    let origin = Vec3::new(-4.0, 7.0, 1.0);
    let scale = Vec3::new(1.0, 1.0, 1.0);
    let mut reference = IndexedMesh::new();
    let ref_stats = marching_cubes(vol, iso, origin, scale, &mut reference);
    let mut mesh = IndexedMesh::new();
    let mut scratch = SlabScratch::new();
    let slab_stats = marching_cubes_indexed(
        vol,
        iso,
        origin,
        scale,
        &mut mesh,
        &mut Vec::new(),
        &mut scratch,
    );
    if ref_stats != slab_stats {
        return Err(format!("stats differ: {ref_stats:?} vs {slab_stats:?}"));
    }
    let a = reference.canonical_triangles();
    let b = mesh.canonical_triangles();
    if a != b {
        return Err(format!(
            "canonical triangle multisets differ: {} vs {} triangles, first diff at {:?}",
            a.len(),
            b.len(),
            a.iter().zip(&b).position(|(x, y)| x != y),
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn slab_kernel_equals_reference_over_zoo(
        kind in 0usize..3,
        seed in any::<u64>(),
        // odd, non-cubic dims exercise edge clamping and mask tails
        nx in 2usize..18,
        ny in 2usize..14,
        nz in 2usize..12,
        iso10 in 200u32..2300,
    ) {
        let dims = Dims3::new(nx | 1, ny | 1, nz | 1); // force odd
        let iso = iso10 as f32 / 10.0;
        let vu8: Volume<u8> = zoo_volume(kind, seed, dims);
        prop_assert!(assert_kernels_equivalent(&vu8, iso).is_ok(),
            "u8 {:?}", assert_kernels_equivalent(&vu8, iso));
        let vu16: Volume<u16> = zoo_volume(kind, seed, dims);
        prop_assert!(assert_kernels_equivalent(&vu16, iso).is_ok(),
            "u16 {:?}", assert_kernels_equivalent(&vu16, iso));
        let vf32: Volume<f32> = zoo_volume(kind, seed, dims);
        prop_assert!(assert_kernels_equivalent(&vf32, iso).is_ok(),
            "f32 {:?}", assert_kernels_equivalent(&vf32, iso));
    }

    #[test]
    fn slab_kernel_equals_reference_on_random_u8_fields(
        seed in any::<u64>(),
        n in 3usize..11,
    ) {
        // pure per-vertex noise: maximal case-table coverage incl. ambiguous
        // configs, many degenerate-ish crossings near the isovalue
        let dims = Dims3::cube(n | 1);
        let vol = Volume::<u8>::generate(dims, |x, y, z| {
            (oociso_volume::noise::splitmix64(
                seed ^ ((x + 131 * y + 1777 * z) as u64)) & 0xff) as u8
        });
        let got = assert_kernels_equivalent(&vol, 127.5);
        prop_assert!(got.is_ok(), "{got:?}");
    }
}

// ---------------------------------------------------------------------------
// Seam-only weld ⇔ the all-candidates join, and the invariant it rests on.
// ---------------------------------------------------------------------------

use oociso_march::mesh::weld_key;
use oociso_march::{MeshWelder, WeldStats};
use oociso_metacell::MetacellLayout;

/// A whole multi-block extraction of `vol`: block size `k`, `per_part`
/// consecutive blocks accumulated into each part (one mesh, one candidate
/// list — what the pipeline's batch mode hands the weld).
fn block_parts(
    vol: &Volume<u8>,
    k: usize,
    per_part: usize,
    iso: f32,
) -> Vec<(IndexedMesh, Vec<u32>)> {
    let layout = MetacellLayout::new(vol.dims(), k);
    let ids: Vec<u32> = layout.ids().collect();
    let mut scratch = SlabScratch::new();
    ids.chunks(per_part)
        .map(|blocks| {
            let (mut mesh, mut candidates) = (IndexedMesh::new(), Vec::new());
            for &id in blocks {
                let ((x0, y0, z0), hi) = layout.vertex_box(id);
                marching_cubes_indexed(
                    &vol.extract_box((x0, y0, z0), hi),
                    iso,
                    Vec3::new(x0 as f32, y0 as f32, z0 as f32),
                    Vec3::new(1.0, 1.0, 1.0),
                    &mut mesh,
                    &mut candidates,
                    &mut scratch,
                );
            }
            (mesh, candidates)
        })
        .collect()
}

/// An isovalue that **equals a sample** of `vol`, so crossings land exactly
/// on lattice points: endpoint snaps and collapsed triangles occur.
fn sample_isovalue(vol: &Volume<u8>, pick: usize) -> f32 {
    vol.data()[pick % vol.data().len()].max(1) as f32
}

/// Byte-for-byte mesh identity (`==` on floats would let `-0.0` pass for
/// `0.0`).
fn mesh_bits(m: &IndexedMesh) -> (Vec<[u32; 3]>, &[u32]) {
    let bits = |p: &Vec3| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()];
    (m.positions().iter().map(bits).collect(), m.indices())
}

/// `stats` with the one counter that legitimately differs between the
/// seam-only and the all-candidates join blanked.
fn sans_hashed(stats: WeldStats) -> WeldStats {
    WeldStats {
        hashed_vertices: 0,
        ..stats
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn seam_only_weld_equals_the_all_candidates_join(
        kind in 0usize..3,
        seed in any::<u64>(),
        k in prop::sample::select(vec![3usize, 5, 9]),
        per_part in 1usize..5,
        nodes in 1usize..5,
        pick in any::<usize>(),
    ) {
        let vol: Volume<u8> = zoo_volume(kind, seed, Dims3::new(17, 13, 11));
        let iso = sample_isovalue(&vol, pick);
        let parts = block_parts(&vol, k, per_part, iso);

        // the oracle: every vertex of every part through the hash join
        let mut general = IndexedMesh::new();
        let mut w = MeshWelder::new();
        for (part, _) in &parts {
            w.append(&mut general, part);
        }
        let general_stats = w.finish(&general);

        let mut seam = IndexedMesh::new();
        let mut w = MeshWelder::new();
        for (part, candidates) in &parts {
            prop_assert!(candidates.windows(2).all(|w| w[0] < w[1]), "ascending ids");
            prop_assert!(candidates.iter().all(|&c| (c as usize) < part.num_vertices()));
            w.append_seams(&mut seam, part, candidates);
        }
        prop_assert!(w.seams().windows(2).all(|w| w[0] < w[1]));
        let seam_stats = w.finish(&seam);
        prop_assert_eq!(mesh_bits(&seam), mesh_bits(&general));
        prop_assert_eq!(sans_hashed(seam_stats), sans_hashed(general_stats));
        prop_assert!(seam_stats.hashed_vertices <= general_stats.hashed_vertices);

        // welded meshes join by remap exactly as by re-welding: deal the
        // parts round-robin onto `nodes` welders, then continue the first
        // node's welder and remap the other node meshes onto its mesh
        let mut node_meshes = Vec::new();
        for n in 0..nodes {
            let mut mesh = IndexedMesh::new();
            let mut w = MeshWelder::new();
            for (part, candidates) in parts.iter().skip(n).step_by(nodes) {
                w.append_seams(&mut mesh, part, candidates);
            }
            node_meshes.push((mesh, w));
        }
        let mut concat = IndexedMesh::new();
        for (mesh, _) in &node_meshes {
            concat.merge(mesh.clone());
        }
        let (rewelded, rewelded_stats) = concat.welded();
        let mut node_meshes = node_meshes.into_iter();
        let (mut joined, mut w) = node_meshes.next().unwrap();
        w.begin_stage(&joined);
        for (mesh, node_welder) in node_meshes {
            w.append_welded(&mut joined, &mesh, node_welder.seams());
        }
        prop_assert_eq!(mesh_bits(&joined), mesh_bits(&rewelded));
        prop_assert_eq!(sans_hashed(w.finish(&joined)), sans_hashed(rewelded_stats));
        // and any dealing of the same blocks welds to the same surface
        prop_assert_eq!(joined.canonical_triangles(), general.canonical_triangles());
    }

    #[test]
    fn no_vertex_outside_the_candidates_shares_its_weld_key(
        kind in 0usize..3,
        seed in any::<u64>(),
        k in prop::sample::select(vec![3usize, 5, 9]),
        pick in any::<usize>(),
    ) {
        // the invariant the fast path rests on, over a whole multi-block
        // extraction: a vertex the kernel did not name is alone under its key
        let vol: Volume<u8> = zoo_volume(kind, seed, Dims3::new(17, 13, 11));
        let iso = sample_isovalue(&vol, pick);
        let parts = block_parts(&vol, k, 1, iso);
        let mut carriers = std::collections::HashMap::new();
        for (part, _) in &parts {
            for &p in part.positions() {
                *carriers.entry(weld_key(p)).or_insert(0u32) += 1;
            }
        }
        for (part, candidates) in &parts {
            for (v, &p) in part.positions().iter().enumerate() {
                if candidates.binary_search(&(v as u32)).is_err() {
                    prop_assert_eq!(carriers[&weld_key(p)], 1, "vertex {} at {:?}", v, p);
                }
            }
        }
    }
}

#[test]
fn sample_valued_isovalues_do_exercise_snaps_and_drops() {
    // the differential tests above are only as good as their inputs: at an
    // isovalue equal to sample values the weld must see collapsed triangles,
    // and the candidates must still be a strict subset of the vertices
    let vol: Volume<u8> = zoo_volume(2, 7, Dims3::new(17, 13, 11));
    let parts = block_parts(&vol, 5, 2, sample_isovalue(&vol, 123));
    let mut out = IndexedMesh::new();
    let mut w = MeshWelder::new();
    for (part, candidates) in &parts {
        w.append_seams(&mut out, part, candidates);
    }
    let stats = w.finish(&out);
    assert!(stats.degenerate_dropped > 0, "{stats:?}");
    assert!(stats.vertices_merged() > 0, "{stats:?}");
    assert!(0 < stats.hashed_vertices && stats.hashed_vertices < stats.input_vertices);
}

// ---------------------------------------------------------------------------
// The oracle's exact triangle stream, pinned.
// ---------------------------------------------------------------------------

/// FNV-1a over the `f32` bits of every corner of every triangle, in
/// emission order, then the triangle count.
fn stream_digest(tris: impl Iterator<Item = oociso_march::Triangle>) -> (usize, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bits: u64, bytes: usize| {
        for b in &bits.to_le_bytes()[..bytes] {
            h = (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut n = 0usize;
    for t in tris {
        for p in t.v {
            for c in [p.x, p.y, p.z] {
                eat(c.to_bits() as u64, 4);
            }
        }
        n += 1;
    }
    eat(n as u64, 8);
    (n, h)
}

#[test]
fn reference_kernel_triangle_stream_is_pinned() {
    // every equivalence suite trusts `marching_cubes`: its stream (positions
    // bit for bit, in emission order) is pinned over the zoo at a
    // half-integer isovalue and at one the samples take
    const PINNED: [(usize, u64); 6] = [
        (3752, 16565772897438691479),
        (3752, 10124353443476068724),
        (44560, 3996513409255671815),
        (44560, 12115868934729738548),
        (11767, 9451982809587617842),
        (11767, 15567365993508103512),
    ];
    let mut got = Vec::new();
    for kind in 0..3 {
        let vol: Volume<u8> = zoo_volume(kind, 7, Dims3::new(33, 29, 31));
        for iso in [127.5f32, 128.0] {
            if iso.fract() == 0.0 {
                assert!(
                    vol.data().contains(&(iso as u8)),
                    "zoo {kind}: no sample at {iso}"
                );
            }
            let mut mesh = IndexedMesh::new();
            let origin = Vec3::new(-4.0, 7.0, 1.0);
            marching_cubes(&vol, iso, origin, Vec3::new(1.0, 0.5, 2.0), &mut mesh);
            got.push(stream_digest(mesh.triangles()));
        }
    }
    assert_eq!(got, PINNED);
}

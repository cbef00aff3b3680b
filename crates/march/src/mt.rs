//! Marching Tetrahedra over the Kuhn 6-tetrahedra cube decomposition.
//!
//! An unambiguous alternative extractor (the paper: "any of the several
//! variations of the Marching Cubes algorithm can be used"). Every cube is
//! split into six tetrahedra around the 0–6 main diagonal; tetrahedra have no
//! ambiguous configurations, and the Kuhn decomposition tiles space
//! consistently (opposite cube faces receive parallel diagonals), so the
//! resulting mesh is watertight. MT emits more, smaller triangles than MC —
//! quantified by the extraction ablation bench.

use crate::indexed::IndexedMesh;
use crate::mesh::{Triangle, Vec3};
use crate::tables::CORNERS;
use oociso_volume::{ScalarValue, Volume};

/// The six tetrahedra of the Kuhn decomposition (corner indices), each
/// containing the main diagonal (0, 6).
const TETS: [[usize; 4]; 6] = [
    [0, 5, 1, 6],
    [0, 1, 2, 6],
    [0, 2, 3, 6],
    [0, 3, 7, 6],
    [0, 7, 4, 6],
    [0, 4, 5, 6],
];

/// Extract the isosurface with marching tetrahedra; same conventions as
/// [`crate::marching_cubes`] (normals point toward the `≥ iso` side, three
/// fresh vertices per triangle appended to `mesh`).
pub fn marching_tetrahedra<S: ScalarValue>(
    vol: &Volume<S>,
    iso: f32,
    origin: Vec3,
    scale: Vec3,
    mesh: &mut IndexedMesh,
) -> u64 {
    let dims = vol.dims();
    let mut triangles = 0u64;
    for cz in 0..dims.nz.saturating_sub(1) {
        for cy in 0..dims.ny.saturating_sub(1) {
            for cx in 0..dims.nx.saturating_sub(1) {
                let mut vals = [0.0f32; 8];
                let mut pos = [Vec3::ZERO; 8];
                let mut below = false;
                let mut above = false;
                for (i, &(dx, dy, dz)) in CORNERS.iter().enumerate() {
                    let v = vol.get(cx + dx, cy + dy, cz + dz).to_f32();
                    vals[i] = v;
                    if v < iso {
                        below = true;
                    } else {
                        above = true;
                    }
                    pos[i] = Vec3::new(
                        origin.x + (cx + dx) as f32 * scale.x,
                        origin.y + (cy + dy) as f32 * scale.y,
                        origin.z + (cz + dz) as f32 * scale.z,
                    );
                }
                if !(below && above) {
                    continue;
                }
                for tet in &TETS {
                    triangles += march_tet(
                        [pos[tet[0]], pos[tet[1]], pos[tet[2]], pos[tet[3]]],
                        [vals[tet[0]], vals[tet[1]], vals[tet[2]], vals[tet[3]]],
                        iso,
                        mesh,
                    );
                }
            }
        }
    }
    triangles
}

/// Interpolate the crossing between two tet corners, canonicalized by position
/// so shared edges match bit-for-bit across tets and cells.
#[inline]
fn interp(pa: Vec3, va: f32, pb: Vec3, vb: f32, iso: f32) -> Vec3 {
    let ka = (pa.z, pa.y, pa.x);
    let kb = (pb.z, pb.y, pb.x);
    let (pa, va, pb, vb) = if kb < ka {
        (pb, vb, pa, va)
    } else {
        (pa, va, pb, vb)
    };
    let t = if (vb - va).abs() > 0.0 {
        ((iso - va) / (vb - va)).clamp(0.0, 1.0)
    } else {
        0.5
    };
    pa + (pb - pa) * t
}

/// Append 0–2 triangles for one explicit tetrahedron to `mesh`, three fresh
/// vertices each; returns the count.
///
/// This is the primitive beneath both the structured marching-tetrahedra
/// pass and the unstructured-mesh extraction ([`crate::unstructured`]).
/// Crossing points are canonicalized by position, so tets sharing a face —
/// within one mesh or across cluster boundaries — produce bit-identical
/// vertices.
pub fn march_tet(p: [Vec3; 4], v: [f32; 4], iso: f32, mesh: &mut IndexedMesh) -> u64 {
    let mut inside: u8 = 0;
    for (i, &vi) in v.iter().enumerate() {
        if vi < iso {
            inside |= 1 << i;
        }
    }
    if inside == 0 || inside == 0b1111 {
        return 0;
    }
    let ins: Vec<usize> = (0..4).filter(|&i| inside & (1 << i) != 0).collect();
    let outs: Vec<usize> = (0..4).filter(|&i| inside & (1 << i) == 0).collect();

    let mut emit = |a: Vec3, b: Vec3, c: Vec3, inside_ref: Vec3| -> u64 {
        let mut tri = Triangle { v: [a, b, c] };
        // orient the normal away from the inside (< iso) region
        let away = tri.centroid() - inside_ref;
        if tri.raw_normal().dot(away) < 0.0 {
            tri.v.swap(1, 2);
        }
        mesh.push_fresh_triangle(tri);
        1
    };

    match ins.len() {
        1 => {
            let i = ins[0];
            let a = interp(p[i], v[i], p[outs[0]], v[outs[0]], iso);
            let b = interp(p[i], v[i], p[outs[1]], v[outs[1]], iso);
            let c = interp(p[i], v[i], p[outs[2]], v[outs[2]], iso);
            emit(a, b, c, p[i])
        }
        3 => {
            let o = outs[0];
            let a = interp(p[ins[0]], v[ins[0]], p[o], v[o], iso);
            let b = interp(p[ins[1]], v[ins[1]], p[o], v[o], iso);
            let c = interp(p[ins[2]], v[ins[2]], p[o], v[o], iso);
            let inside_ref = (p[ins[0]] + p[ins[1]] + p[ins[2]]) / 3.0;
            emit(a, b, c, inside_ref)
        }
        2 => {
            // quad between the two inside and two outside corners
            let (i0, i1) = (ins[0], ins[1]);
            let (o0, o1) = (outs[0], outs[1]);
            let q00 = interp(p[i0], v[i0], p[o0], v[o0], iso);
            let q01 = interp(p[i0], v[i0], p[o1], v[o1], iso);
            let q10 = interp(p[i1], v[i1], p[o0], v[o0], iso);
            let q11 = interp(p[i1], v[i1], p[o1], v[o1], iso);
            let inside_ref = (p[i0] + p[i1]) * 0.5;
            emit(q00, q01, q11, inside_ref) + emit(q00, q11, q10, inside_ref)
        }
        _ => unreachable!(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mc::marching_cubes;
    use oociso_volume::field::{FieldExt, SphereField};
    use oociso_volume::Dims3;
    use std::collections::HashMap;

    fn key(v: Vec3) -> (i64, i64, i64) {
        let q = 1_048_576.0;
        (
            (v.x * q).round() as i64,
            (v.y * q).round() as i64,
            (v.z * q).round() as i64,
        )
    }

    #[test]
    fn sphere_watertight_under_mt() {
        let f = SphereField::centered(0.3, 128.0);
        let vol: Volume<f32> = f.sample(Dims3::cube(20));
        let mut mesh = IndexedMesh::new();
        marching_tetrahedra(&vol, 128.0, Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0), &mut mesh);
        assert!(mesh.len() > 100);
        let mut edge_count: HashMap<_, u32> = HashMap::new();
        for t in mesh.triangles() {
            if t.is_degenerate() {
                continue; // MT can emit zero-area slivers at exact crossings
            }
            for i in 0..3 {
                let a = key(t.v[i]);
                let b = key(t.v[(i + 1) % 3]);
                let e = if a < b { (a, b) } else { (b, a) };
                *edge_count.entry(e).or_insert(0) += 1;
            }
        }
        let bad = edge_count.values().filter(|&&c| c != 2).count();
        assert_eq!(bad, 0, "{bad} non-manifold edges of {}", edge_count.len());
    }

    #[test]
    fn mt_area_matches_mc_area() {
        let f = SphereField::centered(0.32, 100.0);
        let vol: Volume<f32> = f.sample(Dims3::cube(24));
        let mut mc_mesh = IndexedMesh::new();
        marching_cubes(
            &vol,
            100.0,
            Vec3::ZERO,
            Vec3::new(1.0, 1.0, 1.0),
            &mut mc_mesh,
        );
        let mut mt_mesh = IndexedMesh::new();
        marching_tetrahedra(
            &vol,
            100.0,
            Vec3::ZERO,
            Vec3::new(1.0, 1.0, 1.0),
            &mut mt_mesh,
        );
        let rel = (mc_mesh.area() - mt_mesh.area()).abs() / mc_mesh.area();
        assert!(rel < 0.03, "MC {} vs MT {}", mc_mesh.area(), mt_mesh.area());
        // MT refines: more triangles for the same surface
        assert!(mt_mesh.len() > mc_mesh.len());
    }

    #[test]
    fn mt_normals_oriented() {
        let f = SphereField::centered(0.3, 128.0);
        let n = 20;
        let vol: Volume<f32> = f.sample(Dims3::cube(n));
        let mut mesh = IndexedMesh::new();
        marching_tetrahedra(&vol, 128.0, Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0), &mut mesh);
        let center = Vec3::new(
            (n - 1) as f32 / 2.0,
            (n - 1) as f32 / 2.0,
            (n - 1) as f32 / 2.0,
        );
        let mut agree = 0usize;
        let mut total = 0usize;
        for t in mesh.triangles() {
            if t.is_degenerate() {
                continue;
            }
            total += 1;
            if t.normal().dot(center - t.centroid()) > 0.0 {
                agree += 1;
            }
        }
        assert!(
            agree as f64 / total as f64 > 0.99,
            "{agree} of {total} normals inward"
        );
    }

    #[test]
    fn constant_volume_emits_nothing() {
        let vol = Volume::<u8>::filled(Dims3::cube(6), 3);
        let mut mesh = IndexedMesh::new();
        let n = marching_tetrahedra(&vol, 100.0, Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0), &mut mesh);
        assert_eq!(n, 0);
    }
}

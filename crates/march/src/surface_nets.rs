//! High-performance SurfaceNets (arXiv:2401.14906, Kitware style).
//!
//! Where Marching Cubes puts a vertex on every intersected lattice edge and
//! triangulates per cell, SurfaceNets puts **one vertex per active cell**
//! (the centroid of the cell's edge crossings) and emits **one quad per
//! crossing lattice edge**, connecting the four cell vertices around that
//! edge. The result has roughly half the triangles of MC at the same
//! resolution, from a cheaper kernel, at the cost of slightly smoothed
//! geometry — bounded Laplacian smoothing passes (each vertex clamped
//! strictly inside its own cell) then trade stair-stepping for quality
//! without ever changing connectivity.
//!
//! # Distributed extraction
//!
//! The kernel is written block-local so it rides the out-of-core pipeline
//! unchanged:
//!
//! * a cell's vertex depends only on the cell's own 8 samples, and blocks
//!   partition the cells, so every vertex is computed exactly once
//!   cluster-wide and **no seam welding is needed** — vertex identity is the
//!   cell key itself;
//! * a quad around a crossing edge touches up to 4 cells. If all four are in
//!   the block it is triangulated immediately ("interior"); otherwise the
//!   block owning the *minimum* cell records a 16-byte [`SeamQuad`] and the
//!   merge stage resolves it against the concatenated vertex→cell table
//!   ([`stitch_seams`]) once all blocks are in. Sorting the seams makes the
//!   stitched output independent of block partitioning and arrival order.
//!
//! Crossing edges that exit the sampled volume produce no quad — the surface
//! is left open at the dataset boundary, exactly like the MC kernels.
//!
//! Smoothing ([`smooth_surface_nets`]) runs after the stitch so the
//! neighbor graph spans seams; its clamp box is inset by
//! [`SN_CLAMP_MARGIN`], which keeps every smoothed vertex strictly inside
//! its own cell — two distinct cells can never produce coincident vertices,
//! so position-quantizing topology analysis agrees with raw connectivity.

use crate::backend::{pack_cell, unpack_cell, BlockDomain, BlockOutput, SeamQuad, PERP};
use crate::indexed::IndexedMesh;
use crate::mc::{interp_edge, McStats};
use crate::mesh::Vec3;
use crate::tables::{CORNERS, EDGES};
use oociso_volume::{ScalarValue, Volume};
use std::collections::HashMap;

/// Smoothing passes the pipeline applies after the merge stitch.
pub const SN_SMOOTH_PASSES: usize = 2;

/// Per-pass relaxation factor toward the neighbor average.
const SN_RELAX: f32 = 0.5;

/// Clamp inset (in cells): smoothed vertices stay at least this far inside
/// their cell, so vertices of distinct cells stay distinct.
pub const SN_CLAMP_MARGIN: f32 = 0.05;

/// Sentinel for "cell has no vertex" in the cell→vertex grid.
const NO_CELL: u32 = u32::MAX;

/// Reusable working memory for [`sn_block`]: the sample sign plane and the
/// per-block cell→vertex grid. Hold one per worker thread.
#[derive(Default)]
pub struct SnScratch {
    /// 1 byte per sample: `1` iff `sample < iso`.
    signs: Vec<u8>,
    /// Mesh vertex index per block cell (`NO_CELL` when inactive).
    cell_index: Vec<u32>,
}

impl SnScratch {
    /// Fresh scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Extract one block's SurfaceNets geometry, appending to `out` (see the
/// module docs for the block contract). `world_origin`/`scale` place the
/// block in world space exactly like the MC kernels; the pipeline passes
/// the block's integer global origin at unit scale.
///
/// Never inlined: whether this body is folded into its one caller (the
/// backend trait's thin `extract_block`) has swung its measured wall by a
/// quarter between otherwise unrelated builds.
#[inline(never)]
pub(crate) fn sn_block<S: ScalarValue>(
    vol: &Volume<S>,
    iso: f32,
    domain: &BlockDomain,
    world_origin: Vec3,
    scale: Vec3,
    out: &mut BlockOutput,
    scratch: &mut SnScratch,
) -> McStats {
    let dims = vol.dims();
    let mut stats = McStats {
        cells_visited: dims.num_cells() as u64,
        ..Default::default()
    };
    if dims.nx < 2 || dims.ny < 2 || dims.nz < 2 {
        return stats;
    }
    let (nx, ny, nz) = (dims.nx, dims.ny, dims.nz);
    let (ncx, ncy) = (nx - 1, ny - 1);
    let data = vol.data();

    // sign pre-pass: one comparison per sample
    scratch.signs.clear();
    scratch.signs.reserve(data.len());
    scratch
        .signs
        .extend(data.iter().map(|v| (v.to_f32() < iso) as u8));
    let signs = &scratch.signs;

    // pass 1: one vertex per active cell — the centroid of its edge
    // crossings, each interpolated through the shared canonical crossing
    // function so positions are exact functions of the cell's samples
    scratch.cell_index.clear();
    scratch.cell_index.resize(dims.num_cells(), NO_CELL);
    let (gx0, gy0, gz0) = domain.origin;
    let mut corner_vals = [0.0f32; 8];
    for cz in 0..nz - 1 {
        for cy in 0..ny - 1 {
            for cx in 0..nx - 1 {
                let mut inside = 0u8;
                for (i, &(dx, dy, dz)) in CORNERS.iter().enumerate() {
                    inside |= signs[((cz + dz) * ny + cy + dy) * nx + cx + dx] << i;
                }
                if inside == 0 || inside == 0xff {
                    continue;
                }
                stats.active_cells += 1;
                for (i, &(dx, dy, dz)) in CORNERS.iter().enumerate() {
                    corner_vals[i] = data[((cz + dz) * ny + cy + dy) * nx + cx + dx].to_f32();
                }
                let mut sum = Vec3::ZERO;
                let mut crossings = 0u32;
                for (e, &(a, b)) in EDGES.iter().enumerate() {
                    if ((inside >> a) ^ (inside >> b)) & 1 == 1 {
                        sum += interp_edge(e, (cx, cy, cz), &corner_vals, iso, world_origin, scale);
                        crossings += 1;
                    }
                }
                let vi = out.mesh.push_vertex(sum / crossings as f32);
                scratch.cell_index[(cz * ncy + cy) * ncx + cx] = vi;
                out.cells.push(pack_cell(gx0 + cx, gy0 + cy, gz0 + cz));
            }
        }
    }

    // pass 2: one quad per crossing lattice edge whose minimum surrounding
    // cell this block owns — triangulated now when all four cells are
    // local, deferred as a SeamQuad otherwise
    let go = [gx0, gy0, gz0];
    let nd = [nx, ny, nz];
    let nvol = [
        domain.volume_dims.nx,
        domain.volume_dims.ny,
        domain.volume_dims.nz,
    ];
    for axis in 0..3 {
        let (b, c) = PERP[axis];
        let mut lo = [0usize; 3];
        let mut hi = [0usize; 3];
        hi[axis] = nd[axis] - 2;
        for q in [b, c] {
            lo[q] = 1;
            // at the volume's upper boundary the outer cell ring does not
            // exist: the surface stays open there, like the MC clip
            hi[q] = if go[q] + nd[q] == nvol[q] {
                nd[q] - 2
            } else {
                nd[q] - 1
            };
        }
        for pz in lo[2]..=hi[2] {
            for py in lo[1]..=hi[1] {
                for px in lo[0]..=hi[0] {
                    let p = [px, py, pz];
                    let i0 = (p[2] * ny + p[1]) * nx + p[0];
                    let mut p1 = p;
                    p1[axis] += 1;
                    let i1 = (p1[2] * ny + p1[1]) * nx + p1[0];
                    let s0 = signs[i0];
                    if s0 == signs[i1] {
                        continue;
                    }
                    if p[b] < nd[b] - 1 && p[c] < nd[c] - 1 {
                        // interior: all four cells are this block's
                        let cell = |db: usize, dc: usize| {
                            let mut q = p;
                            q[b] -= 1 - db;
                            q[c] -= 1 - dc;
                            scratch.cell_index[(q[2] * ncy + q[1]) * ncx + q[0]]
                        };
                        // counter-clockwise around +axis when the base
                        // sample is inside (< iso): normal faces ≥ iso
                        let ring = if s0 == 1 {
                            [cell(0, 0), cell(1, 0), cell(1, 1), cell(0, 1)]
                        } else {
                            [cell(0, 0), cell(0, 1), cell(1, 1), cell(1, 0)]
                        };
                        debug_assert!(ring.iter().all(|&v| v != NO_CELL));
                        out.mesh.push_triangle(ring[0], ring[1], ring[2]);
                        out.mesh.push_triangle(ring[0], ring[2], ring[3]);
                        stats.triangles += 2;
                    } else {
                        out.seams.push(SeamQuad {
                            base: (
                                (go[0] + p[0]) as u32,
                                (go[1] + p[1]) as u32,
                                (go[2] + p[2]) as u32,
                            ),
                            axis: axis as u8,
                            inside_at_base: s0 == 1,
                        });
                    }
                }
            }
        }
    }
    stats
}

/// Resolve the deferred seam quads of a merged SurfaceNets extraction:
/// `cells` is the concatenated vertex→cell table (parallel to `mesh`'s
/// vertices), `seams` the union of every block's deferred quads. Seams are
/// sorted first, so the appended triangles are independent of block
/// partitioning and worker scheduling. Returns the triangles appended.
///
/// Panics if a seam references a cell with no vertex — impossible for
/// outputs of [`sn_block`] over a complete block partition (a cell around a
/// crossing edge always has mixed signs, hence a vertex).
pub fn stitch_seams(mesh: &mut IndexedMesh, cells: &[u64], seams: &mut [SeamQuad]) -> u64 {
    debug_assert_eq!(cells.len(), mesh.num_vertices());
    seams.sort_unstable();
    let map: HashMap<u64, u32> = cells
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, i as u32))
        .collect();
    let mut tris = 0u64;
    for q in seams.iter() {
        let v = q
            .cell_ring()
            .map(|k| *map.get(&k).expect("seam quad references an inactive cell"));
        mesh.push_triangle(v[0], v[1], v[2]);
        mesh.push_triangle(v[0], v[2], v[3]);
        tris += 2;
    }
    tris
}

/// Bounded Laplacian smoothing over a (stitched) SurfaceNets mesh: each
/// pass moves every connected vertex half-way toward the average of its
/// triangle neighbors, then clamps it inside its own cell's box inset by
/// [`SN_CLAMP_MARGIN`]. Connectivity never changes; runs are deterministic
/// (fixed accumulation order over the index buffer).
pub fn smooth_surface_nets(
    mesh: &mut IndexedMesh,
    cells: &[u64],
    origin: Vec3,
    scale: Vec3,
    passes: usize,
) {
    let n = mesh.num_vertices();
    debug_assert_eq!(cells.len(), n);
    if passes == 0 || n == 0 || mesh.is_empty() {
        return;
    }
    let indices = mesh.indices().to_vec();
    let mut accum = vec![Vec3::ZERO; n];
    let mut count = vec![0u32; n];
    for _ in 0..passes {
        accum.fill(Vec3::ZERO);
        count.fill(0);
        let pos = mesh.positions();
        for t in indices.chunks_exact(3) {
            let (a, b, c) = (t[0] as usize, t[1] as usize, t[2] as usize);
            let (pa, pb, pc) = (pos[a], pos[b], pos[c]);
            accum[a] += pb;
            accum[a] += pc;
            accum[b] += pa;
            accum[b] += pc;
            accum[c] += pa;
            accum[c] += pb;
            count[a] += 2;
            count[b] += 2;
            count[c] += 2;
        }
        let pos = mesh.positions_mut();
        for i in 0..n {
            if count[i] == 0 {
                continue;
            }
            let target = accum[i] / count[i] as f32;
            let p = pos[i] + (target - pos[i]) * SN_RELAX;
            let (cx, cy, cz) = unpack_cell(cells[i]);
            let lo = Vec3::new(
                origin.x + (cx as f32 + SN_CLAMP_MARGIN) * scale.x,
                origin.y + (cy as f32 + SN_CLAMP_MARGIN) * scale.y,
                origin.z + (cz as f32 + SN_CLAMP_MARGIN) * scale.z,
            );
            let hi = Vec3::new(
                origin.x + (cx as f32 + 1.0 - SN_CLAMP_MARGIN) * scale.x,
                origin.y + (cy as f32 + 1.0 - SN_CLAMP_MARGIN) * scale.y,
                origin.z + (cz as f32 + 1.0 - SN_CLAMP_MARGIN) * scale.z,
            );
            pos[i] = p.max(lo).min(hi);
        }
    }
}

/// Whole-volume SurfaceNets, appending to `mesh` — the standalone sibling
/// of [`crate::mc::marching_cubes_indexed`] for direct use and benches.
/// `origin`/`scale` place the volume in world space; `smooth_passes`
/// bounded smoothing passes run before returning
/// ([`SN_SMOOTH_PASSES`] is the pipeline default).
pub fn surface_nets<S: ScalarValue>(
    vol: &Volume<S>,
    iso: f32,
    origin: Vec3,
    scale: Vec3,
    smooth_passes: usize,
    mesh: &mut IndexedMesh,
) -> McStats {
    let mut out = BlockOutput::default();
    let mut scratch = SnScratch::new();
    let stats = sn_block(
        vol,
        iso,
        &BlockDomain::whole(vol.dims()),
        origin,
        scale,
        &mut out,
        &mut scratch,
    );
    debug_assert!(out.seams.is_empty(), "whole-volume block cannot have seams");
    smooth_surface_nets(&mut out.mesh, &out.cells, origin, scale, smooth_passes);
    mesh.merge(out.mesh);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, BackendScratch};
    use crate::topology::{analyze_mesh, analyze_mesh_connectivity};
    use oociso_volume::field::{FieldExt, GyroidField, SphereField, TorusField};
    use oociso_volume::Dims3;

    fn sphere(n: usize) -> Volume<u8> {
        SphereField::centered(0.32, 128.0).sample(Dims3::cube(n))
    }

    #[test]
    fn sphere_is_closed_manifold_with_euler_2() {
        let vol = sphere(24);
        let mut mesh = IndexedMesh::new();
        let stats = surface_nets(
            &vol,
            127.5,
            Vec3::ZERO,
            Vec3::new(1.0, 1.0, 1.0),
            SN_SMOOTH_PASSES,
            &mut mesh,
        );
        assert!(stats.active_cells > 100);
        assert_eq!(stats.triangles as usize, mesh.len());
        assert_eq!(mesh.num_vertices() as u64, stats.active_cells);
        let top = analyze_mesh(&mesh);
        assert!(top.is_closed_manifold(), "{top:?}");
        assert_eq!(top.euler_characteristic(), 2);
        assert_eq!(top.components, 1);
        // smoothing keeps quantized positions distinct, so position-based
        // and raw-connectivity analyses agree
        let conn = analyze_mesh_connectivity(&mesh);
        assert_eq!(top, conn);
    }

    #[test]
    fn torus_euler_characteristic_is_zero() {
        let vol: Volume<u8> = TorusField {
            major: 0.30,
            minor: 0.12,
            level: 128.0,
            slope: 200.0,
        }
        .sample(Dims3::cube(33));
        let mut mesh = IndexedMesh::new();
        surface_nets(
            &vol,
            127.5,
            Vec3::ZERO,
            Vec3::new(1.0, 1.0, 1.0),
            SN_SMOOTH_PASSES,
            &mut mesh,
        );
        let top = analyze_mesh(&mesh);
        assert!(top.is_closed_manifold(), "{top:?}");
        assert_eq!(top.euler_characteristic(), 0);
    }

    #[test]
    fn emits_fewer_primitives_than_mc() {
        let vol = sphere(33);
        let mut sn = IndexedMesh::new();
        surface_nets(
            &vol,
            127.5,
            Vec3::ZERO,
            Vec3::new(1.0, 1.0, 1.0),
            0,
            &mut sn,
        );
        let mut mc = IndexedMesh::new();
        let mut scratch = crate::mc::SlabScratch::new();
        crate::mc::marching_cubes_indexed(
            &vol,
            127.5,
            Vec3::ZERO,
            Vec3::new(1.0, 1.0, 1.0),
            &mut mc,
            &mut Vec::new(),
            &mut scratch,
        );
        // SN's primitive is the quad (2 triangles): about one per crossing
        // edge, roughly half of MC's triangle count at the same resolution
        let quads = sn.len() / 2;
        assert!(
            (quads as f64) < 0.7 * mc.len() as f64,
            "SN {} quads vs MC {} triangles",
            quads,
            mc.len()
        );
    }

    #[test]
    fn vertices_stay_inside_their_cells() {
        let vol = sphere(20);
        let mut out = BlockOutput::default();
        let mut scratch = SnScratch::new();
        sn_block(
            &vol,
            127.5,
            &BlockDomain::whole(vol.dims()),
            Vec3::ZERO,
            Vec3::new(1.0, 1.0, 1.0),
            &mut out,
            &mut scratch,
        );
        let check = |mesh: &IndexedMesh, cells: &[u64], inset: f32| {
            for (p, &key) in mesh.positions().iter().zip(cells) {
                let (cx, cy, cz) = unpack_cell(key);
                for (v, lo) in [(p.x, cx as f32), (p.y, cy as f32), (p.z, cz as f32)] {
                    assert!(
                        v >= lo - 1e-6 + inset && v <= lo + 1.0 + 1e-6 - inset,
                        "vertex {p:?} outside cell ({cx},{cy},{cz})"
                    );
                }
            }
        };
        check(&out.mesh, &out.cells, 0.0);
        smooth_surface_nets(
            &mut out.mesh,
            &out.cells,
            Vec3::ZERO,
            Vec3::new(1.0, 1.0, 1.0),
            3,
        );
        check(&out.mesh, &out.cells, SN_CLAMP_MARGIN);
    }

    /// The distributed contract: extracting per metacell block, stitching
    /// the deferred seams, then smoothing must reproduce the whole-volume
    /// surface — identical topology, one quad per crossing edge, no
    /// duplicates or holes along block seams.
    #[test]
    fn block_decomposition_stitches_to_whole_volume_topology() {
        let f = GyroidField {
            cells: 2.0,
            level: 128.0,
            amplitude: 70.0,
        };
        for (dims, k) in [
            (Dims3::cube(25), 9),
            (Dims3::new(21, 17, 25), 5),
            (Dims3::cube(33), 9),
        ] {
            let vol: Volume<u8> = f.sample(dims);
            let iso = 127.5;

            let mut whole = IndexedMesh::new();
            let whole_stats = surface_nets(
                &vol,
                iso,
                Vec3::ZERO,
                Vec3::new(1.0, 1.0, 1.0),
                0, // unsmoothed: positions must match the stitched mesh bit-for-bit
                &mut whole,
            );

            let layout = oociso_metacell::MetacellLayout::new(dims, k);
            let backend = Backend::SurfaceNets.instance::<u8>();
            let mut out = BlockOutput::default();
            let mut scratch = BackendScratch::new();
            for id in layout.ids() {
                let ((x0, y0, z0), (x1, y1, z1)) = layout.vertex_box(id);
                let sub = vol.extract_box((x0, y0, z0), (x1, y1, z1));
                let domain = BlockDomain {
                    origin: (x0, y0, z0),
                    volume_dims: dims,
                };
                backend.extract_block(&sub, iso, &domain, &mut out, &mut scratch);
            }
            let BlockOutput {
                mut mesh,
                cells,
                mut seams,
                weld_candidates,
            } = out;
            assert!(weld_candidates.is_empty(), "SurfaceNets has no weld");
            assert!(!seams.is_empty(), "k={k}: blocks must defer seam quads");
            stitch_seams(&mut mesh, &cells, &mut seams);

            assert_eq!(mesh.len(), whole.len(), "k={k} dims={dims:?}");
            assert_eq!(mesh.num_vertices() as u64, whole_stats.active_cells);
            let a = analyze_mesh_connectivity(&mesh);
            let b = analyze_mesh_connectivity(&whole);
            assert_eq!(a, b, "k={k} dims={dims:?}");
            // before smoothing the triangle multisets agree exactly: same
            // quads around the same crossing edges, and every vertex is
            // computed from the same samples at the same world transform
            assert_eq!(
                mesh.canonical_triangles(),
                whole.canonical_triangles(),
                "k={k} dims={dims:?}"
            );

            // smoothing moves vertices but can never change connectivity or
            // collapse two cells' vertices together (clamp inset)
            smooth_surface_nets(
                &mut mesh,
                &cells,
                Vec3::ZERO,
                Vec3::new(1.0, 1.0, 1.0),
                SN_SMOOTH_PASSES,
            );
            assert_eq!(analyze_mesh_connectivity(&mesh), a);
            assert_eq!(analyze_mesh(&mesh), a, "k={k}: smoothed verts collided");
        }
    }

    #[test]
    fn flat_field_yields_nothing() {
        let vol = Volume::<u8>::filled(Dims3::cube(8), 10);
        let mut mesh = IndexedMesh::new();
        let stats = surface_nets(
            &vol,
            128.0,
            Vec3::ZERO,
            Vec3::new(1.0, 1.0, 1.0),
            2,
            &mut mesh,
        );
        assert_eq!(stats.active_cells, 0);
        assert_eq!(stats.triangles, 0);
        assert!(mesh.is_empty());
        assert_eq!(stats.cells_visited, 7 * 7 * 7);
    }

    #[test]
    fn normals_point_toward_higher_values() {
        // SphereField is higher inside; inside is ≥ iso, so normals must
        // point toward the center — the same convention as the MC kernels.
        let vol = sphere(24);
        let mut mesh = IndexedMesh::new();
        surface_nets(
            &vol,
            127.5,
            Vec3::ZERO,
            Vec3::new(1.0, 1.0, 1.0),
            SN_SMOOTH_PASSES,
            &mut mesh,
        );
        let center = Vec3::new(11.5, 11.5, 11.5);
        let mut agree = 0usize;
        for t in mesh.triangles() {
            if t.normal().dot(center - t.centroid()) > 0.0 {
                agree += 1;
            }
        }
        let frac = agree as f64 / mesh.len() as f64;
        assert!(frac > 0.99, "only {frac:.3} of normals point to high side");
    }
}

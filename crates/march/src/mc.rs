//! Marching Cubes over a dense (sub-)volume.
//!
//! Two kernels share the generated case tables and (bit-identical)
//! edge-crossing interpolation:
//!
//! * [`marching_cubes`] — the straightforward reference kernel: per-cell
//!   bounds-checked corner gathers, every crossing re-interpolated, each
//!   triangle appended with three fresh (unshared) vertices. Retained as the
//!   equivalence oracle and baseline.
//! * [`marching_cubes_indexed`] — the slab-sliding production kernel: walks
//!   z-slabs over raw row slices, classifies every sample **once** into
//!   per-row sign bitmasks (the pre-pass that also skips inactive rows and,
//!   via word-level mask algebra, jumps straight to active cells), and emits
//!   an [`IndexedMesh`] whose vertices are deduplicated through rolling
//!   per-layer edge caches — each crossing is interpolated exactly once.
//!
//! The property tests assert the two kernels produce identical canonical
//! triangle multisets over the synthetic field zoo.

use crate::indexed::IndexedMesh;
use crate::mesh::{same_weld_key, Triangle, Vec3};
use crate::tables::{tables, EdgeAxis, CORNERS, EDGES, EDGE_CANON};
use oociso_volume::{Dims3, ScalarValue, Volume};

/// Counters from one marching-cubes pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct McStats {
    /// Unit cells examined.
    pub cells_visited: u64,
    /// Cells that intersect the isosurface.
    pub active_cells: u64,
    /// Triangles emitted.
    pub triangles: u64,
}

impl McStats {
    /// Accumulate another pass's counters.
    pub fn merge(&mut self, o: &McStats) {
        self.cells_visited += o.cells_visited;
        self.active_cells += o.active_cells;
        self.triangles += o.triangles;
    }
}

/// Extract the isosurface of `vol` at `iso`, appending each triangle to
/// `mesh` with three fresh vertices of its own (no vertex is shared, so
/// [`IndexedMesh::triangles`] is the kernel's exact triangle stream).
///
/// `origin` is the world position of vertex `(0,0,0)` and `scale` the world
/// extent of one cell per axis — a metacell passes its own vertex-box corner
/// so that per-metacell outputs assemble seamlessly.
///
/// Vertices on shared cell edges are interpolated in a canonical corner order
/// (lexicographic grid position), so adjacent cells — and adjacent metacells —
/// produce bit-identical positions: the surface is watertight (once welded)
/// wherever the isosurface does not exit the sampled region.
pub fn marching_cubes<S: ScalarValue>(
    vol: &Volume<S>,
    iso: f32,
    origin: Vec3,
    scale: Vec3,
    mesh: &mut IndexedMesh,
) -> McStats {
    let dims = vol.dims();
    let mut stats = McStats::default();
    let t = tables();
    let mut corner_vals = [0.0f32; 8];
    let mut edge_points = [Vec3::ZERO; 12];

    for cz in 0..dims.nz.saturating_sub(1) {
        for cy in 0..dims.ny.saturating_sub(1) {
            for cx in 0..dims.nx.saturating_sub(1) {
                stats.cells_visited += 1;
                let config = cell_config(vol, (cx, cy, cz), iso, &mut corner_vals);
                if config == 0 || config == 255 {
                    continue;
                }
                let loops = t.loops(config);
                if loops.is_empty() {
                    continue;
                }
                stats.active_cells += 1;
                // interpolate every intersected edge once
                for l in loops {
                    for &e in l {
                        edge_points[e as usize] =
                            interp_edge(e as usize, (cx, cy, cz), &corner_vals, iso, origin, scale);
                    }
                }
                for l in loops {
                    let v0 = edge_points[l[0] as usize];
                    for w in l[1..].windows(2) {
                        let tri = Triangle {
                            v: [v0, edge_points[w[0] as usize], edge_points[w[1] as usize]],
                        };
                        mesh.push_fresh_triangle(tri);
                        stats.triangles += 1;
                    }
                }
            }
        }
    }
    stats
}

/// Classify one cell: fill `corner_vals` with the 8 corner samples (as `f32`,
/// [`CORNERS`] order) and return the sign configuration (bit `i` set ⇔ corner
/// `i` `< iso`). The single corner-sampling loop shared by the reference
/// kernel and [`count_active_cells`], so the planner's count and the kernel
/// can never drift.
#[inline]
fn cell_config<S: ScalarValue>(
    vol: &Volume<S>,
    (cx, cy, cz): (usize, usize, usize),
    iso: f32,
    corner_vals: &mut [f32; 8],
) -> u8 {
    let mut config = 0u8;
    for (i, &(dx, dy, dz)) in CORNERS.iter().enumerate() {
        let v = vol.get(cx + dx, cy + dy, cz + dz).to_f32();
        corner_vals[i] = v;
        if v < iso {
            config |= 1 << i;
        }
    }
    config
}

/// World position of grid vertex `g`. With integer-valued origins (metacell
/// corners) at unit scale the result is exact, which is what lets adjacent
/// metacells agree on their shared lattice points bit for bit.
#[inline(always)]
fn lattice_point(g: (usize, usize, usize), origin: Vec3, scale: Vec3) -> Vec3 {
    Vec3::new(
        origin.x + g.0 as f32 * scale.x,
        origin.y + g.1 as f32 * scale.y,
        origin.z + g.2 as f32 * scale.z,
    )
}

/// The crossing between world-space edge endpoints `pa` → `pb` carrying
/// sample values `va`/`vb`.
#[inline(always)]
fn lerp_crossing(pa: Vec3, pb: Vec3, va: f32, vb: f32, iso: f32) -> Vec3 {
    let t = if (vb - va).abs() > 0.0 {
        ((iso - va) / (vb - va)).clamp(0.0, 1.0)
    } else {
        0.5
    };
    pa + (pb - pa) * t
}

/// Interpolate the crossing on the edge from grid vertex `ga` to `gb`
/// (`ga` must be the global-lexicographically lower endpoint), with sample
/// values `va`/`vb`. Both kernels funnel through this function's two halves
/// ([`lattice_point`], [`lerp_crossing`]), so any two cells — or metacells,
/// or kernels — interpolating the same global edge compute bit-identical
/// points.
///
/// Endpoints are transformed to world space *before* interpolating: with
/// integer-valued origins (metacell corners) the endpoint positions are
/// exact, so adjacent metacells compute bit-identical crossing points.
#[inline]
pub(crate) fn interp_crossing(
    ga: (usize, usize, usize),
    gb: (usize, usize, usize),
    va: f32,
    vb: f32,
    iso: f32,
    origin: Vec3,
    scale: Vec3,
) -> Vec3 {
    lerp_crossing(
        lattice_point(ga, origin, scale),
        lattice_point(gb, origin, scale),
        va,
        vb,
        iso,
    )
}

/// Interpolate the isosurface crossing on cube edge `e` of the cell at `cell`,
/// with corners canonicalized to lexicographic (z, y, x) order so both cells
/// sharing the edge compute bit-identical points.
#[inline]
pub(crate) fn interp_edge(
    e: usize,
    cell: (usize, usize, usize),
    corner_vals: &[f32; 8],
    iso: f32,
    origin: Vec3,
    scale: Vec3,
) -> Vec3 {
    let (mut a, mut b) = EDGES[e];
    let lex = |c: usize| {
        (
            cell.2 + CORNERS[c].2,
            cell.1 + CORNERS[c].1,
            cell.0 + CORNERS[c].0,
        )
    };
    if lex(b) < lex(a) {
        std::mem::swap(&mut a, &mut b);
    }
    interp_crossing(
        (
            cell.0 + CORNERS[a].0,
            cell.1 + CORNERS[a].1,
            cell.2 + CORNERS[a].2,
        ),
        (
            cell.0 + CORNERS[b].0,
            cell.1 + CORNERS[b].1,
            cell.2 + CORNERS[b].2,
        ),
        corner_vals[a],
        corner_vals[b],
        iso,
        origin,
        scale,
    )
}

/// Count active cells without emitting geometry (used by planners/reports).
pub fn count_active_cells<S: ScalarValue>(vol: &Volume<S>, iso: f32) -> u64 {
    let dims = vol.dims();
    let mut active = 0u64;
    let mut corner_vals = [0.0f32; 8];
    for cz in 0..dims.nz.saturating_sub(1) {
        for cy in 0..dims.ny.saturating_sub(1) {
            for cx in 0..dims.nx.saturating_sub(1) {
                let config = cell_config(vol, (cx, cy, cz), iso, &mut corner_vals);
                if config != 0 && config != 255 {
                    active += 1;
                }
            }
        }
    }
    active
}

/// Sentinel for "edge not yet interpolated" in the rolling caches.
const NO_VERTEX: u32 = u32::MAX;

/// Per-layer sign bitmasks: for every sample row, bit `x` is set iff
/// `sample(x, y, layer) < iso`, plus per-row any/all summaries used to skip
/// inactive rows in O(1).
#[derive(Default)]
struct LayerMasks {
    words_per_row: usize,
    words: Vec<u64>,
    any: Vec<bool>,
    all: Vec<bool>,
}

impl LayerMasks {
    fn configure(&mut self, nx: usize, ny: usize) {
        self.words_per_row = nx.div_ceil(64);
        self.words.clear();
        self.words.resize(self.words_per_row * ny, 0);
        self.any.clear();
        self.any.resize(ny, false);
        self.all.clear();
        self.all.resize(ny, false);
    }

    #[inline]
    fn row(&self, y: usize) -> &[u64] {
        &self.words[y * self.words_per_row..(y + 1) * self.words_per_row]
    }

    /// Classify one sample layer (each sample compared against `iso` exactly
    /// once — this pre-pass is the only full sweep the slab kernel does).
    fn fill<S: ScalarValue>(&mut self, layer: &[S], nx: usize, ny: usize, iso: f32) {
        let wpr = self.words_per_row;
        for y in 0..ny {
            let row = &layer[y * nx..(y + 1) * nx];
            let words = &mut self.words[y * wpr..(y + 1) * wpr];
            let mut any = false;
            let mut all = true;
            for (w, chunk) in row.chunks(64).enumerate() {
                let bits = sign_word(chunk, iso);
                let full = if chunk.len() == 64 {
                    !0u64
                } else {
                    (1u64 << chunk.len()) - 1
                };
                any |= bits != 0;
                all &= bits == full;
                words[w] = bits;
            }
            self.any[y] = any;
            self.all[y] = all;
        }
    }
}

/// Classify up to 64 samples against `iso` into a sign word (bit `i` set iff
/// `chunk[i] < iso`).
///
/// Structured for LLVM autovectorization: the classify loop writes one 0/1
/// byte per lane into a fixed 64-byte buffer with no data-dependent branches
/// (packed f32 compares on any SIMD target), then each 8-byte flag group is
/// folded into its 8 result bits with one multiply — for 0/1 bytes
/// `v × 0x0102040810204080` places byte `j` at bit `56 + j` with every
/// cross term either below bit 56 or wrapped past bit 63, and all partial
/// products hit distinct bits, so no carries corrupt the high byte.
#[inline]
fn sign_word<S: ScalarValue>(chunk: &[S], iso: f32) -> u64 {
    debug_assert!(chunk.len() <= 64);
    let mut flags = [0u8; 64];
    for (f, s) in flags[..chunk.len()].iter_mut().zip(chunk) {
        *f = (s.to_f32() < iso) as u8;
    }
    let mut bits = 0u64;
    for (g, group) in flags.chunks_exact(8).enumerate() {
        let v = u64::from_le_bytes(group.try_into().expect("chunks_exact(8)"));
        bits |= (v.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * g);
    }
    bits
}

/// Reusable working memory for [`marching_cubes_indexed`]: the two layer
/// bitmask planes and the three rolling edge→vertex caches. Hold one per
/// worker thread and feed it to every metacell that worker triangulates —
/// no per-call allocation once warm.
#[derive(Default)]
pub struct SlabScratch {
    m0: LayerMasks,
    m1: LayerMasks,
    /// x-edge vertices per vertex layer `[z, z+1]`: `(nx-1) × ny` slots.
    xe: [Vec<u32>; 2],
    /// y-edge vertices per vertex layer: `nx × (ny-1)` slots.
    ye: [Vec<u32>; 2],
    /// z-edge vertices of the current slab: `nx × ny` slots.
    ze: Vec<u32>,
    /// Weld candidates of the call in progress. Collected here and copied
    /// out once at the end: a per-record output list would otherwise grow
    /// from empty, reallocation by reallocation, on every call.
    tagged: Vec<u32>,
}

impl SlabScratch {
    /// Fresh scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn configure(&mut self, dims: Dims3) {
        self.m0.configure(dims.nx, dims.ny);
        self.m1.configure(dims.nx, dims.ny);
        let nxe = (dims.nx - 1) * dims.ny;
        let nye = dims.nx * (dims.ny - 1);
        let nze = dims.nx * dims.ny;
        for xe in &mut self.xe {
            xe.clear();
            xe.resize(nxe, NO_VERTEX);
        }
        for ye in &mut self.ye {
            ye.clear();
            ye.resize(nye, NO_VERTEX);
        }
        self.ze.clear();
        self.ze.resize(nze, NO_VERTEX);
    }
}

/// Slab-sliding Marching Cubes emitting an [`IndexedMesh`].
///
/// Appends to `mesh` (vertices are shared within this call, so per-metacell
/// calls appending into one mesh dedupe within each metacell but not across
/// metacell seams — exactly like the reference kernel's geometry, which the
/// canonical-triangle-multiset equivalence tests rely on).
///
/// Algorithm per z-slab:
///
/// 1. classify sample layer `z+1` into row sign bitmasks (layer `z`'s masks
///    roll over from the previous slab) — one comparison per sample, total;
/// 2. skip cell rows whose 4 bounding sample rows are uniformly inside or
///    outside (O(1) per row via the masks' any/all summaries);
/// 3. inside active rows, combine the 4 row masks word-wise into an
///    active-cell bitmask and iterate only its set bits; the 8-bit case code
///    is read straight out of the sign masks — no per-cell sample re-reads;
/// 4. resolve each intersected edge through the rolling caches (`x`/`y`
///    edges per vertex layer, `z` edges per slab), interpolating a crossing
///    only the first time any cell touches it.
///
/// `candidates` receives, in ascending order, the mesh id of every vertex
/// this call creates that **may share a [`crate::mesh::weld_key`]** with
/// another vertex, of this block or a neighbouring one: its lattice edge
/// lies on a face of `vol`, or its position quantizes onto an endpoint of
/// that edge. Every other vertex is alone under its key, so a seam weld
/// ([`crate::weld::MeshWelder::append_seams`]) never has to look it up.
///
/// Never inlined, like [`crate::surface_nets`]' block kernel: a kernel's
/// code should not depend on what its caller looks like.
#[inline(never)]
pub fn marching_cubes_indexed<S: ScalarValue>(
    vol: &Volume<S>,
    iso: f32,
    origin: Vec3,
    scale: Vec3,
    mesh: &mut IndexedMesh,
    candidates: &mut Vec<u32>,
    scratch: &mut SlabScratch,
) -> McStats {
    let dims = vol.dims();
    let mut stats = McStats {
        cells_visited: dims.num_cells() as u64,
        ..Default::default()
    };
    if dims.nx < 2 || dims.ny < 2 || dims.nz < 2 {
        return stats;
    }
    let t = tables();
    let (nx, ny, nz) = (dims.nx, dims.ny, dims.nz);
    let ncx = nx - 1;
    let layer_len = nx * ny;
    let data = vol.data();
    scratch.configure(dims);
    let SlabScratch {
        m0,
        m1,
        xe,
        ye,
        ze,
        tagged,
    } = scratch;
    tagged.clear();
    m0.fill(&data[..layer_len], nx, ny, iso);
    let wpr = m0.words_per_row;

    for cz in 0..nz - 1 {
        let l0 = &data[cz * layer_len..(cz + 1) * layer_len];
        let l1 = &data[(cz + 1) * layer_len..(cz + 2) * layer_len];
        m1.fill(l1, nx, ny, iso);

        for cy in 0..ny - 1 {
            // row pre-pass: all four bounding sample rows uniformly outside
            // (no bit set) or uniformly inside (every bit set) ⇒ no cell in
            // this row can cross the surface.
            if !(m0.any[cy] || m0.any[cy + 1] || m1.any[cy] || m1.any[cy + 1]) {
                continue;
            }
            if m0.all[cy] && m0.all[cy + 1] && m1.all[cy] && m1.all[cy + 1] {
                continue;
            }
            let r00 = m0.row(cy);
            let r10 = m0.row(cy + 1);
            let r01 = m1.row(cy);
            let r11 = m1.row(cy + 1);
            let v00 = &l0[cy * nx..(cy + 1) * nx];
            let v10 = &l0[(cy + 1) * nx..(cy + 2) * nx];
            let v01 = &l1[cy * nx..(cy + 1) * nx];
            let v11 = &l1[(cy + 1) * nx..(cy + 2) * nx];

            for w in 0..wpr {
                let base = w * 64;
                if base >= ncx {
                    break;
                }
                let u = r00[w] | r10[w] | r01[w] | r11[w];
                let i = r00[w] & r10[w] & r01[w] & r11[w];
                let (u_next, i_next) = if w + 1 < wpr {
                    (
                        r00[w + 1] | r10[w + 1] | r01[w + 1] | r11[w + 1],
                        r00[w + 1] & r10[w + 1] & r01[w + 1] & r11[w + 1],
                    )
                } else {
                    (0, !0u64)
                };
                // bit cx of the shifted masks = mask bit cx+1
                let ush = (u >> 1) | ((u_next & 1) << 63);
                let ish = (i >> 1) | ((i_next & 1) << 63);
                // cell active ⇔ some corner inside and not all corners inside
                let mut act = (u | ush) & !(i & ish);
                let cells_here = ncx - base;
                if cells_here < 64 {
                    act &= (1u64 << cells_here) - 1;
                }
                while act != 0 {
                    let cx = base + act.trailing_zeros() as usize;
                    act &= act - 1;
                    let bit = |r: &[u64], x: usize| ((r[x >> 6] >> (x & 63)) & 1) as u8;
                    let config = bit(r00, cx)
                        | (bit(r00, cx + 1) << 1)
                        | (bit(r10, cx + 1) << 2)
                        | (bit(r10, cx) << 3)
                        | (bit(r01, cx) << 4)
                        | (bit(r01, cx + 1) << 5)
                        | (bit(r11, cx + 1) << 6)
                        | (bit(r11, cx) << 7);
                    let fan = t.fan_triangles(config);
                    if fan.is_empty() {
                        continue;
                    }
                    stats.active_cells += 1;
                    let vals = [
                        v00[cx].to_f32(),
                        v00[cx + 1].to_f32(),
                        v10[cx + 1].to_f32(),
                        v10[cx].to_f32(),
                        v01[cx].to_f32(),
                        v01[cx + 1].to_f32(),
                        v11[cx + 1].to_f32(),
                        v11[cx].to_f32(),
                    ];
                    let mut ev = [0u32; 12];
                    let mut em = t.edge_mask(config);
                    while em != 0 {
                        let e = em.trailing_zeros() as usize;
                        em &= em - 1;
                        let c = &EDGE_CANON[e];
                        let (bx, by, bz) = c.base;
                        let slot = match c.axis {
                            EdgeAxis::X => &mut xe[bz][(cy + by) * ncx + cx],
                            EdgeAxis::Y => &mut ye[bz][cy * nx + cx + bx],
                            EdgeAxis::Z => &mut ze[(cy + by) * nx + cx + bx],
                        };
                        let mut idx = *slot;
                        if idx == NO_VERTEX {
                            let ga = (cx + bx, cy + by, cz + bz);
                            // the far endpoint, and whether the edge lies on
                            // a face of the block
                            let rim = |u: usize, nu: usize| u == 0 || u == nu - 1;
                            let (gb, on_face) = match c.axis {
                                EdgeAxis::X => {
                                    ((ga.0 + 1, ga.1, ga.2), rim(ga.1, ny) || rim(ga.2, nz))
                                }
                                EdgeAxis::Y => {
                                    ((ga.0, ga.1 + 1, ga.2), rim(ga.0, nx) || rim(ga.2, nz))
                                }
                                EdgeAxis::Z => {
                                    ((ga.0, ga.1, ga.2 + 1), rim(ga.0, nx) || rim(ga.1, ny))
                                }
                            };
                            let pa = lattice_point(ga, origin, scale);
                            let pb = lattice_point(gb, origin, scale);
                            let p = lerp_crossing(
                                pa,
                                pb,
                                vals[c.lo as usize],
                                vals[c.hi as usize],
                                iso,
                            );
                            idx = mesh.push_vertex(p);
                            *slot = idx;
                            // Only two kinds of crossing can share a weld
                            // key with another vertex: one whose edge the
                            // neighbouring block has too, and one that
                            // quantizes onto an endpoint of its edge, where
                            // every other crossed edge meeting at that
                            // lattice point may land as well.
                            if on_face || same_weld_key(p, pa) || same_weld_key(p, pb) {
                                tagged.push(idx);
                            }
                        }
                        ev[e] = idx;
                    }
                    for tri in fan {
                        mesh.push_triangle(
                            ev[tri[0] as usize],
                            ev[tri[1] as usize],
                            ev[tri[2] as usize],
                        );
                    }
                    stats.triangles += fan.len() as u64;
                }
            }
        }

        // roll to the next slab: layer z+1 becomes layer z; its x/y edge
        // caches roll with it so inter-slab shared edges stay deduplicated.
        std::mem::swap(m0, m1);
        xe.swap(0, 1);
        xe[1].fill(NO_VERTEX);
        ye.swap(0, 1);
        ye[1].fill(NO_VERTEX);
        ze.fill(NO_VERTEX);
    }
    candidates.extend_from_slice(tagged);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use oociso_volume::field::{FieldExt, SphereField};
    use oociso_volume::Dims3;
    use std::collections::HashMap;

    fn sphere_mesh(n: usize, radius: f32) -> (IndexedMesh, McStats) {
        let f = SphereField::centered(radius, 128.0);
        let vol: Volume<f32> = f.sample(Dims3::cube(n));
        let mut mesh = IndexedMesh::new();
        let stats = marching_cubes(&vol, 128.0, Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0), &mut mesh);
        (mesh, stats)
    }

    type VKey = (i64, i64, i64);

    /// Quantized vertex key for watertightness checks.
    fn key(v: Vec3) -> VKey {
        let q = 1_048_576.0; // 2^20: exact for our grid-scale coordinates
        (
            (v.x * q).round() as i64,
            (v.y * q).round() as i64,
            (v.z * q).round() as i64,
        )
    }

    #[test]
    fn sphere_surface_is_closed() {
        let (mesh, stats) = sphere_mesh(24, 0.3);
        assert!(stats.triangles > 100);
        assert_eq!(stats.triangles as usize, mesh.len());
        // every undirected edge must be shared by exactly two triangles
        let mut edge_count: HashMap<(VKey, VKey), u32> = HashMap::new();
        for t in mesh.triangles() {
            for i in 0..3 {
                let a = key(t.v[i]);
                let b = key(t.v[(i + 1) % 3]);
                let e = if a < b { (a, b) } else { (b, a) };
                *edge_count.entry(e).or_insert(0) += 1;
            }
        }
        for (e, c) in &edge_count {
            assert_eq!(*c, 2, "edge {e:?} shared by {c} triangles");
        }
    }

    #[test]
    fn sphere_area_close_to_analytic() {
        // radius 0.3 of the unit cube sampled on a 48³ grid: world radius in
        // grid units is 0.3 * 47
        let n = 48;
        let (mesh, _) = sphere_mesh(n, 0.3);
        let r = 0.3 * (n as f32 - 1.0);
        let analytic = 4.0 * std::f32::consts::PI * r * r;
        let measured = mesh.area() as f32;
        let rel = (measured - analytic).abs() / analytic;
        assert!(
            rel < 0.05,
            "area {measured} vs analytic {analytic} ({rel:.3} rel err)"
        );
    }

    #[test]
    fn euler_characteristic_of_sphere() {
        let (mesh, _) = sphere_mesh(20, 0.28);
        let mut verts = std::collections::HashSet::new();
        let mut edges = std::collections::HashSet::new();
        for t in mesh.triangles() {
            for i in 0..3 {
                verts.insert(key(t.v[i]));
                let a = key(t.v[i]);
                let b = key(t.v[(i + 1) % 3]);
                edges.insert(if a < b { (a, b) } else { (b, a) });
            }
        }
        let v = verts.len() as i64;
        let e = edges.len() as i64;
        let f = mesh.len() as i64;
        assert_eq!(v - e + f, 2, "V={v} E={e} F={f}");
    }

    #[test]
    fn normals_point_toward_higher_values() {
        // SphereField: higher inside. Inside is ≥ iso; normals must point
        // inward (toward the center).
        let (mesh, _) = sphere_mesh(24, 0.3);
        let center = Vec3::new(11.5, 11.5, 11.5);
        let mut agree = 0usize;
        for t in mesh.triangles() {
            let to_high = center - t.centroid();
            if t.normal().dot(to_high) > 0.0 {
                agree += 1;
            }
        }
        let frac = agree as f64 / mesh.len() as f64;
        assert!(frac > 0.99, "only {frac:.3} of normals point to high side");
    }

    #[test]
    fn metacell_decomposition_matches_monolithic() {
        // run MC over the whole volume vs per-metacell with shared layers;
        // triangle multiset must be identical.
        let f = SphereField::centered(0.35, 100.0);
        let dims = Dims3::new(17, 17, 17);
        let vol: Volume<u8> = f.sample(dims);
        let mut whole = IndexedMesh::new();
        marching_cubes(
            &vol,
            100.0,
            Vec3::ZERO,
            Vec3::new(1.0, 1.0, 1.0),
            &mut whole,
        );

        let layout = oociso_metacell::MetacellLayout::new(dims, 9);
        let mut parts = IndexedMesh::new();
        for id in layout.ids() {
            let ((x0, y0, z0), (x1, y1, z1)) = layout.vertex_box(id);
            let sub = vol.extract_box((x0, y0, z0), (x1, y1, z1));
            marching_cubes(
                &sub,
                100.0,
                Vec3::new(x0 as f32, y0 as f32, z0 as f32),
                Vec3::new(1.0, 1.0, 1.0),
                &mut parts,
            );
        }
        assert_eq!(whole.len(), parts.len());
        assert_eq!(whole.canonical_triangles(), parts.canonical_triangles());
    }

    #[test]
    fn count_matches_generation() {
        let f = SphereField::centered(0.3, 128.0);
        let vol: Volume<u8> = f.sample(Dims3::cube(16));
        let mut mesh = IndexedMesh::new();
        let stats = marching_cubes(&vol, 128.0, Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0), &mut mesh);
        assert_eq!(stats.active_cells, count_active_cells(&vol, 128.0));
        assert_eq!(stats.cells_visited, 15 * 15 * 15);
    }

    #[test]
    fn flat_field_yields_nothing() {
        let vol = Volume::<u8>::filled(Dims3::cube(8), 10);
        let mut mesh = IndexedMesh::new();
        let stats = marching_cubes(&vol, 128.0, Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0), &mut mesh);
        assert_eq!(stats.triangles, 0);
        assert_eq!(stats.active_cells, 0);
        assert!(mesh.is_empty());
    }

    fn assert_slab_equals_reference<S: ScalarValue>(vol: &Volume<S>, iso: f32) {
        let origin = Vec3::new(3.0, -2.0, 5.0);
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
        assert_eq!(ref_stats, slab_stats);
        assert_eq!(reference.canonical_triangles(), mesh.canonical_triangles());
    }

    #[test]
    fn slab_kernel_matches_reference_on_sphere() {
        let f = SphereField::centered(0.33, 128.0);
        for n in [2, 3, 5, 16, 24] {
            let vol: Volume<u8> = f.sample(Dims3::cube(n));
            assert_slab_equals_reference(&vol, 128.0);
        }
        // non-cubic, axes straddling the 64-bit mask word boundary
        let vol: Volume<u8> = f.sample(Dims3::new(67, 13, 9));
        assert_slab_equals_reference(&vol, 128.0);
        let vol: Volume<f32> = f.sample(Dims3::new(65, 9, 12));
        assert_slab_equals_reference(&vol, 128.0);
    }

    #[test]
    fn slab_kernel_dedups_shared_vertices() {
        let f = SphereField::centered(0.3, 128.0);
        let vol: Volume<u8> = f.sample(Dims3::cube(24));
        let mut mesh = IndexedMesh::new();
        let mut scratch = SlabScratch::new();
        marching_cubes_indexed(
            &vol,
            128.0,
            Vec3::ZERO,
            Vec3::new(1.0, 1.0, 1.0),
            &mut mesh,
            &mut Vec::new(),
            &mut scratch,
        );
        // closed surface: V - E + F = 2 with E = 3F/2 ⇒ V ≈ F/2. Any
        // duplicated crossing would inflate V well past that.
        assert!(mesh.len() > 100);
        assert!(
            mesh.num_vertices() <= mesh.len() / 2 + 2,
            "V={} F={}: vertices not deduplicated",
            mesh.num_vertices(),
            mesh.len()
        );
        // and every position is distinct
        let mut seen = std::collections::HashSet::new();
        for &p in mesh.positions() {
            assert!(seen.insert(key(p)), "duplicate vertex {p:?}");
        }
    }

    #[test]
    fn slab_scratch_reuse_across_dims_is_clean() {
        let f = SphereField::centered(0.4, 128.0);
        let mut scratch = SlabScratch::new();
        // big volume first, then small: stale cache entries must not leak
        for n in [17, 5, 9, 3, 12] {
            let vol: Volume<u8> = f.sample(Dims3::cube(n));
            let origin = Vec3::ZERO;
            let scale = Vec3::new(1.0, 1.0, 1.0);
            let mut reference = IndexedMesh::new();
            marching_cubes(&vol, 128.0, origin, scale, &mut reference);
            let mut mesh = IndexedMesh::new();
            marching_cubes_indexed(
                &vol,
                128.0,
                origin,
                scale,
                &mut mesh,
                &mut Vec::new(),
                &mut scratch,
            );
            assert_eq!(
                reference.canonical_triangles(),
                mesh.canonical_triangles(),
                "n={n}"
            );
        }
    }

    #[test]
    fn slab_kernel_appends_across_metacells() {
        // per-metacell extraction appending into ONE mesh must equal the
        // monolithic reference mesh, exactly like the mesh-based test above
        let f = SphereField::centered(0.35, 100.0);
        let dims = Dims3::new(17, 17, 17);
        let vol: Volume<u8> = f.sample(dims);
        let mut whole = IndexedMesh::new();
        marching_cubes(
            &vol,
            100.0,
            Vec3::ZERO,
            Vec3::new(1.0, 1.0, 1.0),
            &mut whole,
        );

        let layout = oociso_metacell::MetacellLayout::new(dims, 9);
        let mut mesh = IndexedMesh::new();
        let mut scratch = SlabScratch::new();
        for id in layout.ids() {
            let ((x0, y0, z0), (x1, y1, z1)) = layout.vertex_box(id);
            let sub = vol.extract_box((x0, y0, z0), (x1, y1, z1));
            marching_cubes_indexed(
                &sub,
                100.0,
                Vec3::new(x0 as f32, y0 as f32, z0 as f32),
                Vec3::new(1.0, 1.0, 1.0),
                &mut mesh,
                &mut Vec::new(),
                &mut scratch,
            );
        }
        assert_eq!(whole.canonical_triangles(), mesh.canonical_triangles());
    }

    #[test]
    fn flat_field_yields_nothing_indexed() {
        let vol = Volume::<u8>::filled(Dims3::cube(8), 10);
        let mut mesh = IndexedMesh::new();
        let mut scratch = SlabScratch::new();
        let stats = marching_cubes_indexed(
            &vol,
            128.0,
            Vec3::ZERO,
            Vec3::new(1.0, 1.0, 1.0),
            &mut mesh,
            &mut Vec::new(),
            &mut scratch,
        );
        assert_eq!(stats.triangles, 0);
        assert_eq!(stats.active_cells, 0);
        assert_eq!(stats.cells_visited, 7 * 7 * 7);
        assert!(mesh.is_empty());
    }

    #[test]
    fn no_degenerate_triangles_on_generic_field() {
        let (mesh, _) = sphere_mesh(16, 0.31);
        let degenerate = mesh.triangles().filter(|t| t.is_degenerate()).count();
        // sphere positioned off-lattice: no crossings exactly at corners
        assert_eq!(degenerate, 0);
    }
}

//! Quadric edge-collapse decimation and LOD pyramids.
//!
//! The welded extraction path hands downstream consumers an [`IndexedMesh`]
//! with true shared-vertex connectivity — exactly what edge-collapse
//! simplification needs. [`decimate`] is the Garland–Heckbert quadric error
//! metric: every vertex accumulates the squared-distance quadric of its
//! incident face planes, every interior edge is priced at the quadric error
//! of its optimal merged position, and the cheapest collapses are applied in
//! **error-ordered passes** until a vertex target is reached or the guards
//! allow no further collapse.
//!
//! A pass takes the `alive − target` cheapest priced edges (all of them when
//! there is no vertex target), sorts them by `(error, a, b)` and walks them
//! in that order, stopping at the target. It skips an edge when either
//! endpoint was already an endpoint of a collapse applied in the same pass.
//! An edge's price depends only on its two endpoints'
//! quadrics and positions, so these endpoint locks keep every price a pass
//! walks exact, and the guards below read the live mesh. Between passes only
//! the edges around the vertices the last pass kept are re-priced. A pass
//! that applies nothing widens its window ×4; once the window holds every
//! priced edge and still nothing is legal, the mesh is as coarse as the
//! guards allow.
//!
//! The work is **tiled** so it uses every core. The faces are cut into
//! [`TILES`] slabs at equal-count quantiles of their centroids along the
//! mesh's longest axis (at most one tile per [`MIN_TILE_FACES`] faces, so
//! small meshes get one). A vertex whose faces all lie in one tile is that
//! tile's *interior*; any other vertex is a *seam* vertex and is pinned
//! during the first phase. Tiles are decimated in parallel, collapsing
//! interior edges only, each until [`SLACK`] × the final ratio of its
//! collapsible (unpinned) vertices is left. The tiles are then merged, every
//! vertex carrying its accumulated quadric (a seam vertex's summed over its
//! tiles), and a global finishing phase of the same passes does the rest —
//! seams included — down to the exact target. The merge carries the tiles'
//! state rather than rebuilding it: each tile hands over, in global ids, its
//! incidence lists, its pins and its priced edges, which are already the
//! global ones for every interior vertex, so only the seam vertices' edges
//! are counted and priced again.
//!
//! Simplification for a *serving* pipeline has two extra obligations the
//! textbook algorithm does not:
//!
//! * **Topology safety** — a collapse is rejected unless it provably
//!   preserves the surface: boundary (and non-manifold-spine) vertices are
//!   pinned outright, the link condition rules out collapses that would
//!   pinch the surface into a non-manifold edge, and a normal-flip check
//!   rejects collapses that would fold a surviving face through itself.
//!   A closed manifold input therefore stays a closed manifold with the same
//!   Euler characteristic, and an open mesh never loses (or moves) a
//!   boundary vertex.
//! * **Determinism** — results must be byte-identical across runs, across
//!   the cluster's worker counts and across this host's thread count, or
//!   LOD levels could not be cached, diffed, or served bit-exactly. The
//!   tiles are a pure function of the mesh (the tile count is a constant,
//!   never the thread count, and quantile ties break by face id); each tile
//!   is decimated by the same sequential passes whichever thread runs it,
//!   and the merge and the finishing phase run in tile order on one thread.
//!   A tile's collapses are legal on the global mesh, not just on the tile:
//!   both endpoints are interior, so every face the link, flip and
//!   multiplicity guards read — the faces incident to either endpoint — is
//!   in the tile, and the tile sees exactly the neighbourhood the global
//!   mesh has. Every pass orders its edges by the total order `(error, a,
//!   b)` under `f64::total_cmp`, and its locks are on endpoints only, so
//!   which collapses a pass applies depends on the mesh alone; every
//!   fallback scan breaks ties by fixed evaluation order, and the output is
//!   compacted in first-use order over the input's face order — the same
//!   rule [`IndexedMesh::filter_triangles`] uses — so equal inputs always
//!   decimate to equal outputs. Carried quadrics keep
//!   [`DecimateStats::max_error`] honest: every collapse, in either phase,
//!   is priced against all of the original planes its endpoints absorbed.
//!
//! [`LodChain`] stacks decimation into a pyramid (e.g. 100 % / 25 % / 6 %):
//! each level is decimated from the previous one, and the accumulated
//! quadric error of a level is exposed as a world-space length
//! ([`LodChain::world_error`]) so renderers can pick the coarsest level
//! whose projected screen-space error stays under a pixel tolerance.

use crate::indexed::IndexedMesh;
use crate::mesh::Vec3;
use std::cmp::Ordering;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

/// Tiles the first phase cuts a mesh into. A constant, so the output never
/// depends on the host: threads only decide which tile runs where.
pub const TILES: usize = 8;

/// The fewest faces a tile may hold: a mesh gets `faces / MIN_TILE_FACES`
/// tiles, at most [`TILES`] and at least one. Below it the seams would be a
/// large share of each tile and the finishing phase would redo most of the
/// work.
pub const MIN_TILE_FACES: usize = 4096;

/// How far above the final vertex ratio the tile phase stops: a tile keeps
/// `SLACK × ratio` of its interior and leaves the rest to the finishing
/// phase, which then chooses the last collapses in global error order. At
/// 1.3 the coarsest level's error was 1.5× the untiled builder's; at 1.6 it
/// is within about 1 % (`docs/perf.md`, "Tiled decimation").
pub const SLACK: f64 = 1.6;

/// A symmetric 4×4 error quadric: `error(v) = vᵀ Q v` with `v = (x, y, z, 1)`
/// is the sum of squared distances from `v` to the accumulated planes.
/// Stored as the 10 unique coefficients, in `f64` — collapse errors are tiny
/// differences of large products and `f32` accumulation visibly misorders
/// the collapses.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Quadric {
    a00: f64,
    a01: f64,
    a02: f64,
    a03: f64,
    a11: f64,
    a12: f64,
    a13: f64,
    a22: f64,
    a23: f64,
    a33: f64,
}

impl Quadric {
    /// The quadric of one plane `n·p + d = 0` (`n` unit length): squared
    /// point-plane distance as a quadratic form.
    pub fn from_plane(n: [f64; 3], d: f64) -> Quadric {
        Quadric {
            a00: n[0] * n[0],
            a01: n[0] * n[1],
            a02: n[0] * n[2],
            a03: n[0] * d,
            a11: n[1] * n[1],
            a12: n[1] * n[2],
            a13: n[1] * d,
            a22: n[2] * n[2],
            a23: n[2] * d,
            a33: d * d,
        }
    }

    /// Accumulate another quadric.
    pub fn add(&mut self, o: &Quadric) {
        self.a00 += o.a00;
        self.a01 += o.a01;
        self.a02 += o.a02;
        self.a03 += o.a03;
        self.a11 += o.a11;
        self.a12 += o.a12;
        self.a13 += o.a13;
        self.a22 += o.a22;
        self.a23 += o.a23;
        self.a33 += o.a33;
    }

    /// Sum of two quadrics.
    pub fn sum(&self, o: &Quadric) -> Quadric {
        let mut q = *self;
        q.add(o);
        q
    }

    /// `vᵀ Q v` — the accumulated squared plane distance at `p`. Clamped at
    /// zero: the exact form is non-negative, but cancellation can dip a few
    /// ulps below.
    pub fn error(&self, p: [f64; 3]) -> f64 {
        let (x, y, z) = (p[0], p[1], p[2]);
        let e = self.a00 * x * x
            + self.a11 * y * y
            + self.a22 * z * z
            + 2.0 * (self.a01 * x * y + self.a02 * x * z + self.a12 * y * z)
            + 2.0 * (self.a03 * x + self.a13 * y + self.a23 * z)
            + self.a33;
        e.max(0.0)
    }

    /// The position minimizing [`Quadric::error`], if the 3×3 system is
    /// well-conditioned. `None` when the quadric is (near-)singular — all
    /// accumulated planes parallel or collinear, where the minimizer is a
    /// line or plane of points and any particular solution would be
    /// numerically arbitrary; callers fall back to candidate points.
    pub fn optimal_point(&self) -> Option<[f64; 3]> {
        // Solve A x = -b with A the upper-left 3×3 block, b = (a03,a13,a23).
        let a = [
            [self.a00, self.a01, self.a02],
            [self.a01, self.a11, self.a12],
            [self.a02, self.a12, self.a22],
        ];
        let det = a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]);
        // scale-aware singularity threshold: |det| relative to the cube of
        // the largest coefficient magnitude
        let scale = a
            .iter()
            .flatten()
            .fold(0.0f64, |m, &v| m.max(v.abs()))
            .max(1e-30);
        if det.abs() <= 1e-9 * scale * scale * scale {
            return None;
        }
        let b = [-self.a03, -self.a13, -self.a23];
        // Cramer's rule — deterministic, no pivot-order ambiguity.
        let det_x = b[0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (b[1] * a[2][2] - a[1][2] * b[2])
            + a[0][2] * (b[1] * a[2][1] - a[1][1] * b[2]);
        let det_y = a[0][0] * (b[1] * a[2][2] - a[1][2] * b[2])
            - b[0] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * b[2] - b[1] * a[2][0]);
        let det_z = a[0][0] * (a[1][1] * b[2] - b[1] * a[2][1])
            - a[0][1] * (a[1][0] * b[2] - b[1] * a[2][0])
            + b[0] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]);
        Some([det_x / det, det_y / det, det_z / det])
    }
}

/// Counters describing one decimation pass.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DecimateStats {
    /// Vertices / triangles of the input mesh.
    pub input_vertices: u64,
    /// Triangles of the input mesh.
    pub input_triangles: u64,
    /// Vertices of the decimated mesh.
    pub output_vertices: u64,
    /// Triangles of the decimated mesh.
    pub output_triangles: u64,
    /// Edge collapses applied, by both phases.
    pub collapses: u64,
    /// Of [`DecimateStats::collapses`], those the global finishing phase
    /// applied (all of them when the mesh got one tile).
    pub finish_collapses: u64,
    /// Tiles the parallel phase decimated (1: the mesh was too small to
    /// tile, or the target too close to the input to need it).
    pub tiles: u64,
    /// Error-ordered collapse passes walked, summed over the tiles and the
    /// finishing phase (a pass that applied nothing and widened its window
    /// counts too).
    pub passes: u64,
    /// Collapse checks the link (manifoldness) condition rejected; an edge
    /// retried by a later pass counts again.
    pub rejected_link: u64,
    /// Collapse checks rejected because a surviving face would flip or
    /// collapse.
    pub rejected_flip: u64,
    /// Vertices pinned because they lie on a boundary or non-manifold edge
    /// of the input (never collapsed, never moved). Tile seams are not
    /// counted: they are pinned in the parallel phase only.
    pub pinned_vertices: u64,
    /// Largest quadric error of any applied collapse (a squared world-space
    /// distance; `sqrt` of it is the pass's world-error gauge).
    pub max_error: f64,
    /// True when the pass stopped at its vertex target; false when the
    /// finishing phase ran out of collapses first (every priced edge
    /// rejected by a guard).
    pub reached_target: bool,
}

impl DecimateStats {
    /// World-space length of the worst applied collapse (`√max_error`).
    pub fn world_error(&self) -> f64 {
        self.max_error.sqrt()
    }
}

/// A priced edge: collapsing `(a, b)` (`a < b`) to `pos` costs `error`.
#[derive(Clone, Copy)]
struct Collapse {
    error: f64,
    a: u32,
    b: u32,
    pos: Vec3,
}

/// The order every pass walks in: cheapest first, ties by edge. Total, and
/// no two priced edges share `(a, b)`, so it never calls two of them equal.
fn by_cost(x: &Collapse, y: &Collapse) -> Ordering {
    x.error
        .total_cmp(&y.error)
        .then(x.a.cmp(&y.a))
        .then(x.b.cmp(&y.b))
}

fn v3(p: Vec3) -> [f64; 3] {
    [p.x as f64, p.y as f64, p.z as f64]
}

/// Reusable per-collapse scratch: every buffer the collapse guards, the
/// apply step and the re-pricing need, allocated once and recycled across
/// the walk. After the first few collapses warm the capacities, the hot
/// loop allocates nothing.
#[derive(Default)]
struct Scratch {
    /// Faces sharing the candidate edge (die with the collapse).
    shared: Vec<u32>,
    /// Opposite corners of the shared faces (link-condition right-hand side).
    opposite: Vec<u32>,
    /// Vertices adjacent to both endpoints (link-condition left-hand side).
    common: Vec<u32>,
    /// Per vertex: the last stamp that marked it (see [`Scratch::stamp`]).
    mark: Vec<u32>,
    /// The highest stamp handed out.
    epoch: u32,
}

impl Scratch {
    fn new(vertices: usize) -> Scratch {
        Scratch {
            mark: vec![0; vertices],
            ..Default::default()
        }
    }

    /// A fresh stamp `e`: no vertex's mark is `e` or `e + 1` yet, so one
    /// gather can mark "seen" with `e` and "seen twice" with `e + 1`.
    fn stamp(&mut self) -> u32 {
        if self.epoch >= u32::MAX - 2 {
            self.mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 2;
        self.epoch - 1
    }
}

/// The in-progress decimation state over index-stable working arrays.
struct Decimator {
    positions: Vec<Vec3>,
    quadrics: Vec<Quadric>,
    /// Working faces (corner indices); dead faces are tombstoned in `alive`.
    faces: Vec<[u32; 3]>,
    alive: Vec<bool>,
    /// Per-vertex incident alive-face lists (may briefly hold dead ids;
    /// filtered on read). A face holding a vertex at two corners is listed
    /// twice.
    vertex_faces: Vec<Vec<u32>>,
    /// Boundary/non-manifold vertices — pinned.
    pinned: Vec<bool>,
    /// Every alive edge with both endpoints unpinned, priced, in no order.
    priced: Vec<Collapse>,
    /// Per vertex: the last pass in which it was an endpoint of an applied
    /// collapse (0 = none yet). Equal to `pass` means locked for this pass.
    touched: Vec<u32>,
    /// The current pass, counting from 1.
    pass: u32,
    alive_vertices: usize,
    stats: DecimateStats,
    scratch: Scratch,
}

/// The plane quadric of every face, accumulated onto its corners in face
/// order (degenerate faces contribute no plane).
fn plane_quadrics(positions: &[Vec3], faces: &[[u32; 3]]) -> Vec<Quadric> {
    let mut quadrics = vec![Quadric::default(); positions.len()];
    for f in faces {
        let (p0, p1, p2) = (
            v3(positions[f[0] as usize]),
            v3(positions[f[1] as usize]),
            v3(positions[f[2] as usize]),
        );
        let e1 = [p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2]];
        let e2 = [p2[0] - p0[0], p2[1] - p0[1], p2[2] - p0[2]];
        let n = [
            e1[1] * e2[2] - e1[2] * e2[1],
            e1[2] * e2[0] - e1[0] * e2[2],
            e1[0] * e2[1] - e1[1] * e2[0],
        ];
        let len = (n[0] * n[0] + n[1] * n[1] + n[2] * n[2]).sqrt();
        if len <= 1e-20 {
            continue;
        }
        let n = [n[0] / len, n[1] / len, n[2] / len];
        let d = -(n[0] * p0[0] + n[1] * p0[1] + n[2] * p0[2]);
        let q = Quadric::from_plane(n, d);
        for &c in f {
            quadrics[c as usize].add(&q);
        }
    }
    quadrics
}

/// The edges at `v` with their face multiplicities, into `ring` as
/// `(other end, count)`: every edge at `v`, or with `lower_only` those whose
/// other end is above `v`. `list` is `v`'s alive incidence; a face holding
/// `v` at two corners is listed twice but counted once, edge by edge, as
/// the whole mesh's edge list would count it.
fn edges_at(
    v: u32,
    list: &[u32],
    faces: &[[u32; 3]],
    lower_only: bool,
    ring: &mut Vec<(u32, u32)>,
) {
    ring.clear();
    for (i, &f) in list.iter().enumerate() {
        let tri = faces[f as usize];
        if tri.iter().filter(|&&c| c == v).count() > 1 && list[..i].contains(&f) {
            continue;
        }
        for k in 0..3 {
            let (x, y) = (tri[k], tri[(k + 1) % 3]);
            if x == y || (x != v && y != v) {
                continue;
            }
            let w = if x == v { y } else { x };
            if lower_only && w < v {
                continue;
            }
            match ring.iter_mut().find(|e| e.0 == w) {
                Some(e) => e.1 += 1,
                None => ring.push((w, 1)),
            }
        }
    }
}

impl Decimator {
    /// Working state over `faces` (corners index `positions`), each vertex
    /// starting from its accumulated quadric. `seam` pins vertices on top
    /// of the boundary/non-manifold pins (a tile's seam vertices; empty for
    /// no extra pins); only the latter are counted in the stats.
    fn new(
        positions: Vec<Vec3>,
        faces: Vec<[u32; 3]>,
        quadrics: Vec<Quadric>,
        seam: &[bool],
    ) -> Decimator {
        let nv = positions.len();
        let mut corners = vec![0u32; nv];
        for f in &faces {
            for &c in f {
                corners[c as usize] += 1;
            }
        }
        let mut vertex_faces: Vec<Vec<u32>> = corners
            .into_iter()
            .map(|n| Vec::with_capacity(n as usize))
            .collect();
        for (fi, f) in faces.iter().enumerate() {
            for &c in f {
                vertex_faces[c as usize].push(fi as u32);
            }
        }
        let alive = vec![true; faces.len()];
        let mut dec = Decimator::from_parts(
            positions,
            quadrics,
            faces,
            alive,
            vertex_faces,
            vec![false; nv],
        );
        // each edge is counted and priced once, at its lower endpoint
        let edges = dec.pin_edges(0..nv as u32, true, |_, _| true);
        for (p, &s) in dec.pinned.iter_mut().zip(seam) {
            *p |= s;
        }
        dec.price_edges(&edges);
        dec
    }

    /// The state over already-built incidence lists and pins, with nothing
    /// priced yet. A vertex is alive iff some alive face references it;
    /// orphans never count (output compaction drops them regardless).
    fn from_parts(
        positions: Vec<Vec3>,
        quadrics: Vec<Quadric>,
        faces: Vec<[u32; 3]>,
        alive: Vec<bool>,
        vertex_faces: Vec<Vec<u32>>,
        pinned: Vec<bool>,
    ) -> Decimator {
        let nv = positions.len();
        let alive_vertices = vertex_faces.iter().filter(|l| !l.is_empty()).count();
        Decimator {
            positions,
            quadrics,
            faces,
            alive,
            vertex_faces,
            pinned,
            priced: Vec::new(),
            touched: vec![0; nv],
            pass: 0,
            alive_vertices,
            stats: DecimateStats::default(),
            scratch: Scratch::new(nv),
        }
    }

    /// Edge face-multiplicity: anything but exactly 2 incident faces pins
    /// both endpoints (surface boundary, or a non-manifold spine the
    /// decimator must not make worse). Counts the edges at each of
    /// `vertices` (`lower_only` as in [`edges_at`]), pins, sets the stats'
    /// pin count, and returns the counted edges `keep(v, w)` accepts as
    /// `(lower, upper)`, to be priced once every pin is known.
    fn pin_edges(
        &mut self,
        vertices: impl Iterator<Item = u32>,
        lower_only: bool,
        keep: impl Fn(u32, u32) -> bool,
    ) -> Vec<(u32, u32)> {
        let mut edges = Vec::new();
        let mut ring = Vec::new();
        for v in vertices {
            edges_at(
                v,
                &self.vertex_faces[v as usize],
                &self.faces,
                lower_only,
                &mut ring,
            );
            for &(w, n) in &ring {
                if n != 2 {
                    self.pinned[v as usize] = true;
                    self.pinned[w as usize] = true;
                }
                if keep(v, w) {
                    edges.push((v.min(w), v.max(w)));
                }
            }
        }
        self.stats.pinned_vertices = self.pinned.iter().filter(|&&p| p).count() as u64;
        edges
    }

    /// Add every priceable edge of `edges` to the priced list.
    fn price_edges(&mut self, edges: &[(u32, u32)]) {
        self.priced.reserve(edges.len());
        for &(a, b) in edges {
            if let Some(c) = self.price(a, b) {
                self.priced.push(c);
            }
        }
    }

    /// Price edge `(a, b)`, `a < b`: `None` when an endpoint is pinned —
    /// boundary edges are never collapse candidates at all.
    fn price(&self, a: u32, b: u32) -> Option<Collapse> {
        if self.pinned[a as usize] || self.pinned[b as usize] {
            return None;
        }
        let q = self.quadrics[a as usize].sum(&self.quadrics[b as usize]);
        let (pa, pb) = (self.positions[a as usize], self.positions[b as usize]);
        // optimal point, else the best of midpoint/endpoints — evaluated in
        // fixed order with strict improvement, so ties resolve identically
        // on every run
        let (pos, error) = match q.optimal_point() {
            Some(p) => (Vec3::new(p[0] as f32, p[1] as f32, p[2] as f32), {
                // re-evaluate at the f32-rounded position actually stored,
                // so the priced error is the error the mesh will realize
                q.error([p[0] as f32 as f64, p[1] as f32 as f64, p[2] as f32 as f64])
            }),
            None => {
                let mid = (pa + pb) * 0.5;
                let mut best = (mid, q.error(v3(mid)));
                for cand in [pa, pb] {
                    let e = q.error(v3(cand));
                    if e < best.1 {
                        best = (cand, e);
                    }
                }
                best
            }
        };
        Some(Collapse { error, a, b, pos })
    }

    /// Drop `v`'s dead incident faces in place (cheap once compacted).
    fn compact_faces(&mut self, v: u32) {
        let list = &mut self.vertex_faces[v as usize];
        list.retain(|&f| self.alive[f as usize]);
    }

    /// Collapse `(a, b)` to `pos` — `b` merges into `a` — if the link
    /// condition and the geometric guards allow it; otherwise return the
    /// rejection counter to bump. The apply step reuses the compacted lists
    /// and shared faces the guards built. Allocation-free on the hot path:
    /// every buffer lives in [`Scratch`].
    fn try_collapse(&mut self, a: u32, b: u32, pos: Vec3) -> Option<Rejection> {
        self.compact_faces(a);
        self.compact_faces(b);
        let mut s = std::mem::take(&mut self.scratch);
        let rejected = self.check_collapse(a, b, pos, &mut s);
        if rejected.is_none() {
            self.apply_collapse(a, b, pos, &s.shared);
        }
        self.scratch = s;
        rejected
    }

    /// The guards of [`Decimator::try_collapse`] over `a`'s and `b`'s
    /// compacted lists; leaves the faces sharing the edge in `s.shared`.
    fn check_collapse(&self, a: u32, b: u32, pos: Vec3, s: &mut Scratch) -> Option<Rejection> {
        let fa = &self.vertex_faces[a as usize];
        let fb = &self.vertex_faces[b as usize];
        // faces sharing the edge (they die with the collapse)
        s.shared.clear();
        s.shared
            .extend(fa.iter().copied().filter(|f| fb.contains(f)));
        // an interior manifold edge has exactly two incident faces
        if s.shared.len() != 2 {
            return Some(Rejection::Link);
        }
        // link condition: the vertices adjacent to both endpoints must be
        // exactly the two opposite corners of the shared faces, or the
        // collapse pinches the surface into a non-manifold edge
        s.opposite.clear();
        for &f in &s.shared {
            for &c in &self.faces[f as usize] {
                if c != a && c != b {
                    s.opposite.push(c);
                }
            }
        }
        s.opposite.sort_unstable();
        // common neighbours: stamp `a`'s ring with `e`, then collect each
        // stamped vertex of `b`'s ring once, re-stamping it `e + 1`
        let e = s.stamp();
        for &f in fa {
            for c in self.faces[f as usize] {
                if c != a && c != b {
                    s.mark[c as usize] = e;
                }
            }
        }
        s.common.clear();
        for &f in fb {
            for c in self.faces[f as usize] {
                if c != a && c != b && s.mark[c as usize] == e {
                    s.mark[c as usize] = e + 1;
                    s.common.push(c);
                }
            }
        }
        s.common.sort_unstable();
        if s.common != s.opposite {
            return Some(Rejection::Link);
        }
        // normal-flip / degeneration guard over every surviving face
        for (v, faces) in [(a, fa), (b, fb)] {
            for &f in faces {
                if s.shared.contains(&f) {
                    continue;
                }
                let tri = self.faces[f as usize];
                let before = self.face_normal(tri, None);
                let after = self.face_normal(tri, Some((v, pos)));
                // reject folds and (near-)degenerate results; the dot is on
                // unnormalized normals so a shrinking face also has to keep
                // its orientation decisively
                let cross = after.1;
                if cross <= 1e-20 || before.0.dot(after.0) <= 0.0 {
                    return Some(Rejection::Flip);
                }
            }
        }
        None
    }

    /// Unnormalized face normal (and its squared length) with `override_`
    /// optionally substituting one corner's position.
    fn face_normal(&self, tri: [u32; 3], override_: Option<(u32, Vec3)>) -> (Vec3, f64) {
        let p = |c: u32| -> Vec3 {
            match override_ {
                Some((v, pos)) if v == c => pos,
                _ => self.positions[c as usize],
            }
        };
        let (p0, p1, p2) = (p(tri[0]), p(tri[1]), p(tri[2]));
        let n = (p1 - p0).cross(p2 - p0);
        let len2 =
            (n.x as f64) * (n.x as f64) + (n.y as f64) * (n.y as f64) + (n.z as f64) * (n.z as f64);
        (n, len2)
    }

    /// Apply the checked collapse `(a, b) → pos`: the `shared` faces die,
    /// `b`'s other faces move to `a`.
    fn apply_collapse(&mut self, a: u32, b: u32, pos: Vec3, shared: &[u32]) {
        for &f in shared {
            self.alive[f as usize] = false;
        }
        let fb = std::mem::take(&mut self.vertex_faces[b as usize]);
        for &f in &fb {
            if shared.contains(&f) {
                continue;
            }
            for c in self.faces[f as usize].iter_mut() {
                if *c == b {
                    *c = a;
                }
            }
            self.vertex_faces[a as usize].push(f);
        }
        self.positions[a as usize] = pos;
        let qb = self.quadrics[b as usize];
        self.quadrics[a as usize].add(&qb);
        self.alive_vertices -= 1;
    }

    /// Collapse in error-ordered passes (see the module docs) until `target`
    /// alive vertices remain (0 = no target) or no priced edge is legal any
    /// more.
    fn simplify(&mut self, target: usize) {
        let mut window = 1;
        let mut kept: Vec<u32> = Vec::new();
        let mut ring: Vec<u32> = Vec::new();
        loop {
            if target > 0 && self.alive_vertices <= target {
                self.stats.reached_target = true;
                return;
            }
            let len = self.priced.len();
            let need = match target {
                0 => len,
                _ => self.alive_vertices - target,
            };
            let k = need.saturating_mul(window).min(len);
            if k == 0 {
                return;
            }
            if k < len {
                self.priced.select_nth_unstable_by(k - 1, by_cost);
            }
            self.priced[..k].sort_unstable_by(by_cost);
            self.walk(k, target, &mut kept);
            if kept.is_empty() {
                if k == len {
                    return; // no priced edge is legal
                }
                window *= 4;
                continue;
            }
            window = 1;
            self.reprice(&kept, &mut ring);
        }
    }

    /// One pass over the `k` cheapest priced edges, sorted at the front of
    /// `priced`: apply every legal one whose endpoints are unlocked, until
    /// `target`. The kept vertex of each applied collapse lands in `kept`.
    fn walk(&mut self, k: usize, target: usize, kept: &mut Vec<u32>) {
        self.pass += 1;
        self.stats.passes += 1;
        kept.clear();
        for i in 0..k {
            if target > 0 && self.alive_vertices <= target {
                break;
            }
            let c = self.priced[i];
            let (a, b) = (c.a as usize, c.b as usize);
            if self.touched[a] == self.pass || self.touched[b] == self.pass {
                continue;
            }
            match self.try_collapse(c.a, c.b, c.pos) {
                Some(Rejection::Link) => {
                    self.stats.rejected_link += 1;
                    continue;
                }
                Some(Rejection::Flip) => {
                    self.stats.rejected_flip += 1;
                    continue;
                }
                None => {}
            }
            self.touched[a] = self.pass;
            self.touched[b] = self.pass;
            kept.push(c.a);
            self.stats.collapses += 1;
            self.stats.max_error = self.stats.max_error.max(c.error);
        }
    }

    /// After a pass: drop every priced edge touching a vertex the pass
    /// changed, then price the edges around each vertex it kept. No other
    /// edge's endpoints moved, so every other price is still exact.
    fn reprice(&mut self, kept: &[u32], ring: &mut Vec<u32>) {
        let (pass, touched) = (self.pass, &self.touched);
        self.priced
            .retain(|c| touched[c.a as usize] != pass && touched[c.b as usize] != pass);
        let mut s = std::mem::take(&mut self.scratch);
        for &a in kept {
            self.compact_faces(a);
            // the ring, each neighbour once (stamped), in no order
            let e = s.stamp();
            ring.clear();
            for &f in &self.vertex_faces[a as usize] {
                for c in self.faces[f as usize] {
                    if c != a && s.mark[c as usize] != e {
                        s.mark[c as usize] = e;
                        ring.push(c);
                    }
                }
            }
            for &x in ring.iter() {
                // an edge between two kept vertices is priced from its lower end
                if self.touched[x as usize] == pass && x < a {
                    continue;
                }
                if let Some(c) = self.price(a.min(x), a.max(x)) {
                    self.priced.push(c);
                }
            }
        }
        self.scratch = s;
    }

    /// Compact the surviving faces into a fresh mesh, remapping vertices
    /// in first-use order (deterministic; orphans drop out).
    fn into_mesh(mut self) -> (IndexedMesh, DecimateStats) {
        let mut remap = vec![u32::MAX; self.positions.len()];
        let mut out = IndexedMesh::with_capacity(self.alive.iter().filter(|&&a| a).count());
        for (fi, f) in self.faces.iter().enumerate() {
            if !self.alive[fi] {
                continue;
            }
            let mut corners = [0u32; 3];
            for (slot, &c) in corners.iter_mut().zip(f.iter()) {
                if remap[c as usize] == u32::MAX {
                    remap[c as usize] = out.push_vertex(self.positions[c as usize]);
                }
                *slot = remap[c as usize];
            }
            out.push_triangle(corners[0], corners[1], corners[2]);
        }
        self.stats.output_vertices = out.num_vertices() as u64;
        self.stats.output_triangles = out.len() as u64;
        (out, self.stats)
    }
}

enum Rejection {
    Link,
    Flip,
}

/// [`Tiling::owner`] of a vertex no face references.
const UNSEEN: u32 = u32::MAX;
/// [`Tiling::owner`] of a vertex whose faces span more than one tile.
const SEAM: u32 = u32::MAX - 1;

/// The parallel phase's partition of a mesh's faces.
struct Tiling {
    /// Each tile's faces, in ascending face id.
    faces: Vec<Vec<u32>>,
    /// Per vertex: the tile holding every face it touches, or [`SEAM`] /
    /// [`UNSEEN`].
    owner: Vec<u32>,
}

impl Tiling {
    /// Cut `faces` into `tiles` equal-count slabs by centroid along the
    /// longest axis of the vertex bounding box, ties broken by face id.
    fn new(positions: &[Vec3], faces: &[[u32; 3]], tiles: usize) -> Tiling {
        let (mut lo, mut hi) = ([f32::INFINITY; 3], [f32::NEG_INFINITY; 3]);
        for p in positions {
            for (k, c) in [p.x, p.y, p.z].into_iter().enumerate() {
                lo[k] = lo[k].min(c);
                hi[k] = hi[k].max(c);
            }
        }
        let axis = (0..3)
            .max_by(|&i, &j| (hi[i] - lo[i]).total_cmp(&(hi[j] - lo[j])).then(j.cmp(&i)))
            .expect("three axes");
        let coord = |c: u32| {
            let p = positions[c as usize];
            [p.x, p.y, p.z][axis]
        };
        // (centroid, face id) packed so that integer order is the wanted
        // order: the f32 sum mapped to an order-preserving u32, id below
        let mut keys: Vec<u64> = faces
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let b = (coord(f[0]) + coord(f[1]) + coord(f[2])).to_bits();
                let ordered = if b >> 31 == 1 { !b } else { b | 1 << 31 };
                (ordered as u64) << 32 | i as u64
            })
            .collect();
        let n = keys.len();
        let mut tile_of = vec![0u32; n];
        let mut start = 0;
        for t in 0..tiles {
            let end = (t + 1) * n / tiles;
            if end < n {
                keys[start..].select_nth_unstable(end - start);
            }
            for &k in &keys[start..end] {
                tile_of[k as u32 as usize] = t as u32;
            }
            start = end;
        }

        let mut tile_faces: Vec<Vec<u32>> = vec![Vec::with_capacity(n / tiles + 1); tiles];
        let mut owner = vec![UNSEEN; positions.len()];
        for (fi, f) in faces.iter().enumerate() {
            let t = tile_of[fi];
            tile_faces[t as usize].push(fi as u32);
            for &c in f {
                let o = &mut owner[c as usize];
                *o = match *o {
                    UNSEEN => t,
                    o if o == t => t,
                    _ => SEAM,
                };
            }
        }
        Tiling {
            faces: tile_faces,
            owner,
        }
    }
}

/// One tile after the parallel phase, everything in global ids, per local
/// vertex where not said otherwise.
struct TileOut {
    /// Global id of each local vertex.
    vertices: Vec<u32>,
    positions: Vec<Vec3>,
    quadrics: Vec<Quadric>,
    /// Parallel to the tile's entry in [`Tiling::faces`].
    faces: Vec<[u32; 3]>,
    alive: Vec<bool>,
    /// Each vertex's alive faces.
    vertex_faces: Vec<Vec<u32>>,
    /// Seam and multiplicity pins; for an interior vertex, the latter alone.
    pinned: Vec<bool>,
    /// The tile's priced edges left over, each `a < b` in global ids.
    priced: Vec<Collapse>,
    stats: DecimateStats,
}

/// Decimate tile `t`'s interior down to `SLACK × ratio` of it (as far as
/// the guards allow when `target_vertices` is 0), its seam vertices pinned,
/// and hand its state over in global ids. `local` is an all-`u32::MAX`
/// global→local scratch map, left that way on return.
fn decimate_tile(
    positions: &[Vec3],
    faces: &[[u32; 3]],
    tiling: &Tiling,
    t: usize,
    ratio: f64,
    target_vertices: usize,
    local: &mut [u32],
) -> TileOut {
    let mut vertices: Vec<u32> = Vec::new();
    let face_ids = &tiling.faces[t];
    let tile_faces: Vec<[u32; 3]> = face_ids
        .iter()
        .map(|&f| {
            faces[f as usize].map(|c| {
                let l = &mut local[c as usize];
                if *l == u32::MAX {
                    *l = vertices.len() as u32;
                    vertices.push(c);
                }
                *l
            })
        })
        .collect();
    for &g in &vertices {
        local[g as usize] = u32::MAX;
    }
    // A seam vertex is mostly pinned by the multiplicity rule already (an
    // edge at the tile cut has one face in the tile); the explicit pin also
    // covers one whose faces here form whole fans, e.g. two sheets touching
    // at the vertex, with the rest of it in another tile.
    let seam: Vec<bool> = vertices
        .iter()
        .map(|&g| tiling.owner[g as usize] != t as u32)
        .collect();
    let tile_positions: Vec<Vec3> = vertices.iter().map(|&g| positions[g as usize]).collect();
    let quadrics = plane_quadrics(&tile_positions, &tile_faces);
    let mut dec = Decimator::new(tile_positions, tile_faces, quadrics, &seam);
    // the ratio applies to the vertices the tile may collapse: seam and
    // boundary vertices all survive, and charging them to the budget would
    // drive a boundary-heavy tile far deeper than the finishing phase would
    let fixed = dec.pinned.iter().filter(|&&p| p).count();
    let target = match target_vertices {
        0 => 0,
        _ => fixed + ((vertices.len() - fixed) as f64 * ratio * SLACK).ceil() as usize,
    };
    dec.simplify(target);

    // Local ids follow first use, not global order, so an edge's ends may
    // swap. Its price does not change — except that the fallback tries the
    // lower end first — so a swapped edge is priced again from its global
    // lower end.
    let priced = dec
        .priced
        .iter()
        .map(|c| {
            let (a, b) = (vertices[c.a as usize], vertices[c.b as usize]);
            match a < b {
                true => Collapse { a, b, ..*c },
                false => Collapse {
                    a: b,
                    b: a,
                    ..dec
                        .price(c.b, c.a)
                        .expect("a priced edge has no pinned end")
                },
            }
        })
        .collect();
    let Decimator {
        positions,
        quadrics,
        faces,
        alive,
        mut vertex_faces,
        pinned,
        stats,
        ..
    } = dec;
    for list in &mut vertex_faces {
        list.retain(|&f| alive[f as usize]);
        for f in list.iter_mut() {
            *f = face_ids[*f as usize];
        }
    }
    TileOut {
        faces: faces
            .into_iter()
            .map(|f| f.map(|c| vertices[c as usize]))
            .collect(),
        vertices,
        positions,
        quadrics,
        alive,
        vertex_faces,
        pinned,
        priced,
        stats,
    }
}

/// The finishing phase's state as the tiles are merged into it. Tiles merge
/// in tile order, each as soon as it and every tile before it are done, and
/// a tile's output is freed once merged.
struct Merge<'a> {
    tiling: &'a Tiling,
    /// Finished tiles whose turn has not come yet.
    waiting: Vec<Option<TileOut>>,
    /// The next tile to merge.
    next: usize,
    positions: Vec<Vec3>,
    quadrics: Vec<Quadric>,
    faces: Vec<[u32; 3]>,
    alive: Vec<bool>,
    vertex_faces: Vec<Vec<u32>>,
    pinned: Vec<bool>,
    priced: Vec<Collapse>,
    stats: DecimateStats,
}

impl Merge<'_> {
    /// Take tile `t`'s output and merge every tile whose turn has come.
    fn add(&mut self, t: usize, out: TileOut) {
        self.waiting[t] = Some(out);
        while let Some(mut out) = self.waiting.get_mut(self.next).and_then(Option::take) {
            let t = self.next;
            for (l, &g) in out.vertices.iter().enumerate() {
                let g = g as usize;
                self.positions[g] = out.positions[l];
                self.quadrics[g].add(&out.quadrics[l]);
                let list = std::mem::take(&mut out.vertex_faces[l]);
                if self.tiling.owner[g] == t as u32 {
                    self.vertex_faces[g] = list;
                    self.pinned[g] = out.pinned[l];
                } else {
                    self.vertex_faces[g].extend_from_slice(&list);
                }
            }
            for (l, &f) in self.tiling.faces[t].iter().enumerate() {
                self.alive[f as usize] = out.alive[l];
                self.faces[f as usize] = out.faces[l];
            }
            self.priced.append(&mut out.priced);
            let stats = &mut self.stats;
            stats.collapses += out.stats.collapses;
            stats.passes += out.stats.passes;
            stats.rejected_link += out.stats.rejected_link;
            stats.rejected_flip += out.stats.rejected_flip;
            stats.max_error = stats.max_error.max(out.stats.max_error);
            self.next += 1;
        }
    }
}

/// The parallel phase: decimate every tile's interior on `threads` threads,
/// the calling one included, which also merges the finished tiles into the
/// finishing phase's state between its own. Returns the state and the
/// phase's counters.
///
/// The merge carries what the tiles know instead of rebuilding it: an
/// interior vertex has all of its faces in its tile, so its incidence, its
/// multiplicity pin and every edge between two interior vertices (priced
/// from the same quadrics and positions the merge writes) are already the
/// global ones. Pins do not change during the tile phase either: a face on
/// a pinned edge has only one unpinned corner, so it never dies, and the
/// link condition keeps every manifold edge manifold. Only the seam
/// vertices are left: their lists are the concatenation of their tiles',
/// and their edges are counted and priced here. Dead faces stay tombstoned;
/// [`Decimator::into_mesh`] skips them in input order.
fn tile_phase(
    mesh: &IndexedMesh,
    ratio: f64,
    target_vertices: usize,
    tiles: usize,
    threads: usize,
) -> (Decimator, DecimateStats) {
    let input = mesh.indices().as_chunks::<3>().0;
    let tiling = Tiling::new(mesh.positions(), input, tiles);
    let nv = mesh.num_vertices();
    let mut merge = Merge {
        tiling: &tiling,
        waiting: (0..tiles).map(|_| None).collect(),
        next: 0,
        positions: mesh.positions().to_vec(),
        quadrics: vec![Quadric::default(); nv],
        faces: input.to_vec(),
        alive: vec![true; input.len()],
        vertex_faces: vec![Vec::new(); nv],
        pinned: vec![false; nv],
        priced: Vec::new(),
        stats: DecimateStats {
            tiles: tiles as u64,
            ..Default::default()
        },
    };
    let next = AtomicUsize::new(0);
    let claim = || Some(next.fetch_add(1, AtomicOrdering::Relaxed)).filter(|&t| t < tiles);
    let decimate = |t: usize, local: &mut [u32]| {
        decimate_tile(
            mesh.positions(),
            input,
            &tiling,
            t,
            ratio,
            target_vertices,
            local,
        )
    };
    std::thread::scope(|s| {
        let (finished, done) = std::sync::mpsc::channel();
        for _ in 1..threads.clamp(1, tiles) {
            let finished = finished.clone();
            s.spawn(move || {
                let mut local = vec![u32::MAX; nv];
                while let Some(t) = claim() {
                    if finished.send((t, decimate(t, &mut local))).is_err() {
                        return;
                    }
                }
            });
        }
        drop(finished);
        let mut local = vec![u32::MAX; nv];
        while let Some(t) = claim() {
            merge.add(t, decimate(t, &mut local));
            for (t, out) in done.try_iter() {
                merge.add(t, out);
            }
        }
        // the channel closes once every helper has left
        for (t, out) in done {
            merge.add(t, out);
        }
    });

    let Merge {
        positions,
        quadrics,
        faces,
        alive,
        vertex_faces,
        pinned,
        priced,
        stats,
        ..
    } = merge;
    let mut dec = Decimator::from_parts(positions, quadrics, faces, alive, vertex_faces, pinned);
    dec.priced = priced;
    let owner = &tiling.owner;
    let seams = (0..nv as u32).filter(|&v| owner[v as usize] == SEAM);
    // an edge between two seam vertices is priced from its lower end
    let edges = dec.pin_edges(seams, false, |v, w| owner[w as usize] != SEAM || v < w);
    dec.price_edges(&edges);
    (dec, stats)
}

/// Decimate `mesh` until `target_vertices` vertices survive (0: as far as
/// the guards allow): tile interiors in parallel, then the global finishing
/// phase (see the module docs). Deterministic: equal meshes (and targets)
/// always yield byte-identical outputs, whatever the thread count.
pub fn decimate(mesh: &IndexedMesh, target_vertices: usize) -> (IndexedMesh, DecimateStats) {
    if mesh.is_empty() {
        return (
            IndexedMesh::new(),
            DecimateStats {
                input_vertices: mesh.num_vertices() as u64,
                reached_target: target_vertices >= mesh.num_vertices(),
                ..Default::default()
            },
        );
    }
    let tiles = (mesh.len() / MIN_TILE_FACES).clamp(1, TILES);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    decimate_tiled(mesh, target_vertices, tiles, threads)
}

/// The finishing phase's starting state: the carried tile state when the
/// mesh tiles, else the whole mesh built from scratch; and the tile phase's
/// counters.
fn finish_state(
    mesh: &IndexedMesh,
    target_vertices: usize,
    tiles: usize,
    threads: usize,
) -> (Decimator, DecimateStats) {
    let ratio = target_vertices as f64 / mesh.num_vertices() as f64;
    // a target within SLACK of the input leaves the tiles nothing to do
    if tiles > 1 && ratio * SLACK < 1.0 {
        return tile_phase(mesh, ratio, target_vertices, tiles, threads);
    }
    let positions = mesh.positions().to_vec();
    let faces = mesh.indices().as_chunks::<3>().0.to_vec();
    let quadrics = plane_quadrics(&positions, &faces);
    (
        Decimator::new(positions, faces, quadrics, &[]),
        DecimateStats {
            tiles: 1,
            ..Default::default()
        },
    )
}

/// [`decimate`] with the tile and thread counts given. `tiles` decides the
/// output; `threads` only how fast it comes.
fn decimate_tiled(
    mesh: &IndexedMesh,
    target_vertices: usize,
    tiles: usize,
    threads: usize,
) -> (IndexedMesh, DecimateStats) {
    let (mut dec, tiled) = finish_state(mesh, target_vertices, tiles, threads);
    dec.simplify(target_vertices);
    let (out, finish) = dec.into_mesh();
    let stats = DecimateStats {
        input_vertices: mesh.num_vertices() as u64,
        input_triangles: mesh.len() as u64,
        collapses: tiled.collapses + finish.collapses,
        finish_collapses: finish.collapses,
        tiles: tiled.tiles,
        passes: tiled.passes + finish.passes,
        rejected_link: tiled.rejected_link + finish.rejected_link,
        rejected_flip: tiled.rejected_flip + finish.rejected_flip,
        max_error: tiled.max_error.max(finish.max_error),
        ..finish
    };
    (out, stats)
}

/// Decimate until at most `ratio ×` the input vertices survive (clamped to
/// `[0, 1]`; guards may stop earlier — see [`DecimateStats::reached_target`]).
pub fn decimate_to_ratio(mesh: &IndexedMesh, ratio: f64) -> (IndexedMesh, DecimateStats) {
    let ratio = ratio.clamp(0.0, 1.0);
    decimate(mesh, (mesh.num_vertices() as f64 * ratio).ceil() as usize)
}

/// One level of a LOD pyramid.
#[derive(Clone, Debug)]
pub struct LodLevel {
    /// The vertex-count target this level was built for, as a fraction of
    /// the level-0 mesh (level 0 itself is 1.0).
    pub target_ratio: f64,
    /// The level's mesh (level 0 is the full-resolution input).
    pub mesh: IndexedMesh,
    /// Decimation counters for this level (default for level 0).
    pub stats: DecimateStats,
    /// Accumulated squared quadric error versus the full-resolution mesh
    /// (sum of the per-level `max_error`s along the chain; 0 for level 0).
    pub cumulative_error: f64,
}

/// A pyramid of progressively decimated meshes, level 0 being full
/// resolution. Built once post-weld, served per level.
#[derive(Clone, Debug, Default)]
pub struct LodChain {
    levels: Vec<LodLevel>,
}

impl LodChain {
    /// Build a chain from `base` with one extra level per entry of `ratios`
    /// (each a fraction of the **base** vertex count; must be strictly
    /// decreasing and in `(0, 1)`). Each level is decimated from the
    /// previous one, so the pyramid costs one pass per level over
    /// ever-smaller meshes.
    pub fn build(base: IndexedMesh, ratios: &[f64]) -> LodChain {
        Self::build_observed(base, ratios, |_, _, _| {})
    }

    /// [`LodChain::build`] with a per-level observer: after each decimated
    /// level is built, `observe(level, wall, stats)` is called with the
    /// level's index (1 = first decimated level), its measured decimation
    /// wall-clock, and its counters. Request tracing attributes pyramid cost
    /// per level through this hook without this crate knowing about any
    /// tracing substrate.
    pub fn build_observed(
        base: IndexedMesh,
        ratios: &[f64],
        observe: impl FnMut(usize, std::time::Duration, &DecimateStats),
    ) -> LodChain {
        let coarse = Self::coarse_levels(&base, ratios, observe);
        let mut levels = vec![LodLevel {
            target_ratio: 1.0,
            mesh: base,
            stats: DecimateStats::default(),
            cumulative_error: 0.0,
        }];
        levels.extend(coarse);
        LodChain { levels }
    }

    /// The decimated levels (1, 2, …) of the chain [`LodChain::build_observed`]
    /// builds from `full`, decimating **by reference** so a caller holding
    /// level 0 elsewhere (the serving cache) never clones it. Each level is
    /// decimated from the previous one to its ratio of `full`'s vertex
    /// count, and carries the error accumulated along the ladder. This is
    /// the one ladder: equal inputs give byte-identical levels wherever
    /// they are rebuilt.
    pub fn coarse_levels(
        full: &IndexedMesh,
        ratios: &[f64],
        mut observe: impl FnMut(usize, std::time::Duration, &DecimateStats),
    ) -> Vec<LodLevel> {
        let base_vertices = full.num_vertices();
        let mut levels: Vec<LodLevel> = Vec::with_capacity(ratios.len());
        let mut prev_ratio = 1.0;
        for (i, &ratio) in ratios.iter().enumerate() {
            assert!(
                ratio > 0.0 && ratio < prev_ratio,
                "LOD ratios must be strictly decreasing in (0, 1): {ratios:?}"
            );
            prev_ratio = ratio;
            let (prev_mesh, prev_error) = levels
                .last()
                .map_or((full, 0.0), |l| (&l.mesh, l.cumulative_error));
            let t = std::time::Instant::now();
            let (mesh, stats) = decimate(prev_mesh, (base_vertices as f64 * ratio).ceil() as usize);
            observe(i + 1, t.elapsed(), &stats);
            levels.push(LodLevel {
                target_ratio: ratio,
                mesh,
                cumulative_error: prev_error + stats.max_error,
                stats,
            });
        }
        levels
    }

    /// Number of levels (≥ 1 for any built chain; 0 only for `default()`).
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Whether the chain holds no levels.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Level `i` (0 = full resolution).
    pub fn level(&self, i: usize) -> Option<&LodLevel> {
        self.levels.get(i)
    }

    /// All levels, finest first.
    pub fn levels(&self) -> &[LodLevel] {
        &self.levels
    }

    /// The full-resolution mesh.
    pub fn full(&self) -> &IndexedMesh {
        &self.levels[0].mesh
    }

    /// World-space error gauge of level `i`: `√cumulative_error` — the
    /// length renderers project to screen space for LOD selection.
    pub fn world_error(&self, i: usize) -> f64 {
        self.levels
            .get(i)
            .map_or(f64::INFINITY, |l| l.cumulative_error.sqrt())
    }

    /// World-space error gauges of every level, finest first.
    pub fn world_errors(&self) -> Vec<f64> {
        (0..self.levels.len())
            .map(|i| self.world_error(i))
            .collect()
    }

    /// Consume the chain into its levels.
    pub fn into_levels(self) -> Vec<LodLevel> {
        self.levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mc::{marching_cubes_indexed, SlabScratch};
    use crate::topology::{analyze_mesh_connectivity, TopologyReport};
    use oociso_volume::field::{FieldExt, GyroidField, NoiseField, SphereField, TorusField};
    use oociso_volume::{Dims3, Volume};
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    fn sphere_mesh(n: usize) -> IndexedMesh {
        let vol: Volume<f32> = SphereField::centered(0.33, 128.0).sample(Dims3::cube(n));
        let mut mesh = IndexedMesh::new();
        let mut scratch = SlabScratch::new();
        marching_cubes_indexed(
            &vol,
            128.5,
            Vec3::ZERO,
            Vec3::new(1.0, 1.0, 1.0),
            &mut mesh,
            &mut Vec::new(),
            &mut scratch,
        );
        let (welded, _) = mesh.welded();
        welded
    }

    fn topo(mesh: &IndexedMesh) -> TopologyReport {
        analyze_mesh_connectivity(mesh)
    }

    #[test]
    fn quadric_plane_distance() {
        // plane z = 2: n = (0,0,1), d = -2
        let q = Quadric::from_plane([0.0, 0.0, 1.0], -2.0);
        assert!(q.error([5.0, -3.0, 2.0]) < 1e-12);
        assert!((q.error([0.0, 0.0, 5.0]) - 9.0).abs() < 1e-9);
        // sum of three orthogonal planes through (1,2,3) has that minimizer
        let mut q = Quadric::from_plane([1.0, 0.0, 0.0], -1.0);
        q.add(&Quadric::from_plane([0.0, 1.0, 0.0], -2.0));
        q.add(&Quadric::from_plane([0.0, 0.0, 1.0], -3.0));
        let p = q.optimal_point().expect("well-conditioned");
        assert!((p[0] - 1.0).abs() < 1e-9);
        assert!((p[1] - 2.0).abs() < 1e-9);
        assert!((p[2] - 3.0).abs() < 1e-9);
        assert!(q.error(p) < 1e-12);
    }

    #[test]
    fn singular_quadric_has_no_optimal_point() {
        // all planes parallel: minimizer is a whole plane
        let mut q = Quadric::from_plane([0.0, 0.0, 1.0], 0.0);
        q.add(&Quadric::from_plane([0.0, 0.0, 1.0], -1.0));
        assert!(q.optimal_point().is_none());
    }

    #[test]
    fn sphere_decimates_to_target_preserving_topology() {
        let mesh = sphere_mesh(20);
        let before = topo(&mesh);
        assert!(before.is_closed_manifold());
        assert_eq!(before.euler_characteristic(), 2);

        let (out, stats) = decimate_to_ratio(&mesh, 0.25);
        assert!(stats.reached_target, "{stats:?}");
        let target = (mesh.num_vertices() as f64 * 0.25).ceil() as usize;
        assert!(out.num_vertices() <= target, "{stats:?}");
        assert!(stats.collapses > 0);
        let after = topo(&out);
        assert!(after.is_closed_manifold(), "{after:?}");
        assert_eq!(after.euler_characteristic(), 2, "{after:?}");
        assert_eq!(after.components, 1);
        assert_eq!(stats.output_vertices, out.num_vertices() as u64);
        assert_eq!(stats.output_triangles, out.len() as u64);
        // Euler bookkeeping: each manifold collapse removes 1 vertex, 2 faces
        assert_eq!(
            stats.input_triangles - stats.output_triangles,
            2 * stats.collapses
        );
    }

    #[test]
    fn decimation_is_deterministic() {
        let mesh = sphere_mesh(16);
        let (a, sa) = decimate_to_ratio(&mesh, 0.3);
        let (b, sb) = decimate_to_ratio(&mesh, 0.3);
        assert_eq!(a, b, "repeated runs must be bit-identical");
        assert_eq!(sa, sb);
    }

    #[test]
    fn empty_and_tiny_meshes_are_handled() {
        let (out, stats) = decimate_to_ratio(&IndexedMesh::new(), 0.1);
        assert!(out.is_empty());
        assert_eq!(stats.collapses, 0);

        // single triangle: all 3 edges are boundary → fully pinned
        let mut tri = IndexedMesh::new();
        let a = tri.push_vertex(Vec3::ZERO);
        let b = tri.push_vertex(Vec3::new(1.0, 0.0, 0.0));
        let c = tri.push_vertex(Vec3::new(0.0, 1.0, 0.0));
        tri.push_triangle(a, b, c);
        let (out, stats) = decimate_to_ratio(&tri, 0.0);
        assert_eq!(out.positions(), tri.positions());
        assert_eq!(out.indices(), tri.indices());
        assert_eq!(stats.collapses, 0);
        assert_eq!(stats.pinned_vertices, 3);
        assert!(!stats.reached_target);
    }

    #[test]
    fn lod_chain_builds_decreasing_levels() {
        let mesh = sphere_mesh(20);
        let nv = mesh.num_vertices();
        let chain = LodChain::build(mesh, &[0.25, 0.06]);
        assert_eq!(chain.len(), 3);
        assert_eq!(chain.level(0).unwrap().mesh.num_vertices(), nv);
        assert_eq!(chain.world_error(0), 0.0);
        let v1 = chain.level(1).unwrap().mesh.num_vertices();
        let v2 = chain.level(2).unwrap().mesh.num_vertices();
        assert!(v1 < nv && v2 < v1, "{nv} -> {v1} -> {v2}");
        assert!(v1 <= (nv as f64 * 0.25).ceil() as usize);
        assert!(chain.world_error(2) >= chain.world_error(1));
        assert!(chain.world_error(3).is_infinite(), "out of range");
        for level in chain.levels() {
            assert!(topo(&level.mesh).is_closed_manifold());
        }
    }

    #[test]
    #[should_panic(expected = "strictly decreasing")]
    fn lod_chain_rejects_non_decreasing_ratios() {
        LodChain::build(sphere_mesh(10), &[0.5, 0.5]);
    }

    #[test]
    fn build_observed_reports_each_decimated_level() {
        let mut seen: Vec<(usize, u64)> = Vec::new();
        let chain = LodChain::build_observed(sphere_mesh(20), &[0.25, 0.06], |i, wall, stats| {
            assert!(wall > std::time::Duration::ZERO);
            seen.push((i, stats.collapses));
        });
        assert_eq!(seen.len(), 2, "one observation per decimated level");
        assert_eq!(seen[0].0, 1);
        assert_eq!(seen[1].0, 2);
        for (i, collapses) in &seen {
            assert_eq!(
                *collapses,
                chain.level(*i).unwrap().stats.collapses,
                "observer stats must match the built level"
            );
        }
    }

    /// A welded MC mesh of one of the zoo fields (0 sphere, 1 torus, both
    /// closed; 2 gyroid, 3 noise, both open) at a size that tiles.
    fn zoo_mesh(field: usize, iso: f32) -> IndexedMesh {
        let vol: Volume<u8> = match field {
            0 => SphereField::centered(0.31, 128.0).sample(Dims3::cube(64)),
            1 => TorusField {
                major: 0.3,
                minor: 0.12,
                level: 128.0,
                slope: 300.0,
            }
            .sample(Dims3::cube(64)),
            2 => GyroidField {
                cells: 2.5,
                level: 128.0,
                amplitude: 70.0,
            }
            .sample(Dims3::cube(32)),
            _ => NoiseField {
                seed: 9,
                frequency: 4.0,
                octaves: 3,
                lo: 40.0,
                hi: 215.0,
            }
            .sample(Dims3::cube(32)),
        };
        let mut mesh = IndexedMesh::new();
        marching_cubes_indexed(
            &vol,
            iso,
            Vec3::ZERO,
            Vec3::new(1.0, 1.0, 1.0),
            &mut mesh,
            &mut Vec::new(),
            &mut SlabScratch::new(),
        );
        mesh.welded().0
    }

    /// Distance from `p` to triangle `(a, b, c)` (Ericson's closest point).
    fn dist_point_tri(p: Vec3, [a, b, c]: [Vec3; 3]) -> f32 {
        let (ab, ac, ap) = (b - a, c - a, p - a);
        let (d1, d2) = (ab.dot(ap), ac.dot(ap));
        if d1 <= 0.0 && d2 <= 0.0 {
            return ap.length();
        }
        let bp = p - b;
        let (d3, d4) = (ab.dot(bp), ac.dot(bp));
        if d3 >= 0.0 && d4 <= d3 {
            return bp.length();
        }
        let vc = d1 * d4 - d3 * d2;
        if vc <= 0.0 && d1 >= 0.0 && d3 <= 0.0 {
            return (p - (a + ab * (d1 / (d1 - d3)))).length();
        }
        let cp = p - c;
        let (d5, d6) = (ab.dot(cp), ac.dot(cp));
        if d6 >= 0.0 && d5 <= d6 {
            return cp.length();
        }
        let vb = d5 * d2 - d1 * d6;
        if vb <= 0.0 && d2 >= 0.0 && d6 <= 0.0 {
            return (p - (a + ac * (d2 / (d2 - d6)))).length();
        }
        let va = d3 * d6 - d5 * d4;
        if va <= 0.0 && d4 - d3 >= 0.0 && d5 - d6 >= 0.0 {
            let w = (d4 - d3) / ((d4 - d3) + (d5 - d6));
            return (p - (b + (c - b) * w)).length();
        }
        let denom = 1.0 / (va + vb + vc);
        (p - (a + ab * (vb * denom) + ac * (vc * denom))).length()
    }

    /// Max distance from a fixed-stride sample of `dec`'s vertices to `orig`.
    fn max_deviation(dec: &IndexedMesh, orig: &IndexedMesh) -> f64 {
        let p = orig.positions();
        let tris: Vec<[Vec3; 3]> = orig
            .indices()
            .chunks_exact(3)
            .map(|t| [p[t[0] as usize], p[t[1] as usize], p[t[2] as usize]])
            .collect();
        let stride = (dec.num_vertices() / 200).max(1);
        dec.positions()
            .iter()
            .step_by(stride)
            .map(|&v| {
                tris.iter()
                    .map(|&t| dist_point_tri(v, t))
                    .fold(f32::INFINITY, f32::min)
            })
            .fold(0.0f32, f32::max) as f64
    }

    /// Bit-keyed positions of the vertices on a boundary or non-manifold
    /// edge — the ones every pass must keep in place.
    fn pinned_positions(mesh: &IndexedMesh) -> HashSet<[u32; 3]> {
        let mut count: HashMap<(u32, u32), u32> = HashMap::new();
        for t in mesh.indices().chunks_exact(3) {
            for i in 0..3 {
                let (a, b) = (t[i], t[(i + 1) % 3]);
                *count.entry((a.min(b), a.max(b))).or_default() += 1;
            }
        }
        let key = |v: u32| {
            let p = mesh.positions()[v as usize];
            [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]
        };
        count
            .into_iter()
            .filter(|&(_, n)| n != 2)
            .flat_map(|((a, b), _)| [key(a), key(b)])
            .collect()
    }

    #[test]
    fn tiled_output_is_identical_for_any_thread_count() {
        let mesh = zoo_mesh(2, 128.5);
        let target = (mesh.num_vertices() as f64 * 0.25).ceil() as usize;
        let tiles = (mesh.len() / MIN_TILE_FACES).clamp(1, TILES);
        let (one, one_stats) = decimate_tiled(&mesh, target, tiles, 1);
        assert!(one_stats.tiles >= 2, "{one_stats:?}");
        assert!(0 < one_stats.finish_collapses && one_stats.finish_collapses < one_stats.collapses);
        for threads in [2, 3, 8] {
            let (out, stats) = decimate_tiled(&mesh, target, tiles, threads);
            assert_eq!(out, one, "threads={threads}: decimated bytes differ");
            assert_eq!(stats, one_stats, "threads={threads}");
        }
        // the public entry takes the host's thread count and nothing else
        assert_eq!(decimate(&mesh, target), (one, one_stats));
    }

    /// Two wavy 64 × 64 grid sheets, 20 apart, each with its centre pulled
    /// halfway to the other so that both share that one vertex: a
    /// non-manifold vertex whose edges all have two faces, inside both
    /// sheets, with the tile cuts through it.
    fn touching_sheets() -> IndexedMesh {
        let n = 64u32;
        let mut mesh = IndexedMesh::new();
        let mut ids = Vec::new();
        for sheet in 0..2 {
            for y in 0..=n {
                for x in 0..=n {
                    let id = if sheet == 1 && (x, y) == (n / 2, n / 2) {
                        ids[((n / 2) * (n + 1) + n / 2) as usize]
                    } else {
                        let (fx, fy) = (x as f32, y as f32);
                        let z = match (x, y) == (n / 2, n / 2) {
                            true => 10.0,
                            false => 20.0 * sheet as f32 + (0.3 * fx).sin() * (0.2 * fy).cos(),
                        };
                        mesh.push_vertex(Vec3::new(fx, fy, z))
                    };
                    ids.push(id);
                }
            }
        }
        for sheet in 0..2 {
            let id = |x: u32, y: u32| ids[(sheet * (n + 1) * (n + 1) + y * (n + 1) + x) as usize];
            for y in 0..n {
                for x in 0..n {
                    mesh.push_triangle(id(x, y), id(x + 1, y), id(x + 1, y + 1));
                    mesh.push_triangle(id(x, y), id(x + 1, y + 1), id(x, y + 1));
                }
            }
        }
        mesh
    }

    /// The finishing phase starts from the tiles' carried state instead of
    /// rebuilding it; that state must be exactly what [`Decimator::new`]
    /// builds over the merged mesh: the same pins, alive vertices and
    /// incidence, and the same priced edges to the bit.
    #[test]
    fn carried_finish_state_equals_a_rebuilt_one() {
        let mut meshes: Vec<(String, IndexedMesh)> = (0..4)
            .map(|f| (format!("zoo {f}"), zoo_mesh(f, 128.5)))
            .collect();
        meshes.push(("touching sheets".into(), touching_sheets()));
        // vertex ids against first-use order: a tile's local ids then run
        // opposite to the global ones, and every carried edge swaps its ends
        let zoo = zoo_mesh(2, 128.5);
        let mut reversed = IndexedMesh::new();
        for &p in zoo.positions().iter().rev() {
            reversed.push_vertex(p);
        }
        let last = zoo.num_vertices() as u32 - 1;
        for t in zoo.indices().chunks_exact(3) {
            reversed.push_triangle(last - t[0], last - t[1], last - t[2]);
        }
        meshes.push(("zoo 2 reversed".into(), reversed));
        // faces with a repeated corner, listed twice in that corner's
        // incidence and counted once, edge by edge: on an edge no other face
        // has, counted once it has the two faces that leave it unpinned
        let mut degenerate = zoo_mesh(3, 128.5);
        let tris: Vec<[u32; 3]> = degenerate.indices().as_chunks::<3>().0.to_vec();
        for i in (0..tris.len()).step_by(37) {
            let (t, far) = (tris[i], tris[(i + tris.len() / 2) % tris.len()]);
            match i % 2 {
                0 => degenerate.push_triangle(t[0], t[0], far[0]),
                _ => degenerate.push_triangle(t[1], t[1], t[1]),
            }
        }
        meshes.push(("zoo 3 with degenerate faces".into(), degenerate));
        let key = |c: &Collapse| {
            let p = [c.pos.x.to_bits(), c.pos.y.to_bits(), c.pos.z.to_bits()];
            (c.a, c.b, c.error.to_bits(), p)
        };
        for (name, mesh) in &meshes {
            for ratio in [0.25, 0.06] {
                let ctx = format!("{name} ratio {ratio}");
                let target = (mesh.num_vertices() as f64 * ratio).ceil() as usize;
                let tiles = (mesh.len() / MIN_TILE_FACES).clamp(1, TILES);
                assert!(tiles >= 2, "{ctx}: {tiles} tile");
                let (carried, tiled) = finish_state(mesh, target, tiles, 2);
                assert!(tiled.collapses > 0, "{ctx}");
                // the merged mesh with its dead faces dropped, input order kept
                let mut rank = vec![u32::MAX; carried.faces.len()];
                let mut faces = Vec::new();
                for (f, tri) in carried.faces.iter().enumerate() {
                    if carried.alive[f] {
                        rank[f] = faces.len() as u32;
                        faces.push(*tri);
                    }
                }
                // the definitions, counted over every face's edges: a pin
                // ends an edge without exactly two faces, and every other
                // edge with no pinned end is priced
                let mut count: HashMap<(u32, u32), u32> = HashMap::new();
                for t in &faces {
                    for i in 0..3 {
                        let (a, b) = (t[i], t[(i + 1) % 3]);
                        if a != b {
                            *count.entry((a.min(b), a.max(b))).or_default() += 1;
                        }
                    }
                }
                let mut pins = vec![false; mesh.num_vertices()];
                for (&(a, b), &n) in &count {
                    if n != 2 {
                        pins[a as usize] = true;
                        pins[b as usize] = true;
                    }
                }
                let mut unpinned: Vec<(u32, u32)> = count
                    .into_keys()
                    .filter(|&(a, b)| !pins[a as usize] && !pins[b as usize])
                    .collect();
                unpinned.sort_unstable();
                let rebuilt = Decimator::new(
                    carried.positions.clone(),
                    faces,
                    carried.quadrics.clone(),
                    &[],
                );
                assert_eq!(carried.pinned, pins, "{ctx}: pins");
                let mut edges: Vec<(u32, u32)> =
                    carried.priced.iter().map(|c| (c.a, c.b)).collect();
                edges.sort_unstable();
                assert!(
                    edges == unpinned,
                    "{ctx}: priced edges are not the unpinned ones"
                );
                assert_eq!(carried.pinned, rebuilt.pinned, "{ctx}");
                assert_eq!(carried.stats, rebuilt.stats, "{ctx}");
                assert_eq!(carried.alive_vertices, rebuilt.alive_vertices, "{ctx}");
                for (v, (c, r)) in carried
                    .vertex_faces
                    .iter()
                    .zip(&rebuilt.vertex_faces)
                    .enumerate()
                {
                    let mut c: Vec<u32> = c.iter().map(|&f| rank[f as usize]).collect();
                    let mut r = r.clone();
                    c.sort_unstable();
                    r.sort_unstable();
                    assert_eq!(c, r, "{ctx}: vertex {v}'s incidence");
                }
                let mut c: Vec<_> = carried.priced.iter().map(key).collect();
                let mut r: Vec<_> = rebuilt.priced.iter().map(key).collect();
                c.sort_unstable();
                r.sort_unstable();
                assert_eq!(c.len(), r.len(), "{ctx}: priced edges");
                assert!(c == r, "{ctx}: priced edges differ");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// The pyramid's two passes (25 % of the input, then 6 % of it from
        /// the 25 % level, as [`LodChain`] builds them) over a tiled zoo
        /// mesh keep the decimator's contract, and tiling costs at most 10 %
        /// of world error against the same pass run as one tile.
        #[test]
        fn tiled_zoo_passes_keep_the_contract(field in 0usize..4, iso_step in 110u32..146) {
            let base = zoo_mesh(field, iso_step as f32 + 0.5);
            let diag = (base.bounds().hi - base.bounds().lo).length() as f64;
            let mut input = base.clone();
            for ratio in [0.25f64, 0.06] {
                let ctx = format!("field {field} iso {iso_step}.5 ratio {ratio}");
                let target = (base.num_vertices() as f64 * ratio).ceil() as usize;
                let (out, stats) = decimate_tiled(&input, target, TILES, 2);
                prop_assert!(stats.tiles >= 2, "{ctx}: {stats:?}");

                // topology: closed manifolds stay so, χ and boundary kept
                let (before, after) = (topo(&input), topo(&out));
                prop_assert_eq!(after.euler_characteristic(), before.euler_characteristic(), "{}", ctx);
                prop_assert_eq!(after.boundary_edges, before.boundary_edges, "{}", ctx);
                prop_assert_eq!(after.non_manifold_edges, before.non_manifold_edges, "{}", ctx);
                prop_assert_eq!(after.is_closed_manifold(), before.is_closed_manifold(), "{}", ctx);
                let kept: HashSet<[u32; 3]> = out
                    .positions()
                    .iter()
                    .map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
                    .collect();
                prop_assert!(pinned_positions(&input).is_subset(&kept), "{}: a boundary vertex moved", ctx);

                // budget: met, or floored by the pinned vertices
                if stats.reached_target {
                    prop_assert!(out.num_vertices() <= target, "{}: {:?}", ctx, stats);
                } else {
                    prop_assert!(stats.pinned_vertices > 0, "{}: unexplained miss", ctx);
                    prop_assert!(out.num_vertices() as u64 <= (2 * stats.pinned_vertices).max(target as u64), "{}: {:?}", ctx, stats);
                }
                prop_assert_eq!(stats.input_triangles - stats.output_triangles, 2 * stats.collapses, "{}", ctx);

                // fidelity: the gauge bounds the true deviation …
                let dev = max_deviation(&out, &input);
                prop_assert!(dev <= stats.world_error().max(1e-3), "{}: deviation {} > gauge {}", ctx, dev, stats.world_error());
                // … and tiling barely moves it. A single-tile gauge past 5 %
                // of the diagonal means the budget tore the mesh apart (the
                // open fields near their pinned floor at 6 %): the last
                // forced collapse is then arbitrary, not a quality measure.
                let (_, single) = decimate_tiled(&input, target, 1, 1);
                if single.reached_target && single.world_error() < 0.05 * diag {
                    prop_assert!(
                        stats.world_error() <= 1.10 * single.world_error(),
                        "{}: tiled {} vs one tile {}", ctx, stats.world_error(), single.world_error()
                    );
                }
                input = out;
            }
        }
    }
}

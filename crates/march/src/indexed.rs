//! Indexed triangle meshes: shared vertices + `u32` triangle indices.
//!
//! An [`IndexedMesh`] stores each edge crossing **once** (isosurface meshes
//! average ≈ 0.5 vertices per triangle, so ~18 bytes/triangle) and is what
//! the slab-sliding kernel ([`crate::mc::marching_cubes_indexed`]) emits. It
//! is the one mesh type of the workspace: the reference kernels append to it
//! too, three fresh vertices per triangle, so [`IndexedMesh::triangles`]
//! replays their triangle stream exactly.

use crate::mesh::{weld_key, Aabb, CanonVertex, Triangle, Vec3};
use crate::weld::{MeshWelder, WeldStats};

/// A triangle mesh with deduplicated vertices.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IndexedMesh {
    positions: Vec<Vec3>,
    /// Triangle corner indices into `positions`; length is a multiple of 3.
    indices: Vec<u32>,
}

impl IndexedMesh {
    /// Empty mesh.
    pub fn new() -> Self {
        Self::default()
    }

    /// Preallocate for roughly `tris` triangles (vertex count estimated at
    /// the isosurface-typical ~0.5 vertices per triangle).
    pub fn with_capacity(tris: usize) -> Self {
        IndexedMesh {
            positions: Vec::with_capacity(tris / 2 + 1),
            indices: Vec::with_capacity(tris * 3),
        }
    }

    /// Adopt whole position and index buffers without copying — how a wire
    /// decoder that moved both arrays in bulk hands them over. The caller
    /// has already established the mesh invariants (`indices.len()` a
    /// multiple of 3, every index `< positions.len()`); they are re-checked
    /// in debug builds only.
    pub fn from_parts(positions: Vec<Vec3>, indices: Vec<u32>) -> Self {
        debug_assert!(indices.len().is_multiple_of(3));
        debug_assert!(indices.iter().all(|&i| (i as usize) < positions.len()));
        IndexedMesh { positions, indices }
    }

    /// Number of triangles.
    #[inline]
    pub fn len(&self) -> usize {
        self.indices.len() / 3
    }

    /// Whether the mesh holds no triangles.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Number of (deduplicated) vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.positions.len()
    }

    /// Vertex positions.
    #[inline]
    pub fn positions(&self) -> &[Vec3] {
        &self.positions
    }

    /// Mutable vertex positions — for in-place deformation (e.g. the
    /// SurfaceNets smoothing passes) that never changes connectivity.
    #[inline]
    pub fn positions_mut(&mut self) -> &mut [Vec3] {
        &mut self.positions
    }

    /// Triangle corner indices (3 per triangle).
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Append a vertex, returning its index.
    #[inline]
    pub fn push_vertex(&mut self, p: Vec3) -> u32 {
        let i = self.positions.len() as u32;
        self.positions.push(p);
        i
    }

    /// Append one triangle by vertex indices.
    #[inline]
    pub fn push_triangle(&mut self, a: u32, b: u32, c: u32) {
        debug_assert!(
            (a as usize) < self.positions.len()
                && (b as usize) < self.positions.len()
                && (c as usize) < self.positions.len()
        );
        self.indices.extend_from_slice(&[a, b, c]);
    }

    /// Append `t` with three fresh vertices of its own, shared with no
    /// other triangle — how the reference kernels emit, so the mesh's
    /// [`IndexedMesh::triangles`] is their stream, unwelded.
    #[inline]
    pub(crate) fn push_fresh_triangle(&mut self, t: Triangle) {
        let a = self.positions.len() as u32;
        self.positions.extend_from_slice(&t.v);
        self.indices.extend_from_slice(&[a, a + 1, a + 2]);
    }

    /// Materialize triangle `i`.
    #[inline]
    pub fn triangle(&self, i: usize) -> Triangle {
        let base = 3 * i;
        Triangle {
            v: [
                self.positions[self.indices[base] as usize],
                self.positions[self.indices[base + 1] as usize],
                self.positions[self.indices[base + 2] as usize],
            ],
        }
    }

    /// Iterate materialized triangles.
    pub fn triangles(&self) -> impl ExactSizeIterator<Item = Triangle> + '_ {
        (0..self.len()).map(|i| self.triangle(i))
    }

    /// Drop all geometry, keeping allocations.
    pub fn clear(&mut self) {
        self.positions.clear();
        self.indices.clear();
    }

    /// Absorb `other`, rebasing its indices past this mesh's vertices.
    /// Vertices are **not** re-welded across the seam — merge is O(other).
    /// Use [`IndexedMesh::merge_welded`] when the seam must close.
    pub fn merge(&mut self, other: IndexedMesh) {
        let base = self.positions.len() as u32;
        self.positions.extend(other.positions);
        self.indices
            .extend(other.indices.into_iter().map(|i| i + base));
    }

    /// Append a run of vertices, returning their ids.
    pub(crate) fn extend_vertices(&mut self, run: &[Vec3]) -> std::ops::Range<u32> {
        let first = self.positions.len() as u32;
        self.positions.extend_from_slice(run);
        first..self.positions.len() as u32
    }

    /// Append another mesh's triangles with every corner sent through
    /// `remap` (that mesh's vertex id → this mesh's).
    pub(crate) fn extend_remapped(&mut self, indices: &[u32], remap: &[u32]) {
        self.indices
            .extend(indices.iter().map(|&i| remap[i as usize]));
    }

    /// Absorb `other` through `welder`, fusing vertices that quantize to the
    /// same [`crate::mesh::weld_key`] with vertices already welded into this
    /// mesh. The welder must have produced every prior triangle of `self`
    /// (start from an empty mesh and a fresh [`MeshWelder`]); triangles the
    /// weld collapses are dropped and counted, not emitted.
    pub fn merge_welded(&mut self, other: &IndexedMesh, welder: &mut MeshWelder) {
        welder.append(self, other);
    }

    /// Re-weld this mesh from scratch: fuse all quantized-duplicate vertices
    /// and drop exactly-degenerate (collapsed) triangles. Deterministic —
    /// first occurrence in triangle-stream order keeps its position — so
    /// equal meshes always weld to equal meshes.
    pub fn welded(&self) -> (IndexedMesh, WeldStats) {
        let mut out = IndexedMesh::with_capacity(self.len());
        let mut welder = MeshWelder::new();
        welder.append(&mut out, self);
        let stats = welder.finish(&out);
        (out, stats)
    }

    /// Canonical triangle multiset of this mesh: each triangle's vertices
    /// quantized by [`crate::mesh::weld_key`] and sorted, then the triangle
    /// list sorted. Two meshes describe the same surface iff their canonical
    /// multisets are equal — the comparator behind every kernel-equivalence
    /// test in the workspace.
    pub fn canonical_triangles(&self) -> Vec<[CanonVertex; 3]> {
        let keys: Vec<CanonVertex> = self.positions.iter().map(|&p| weld_key(p)).collect();
        let mut out: Vec<[CanonVertex; 3]> = self
            .indices
            .chunks_exact(3)
            .map(|tri| {
                let mut ks = [
                    keys[tri[0] as usize],
                    keys[tri[1] as usize],
                    keys[tri[2] as usize],
                ];
                ks.sort_unstable();
                ks
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Total surface area.
    pub fn area(&self) -> f64 {
        self.triangles().map(|t| t.area() as f64).sum()
    }

    /// Bounding box of all referenced vertices.
    pub fn bounds(&self) -> Aabb {
        let mut b = Aabb::empty();
        for &p in &self.positions {
            b.grow(p);
        }
        b
    }

    /// Extract the sub-mesh of triangles satisfying `keep`, compacting the
    /// vertex table to only the vertices those triangles reference (indices
    /// are renumbered; relative triangle and vertex order is preserved, so
    /// the same filter applied to equal meshes yields equal meshes). Used by
    /// the query server's region-restricted responses.
    pub fn filter_triangles(&self, mut keep: impl FnMut(&Triangle) -> bool) -> IndexedMesh {
        let mut remap = vec![u32::MAX; self.positions.len()];
        let mut out = IndexedMesh::new();
        for (i, tri) in self.triangles().enumerate() {
            if !keep(&tri) {
                continue;
            }
            let base = 3 * i;
            let mut corners = [0u32; 3];
            for (c, corner) in corners.iter_mut().enumerate() {
                let v = self.indices[base + c] as usize;
                if remap[v] == u32::MAX {
                    remap[v] = out.push_vertex(self.positions[v]);
                }
                *corner = remap[v];
            }
            out.push_triangle(corners[0], corners[1], corners[2]);
        }
        out
    }

    /// Triangles intersecting the axis-aligned box `[lo, hi]` (kept iff the
    /// triangle's own bounding box overlaps it).
    pub fn filter_region(&self, lo: Vec3, hi: Vec3) -> IndexedMesh {
        self.filter_triangles(|t| {
            let mut b = Aabb::empty();
            for &v in &t.v {
                b.grow(v);
            }
            b.lo.x <= hi.x
                && b.hi.x >= lo.x
                && b.lo.y <= hi.y
                && b.hi.y >= lo.y
                && b.lo.z <= hi.z
                && b.hi.z >= lo.z
        })
    }

    /// Export as a Wavefront OBJ file: one `v` line per vertex, one `f` line
    /// per triangle, so a welded mesh's file shows viewers its shared-vertex
    /// connectivity.
    pub fn write_obj(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "# oociso isosurface: {} vertices, {} triangles",
            self.num_vertices(),
            self.len()
        )?;
        for p in &self.positions {
            writeln!(out, "v {} {} {}", p.x, p.y, p.z)?;
        }
        for t in self.indices.chunks_exact(3) {
            writeln!(out, "f {} {} {}", t[0] + 1, t[1] + 1, t[2] + 1)?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quad() -> IndexedMesh {
        let mut m = IndexedMesh::new();
        let a = m.push_vertex(Vec3::ZERO);
        let b = m.push_vertex(Vec3::new(1.0, 0.0, 0.0));
        let c = m.push_vertex(Vec3::new(1.0, 1.0, 0.0));
        let d = m.push_vertex(Vec3::new(0.0, 1.0, 0.0));
        m.push_triangle(a, b, c);
        m.push_triangle(a, c, d);
        m
    }

    #[test]
    fn accounting_and_conversion() {
        let m = quad();
        assert_eq!(m.len(), 2);
        assert_eq!(m.num_vertices(), 4);
        assert!((m.area() - 1.0).abs() < 1e-6);
        let tris: Vec<Triangle> = m.triangles().collect();
        assert_eq!(tris.len(), 2);
        assert_eq!(tris[0].v[1], Vec3::new(1.0, 0.0, 0.0));
        let b = m.bounds();
        assert_eq!(b.lo, Vec3::ZERO);
        assert_eq!(b.hi, Vec3::new(1.0, 1.0, 0.0));
    }

    #[test]
    fn merge_rebases_indices() {
        let mut a = quad();
        let b = quad();
        a.merge(b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.num_vertices(), 8);
        assert_eq!(a.indices()[6], 4); // second quad's first corner rebased
        assert!((a.area() - 2.0).abs() < 1e-6);
        // merged mesh materializes the same triangles as two separate quads
        let t = a.triangle(2);
        assert_eq!(t.v[0], Vec3::ZERO);
    }

    #[test]
    fn filter_compacts_vertices_and_preserves_order() {
        let m = quad();
        // keep only the second triangle (a, c, d): vertex b must vanish
        let mut first = true;
        let kept = m.filter_triangles(|_| !std::mem::replace(&mut first, false));
        assert_eq!(kept.len(), 1);
        assert_eq!(kept.num_vertices(), 3, "unreferenced vertex not dropped");
        let t = kept.triangle(0);
        assert_eq!(t.v[0], Vec3::ZERO);
        assert_eq!(t.v[1], Vec3::new(1.0, 1.0, 0.0));
        assert_eq!(t.v[2], Vec3::new(0.0, 1.0, 0.0));
        // keep-all filter is the identity (same positions, same indices)
        let all = m.filter_triangles(|_| true);
        assert_eq!(all.positions(), m.positions());
        assert_eq!(all.indices(), m.indices());
        // region covering only the lower-left corner keeps both unit-quad
        // triangles (their bounding boxes touch it)
        let r = m.filter_region(Vec3::ZERO, Vec3::new(0.1, 0.1, 0.0));
        assert_eq!(r.len(), 2);
        // a region far away keeps nothing
        let far = m.filter_region(Vec3::new(5.0, 5.0, 5.0), Vec3::new(6.0, 6.0, 6.0));
        assert!(far.is_empty());
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut m = quad();
        let cap = m.positions.capacity();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.num_vertices(), 0);
        assert_eq!(m.positions.capacity(), cap);
    }

    #[test]
    fn obj_export_welds_vertices() {
        let m = quad();
        let mut p = std::env::temp_dir();
        p.push(format!("oociso_indexed_{}.obj", std::process::id()));
        m.write_obj(&p).unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        assert_eq!(text.lines().filter(|l| l.starts_with("v ")).count(), 4);
        assert_eq!(text.lines().filter(|l| l.starts_with("f ")).count(), 2);
        assert!(text.contains("f 1 3 4"));
        std::fs::remove_file(&p).ok();
    }
}

//! Mesh topology analysis: welding, components, Euler characteristic.
//!
//! Tools a downstream user needs to *verify* an extracted isosurface: weld
//! its vertices by quantized position, count connected components,
//! classify boundary vs interior edges, and compute the Euler characteristic
//! (2 per sphere-like closed component). The test suites use these to check
//! whole-pipeline watertightness.

use crate::indexed::IndexedMesh;
use crate::mesh::weld_key;
use std::collections::HashMap;

/// Summary topology report for a triangle mesh.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TopologyReport {
    /// Welded (position-unique) vertices.
    pub vertices: usize,
    /// Distinct undirected edges.
    pub edges: usize,
    /// Non-degenerate triangles.
    pub faces: usize,
    /// Edges incident to an odd number of faces (surface boundary — zero for
    /// a closed surface).
    pub boundary_edges: usize,
    /// Edges incident to more than two faces (pinched/self-touching surface —
    /// zero for a manifold mesh).
    pub non_manifold_edges: usize,
    /// Connected components (by shared welded vertices).
    pub components: usize,
}

impl TopologyReport {
    /// Euler characteristic `V - E + F`.
    pub fn euler_characteristic(&self) -> i64 {
        self.vertices as i64 - self.edges as i64 + self.faces as i64
    }

    /// Whether every edge is matched (no surface boundary).
    pub fn is_closed(&self) -> bool {
        self.boundary_edges == 0
    }

    /// Whether the surface is a closed 2-manifold: every edge has exactly
    /// two incident faces. The invariant the welded extraction path must
    /// uphold for closed isosurfaces.
    pub fn is_closed_manifold(&self) -> bool {
        self.boundary_edges == 0 && self.non_manifold_edges == 0
    }
}

/// Union-find over dense indices.
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }
    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x
    }
    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra as usize] = rb;
        }
    }
}

/// Shared core of the two mesh analyzers: walk non-degenerate triangles,
/// map each corner to a dense id through `resolve` (which assigns ids
/// lazily, so vertices that are unreferenced — or referenced only by
/// degenerate triangles — never count), and tally edges. `resolve` hands
/// out sequential ids from 0, so the vertex count is the largest id + 1.
fn analyze_mesh_resolved(
    mesh: &IndexedMesh,
    resolve: &mut dyn FnMut(usize) -> u32,
) -> TopologyReport {
    let mut edge_count: HashMap<(u32, u32), u32> = HashMap::new();
    let mut faces = 0usize;
    let mut tri_ids: Vec<[u32; 3]> = Vec::new();
    let mut num_ids = 0u32;
    for (i, tri) in mesh.indices().chunks_exact(3).enumerate() {
        if mesh.triangle(i).is_degenerate() {
            continue;
        }
        faces += 1;
        let mut ids = [0u32; 3];
        for (k, &pi) in tri.iter().enumerate() {
            let id = resolve(pi as usize);
            num_ids = num_ids.max(id + 1);
            ids[k] = id;
        }
        for j in 0..3 {
            let (a, b) = (ids[j], ids[(j + 1) % 3]);
            let e = if a < b { (a, b) } else { (b, a) };
            if a != b {
                *edge_count.entry(e).or_insert(0) += 1;
            }
        }
        tri_ids.push(ids);
    }
    finish_report(num_ids as usize, &edge_count, faces, &tri_ids)
}

/// Analyze a mesh as a surface: weld its vertices by [`weld_key`], then
/// count edges, faces and components. Degenerate (zero-area) triangles are
/// ignored. Each stored position is hashed once, so the report is the same
/// however the mesh shares its vertices — a welded mesh and its unwelded
/// triangle stream read alike.
pub fn analyze_mesh(mesh: &IndexedMesh) -> TopologyReport {
    let keys: Vec<(i64, i64, i64)> = mesh.positions().iter().map(|&p| weld_key(p)).collect();
    let mut pos_id: Vec<u32> = vec![u32::MAX; keys.len()];
    let mut vert_id: HashMap<(i64, i64, i64), u32> = HashMap::new();
    analyze_mesh_resolved(mesh, &mut |pi| {
        if pos_id[pi] == u32::MAX {
            let next = vert_id.len() as u32;
            pos_id[pi] = *vert_id.entry(keys[pi]).or_insert(next);
        }
        pos_id[pi]
    })
}

/// Analyze an [`IndexedMesh`] by its **raw index connectivity** — no
/// position welding at all. This is the mesh as downstream index-based
/// algorithms (decimation, LOD, GPU upload) see it: a surface merged from
/// unwelded sub-meshes reports a boundary along every seam here even though
/// [`analyze_mesh`] (which welds by quantized position) calls it closed.
/// The welded extraction path's guarantee is precisely that this report and
/// [`analyze_mesh`]'s agree.
pub fn analyze_mesh_connectivity(mesh: &IndexedMesh) -> TopologyReport {
    let mut pos_id: Vec<u32> = vec![u32::MAX; mesh.num_vertices()];
    let mut next = 0u32;
    analyze_mesh_resolved(mesh, &mut |pi| {
        if pos_id[pi] == u32::MAX {
            pos_id[pi] = next;
            next += 1;
        }
        pos_id[pi]
    })
}

fn finish_report(
    vertices: usize,
    edge_count: &HashMap<(u32, u32), u32>,
    faces: usize,
    tri_ids: &[[u32; 3]],
) -> TopologyReport {
    let mut uf = UnionFind::new(vertices);
    for ids in tri_ids {
        uf.union(ids[0], ids[1]);
        uf.union(ids[1], ids[2]);
    }
    let mut roots = std::collections::HashSet::new();
    for v in 0..vertices as u32 {
        let r = uf.find(v);
        roots.insert(r);
    }
    TopologyReport {
        vertices,
        edges: edge_count.len(),
        faces,
        boundary_edges: edge_count.values().filter(|&&c| c % 2 == 1).count(),
        non_manifold_edges: edge_count.values().filter(|&&c| c > 2).count(),
        components: roots.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mc::marching_cubes;
    use crate::mesh::{Triangle, Vec3};
    use oociso_volume::field::{AnalyticField, FieldExt, SphereField, TorusField};
    use oociso_volume::{Dims3, Volume};

    fn extract(f: &impl AnalyticField, level: f32, n: usize) -> IndexedMesh {
        let vol: Volume<f32> = f.sample(Dims3::cube(n));
        let mut mesh = IndexedMesh::new();
        marching_cubes(&vol, level, Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0), &mut mesh);
        mesh
    }

    #[test]
    fn sphere_topology() {
        let mesh = extract(&SphereField::centered(0.3, 128.0), 128.0, 24);
        let r = analyze_mesh(&mesh);
        assert!(r.is_closed());
        assert_eq!(r.components, 1);
        assert_eq!(r.euler_characteristic(), 2, "{r:?}");
    }

    #[test]
    fn torus_topology() {
        let f = TorusField {
            major: 0.3,
            minor: 0.1,
            level: 128.0,
            slope: 400.0,
        };
        let mesh = extract(&f, 128.0, 40);
        let r = analyze_mesh(&mesh);
        assert!(r.is_closed());
        assert_eq!(r.components, 1);
        assert_eq!(r.euler_characteristic(), 0, "genus-1: {r:?}");
    }

    #[test]
    fn two_spheres_two_components() {
        let f = |x: f32, y: f32, z: f32| {
            let a = SphereField {
                center: [0.28, 0.5, 0.5],
                radius: 0.15,
                level: 128.0,
                slope: 400.0,
            };
            let b = SphereField {
                center: [0.72, 0.5, 0.5],
                radius: 0.15,
                level: 128.0,
                slope: 400.0,
            };
            a.eval(x, y, z).max(b.eval(x, y, z))
        };
        let mesh = extract(&f, 128.0, 32);
        let r = analyze_mesh(&mesh);
        assert_eq!(r.components, 2, "{r:?}");
        assert!(r.is_closed());
        assert_eq!(r.euler_characteristic(), 4, "two spheres: {r:?}");
    }

    #[test]
    fn open_surface_has_boundary() {
        // a plane through the volume exits at the sides: boundary edges > 0
        let f = |_x: f32, _y: f32, z: f32| z * 255.0;
        let mesh = extract(&f, 128.0, 12);
        let r = analyze_mesh(&mesh);
        assert!(!r.is_closed());
        assert!(r.boundary_edges > 0);
        assert_eq!(r.components, 1);
    }

    #[test]
    fn degenerate_triangles_ignored() {
        let mut mesh = IndexedMesh::new();
        mesh.push_fresh_triangle(Triangle {
            v: [Vec3::ZERO, Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0)],
        });
        let r = analyze_mesh(&mesh);
        assert_eq!(r.faces, 0);
        assert_eq!(r.vertices, 0);
    }

    #[test]
    fn empty_soup() {
        let r = analyze_mesh(&IndexedMesh::new());
        assert_eq!(r.vertices, 0);
        assert_eq!(r.components, 0);
        assert!(r.is_closed());
    }

    #[test]
    fn analyze_mesh_matches_analyze_on_soup() {
        use crate::mc::{marching_cubes_indexed, SlabScratch};

        let f = TorusField {
            major: 0.3,
            minor: 0.1,
            level: 128.0,
            slope: 400.0,
        };
        // the oracle's unwelded stream, its welded copy and the slab
        // kernel's shared-vertex mesh are one surface
        let unwelded = extract(&f, 128.0, 28);
        assert!(!unwelded.is_empty());
        let r = analyze_mesh(&unwelded);
        assert_eq!(r, analyze_mesh(&unwelded.welded().0));
        assert!(r.is_closed_manifold(), "{r:?}");
        let vol: Volume<f32> = f.sample(Dims3::cube(28));
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
        assert_eq!(analyze_mesh(&mesh), r);
    }

    #[test]
    fn duplicated_vertex_seam_counts_boundary_edges_correctly() {
        // Two triangles sharing an edge, built the way `IndexedMesh::merge`
        // concatenates sub-meshes: the shared edge's endpoints are duplicated
        // vertex entries. Edge counting must run on *welded* ids, or the
        // shared edge reads as two boundary half-edges and the quad's true
        // boundary is overcounted.
        let mut quad = IndexedMesh::new();
        let a = quad.push_vertex(Vec3::ZERO);
        let b = quad.push_vertex(Vec3::new(1.0, 0.0, 0.0));
        let c = quad.push_vertex(Vec3::new(0.0, 1.0, 0.0));
        quad.push_triangle(a, b, c);
        // second triangle duplicates b and c instead of referencing them
        let b2 = quad.push_vertex(Vec3::new(1.0, 0.0, 0.0));
        let c2 = quad.push_vertex(Vec3::new(0.0, 1.0, 0.0));
        let d = quad.push_vertex(Vec3::new(1.0, 1.0, 0.0));
        quad.push_triangle(b2, d, c2);

        let r = analyze_mesh(&quad);
        assert_eq!(r.vertices, 4, "duplicated endpoints must fuse");
        assert_eq!(r.faces, 2);
        assert_eq!(r.edges, 5);
        assert_eq!(r.boundary_edges, 4, "only the quad outline is boundary");
        assert_eq!(r.non_manifold_edges, 0);
        assert!(!r.is_closed());

        // raw index connectivity sees what welding has not yet repaired: two
        // disconnected triangles, the seam edge duplicated into two boundary
        // halves
        let c = analyze_mesh_connectivity(&quad);
        assert_eq!(c.vertices, 6);
        assert_eq!(c.components, 2);
        assert_eq!(c.boundary_edges, 6);

        // welding the seam changes the storage, never the welded topology
        // report — and afterwards the connectivity view agrees with it
        let (welded, stats) = quad.welded();
        assert_eq!(welded.num_vertices(), 4);
        assert_eq!(stats.vertices_merged(), 2);
        // one seam edge = two open sides closed
        assert_eq!(c.boundary_edges - r.boundary_edges, 2);
        assert_eq!(analyze_mesh(&welded), r);
        assert_eq!(analyze_mesh_connectivity(&welded), r);
    }

    #[test]
    fn three_fan_triangles_make_a_non_manifold_edge() {
        let mut m = IndexedMesh::new();
        let a = m.push_vertex(Vec3::ZERO);
        let b = m.push_vertex(Vec3::new(0.0, 0.0, 1.0));
        for i in 0..3 {
            let t = i as f32 * 2.0;
            let wing = m.push_vertex(Vec3::new((1.0 + t).cos(), (1.0 + t).sin(), 0.5));
            m.push_triangle(a, b, wing);
        }
        let r = analyze_mesh(&m);
        assert_eq!(r.faces, 3);
        assert_eq!(r.non_manifold_edges, 1, "the shared spine edge");
        assert!(!r.is_closed_manifold());
        assert_eq!(r.boundary_edges, 7, "spine (3 faces = odd) + 6 wing edges");
    }

    #[test]
    fn analyze_mesh_welds_across_merge_seams() {
        // two copies of the same quad merged without re-welding: analyze_mesh
        // must fuse the duplicated positions as a re-weld does
        let mut a = IndexedMesh::new();
        let v0 = a.push_vertex(Vec3::ZERO);
        let v1 = a.push_vertex(Vec3::new(1.0, 0.0, 0.0));
        let v2 = a.push_vertex(Vec3::new(0.0, 1.0, 0.0));
        a.push_triangle(v0, v1, v2);
        let b = a.clone();
        a.merge(b);
        assert_eq!(a.num_vertices(), 6);
        let r = analyze_mesh(&a);
        assert_eq!(r.vertices, 3);
        assert_eq!(r.faces, 2);
        assert_eq!(r, analyze_mesh(&a.welded().0));
    }
}

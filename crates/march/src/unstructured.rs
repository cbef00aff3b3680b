//! Isosurface extraction over unstructured tetrahedral clusters.
//!
//! The unstructured half of §4's claim ("Our algorithm can handle both
//! structured and unstructured grids"): a [`TetCluster`] is the metacell
//! analogue — self-contained, fixed-size-ish, with a `(vmin, vmax)` interval
//! — so the compact interval tree indexes clusters exactly as it indexes
//! metacells, and this module triangulates whatever clusters a query
//! retrieves.

use crate::indexed::IndexedMesh;
use crate::mesh::Vec3;
use crate::mt::march_tet;
use oociso_volume::tetmesh::{TetCluster, TetMesh};

/// Triangulate one cluster at `iso` into `out` (unwelded, as
/// [`march_tet`] emits); returns the triangle count.
pub fn extract_cluster(cluster: &TetCluster, iso: f32, out: &mut IndexedMesh) -> u64 {
    let mut triangles = 0;
    for tet in &cluster.tets {
        let mut p = [Vec3::ZERO; 4];
        let mut v = [0.0f32; 4];
        for (k, &i) in tet.iter().enumerate() {
            let vert = cluster.vertices[i as usize];
            p[k] = Vec3::new(vert.pos[0], vert.pos[1], vert.pos[2]);
            v[k] = vert.value;
        }
        triangles += march_tet(p, v, iso, out);
    }
    triangles
}

/// Reference path: triangulate a whole mesh directly (no clustering/index) —
/// the oracle the indexed pipeline is validated against.
pub fn extract_mesh(mesh: &TetMesh, iso: f32, out: &mut IndexedMesh) -> u64 {
    let mut triangles = 0;
    for i in 0..mesh.num_tets() {
        let tet = mesh.tet(i);
        let mut p = [Vec3::ZERO; 4];
        let mut v = [0.0f32; 4];
        for (k, &vi) in tet.iter().enumerate() {
            let vert = mesh.vertex(vi);
            p[k] = Vec3::new(vert.pos[0], vert.pos[1], vert.pos[2]);
            v[k] = vert.value;
        }
        triangles += march_tet(p, v, iso, out);
    }
    triangles
}

#[cfg(test)]
mod tests {
    use super::*;
    use oociso_volume::field::{FieldExt, SphereField};
    use oociso_volume::{Dims3, Volume};

    fn sphere_mesh() -> TetMesh {
        // u8 sampling with a steep slope clamps the far field to 0, giving
        // genuinely constant corner clusters (the culling case); f32 fields
        // are smooth ramps with no exactly-constant regions.
        let f = SphereField {
            center: [0.5, 0.5, 0.5],
            radius: 0.25,
            level: 100.0,
            slope: 400.0,
        };
        let vol: Volume<u8> = f.sample(Dims3::cube(14));
        TetMesh::from_volume(&vol)
    }

    #[test]
    fn clustered_extraction_equals_whole_mesh() {
        let mesh = sphere_mesh();
        let mut whole = IndexedMesh::new();
        let n_whole = extract_mesh(&mesh, 100.0, &mut whole);
        let mut parts = IndexedMesh::new();
        let mut n_parts = 0;
        for c in mesh.clusters(48) {
            n_parts += extract_cluster(&c, 100.0, &mut parts);
        }
        assert_eq!(n_whole, n_parts);
        assert_eq!(whole.len(), parts.len());
        assert!((whole.area() - parts.area()).abs() < 1e-6 * whole.area());
        assert!(whole.len() > 100);
    }

    #[test]
    fn culling_constant_clusters_loses_nothing() {
        let mesh = sphere_mesh();
        let mut all = IndexedMesh::new();
        let mut kept = IndexedMesh::new();
        let mut culled = 0;
        for c in mesh.clusters(24) {
            extract_cluster(&c, 100.0, &mut all);
            if c.is_constant() {
                culled += 1;
            } else {
                extract_cluster(&c, 100.0, &mut kept);
            }
        }
        assert!(culled > 0, "corner clusters should be constant");
        assert_eq!(all.len(), kept.len());
    }

    #[test]
    fn interval_stabbing_selects_a_superset_of_active_clusters() {
        let mesh = sphere_mesh();
        for iso in [60.0f32, 100.0, 140.0] {
            let key = iso.key_for_test();
            for c in mesh.clusters(24) {
                let mut s = IndexedMesh::new();
                let produced = extract_cluster(&c, iso, &mut s) > 0;
                if produced {
                    let (lo, hi) = c.value_interval().unwrap();
                    assert!(
                        lo <= key && key <= hi,
                        "cluster {} produced triangles but interval misses iso",
                        c.id
                    );
                }
            }
        }
    }

    trait KeyForTest {
        fn key_for_test(self) -> u32;
    }
    impl KeyForTest for f32 {
        fn key_for_test(self) -> u32 {
            use oociso_volume::ScalarValue;
            self.key()
        }
    }
}

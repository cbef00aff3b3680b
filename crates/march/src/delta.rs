//! Collapse-record deltas between adjacent LOD levels.
//!
//! A [`crate::LodChain`] refines coarse→fine during a progressive serve, and
//! consecutive levels share most vertex *positions*: decimation removes
//! vertices but the survivors keep their coordinates bit-for-bit. A
//! [`MeshDelta`] encodes the finer mesh against the coarser one already on
//! the client — each vertex slot is either a reference into the previous
//! level's vertex array or a literal position — so a refinement chunk costs
//! 4 bytes per shared vertex instead of 12, with the index buffer sent
//! verbatim. Reconstruction is exact: [`MeshDelta::apply`] rebuilds the
//! finer mesh bit-identically to the input of [`MeshDelta::between`].
//!
//! Positions are matched by *bit pattern*, never by epsilon, so the codec is
//! deterministic and lossless even for NaN payloads; in the worst case (no
//! shared positions) every slot is a literal and the delta degenerates to
//! roughly the full encoding plus one bit per vertex.

use std::collections::HashMap;

use crate::indexed::IndexedMesh;
use crate::mesh::Vec3;

/// A finer mesh encoded against the previous (coarser) level.
///
/// `reused[i]` says whether vertex slot `i` comes from the previous mesh
/// (consume the next entry of `refs`) or is new (consume the next entry of
/// `literals`). Indices are the finer mesh's index buffer, unchanged.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MeshDelta {
    /// One flag per vertex slot of the finer mesh, in slot order.
    pub reused: Vec<bool>,
    /// For each `true` flag, the source vertex in the previous mesh.
    pub refs: Vec<u32>,
    /// For each `false` flag, the literal position.
    pub literals: Vec<Vec3>,
    /// The finer mesh's index buffer (multiple of 3, each `< reused.len()`).
    pub indices: Vec<u32>,
}

fn key(p: &Vec3) -> (u32, u32, u32) {
    (p.x.to_bits(), p.y.to_bits(), p.z.to_bits())
}

impl MeshDelta {
    /// Encode `next` against `prev`. Always succeeds; vertices of `next`
    /// whose bit-exact position also occurs in `prev` become references
    /// (first occurrence wins), everything else is a literal.
    pub fn between(prev: &IndexedMesh, next: &IndexedMesh) -> MeshDelta {
        let mut by_pos: HashMap<(u32, u32, u32), u32> = HashMap::with_capacity(prev.num_vertices());
        for (i, p) in prev.positions().iter().enumerate() {
            by_pos.entry(key(p)).or_insert(i as u32);
        }
        let mut delta = MeshDelta {
            reused: Vec::with_capacity(next.num_vertices()),
            refs: Vec::new(),
            literals: Vec::new(),
            indices: next.indices().to_vec(),
        };
        for p in next.positions() {
            match by_pos.get(&key(p)) {
                Some(&src) => {
                    delta.reused.push(true);
                    delta.refs.push(src);
                }
                None => {
                    delta.reused.push(false);
                    delta.literals.push(*p);
                }
            }
        }
        delta
    }

    /// Number of vertex slots in the finer mesh this delta reconstructs.
    pub fn num_vertices(&self) -> usize {
        self.reused.len()
    }

    /// Whether the flag/ref/literal stream is internally consistent (the
    /// wire decoder guarantees this by construction; hand-built deltas may
    /// not be).
    fn consistent(&self) -> bool {
        let reused = self.reused.iter().filter(|&&r| r).count();
        reused == self.refs.len()
            && self.reused.len() - reused == self.literals.len()
            && self.indices.len().is_multiple_of(3)
    }

    /// Reconstruct the finer mesh. Returns `None` if the delta is
    /// inconsistent, a reference points past `prev`'s vertices, or an index
    /// points past the reconstructed vertex count — a torn or hostile delta
    /// never yields a half-applied mesh.
    pub fn apply(&self, prev: &IndexedMesh) -> Option<IndexedMesh> {
        if !self.consistent() {
            return None;
        }
        let nvert = self.reused.len();
        let mut mesh = IndexedMesh::new();
        let (mut nref, mut nlit) = (0usize, 0usize);
        for &reused in &self.reused {
            let p = if reused {
                let src = self.refs[nref] as usize;
                nref += 1;
                *prev.positions().get(src)?
            } else {
                let p = self.literals[nlit];
                nlit += 1;
                p
            };
            mesh.push_vertex(p);
        }
        for tri in self.indices.chunks_exact(3) {
            if tri.iter().any(|&i| i as usize >= nvert) {
                return None;
            }
            mesh.push_triangle(tri[0], tri[1], tri[2]);
        }
        Some(mesh)
    }

    /// Serialized size of this delta's variable body on the wire (bitmap +
    /// refs + literals + indices, excluding fixed headers) — what the server
    /// compares against the full encoding before choosing per chunk.
    pub fn wire_bytes(&self) -> usize {
        self.reused.len().div_ceil(8)
            + self.refs.len() * 4
            + self.literals.len() * 12
            + self.indices.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decimate::{decimate_to_ratio, LodChain};
    use crate::mc::{marching_cubes_indexed, SlabScratch};
    use oociso_volume::field::{FieldExt, SphereField};
    use oociso_volume::{Dims3, Volume};

    fn sphere_mesh() -> IndexedMesh {
        let vol: Volume<f32> = SphereField::centered(0.33, 128.0).sample(Dims3::cube(15));
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

    #[test]
    fn roundtrip_is_bit_exact_across_a_real_lod_chain() {
        let chain = LodChain::build(sphere_mesh(), &[0.5, 0.25]);
        // Refinement order: coarse → fine, exactly how a progressive serve
        // streams them.
        for w in chain.levels().windows(2) {
            let (fine, coarse) = (&w[0].mesh, &w[1].mesh);
            let delta = MeshDelta::between(coarse, fine);
            let rebuilt = delta.apply(coarse).expect("self-encoded delta applies");
            assert_eq!(rebuilt.positions().len(), fine.positions().len());
            for (a, b) in rebuilt.positions().iter().zip(fine.positions()) {
                assert_eq!(key(a), key(b), "positions must match bit-for-bit");
            }
            assert_eq!(rebuilt.indices(), fine.indices());
            // Decimation keeps surviving positions bit-exact, so the delta
            // must actually find shared vertices (that is its whole point).
            assert!(
                !delta.refs.is_empty(),
                "adjacent LOD levels share no vertices?"
            );
        }
    }

    #[test]
    fn decimated_level_delta_is_smaller_than_full_encoding() {
        let base = sphere_mesh();
        let (coarse, _) = decimate_to_ratio(&base, 0.4);
        let delta = MeshDelta::between(&coarse, &base);
        let full = base.num_vertices() * 12 + base.indices().len() * 4;
        assert!(
            delta.wire_bytes() < full,
            "delta {} >= full {}",
            delta.wire_bytes(),
            full
        );
    }

    #[test]
    fn disjoint_meshes_degenerate_to_literals() {
        let mut a = IndexedMesh::new();
        a.push_vertex(Vec3::new(0.0, 0.0, 0.0));
        a.push_vertex(Vec3::new(1.0, 0.0, 0.0));
        a.push_vertex(Vec3::new(0.0, 1.0, 0.0));
        a.push_triangle(0, 1, 2);
        let mut b = IndexedMesh::new();
        b.push_vertex(Vec3::new(5.0, 5.0, 5.0));
        b.push_vertex(Vec3::new(6.0, 5.0, 5.0));
        b.push_vertex(Vec3::new(5.0, 6.0, 5.0));
        b.push_triangle(0, 1, 2);
        let delta = MeshDelta::between(&a, &b);
        assert!(delta.refs.is_empty());
        assert_eq!(delta.literals.len(), 3);
        let rebuilt = delta.apply(&a).unwrap();
        assert_eq!(rebuilt.positions(), b.positions());
        assert_eq!(rebuilt.indices(), b.indices());
    }

    #[test]
    fn empty_meshes_roundtrip() {
        let empty = IndexedMesh::new();
        let delta = MeshDelta::between(&empty, &empty);
        let rebuilt = delta.apply(&empty).unwrap();
        assert!(rebuilt.is_empty());
        assert_eq!(rebuilt.num_vertices(), 0);
    }

    #[test]
    fn hostile_deltas_are_rejected_not_applied() {
        let mut prev = IndexedMesh::new();
        prev.push_vertex(Vec3::new(0.0, 0.0, 0.0));
        // Reference past the previous mesh.
        let d = MeshDelta {
            reused: vec![true],
            refs: vec![7],
            literals: vec![],
            indices: vec![],
        };
        assert!(d.apply(&prev).is_none());
        // Index past the reconstructed vertex count.
        let d = MeshDelta {
            reused: vec![false],
            refs: vec![],
            literals: vec![Vec3::ZERO],
            indices: vec![0, 0, 1],
        };
        assert!(d.apply(&prev).is_none());
        // Flag stream disagreeing with the ref/literal streams.
        let d = MeshDelta {
            reused: vec![true, false],
            refs: vec![0, 0],
            literals: vec![],
            indices: vec![],
        };
        assert!(d.apply(&prev).is_none());
    }
}

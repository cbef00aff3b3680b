//! Seam welding: fuse duplicated vertices across sub-mesh boundaries.
//!
//! The out-of-core pipeline triangulates every metacell (and every cluster
//! node) independently, so a merged [`IndexedMesh`] carries one copy of each
//! boundary crossing **per side of the seam** and the surface is watertight
//! only per metacell. [`MeshWelder`] is the deterministic join that repairs
//! this: vertices are keyed by [`weld_key`] — the workspace's single
//! quantization rule, shared with [`crate::topology`] and
//! [`crate::mesh::canonical_triangles`] — and every key keeps its **first
//! occurrence in triangle-stream order** as the representative. Because the
//! join depends only on the concatenated triangle stream, welding the same
//! stream split into any sequence of parts (per record, per worker chunk,
//! per node) produces byte-identical output, which is what keeps the
//! streaming and batch extraction paths bit-equal after welding.
//!
//! # Candidates: hash the seam set, not the mesh
//!
//! A vertex needs the hash table only if another vertex can carry its key.
//! The slab kernel knows which of its vertices can — a crossing whose
//! lattice edge lies on a block face, or one that quantizes onto an endpoint
//! of its edge ([`crate::mc::marching_cubes_indexed`]) — and hands their ids
//! on as the part's *candidates*; on smooth fields they are somewhat under
//! half of the parts' vertices (44 % on the 160×160×150 sweep of
//! `docs/perf.md`). [`MeshWelder::append_seams`] looks up candidates
//! only and gives every other vertex a fresh output id at its first use,
//! which is exactly what the table would have answered for a key nobody
//! shares — so the output is byte-identical to the all-vertices join.
//! [`MeshWelder::append`] is that same routine with every vertex a
//! candidate, for meshes of unknown origin. The welder carries the candidate
//! ids of its *output* forward ([`MeshWelder::seams`]), so welded meshes
//! join each other without being re-welded: [`MeshWelder::append_welded`]
//! scans a welded part's vertices once (candidate → look up, else push) and
//! remaps its indices — no triangle of a welded part can collapse, because
//! keys are unique within it. A join of welded meshes continues the welder
//! that built the first of them ([`MeshWelder::begin_stage`]), whose table
//! already holds that mesh's seams.
//!
//! Quantized welding can collapse a triangle whose crossings coincide (an
//! isosurface passing exactly through a cell corner emits several crossings
//! at the same lattice point): such exactly-degenerate triangles are dropped
//! and counted rather than emitted as zero-area slivers.

use crate::indexed::IndexedMesh;
use crate::mesh::{weld_key, CanonVertex, Vec3};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash (the multiply-rotate hash rustc itself uses for interning): the
/// weld join hashes a few small fixed-size keys per triangle, where the
/// default SipHash's DoS resistance costs several times the whole join —
/// these keys are derived from mesh geometry, not attacker-controlled input.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.add(n as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxBuild = BuildHasherDefault<FxHasher>;

/// Counters describing one weld pass (or, summed, several).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WeldStats {
    /// Vertices across all appended input parts.
    pub input_vertices: u64,
    /// Distinct welded vertices emitted.
    pub output_vertices: u64,
    /// Triangles across all appended input parts.
    pub input_triangles: u64,
    /// Triangles dropped because welding collapsed two or more of their
    /// corners onto the same quantized vertex (exactly zero area).
    pub degenerate_dropped: u64,
    /// Input vertices that went through the hash join — the candidates a
    /// kept triangle references. The rest of `input_vertices` were placed
    /// without a lookup (or belonged to dropped triangles only).
    pub hashed_vertices: u64,
}

impl WeldStats {
    /// Vertices eliminated by the weld.
    pub fn vertices_merged(&self) -> u64 {
        self.input_vertices.saturating_sub(self.output_vertices)
    }

    /// Component-wise sum — aggregate counters over several weld stages
    /// (per-node welds plus the cross-node merge weld).
    pub fn merged(&self, other: &WeldStats) -> WeldStats {
        WeldStats {
            input_vertices: self.input_vertices + other.input_vertices,
            output_vertices: self.output_vertices + other.output_vertices,
            input_triangles: self.input_triangles + other.input_triangles,
            degenerate_dropped: self.degenerate_dropped + other.degenerate_dropped,
            hashed_vertices: self.hashed_vertices + other.hashed_vertices,
        }
    }
}

/// "This part vertex has no key" / "not resolved yet" in the per-part tables.
const NONE: u32 = u32::MAX;

/// The deterministic hash-join welder behind [`IndexedMesh::merge_welded`].
///
/// One welder serves one output mesh: create it alongside an (empty) output,
/// append every part in order, then [`MeshWelder::finish`] for the stats.
/// Cloning copies the table, so a clone continues the same output.
/// Vertices the input never references from a kept triangle are not copied
/// to the output, so a welded mesh has no orphan vertices and its vertices
/// are in first-use order.
#[derive(Clone, Debug, Default)]
pub struct MeshWelder {
    /// Quantized position → output vertex index (first occurrence wins).
    /// Holds candidates only: a vertex placed without a lookup is never
    /// looked up by anyone else either.
    ids: HashMap<CanonVertex, u32, FxBuild>,
    /// Output ids of the vertices in `ids`, ascending (ids are handed out in
    /// increasing order) — the output's own candidate list.
    seams: Vec<u32>,
    stats: WeldStats,
}

impl MeshWelder {
    /// A fresh welder for a new output mesh.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a new stage of counters on the same output: from here on the
    /// stats read as if `out` — this welder's output so far — had been
    /// appended as one welded part. Its seams stay in the table, so nothing
    /// is re-hashed; a cross-node merge continues the first node's welder
    /// this way and reports only the join's own work.
    pub fn begin_stage(&mut self, out: &IndexedMesh) {
        self.stats = WeldStats {
            input_vertices: out.num_vertices() as u64,
            input_triangles: out.len() as u64,
            ..Default::default()
        };
    }

    /// The output id of candidate position `p`: its key's representative,
    /// which `p` becomes if it is the first to carry the key.
    #[inline]
    fn lookup(&mut self, out: &mut IndexedMesh, p: Vec3, key: CanonVertex) -> u32 {
        self.stats.hashed_vertices += 1;
        let seams = &mut self.seams;
        *self.ids.entry(key).or_insert_with(|| {
            let id = out.push_vertex(p);
            seams.push(id);
            id
        })
    }

    /// Weld `part`'s triangles onto `out`, every vertex a candidate — the
    /// general entry, for parts that come with no candidate list. Triangles
    /// keep their stream order; each quantized position is materialized in
    /// `out` at its first kept-triangle use; triangles whose corners
    /// collapse are dropped.
    pub fn append(&mut self, out: &mut IndexedMesh, part: &IndexedMesh) {
        let all: Vec<u32> = (0..part.num_vertices() as u32).collect();
        self.append_seams(out, part, &all);
    }

    /// [`MeshWelder::append`] looking up only `candidates`: the ascending
    /// ids of the `part` vertices that may share a [`weld_key`] with another
    /// vertex of any part of this weld. The caller guarantees every other
    /// vertex is alone under its key (the slab kernel's candidate rule does);
    /// the output is then byte-identical to [`MeshWelder::append`]'s.
    pub fn append_seams(&mut self, out: &mut IndexedMesh, part: &IndexedMesh, candidates: &[u32]) {
        let positions = part.positions();
        let keys: Vec<CanonVertex> = candidates
            .iter()
            .map(|&v| weld_key(positions[v as usize]))
            .collect();
        // part vertex → its slot in `keys`, NONE for the key-less majority
        let mut key_of: Vec<u32> = vec![NONE; positions.len()];
        for (k, &v) in candidates.iter().enumerate() {
            key_of[v as usize] = k as u32;
        }
        // per-part memo of resolved output ids: each part vertex is placed
        // (or looked up) at most once however many triangles reference it
        let mut local: Vec<u32> = vec![NONE; positions.len()];
        self.ids.reserve(keys.len());
        self.stats.input_vertices += positions.len() as u64;
        self.stats.input_triangles += part.len() as u64;
        for tri in part.indices().chunks_exact(3) {
            let v = [tri[0] as usize, tri[1] as usize, tri[2] as usize];
            let k = v.map(|v| key_of[v]);
            // two corners coincide iff they are one vertex or carry one key;
            // a key-less corner is alone under its key by contract
            let same = |i: usize, j: usize| {
                v[i] == v[j]
                    || (k[i] != NONE && k[j] != NONE && keys[k[i] as usize] == keys[k[j] as usize])
            };
            if same(0, 1) || same(1, 2) || same(2, 0) {
                self.stats.degenerate_dropped += 1;
                continue;
            }
            let mut ids = [0u32; 3];
            for c in 0..3 {
                if local[v[c]] == NONE {
                    let p = positions[v[c]];
                    local[v[c]] = match k[c] {
                        NONE => out.push_vertex(p),
                        slot => self.lookup(out, p, keys[slot as usize]),
                    };
                }
                ids[c] = local[v[c]];
            }
            out.push_triangle(ids[0], ids[1], ids[2]);
        }
    }

    /// Join an already **welded** `part` (in first-use vertex order, no
    /// orphans, keys unique within it — what this welder's own output is)
    /// with its `candidates` onto `out` without re-welding it: one ascending
    /// vertex scan, candidates looked up and the runs between them copied,
    /// then a straight index remap. Byte-identical to
    /// [`MeshWelder::append_seams`] on the same input, which would find
    /// every vertex at its first use in this same order and no triangle to
    /// drop.
    pub fn append_welded(&mut self, out: &mut IndexedMesh, part: &IndexedMesh, candidates: &[u32]) {
        let positions = part.positions();
        let mut remap: Vec<u32> = Vec::with_capacity(positions.len());
        self.ids.reserve(candidates.len());
        let mut run_start = 0usize;
        for &c in candidates {
            let c = c as usize;
            remap.extend(out.extend_vertices(&positions[run_start..c]));
            remap.push(self.lookup(out, positions[c], weld_key(positions[c])));
            run_start = c + 1;
        }
        remap.extend(out.extend_vertices(&positions[run_start..]));
        out.extend_remapped(part.indices(), &remap);
        self.stats.input_vertices += positions.len() as u64;
        self.stats.input_triangles += part.len() as u64;
    }

    /// The counters so far. `out` must be the output mesh this welder's
    /// appends produced (every vertex of it is one the weld emitted).
    pub fn stats(&self, out: &IndexedMesh) -> WeldStats {
        WeldStats {
            output_vertices: out.num_vertices() as u64,
            ..self.stats
        }
    }

    /// Finish the join and report its counters ([`MeshWelder::stats`]).
    pub fn finish(self, out: &IndexedMesh) -> WeldStats {
        self.stats(out)
    }

    /// The output's candidate list: the ascending ids of the output
    /// vertices that may still share a key with a vertex of a mesh welded
    /// elsewhere — what [`MeshWelder::append_welded`] takes.
    pub fn seams(&self) -> &[u32] {
        &self.seams
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::Vec3;
    use crate::topology::analyze_mesh;

    /// One unit right triangle with fresh vertices at `z`.
    fn tri(m: &mut IndexedMesh, z: f32) {
        let a = m.push_vertex(Vec3::new(0.0, 0.0, z));
        let b = m.push_vertex(Vec3::new(1.0, 0.0, z));
        let c = m.push_vertex(Vec3::new(0.0, 1.0, z));
        m.push_triangle(a, b, c);
    }

    #[test]
    fn welds_duplicate_vertices_across_parts() {
        let mut a = IndexedMesh::new();
        tri(&mut a, 0.0);
        let mut b = IndexedMesh::new();
        // shares the (0,0,0)-(1,0,0) edge with `a` via duplicated vertices
        let p = b.push_vertex(Vec3::new(0.0, 0.0, 0.0));
        let q = b.push_vertex(Vec3::new(1.0, 0.0, 0.0));
        let r = b.push_vertex(Vec3::new(1.0, -1.0, 0.0));
        b.push_triangle(p, r, q);

        let mut out = IndexedMesh::new();
        let mut w = MeshWelder::new();
        w.append(&mut out, &a);
        w.append(&mut out, &b);
        let stats = w.finish(&out);
        assert_eq!(out.len(), 2);
        assert_eq!(out.num_vertices(), 4, "shared edge endpoints fused");
        assert_eq!(stats.input_vertices, 6);
        assert_eq!(stats.output_vertices, 4);
        assert_eq!(stats.vertices_merged(), 2);
        assert_eq!(stats.degenerate_dropped, 0);
        assert_eq!(stats.hashed_vertices, 6, "the general entry hashes all");
    }

    #[test]
    fn seam_append_hashes_candidates_only_and_equals_the_general_join() {
        // same two triangles; only the shared edge's endpoints can have a
        // twin, so only they are named
        let mut a = IndexedMesh::new();
        tri(&mut a, 0.0);
        let mut b = IndexedMesh::new();
        let r = b.push_vertex(Vec3::new(1.0, -1.0, 0.0));
        let p = b.push_vertex(Vec3::new(0.0, 0.0, 0.0));
        let q = b.push_vertex(Vec3::new(1.0, 0.0, 0.0));
        b.push_triangle(p, r, q);

        let mut general = IndexedMesh::new();
        let mut w = MeshWelder::new();
        w.append(&mut general, &a);
        w.append(&mut general, &b);
        let general_stats = w.finish(&general);

        let mut seam = IndexedMesh::new();
        let mut w = MeshWelder::new();
        w.append_seams(&mut seam, &a, &[0, 1]);
        w.append_seams(&mut seam, &b, &[1, 2]);
        assert_eq!(w.seams(), [0, 1], "the output's candidates, as output ids");
        let seam_stats = w.finish(&seam);
        assert_eq!(seam, general);
        assert_eq!(seam_stats.hashed_vertices, 4);
        assert_eq!(
            WeldStats {
                hashed_vertices: general_stats.hashed_vertices,
                ..seam_stats
            },
            general_stats
        );
    }

    #[test]
    fn welded_meshes_join_by_remap_exactly_as_by_rewelding() {
        // two welded quads sharing the x = 1 edge, plus an empty mesh in
        // front: continuing the first mesh's welder with append_welded ≡
        // welding the concatenation
        let quad = |x: f32| {
            let mut m = IndexedMesh::new();
            let a = m.push_vertex(Vec3::new(x, 0.0, 0.0));
            let b = m.push_vertex(Vec3::new(x + 1.0, 0.0, 0.0));
            let c = m.push_vertex(Vec3::new(x, 1.0, 0.0));
            let d = m.push_vertex(Vec3::new(x + 1.0, 1.0, 0.0));
            m.push_triangle(a, b, c);
            m.push_triangle(b, d, c);
            m
        };
        let (left, right) = (quad(0.0), quad(1.0));
        for lead_empty in [false, true] {
            let mut parts = vec![(left.clone(), vec![1, 3]), (right.clone(), vec![0, 2])];
            if lead_empty {
                parts.insert(0, (IndexedMesh::new(), Vec::new()));
            }
            let mut concat = IndexedMesh::new();
            for (m, _) in &parts {
                concat.merge(m.clone());
            }
            let (expect, expect_stats) = concat.welded();

            let mut parts = parts.into_iter();
            // the first mesh as its own weld produced it: its seams hashed
            let (first, first_candidates) = parts.next().unwrap();
            let mut out = IndexedMesh::new();
            let mut w = MeshWelder::new();
            w.append_seams(&mut out, &first, &first_candidates);
            assert_eq!(out, first, "a welded mesh welds to itself");
            w.begin_stage(&out);
            for (m, candidates) in parts {
                w.append_welded(&mut out, &m, &candidates);
            }
            assert_eq!(w.seams(), [1, 3], "right's twins resolved onto left's");
            let stats = w.finish(&out);
            assert_eq!(out, expect, "lead_empty={lead_empty}");
            assert_eq!(out.num_vertices(), 6);
            // the stage hashes what the first mesh's weld had not: right's
            // seams, and left's when left comes second
            let hashed = if lead_empty { 4 } else { 2 };
            assert_eq!(stats.hashed_vertices, hashed);
            assert_eq!(
                WeldStats {
                    hashed_vertices: expect_stats.hashed_vertices,
                    ..stats
                },
                expect_stats
            );
        }
    }

    #[test]
    fn split_points_do_not_change_the_join() {
        // welding [a, b] part-by-part ≡ welding their blind concatenation:
        // the join only sees the triangle stream
        let mut a = IndexedMesh::new();
        tri(&mut a, 0.0);
        tri(&mut a, 0.0);
        let mut b = IndexedMesh::new();
        tri(&mut b, 0.0);
        tri(&mut b, 1.0);

        let mut parts = IndexedMesh::new();
        let mut w1 = MeshWelder::new();
        w1.append(&mut parts, &a);
        w1.append(&mut parts, &b);

        let mut concat = a.clone();
        concat.merge(b);
        let (whole, whole_stats) = concat.welded();
        assert_eq!(parts, whole);
        assert_eq!(w1.finish(&parts), whole_stats);
    }

    #[test]
    fn collapsed_triangles_are_dropped_not_emitted() {
        let mut m = IndexedMesh::new();
        tri(&mut m, 0.0);
        // a triangle whose corners quantize to one point: must vanish, and
        // its (otherwise unreferenced) vertices must not leak into the output
        let s = m.push_vertex(Vec3::new(5.0, 5.0, 5.0));
        let t = m.push_vertex(Vec3::new(5.0, 5.0, 5.0));
        let u = m.push_vertex(Vec3::new(5.0, 5.0 + 1e-8, 5.0));
        m.push_triangle(s, t, u);
        let (out, stats) = m.welded();
        assert_eq!(out.len(), 1);
        assert_eq!(out.num_vertices(), 3, "no orphan vertices");
        assert_eq!(stats.degenerate_dropped, 1);
        assert_eq!(stats.input_triangles, 2);
        let r = analyze_mesh(&out);
        assert_eq!(r.vertices, out.num_vertices());
        assert_eq!(r.faces, out.len());
    }

    #[test]
    fn welding_an_already_welded_mesh_is_identity() {
        let mut m = IndexedMesh::new();
        let a = m.push_vertex(Vec3::new(0.0, 0.0, 0.0));
        let b = m.push_vertex(Vec3::new(1.0, 0.0, 0.0));
        let c = m.push_vertex(Vec3::new(0.0, 1.0, 0.0));
        let d = m.push_vertex(Vec3::new(1.0, 1.0, 0.0));
        m.push_triangle(a, b, c);
        m.push_triangle(b, d, c);
        let (out, stats) = m.welded();
        assert_eq!(out, m);
        assert_eq!(stats.vertices_merged(), 0);
        assert_eq!(stats.degenerate_dropped, 0);
    }

    #[test]
    fn empty_mesh_welds_to_empty() {
        let (out, stats) = IndexedMesh::new().welded();
        assert!(out.is_empty());
        assert_eq!(stats, WeldStats::default());
    }
}

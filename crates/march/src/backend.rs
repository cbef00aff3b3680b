//! The extraction-kernel seam.
//!
//! The cluster pipeline decodes active metacell records into dense
//! sub-volumes and hands each one to an [`ExtractionBackend`]: the block
//! contract below is what a kernel must satisfy to ride the streaming
//! pipeline. Two backends ship today: the slab-sliding Marching Cubes
//! kernel ([`crate::mc::marching_cubes_indexed`]) and Kitware-style
//! SurfaceNets ([`crate::surface_nets`]). What the extraction does with a
//! kernel's parts is decided in two functions of `oociso-cluster`'s
//! `cluster/merge.rs`, and a new kernel adds an arm to each: `join_part`
//! joins each part into its node's output (MC welds on its candidates,
//! SurfaceNets concatenates) and `merge_nodes` joins the node outputs (MC
//! remap-welds the node meshes, SurfaceNets stitches its seam quads and
//! smooths). The server extracts with MC only; SurfaceNets is a library
//! and offline (`oociso extract --backend surfacenets`) backend.
//!
//! # The block contract
//!
//! A *block* is a dense sample box (a metacell record, or the whole volume)
//! whose cells the backend owns exclusively: blocks partition the dataset's
//! cells, overlapping only by one shared sample layer per face. A backend
//! must emit, per call:
//!
//! * triangles whose vertices depend **only on the block's own samples** —
//!   so any decomposition of the volume into blocks yields the same surface;
//! * for kernels whose primitives span block seams (SurfaceNets quads around
//!   a crossing lattice edge touch up to four blocks), the vertex→cell
//!   mapping ([`BlockOutput::cells`]) and the deferred seam quads
//!   ([`BlockOutput::seams`]) that the merge stage resolves globally. The
//!   block that owns the *minimum* cell around a crossing edge emits it, so
//!   every seam quad is emitted exactly once cluster-wide;
//! * for kernels that duplicate vertices along block seams (MC emits one
//!   copy of a face crossing per adjacent block), the ids of the vertices
//!   that can have such a twin ([`BlockOutput::weld_candidates`]), so the
//!   weld joins the seam set instead of the whole mesh.
//!
//! Backends are **not** required to produce identical geometry to each
//! other. The cross-backend guarantee is by *topology equivalence class*:
//! on a closed, well-resolved isosurface every backend must produce a
//! closed 2-manifold with the same Euler characteristic (proptested over
//! the field zoo in `tests/watertight.rs`).

use crate::indexed::IndexedMesh;
use crate::mc::{marching_cubes_indexed, McStats, SlabScratch};
use crate::mesh::Vec3;
use crate::surface_nets::{sn_block, SnScratch};
use oociso_volume::{Dims3, ScalarValue, Volume};

/// Which extraction kernel produces the surface. The enum is the unit of
/// dispatch everywhere outside `march` (extract options, the CLI's
/// `extract --backend`); [`Backend::instance`] resolves it to the kernel
/// object.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Backend {
    /// Slab-sliding indexed Marching Cubes — the reference-quality default.
    #[default]
    Mc,
    /// High-performance SurfaceNets (arXiv:2401.14906): one vertex per
    /// active cell, quad-dominant output, bounded smoothing. Fewer
    /// primitives and a cheaper kernel than MC at the same resolution.
    SurfaceNets,
}

impl Backend {
    /// Every backend, in wire-id order.
    pub const ALL: [Backend; 2] = [Backend::Mc, Backend::SurfaceNets];

    /// Stable wire/cache identifier (protocol v4, cache keys).
    pub const fn id(self) -> u8 {
        match self {
            Backend::Mc => 0,
            Backend::SurfaceNets => 1,
        }
    }

    /// Inverse of [`Backend::id`]; `None` for unknown identifiers.
    pub fn from_id(id: u8) -> Option<Backend> {
        match id {
            0 => Some(Backend::Mc),
            1 => Some(Backend::SurfaceNets),
            _ => None,
        }
    }

    /// CLI/display name.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Mc => "mc",
            Backend::SurfaceNets => "surfacenets",
        }
    }

    /// The kernel object for this backend (zero-sized, so the trait object
    /// costs one vtable pointer and no allocation).
    pub fn instance<S: ScalarValue>(self) -> &'static dyn ExtractionBackend<S> {
        match self {
            Backend::Mc => &McBackend,
            Backend::SurfaceNets => &SurfaceNetsBackend,
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "mc" => Ok(Backend::Mc),
            "surfacenets" | "sn" => Ok(Backend::SurfaceNets),
            other => Err(format!("unknown backend '{other}' (mc|surfacenets)")),
        }
    }
}

/// Where a block sits inside the global dataset — what a backend needs to
/// make globally consistent decisions (cell keys, seam ownership, volume
/// boundaries) from purely local samples.
#[derive(Clone, Copy, Debug)]
pub struct BlockDomain {
    /// Global sample coordinate of the block volume's `(0,0,0)` sample.
    /// Also the block's world origin: the pipeline's world space is global
    /// sample coordinates at unit scale.
    pub origin: (usize, usize, usize),
    /// Sample dims of the whole dataset, for volume-boundary decisions.
    pub volume_dims: Dims3,
}

impl BlockDomain {
    /// A domain covering a whole standalone volume.
    pub fn whole(dims: Dims3) -> BlockDomain {
        BlockDomain {
            origin: (0, 0, 0),
            volume_dims: dims,
        }
    }
}

/// Pack global cell coordinates into one key (21 bits per axis — ample for
/// any volume the index addresses).
#[inline]
pub fn pack_cell(x: usize, y: usize, z: usize) -> u64 {
    debug_assert!(x < (1 << 21) && y < (1 << 21) && z < (1 << 21));
    (x as u64) | ((y as u64) << 21) | ((z as u64) << 42)
}

/// Inverse of [`pack_cell`].
#[inline]
pub fn unpack_cell(key: u64) -> (usize, usize, usize) {
    const M: u64 = (1 << 21) - 1;
    (
        (key & M) as usize,
        ((key >> 21) & M) as usize,
        ((key >> 42) & M) as usize,
    )
}

/// One quad of a seam-spanning crossing edge, deferred to the global merge.
/// The quad's four corners are the SurfaceNets vertices of the four cells
/// around the lattice edge `base → base + e_axis`; their keys derive from
/// `base`, so the struct stays 16 bytes and sorts into a canonical,
/// partition-independent emission order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeamQuad {
    /// Global coordinates of the edge's base sample.
    pub base: (u32, u32, u32),
    /// Lattice axis of the crossing edge (0 = x, 1 = y, 2 = z).
    pub axis: u8,
    /// Sign at the base sample: `true` when `sample(base) < iso`, which
    /// orients the quad so its normal faces the `≥ iso` side.
    pub inside_at_base: bool,
}

/// Per-axis perpendicular axis pair `(b, c)` with `(axis, b, c)`
/// right-handed, shared by interior-quad winding and seam resolution.
pub(crate) const PERP: [(usize, usize); 3] = [(1, 2), (2, 0), (0, 1)];

impl SeamQuad {
    /// The four cell keys around the edge, in winding order (normal toward
    /// the `≥ iso` side).
    pub fn cell_ring(&self) -> [u64; 4] {
        let p = [
            self.base.0 as usize,
            self.base.1 as usize,
            self.base.2 as usize,
        ];
        let (b, c) = PERP[self.axis as usize];
        let cell = |db: usize, dc: usize| {
            let mut q = p;
            q[b] -= 1 - db;
            q[c] -= 1 - dc;
            pack_cell(q[0], q[1], q[2])
        };
        // counter-clockwise around +axis; flip when the base sample is on
        // the ≥ iso side so normals match the MC convention
        if self.inside_at_base {
            [cell(0, 0), cell(1, 0), cell(1, 1), cell(0, 1)]
        } else {
            [cell(0, 0), cell(0, 1), cell(1, 1), cell(1, 0)]
        }
    }
}

/// What one backend call appends: the triangles it could resolve locally,
/// plus (for seam-spanning kernels) the vertex→cell map and deferred seam
/// quads the merge stage resolves once all blocks are in.
#[derive(Clone, Debug, Default)]
pub struct BlockOutput {
    /// Locally resolvable geometry, appended in deterministic block order.
    pub mesh: IndexedMesh,
    /// SurfaceNets: the packed global cell key of each mesh vertex,
    /// parallel to `mesh.positions()`. Empty for MC (whose vertices sit on
    /// lattice edges, not in cells).
    pub cells: Vec<u64>,
    /// SurfaceNets: crossing edges whose quad spans block seams, emitted by
    /// the block owning the minimum surrounding cell.
    pub seams: Vec<SeamQuad>,
    /// MC: ascending ids of the `mesh` vertices that may share a
    /// [`crate::mesh::weld_key`] with another vertex (see
    /// [`marching_cubes_indexed`]) — the only ones the seam weld hashes.
    /// Ids are absolute within `mesh`, so calls accumulating into one output
    /// keep one valid list. Empty for SurfaceNets, whose vertices are
    /// globally unique by cell ownership.
    pub weld_candidates: Vec<u32>,
}

impl BlockOutput {
    /// Empty every member, keeping the allocations for the next block.
    pub fn clear(&mut self) {
        self.mesh.clear();
        self.cells.clear();
        self.seams.clear();
        self.weld_candidates.clear();
    }
}

/// Reusable per-worker working memory for any backend — hold one per
/// worker thread, feed it to every block. Both members are lazily sized,
/// so the unused backend's half stays empty.
#[derive(Default)]
pub struct BackendScratch {
    /// Slab-MC layer masks and rolling edge caches.
    pub slab: SlabScratch,
    /// SurfaceNets sign plane and cell→vertex grid.
    pub sn: SnScratch,
}

impl BackendScratch {
    /// Fresh scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One extraction kernel. `extract_block` appends the block's geometry to
/// `out` — see the module docs for the exact cross-block contract.
pub trait ExtractionBackend<S: ScalarValue>: Sync {
    /// Extract `vol`'s cells at `iso`, appending to `out`.
    fn extract_block(
        &self,
        vol: &Volume<S>,
        iso: f32,
        domain: &BlockDomain,
        out: &mut BlockOutput,
        scratch: &mut BackendScratch,
    ) -> McStats;
}

/// The slab-sliding indexed Marching Cubes kernel behind the trait.
pub struct McBackend;

impl<S: ScalarValue> ExtractionBackend<S> for McBackend {
    fn extract_block(
        &self,
        vol: &Volume<S>,
        iso: f32,
        domain: &BlockDomain,
        out: &mut BlockOutput,
        scratch: &mut BackendScratch,
    ) -> McStats {
        let (x0, y0, z0) = domain.origin;
        marching_cubes_indexed(
            vol,
            iso,
            Vec3::new(x0 as f32, y0 as f32, z0 as f32),
            Vec3::new(1.0, 1.0, 1.0),
            &mut out.mesh,
            &mut out.weld_candidates,
            &mut scratch.slab,
        )
    }
}

/// The SurfaceNets kernel behind the trait (see [`crate::surface_nets`]).
pub struct SurfaceNetsBackend;

impl<S: ScalarValue> ExtractionBackend<S> for SurfaceNetsBackend {
    fn extract_block(
        &self,
        vol: &Volume<S>,
        iso: f32,
        domain: &BlockDomain,
        out: &mut BlockOutput,
        scratch: &mut BackendScratch,
    ) -> McStats {
        let (x0, y0, z0) = domain.origin;
        sn_block(
            vol,
            iso,
            domain,
            Vec3::new(x0 as f32, y0 as f32, z0 as f32),
            Vec3::new(1.0, 1.0, 1.0),
            out,
            &mut scratch.sn,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip() {
        for b in Backend::ALL {
            assert_eq!(Backend::from_id(b.id()), Some(b));
            assert_eq!(b.name().parse::<Backend>().unwrap(), b);
        }
        assert_eq!(Backend::from_id(2), None);
        assert!("marching".parse::<Backend>().is_err());
        assert_eq!("sn".parse::<Backend>().unwrap(), Backend::SurfaceNets);
        assert_eq!(Backend::default(), Backend::Mc);
    }

    #[test]
    fn cell_keys_round_trip() {
        for c in [
            (0, 0, 0),
            (1, 2, 3),
            (2047, 1, 131071),
            ((1 << 21) - 1, 5, 9),
        ] {
            assert_eq!(unpack_cell(pack_cell(c.0, c.1, c.2)), c);
        }
    }

    #[test]
    fn seam_ring_orientation_flips_with_sign() {
        let q = SeamQuad {
            base: (3, 4, 5),
            axis: 0,
            inside_at_base: true,
        };
        let r = SeamQuad {
            inside_at_base: false,
            ..q
        };
        let a = q.cell_ring();
        let b = r.cell_ring();
        // same cells, reversed cycle
        assert_eq!(a[0], b[0]);
        assert_eq!(a[1], b[3]);
        assert_eq!(a[2], b[2]);
        assert_eq!(a[3], b[1]);
        // the ring's cells are the four cells adjacent to the x edge at base
        let cells: Vec<_> = a.iter().map(|&k| unpack_cell(k)).collect();
        for (x, y, z) in &cells {
            assert_eq!(*x, 3);
            assert!((3..=4).contains(y) && (4..=5).contains(z));
        }
    }
}

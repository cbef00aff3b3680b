//! Triangle generation: Marching Cubes and Marching Tetrahedra.
//!
//! Once the query pipeline has an active metacell in memory, "any of the
//! several variations of the Marching Cubes algorithm can be used to precisely
//! determine the active cells within the metacell and generate the appropriate
//! triangles" (§5). This crate provides two such variants:
//!
//! * [`mc`] — Marching Cubes with a **generated** case table: for each of the
//!   256 sign configurations the isosurface's intersection loops are traced
//!   over the cube's faces with a face-local ambiguity rule (inside corners
//!   separated). Because the rule depends only on the shared face's sign
//!   pattern, adjacent cells always agree on their shared face and the mesh is
//!   watertight by construction — the property tests assert it. Loops are
//!   fan-triangulated with consistent orientation (normals point toward the
//!   `≥ isovalue` side).
//! * [`mt`] — Marching Tetrahedra over the 6-tetrahedra cube decomposition: a
//!   simpler, unambiguous variant used as a cross-check and in the extraction
//!   ablation.
//! * [`mesh`] — minimal triangle/vector types shared with the renderer.
//! * [`indexed`] — [`IndexedMesh`], the one mesh type every kernel appends
//!   to. The slab-sliding kernel [`mc::marching_cubes_indexed`] is the
//!   production hot path (each sample classified once, each crossing
//!   interpolated once, vertices shared), equivalence-tested against the
//!   reference [`mc::marching_cubes`], which gives every triangle fresh
//!   vertices.
//! * [`weld`] — the deterministic hash join ([`MeshWelder`]) that fuses
//!   duplicated seam vertices when independently extracted sub-meshes
//!   (metacells, cluster nodes) merge, making the result watertight;
//!   [`topology`] verifies it (boundary/non-manifold edge counts).
//! * [`decimate`] — quadric edge-collapse simplification over the welded
//!   [`IndexedMesh`] with topology guards (boundary pinning, link
//!   condition, normal-flip rejection) and deterministic tie-breaking, plus
//!   the [`LodChain`] pyramid the serving layer exposes per level.
//! * [`backend`] — the [`ExtractionBackend`] trait that makes the kernel
//!   pluggable: both the slab MC kernel and SurfaceNets implement the same
//!   block contract, so the out-of-core pipeline extracts with either.
//! * [`surface_nets`] — high-performance SurfaceNets (arXiv:2401.14906):
//!   one vertex per active cell, one quad per crossing edge (≈ half of MC's
//!   primitive count), bounded smoothing, and deferred seam quads so the
//!   distributed extraction stitches to the exact whole-volume surface.

pub mod backend;
pub mod decimate;
pub mod indexed;
pub mod mc;
pub mod mesh;
pub mod mt;
pub mod surface_nets;
pub mod tables;
pub mod topology;
pub mod unstructured;
pub mod weld;

pub use backend::{
    pack_cell, unpack_cell, Backend, BackendScratch, BlockDomain, BlockOutput, ExtractionBackend,
    SeamQuad,
};
pub use decimate::{decimate, decimate_to_ratio, DecimateStats, LodChain, LodLevel, Quadric};
pub use indexed::IndexedMesh;
pub use mc::{count_active_cells, marching_cubes, marching_cubes_indexed, McStats, SlabScratch};
pub use mesh::{split_collapsed, Aabb, Triangle, Vec3};
pub use mt::{march_tet, marching_tetrahedra};
pub use surface_nets::{
    smooth_surface_nets, stitch_seams, surface_nets, SnScratch, SN_SMOOTH_PASSES,
};
pub use topology::{analyze_mesh, analyze_mesh_connectivity, TopologyReport};
pub use weld::{MeshWelder, WeldStats};

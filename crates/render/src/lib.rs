//! Software rendering substrate: rasterizer, z-buffer, sort-last compositing.
//!
//! The paper's cluster renders each node's locally-generated triangles on its
//! own GPU, reads back color+depth, and composites the framebuffers sort-last
//! over 10 Gbps InfiniBand onto a tiled display wall (§6, Chromium/[30]).
//! With no GPUs available here, this crate substitutes a deterministic
//! software pipeline that preserves the architecture the evaluation depends
//! on:
//!
//! * [`raster`] — barycentric triangle rasterization with z-buffer and
//!   two-sided Lambert shading (per-node local rendering);
//! * [`framebuffer`] — color + depth buffers with PPM export;
//! * [`camera`] — look-at/perspective transforms;
//! * [`composite`] — z-based sort-last merge of per-node framebuffers and the
//!   tiled-display region shuffle;
//! * [`lod`] — per-tile level-of-detail selection by screen-space error.
//!
//! This crate holds pixels only. The shuffle is the only communication of
//! the whole parallel algorithm; [`TileLayout::composite`] reports the bytes
//! it moves, and `oociso_cluster::model` prices them at the paper's
//! interconnect.

pub mod camera;
pub mod composite;
pub mod framebuffer;
pub mod lod;
pub mod math;
pub mod raster;

pub use camera::Camera;
pub use composite::{z_merge, FrameRegion, TileLayout};
pub use framebuffer::Framebuffer;
pub use lod::{screen_space_error, select_tile_levels};
pub use math::Mat4;
pub use raster::{rasterize_mesh, RasterStats};

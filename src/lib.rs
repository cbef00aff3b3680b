//! # oociso — out-of-core isosurface extraction and rendering
//!
//! Facade crate re-exporting the whole `oociso` workspace: a from-scratch Rust
//! reproduction of *"An Efficient and Scalable Parallel Algorithm for
//! Out-of-Core Isosurface Extraction and Rendering"* (Qin Wang, Joseph JaJa,
//! Amitabh Varshney; IPDPS 2006).
//!
//! ## Layered architecture
//!
//! * [`volume`] — structured grids, synthetic Richtmyer–Meshkov proxy, dataset zoo.
//! * [`exio`] — block devices, I/O cost model (50 MB/s disk of the paper's
//!   cluster), brick stores, round-robin striping.
//! * [`metacell`] — 9×9×9 metacell partitioning and preprocessing (the
//!   paper's 734-byte records, stored losslessly packed; constant-metacell
//!   culling).
//! * [`itree`] — the paper's **compact interval tree** plus the standard
//!   interval tree and BBIO-style external tree baselines.
//! * [`march`] — Marching Cubes (validated 256-case tables) and Marching
//!   Tetrahedra.
//! * [`render`] — software rasterizer, z-buffer, sort-last compositing.
//! * [`cluster`] — simulated visualization cluster: p nodes × (local disk +
//!   local index + local framebuffer), phase timings, and the simulated-time
//!   model that prices disk, triangulation and the 10 Gbps composite shuffle.
//! * [`core`] — the public API: [`core::ClusterDatabase`],
//!   [`core::TimeVaryingDatabase`].
//! * [`serve`] — TCP query server (versioned wire protocol, LRU result
//!   cache) and blocking client.
//!
//! ## Quickstart
//!
//! ```no_run
//! use oociso::core::{ClusterDatabase, PreprocessOptions};
//! use oociso::volume::{RmProxy, Dims3};
//!
//! let vol = RmProxy::with_seed(1).volume(250, Dims3::new(64, 64, 60));
//! let dir = std::env::temp_dir().join("oociso-quickstart");
//! let db = ClusterDatabase::preprocess(&vol, &dir, &PreprocessOptions::default()).unwrap();
//! let surface = db.extract(128.0).unwrap();
//! println!("{} triangles", surface.mesh.len());
//! ```

pub use oociso_cluster as cluster;
pub use oociso_core as core;
pub use oociso_exio as exio;
pub use oociso_itree as itree;
pub use oociso_march as march;
pub use oociso_metacell as metacell;
pub use oociso_render as render;
pub use oociso_serve as serve;
pub use oociso_volume as volume;

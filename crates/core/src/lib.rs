//! # oociso-core — the public API
//!
//! Out-of-core isosurface extraction and rendering for large (time-varying)
//! structured scalar fields, after Wang, JaJa & Varshney (IPDPS 2006).
//!
//! Two entry points:
//!
//! * [`ClusterDatabase`] — preprocess one volume once, then extract
//!   isosurfaces for any isovalue in output-sensitive I/O time, over `p`
//!   simulated cluster nodes with striped bricks, per-node indexes, local
//!   rendering and sort-last compositing (`p = 1` by default).
//! * [`TimeVaryingDatabase`] — one index per time step (§5.2): the whole
//!   index set stays in memory while the data stays on disk.
//!
//! ```no_run
//! use oociso_core::{ClusterDatabase, PreprocessOptions};
//! use oociso_volume::{RmProxy, Dims3};
//!
//! let vol = RmProxy::with_seed(1).volume(250, Dims3::new(64, 64, 60));
//! let db = ClusterDatabase::preprocess(&vol, std::path::Path::new("/tmp/demo"),
//!                                      &PreprocessOptions::default()).unwrap();
//! let surface = db.extract(128.0).unwrap();
//! println!("{} triangles", surface.mesh.len());
//! ```

pub mod db;
pub mod tv;

pub use db::{ClusterDatabase, ExtractResult};
pub use oociso_cluster::{
    ExtractOptions, LodReport, LodSpec, NodeReport, PreprocessOptions, QueryReport,
    SimulatedTimeModel,
};
pub use oociso_march::LodChain;
pub use tv::TimeVaryingDatabase;

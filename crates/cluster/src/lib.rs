//! Simulated visualization cluster.
//!
//! The paper's parallel algorithm runs on `p` nodes, each owning a local disk
//! with its stripe of every brick and a local copy of the (tiny) index. A
//! query proceeds with **zero communication**: every node walks its own
//! index, reads its own disk, triangulates its own metacells and renders
//! locally; only the final sort-last composite crosses the network.
//!
//! This crate reproduces that architecture with OS threads as nodes:
//!
//! * [`cluster`] — [`Cluster`] and one file per phase of its work:
//!   - `cluster/build.rs`: preprocessing (stripe + index per node) and
//!     open;
//!   - `cluster/extract.rs`: the query. Each node runs in its own thread
//!     against its own store file, streaming records through a bounded
//!     queue ([`QUEUE_RECORDS`]) into its triangulation workers so the
//!     paper's phases (i) and (ii) overlap, and joins their parts into one
//!     output per node;
//!   - `cluster/merge.rs`: [`ClusterExtraction`], the node outputs merged
//!     into one mesh or LOD pyramid. Its node join and cross-node merge are
//!     the only code that tells the extraction kernels apart.
//! * [`timing`] — per-node, per-phase reports: Active MetaCell (AMC) retrieval
//!   I/O, triangulation, rendering — the three metrics of Tables 2–5.
//! * [`model`] — the simulated-time composition: measured CPU phases combined
//!   with modeled disk (50 MB/s) and interconnect (10 Gbps) times, which is
//!   what lets a 2-core laptop reproduce the *shape* of an 8-node cluster's
//!   scaling curves (Figures 5–6).
//! * [`meta`] — on-disk cluster metadata so a preprocessed directory can be
//!   reopened.

pub mod cluster;
pub mod meta;
pub mod model;
pub mod timing;

pub use cluster::{
    decimate_fields, Cluster, ClusterExtraction, ExtractOptions, LodSpec, PreprocessOptions,
    QUEUE_RECORDS,
};
pub use model::SimulatedTimeModel;
pub use timing::{LodReport, NodeReport, QueryReport};

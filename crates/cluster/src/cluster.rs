//! The cluster: build, open and query, one file per phase (listed in the
//! crate docs).

mod build;
mod extract;
mod merge;
#[cfg(test)]
mod tests;

pub use build::{Cluster, PreprocessOptions};
pub use extract::{ExtractOptions, QUEUE_RECORDS};
pub use merge::{decimate_fields, ClusterExtraction, LodSpec};

//! Metacell partitioning and preprocessing.
//!
//! The paper partitions the volume into *metacells*: clusters of neighbouring
//! cells of roughly one disk block each. For the Richtmyer–Meshkov grid it
//! uses 9×9×9-vertex subcubes (8×8×8 cells, with one shared vertex layer
//! between neighbours), stored as 734-byte records: a 4-byte ID, the metacell
//! minimum value, and the 9³ one-byte scalars in a predefined order. Metacells
//! whose vertices are all equal can never contain an isosurface and are
//! dropped — about 50% of the RM dataset.
//!
//! This crate implements that layer exactly:
//!
//! * [`layout::MetacellLayout`] — volume ↔ metacell coordinate math with edge
//!   clamping;
//! * [`record::MetacellRecord`] — the on-disk record: the paper's header
//!   plus a length word, and the scalars as a lossless 3-D Lorenzo residual
//!   bit-packed per row (raw when that is not smaller; a full 9×9×9 u8
//!   metacell is 734 bytes raw, about a third of that packed);
//! * [`interval::MetacellInterval`] — the `(vmin, vmax)` interval fed to the
//!   indexing structures;
//! * [`build`] — the preprocessing scan (one z-slab loop over a file or an
//!   in-memory volume), with constant-metacell culling and statistics.

pub mod build;
pub mod interval;
pub mod layout;
pub mod record;

pub use build::{scan_reader, scan_slabs, scan_volume, BuiltMetacell, PreprocessStats};
pub use interval::MetacellInterval;
pub use layout::MetacellLayout;
pub use record::MetacellRecord;

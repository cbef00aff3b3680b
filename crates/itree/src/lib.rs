//! Indexing structures for out-of-core isosurface extraction.
//!
//! This crate implements the paper's primary contribution — the **compact
//! interval tree** (§4) — together with the baselines it is compared against:
//!
//! * [`compact::CompactIntervalTree`] — a binary tree over the `n` distinct
//!   interval endpoint values. Each node stores only one *brick index entry*
//!   per distinct `vmax` in its span-space square: `{vmax, smallest vmin,
//!   disk span}`. Total size `O(n log n)` index entries, independent of the
//!   number of metacells `N`.
//! * [`plan`] — I/O-optimal query planning and execution: Case 1 bulk
//!   sequential brick-range reads, Case 2 per-brick prefix scans with
//!   zero-I/O skipping of inactive bricks.
//! * [`standard::StandardIntervalTree`] — the classical interval tree with
//!   two sorted interval lists per node (`Ω(N)` size), used for the Table 1
//!   size comparison and as a correctness oracle.
//! * [`bbio::BbioTree`] — a simplified Binary-Blocked I/O interval tree in the
//!   style of Chiang–Silva–Schroeder, the prior-work external index ([10]),
//!   used in the index ablation.
//! * [`blocked::BlockedCompactTree`] — the §5 fallback for indexes larger
//!   than memory: `B` tree nodes per disk block, `O(log_B n)` I/Os per query.
//! * [`striped`] — the provably balanced `p`-way striping of bricks across
//!   per-node disks (§5.1).
//! * [`size`] / [`persist`] — size reports (Table 1) and on-disk index format.

pub mod bbio;
pub mod blocked;
pub mod brick;
pub mod compact;
pub mod persist;
pub mod plan;
pub mod size;
pub mod standard;
pub mod striped;

pub use brick::{BrickEntry, MetacellRecordFormat, RecordFormat};
pub use compact::CompactIntervalTree;
pub use plan::{execute_plan, execute_plan_at, plan_active_ids, QueryPlan, ReadAction};
pub use size::IndexSize;
pub use standard::StandardIntervalTree;

//! External-memory I/O substrate for `oociso`.
//!
//! The paper's cluster nodes owned local 60 GB disks with ~50 MB/s transfer
//! and 4–8 KB blocks; the algorithm's claims are stated in the standard
//! external-memory model of Aggarwal–Vitter (I/O complexity measured in block
//! transfers). This crate supplies both halves needed to reproduce that:
//!
//! * **Real storage** — [`device::FileDevice`] (positioned reads over a file,
//!   optionally memory-mapped) and [`device::MemDevice`] for tests.
//! * **Accounting** — every read is classified by [`stats::IoStats`] into
//!   seeks vs sequential continuation, bytes and block transfers, so any
//!   experiment can report both measured wall-clock and *modeled* disk time
//!   under the paper's disk constants ([`cost::IoCostModel::paper_disk`]).
//! * **Record stores** — [`store::RecordStoreWriter`]/[`store::RecordStore`]:
//!   append-only byte-record files addressed by `(offset, len)` ranges, the
//!   layout beneath the compact interval tree's bricks.
//! * **Disk farms** — [`farm::DiskFarm`]: `p` independent stores standing in
//!   for the per-node local disks of the cluster.
//! * **Pipelining** — [`queue::BoundedQueue`]: the bounded, byte-accounted
//!   channel the streaming extraction pipeline uses to overlap AMC retrieval
//!   with triangulation, and [`throttle::ThrottledDevice`] to make that
//!   overlap measurable on page-cache-speed storage.
//! * **Fault injection** — [`faulty::FaultyDevice`]: deterministic seeded
//!   error/delay schedules on the read path, the disk half of the chaos
//!   test harness.
//! * **Positioned writes** — [`write_at::WriteAt`]: the portable write-side
//!   abstraction beneath out-of-core preprocessing.
//! * **Integrity** — [`crc::crc32`]/[`crc::Crc32`]: the workspace's one
//!   CRC-32 (sliced tables, carry-less multiply where the CPU has it), the
//!   serve layer's frame checksum.
//! * **Readiness** — `poll::Poller`/`poll::Doorbell` (every unix): a thin,
//!   dependency-free `poll(2)` binding plus a socket-pair doorbell, the
//!   substrate of the serve layer's nonblocking reactor.

pub mod block;
pub mod cost;
pub mod crc;
pub mod device;
pub mod farm;
pub mod faulty;
pub mod poll;
pub mod queue;
pub mod stats;
pub mod store;
pub mod throttle;
pub mod write_at;

pub use block::{blocks_spanned, DEFAULT_BLOCK_BYTES};
pub use cost::IoCostModel;
pub use device::{BlockDevice, FileDevice, MemDevice};
pub use farm::DiskFarm;
pub use faulty::{FaultPlan, FaultyDevice};
pub use queue::{BoundedQueue, QueueStats, QueueWaits};
pub use stats::{IoSnapshot, IoStats};
pub use store::{RecordStore, RecordStoreWriter, Span};
pub use throttle::ThrottledDevice;
pub use write_at::WriteAt;

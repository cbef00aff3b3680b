//! Network serving layer: a real TCP query server over the out-of-core
//! isosurface database.
//!
//! The paper's cluster answers interactive isosurface queries with zero
//! communication until the final composite; this crate is the step from
//! "library reproduction" to "deployable service" — remote clients query a
//! running server over a versioned, checksummed, length-prefixed binary
//! protocol and receive bit-identical results to in-process extraction:
//!
//! * [`protocol`] — the wire format: framed messages (requests carry an
//!   isovalue, an optional region, and mesh-vs-framebuffer mode; responses
//!   carry an indexed mesh or tile frames), CRC-32 payload checksums,
//!   structured errors for version/framing violations.
//! * [`server`] — [`IsoServer`]: one shared
//!   [`oociso_core::ClusterDatabase`], extracted with Marching Cubes (the
//!   only kernel served), with its admission control, cache fill and
//!   reply builders.
//! * [`reactor`] — the one serving core, on `poll(2)` (every unix):
//!   [`ServeOptions::reactor_threads`] event loops each own a set of
//!   connections with per-connection read/decode → dispatch → incremental
//!   write-out state machines, request pipelining with responses in request
//!   order, bounded outbound queues (backpressure), and an extraction
//!   worker pool signalled back through socket-pair doorbells.
//! * [`cache`] — [`ResultCache`]: an isovalue-keyed, byte-budgeted LRU of
//!   extraction results with hit/miss/eviction counters surfaced through
//!   the stats message, `NodeReport`-style.
//! * [`client`] — [`Client`]: the blocking client library behind the CLI's
//!   `query` subcommand (and the serve tests).
//! * [`chaos`] — [`ChaosProxy`]/[`ChaosStream`]: scripted transport faults
//!   (truncation, stalls, refused connections) for the chaos test harness.
//!
//! Every server additionally owns an observability surface (`oociso-obs`):
//! a per-server metrics registry with latency histograms exposed as
//! Prometheus text via a metrics request, structured warn/info log events
//! instead of raw stderr writes, and per-request span traces — a client may
//! stamp requests with a trace id, which the server echoes on the reply
//! and uses to retain the request's span tree for retrieval over the wire.
//! See `docs/observability.md` for the metric catalog and span naming.
//!
//! See `docs/serve.md` for the protocol layout, cache semantics, and
//! overload/failure behavior, and `docs/robustness.md` for the fault
//! injection matrix.

pub mod cache;
pub mod chaos;
pub mod client;
pub mod protocol;
pub mod reactor;
pub mod server;

pub use cache::{CacheStats, CachedSurface, ResultCache};
pub use chaos::{ChaosProxy, ChaosStream, ConnFault};
pub use client::{Client, ClientOptions, FrameReply, MeshReply, ServerError, TraceReply};
pub use protocol::{
    render_trace_events, FrameParams, Message, Region, ServerReport, TraceEvent, ERR_BAD_BACKEND,
    ERR_BAD_LOD, ERR_BUSY, MAGIC, MAX_LOD_LEVELS, VERSION,
};
pub use server::{IsoServer, ServeOptions};

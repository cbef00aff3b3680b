//! Observability substrate for the out-of-core isosurface system.
//!
//! The paper's claims are throughput and latency numbers; this crate is how
//! the grown system measures its own. Three pieces, shared by every layer
//! from the bounded queue up to the TCP server:
//!
//! * [`registry`] — a lock-light metrics registry: named [`Counter`] /
//!   [`Gauge`] / [`Histogram`] handles backed by relaxed atomics, with
//!   log-spaced fixed-bucket histograms ([`hist`]) supporting exact merge,
//!   p50/p90/p99/max readout, snapshot iteration, and Prometheus text
//!   exposition ([`Registry::render`]).
//! * [`trace`] — structured request tracing: RAII [`Span`]s recorded into a
//!   bounded per-request [`Trace`] of `(name, start, dur, fields)` events,
//!   plus the [`TraceJournal`] ring behind the server's recent-trace and
//!   slow-query logs.
//! * [`log`] — structured operational events ([`LogEvent`]) through a
//!   pluggable [`LogSink`] (stderr in production, [`CaptureSink`] in tests).
//!
//! Instrumentation is always compiled in. What a change to a recording path
//! costs is measured end to end: alternating pairs of gated benchmark runs
//! (`oociso-benchmark driver`) with and without the change.
//!
//! Metric names, span names, and exposition format are cataloged in
//! `docs/observability.md`.

pub mod hist;
pub mod log;
pub mod registry;
pub mod trace;

pub use hist::{bucket_index, bucket_lower, bucket_upper, HistSnapshot, Histogram, NUM_BUCKETS};
pub use log::{CaptureSink, Level, LogEvent, LogSink, Logger, StderrSink};
pub use registry::{global, Counter, Gauge, MetricValue, Registry};
pub use trace::{
    render_events, FinishedTrace, Span, SpanEvent, Trace, TraceJournal, DEFAULT_TRACE_EVENTS,
    NO_PARENT,
};

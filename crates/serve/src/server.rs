//! The TCP query server: its options, its shared state, and the admission,
//! extraction and reply logic the serving core ([`crate::reactor`]) runs.
//!
//! Every connection shares one [`oociso_core::ClusterDatabase`] —
//! extraction already fans out across node threads and per-node worker
//! pools internally, so concurrent requests ride the existing streaming
//! extraction path — plus one [`ResultCache`] behind a mutex (held only for
//! lookup/insert, never across an extraction).
//!
//! With [`ServeOptions::lod_ratios`] configured the server builds the LOD
//! pyramid once per cache-missed isovalue (from the merged, welded mesh,
//! via [`oociso_core::ClusterDatabase::extract_lods`], which records into
//! the request's trace), caches every level separately, serves
//! mesh requests at their requested `lod`, and picks per-tile levels for
//! frame requests by projected screen-space error.
//!
//! ## Overload and failure behavior
//!
//! The server never queues a request behind an unbounded backlog. Admission
//! control is explicit: cache misses (the expensive path — a disk-backed
//! extraction or a re-decimation) must win one of
//! [`ServeOptions::extraction_slots`]; a miss that can't is answered with a
//! structured [`ERR_BUSY`] carrying a retry-after hint derived from recent
//! miss cost. Connections beyond [`ServeOptions::max_connections`] get
//! one `ERR_BUSY` reply and a clean close. Cache hits are always served:
//! they cost microseconds and shedding them would gain nothing.
//!
//! Per-connection read/write deadlines bound slow or stalled peers
//! (slowloris defense), and [`IsoServer::drain`] gives `stop()` a graceful
//! phase: stop accepting, let in-flight requests finish under a deadline,
//! then close. Every shed/timed-out/drained event is counted in
//! [`ServerReport`]. See `docs/serve.md` ("Overload & failure semantics")
//! and `docs/robustness.md`.

use crate::cache::{CachedSurface, ResultCache};
use crate::protocol::{
    crc_time, encode_frame, Frame, FrameParams, MeshFields, Message, Region, ServerReport,
    TraceEvent, ERR_BAD_BACKEND, ERR_BAD_LOD, ERR_BUSY, ERR_INTERNAL, ERR_MALFORMED,
    MAX_LOD_LEVELS,
};
use oociso_cluster::{decimate_fields, LodSpec};
use oociso_core::ClusterDatabase;
use oociso_march::{Backend, LodChain, LodLevel};
use oociso_obs::{Counter, Histogram, Logger, Registry, Span, Trace, TraceJournal};
use oociso_render::{rasterize_mesh, select_tile_levels, Camera, Framebuffer, TileLayout};
use oociso_volume::ScalarValue;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The backend id every served surface is cached and stamped under: the
/// server extracts with `ExtractOptions::default()`'s kernel, Marching
/// Cubes. SurfaceNets is offline only (`oociso extract --backend
/// surfacenets`).
const MC: u8 = Backend::Mc.id();

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Result-cache byte budget (default 256 MiB).
    pub cache_bytes: u64,
    /// Extra LOD pyramid levels to build and serve, as vertex-count ratios
    /// of the full mesh (strictly decreasing, at most
    /// [`MAX_LOD_LEVELS`]` - 1` entries). Empty (the default) serves level 0
    /// only, exactly like a v1 server.
    pub lod_ratios: Vec<f64>,
    /// Concurrent cache-miss extractions admitted at once (`Some(0)` sheds
    /// every miss — useful for tests and read-only replicas; `None`, the
    /// default, admits all). Cache hits are never gated: they cost
    /// microseconds and hold no slot.
    pub extraction_slots: Option<u32>,
    /// Concurrently served connections admitted at once. A connection over
    /// the cap is answered with one structured [`ERR_BUSY`] and closed —
    /// never silently dropped. `None` (the default) admits all.
    pub max_connections: Option<u32>,
    /// Mid-frame socket read deadline: a peer that starts a frame and then
    /// stalls (slowloris) is disconnected and counted `timed_out`. Default
    /// 30 s; `None` waits forever (the pre-v3 behavior).
    pub read_timeout: Option<Duration>,
    /// Write deadline for responses: a connection whose queued reply makes
    /// no write progress this long (a reader that stopped draining a
    /// multi-hundred-MB mesh) is cut and counted `timed_out`. Default 30 s.
    pub write_timeout: Option<Duration>,
    /// Close connections that sit idle *between* frames longer than this
    /// (counted `timed_out`). `None` (the default) keeps them forever.
    pub idle_timeout: Option<Duration>,
    /// Slow-query threshold in milliseconds: a request whose end-to-end
    /// wall time reaches it is logged as a `slow_query` warning and its
    /// trace retained in the slow journal (even when the client sent no
    /// trace id). 0 disables. Default 1000.
    pub slow_ms: u64,
    /// How many finished request traces the trace journal retains for
    /// [`Message::TraceRequest`] lookups. Default 64.
    pub trace_buffer: usize,
    /// Structured log sink for operational events (`accept_backoff`,
    /// `slow_query`, `drain_timeout`). Default logs to stderr; tests
    /// install an `oociso_obs::CaptureSink` to assert on events.
    pub logger: Logger,
    /// Event-loop threads of the serving core, each owning a set of
    /// connections — request pipelining, bounded outbound queues, no
    /// per-connection thread. Default 2; [`IsoServer::bind`] rejects 0.
    pub reactor_threads: usize,
    /// Extraction/render worker threads behind the event loops (cache
    /// misses and rasterization run here; the loops never block on them).
    /// `0` (the default) sizes the pool automatically.
    pub reactor_workers: usize,
    /// Per-connection outbound byte budget: once a client's
    /// queued-but-unsent responses exceed it, the server stops *reading*
    /// that client until the queue drains below half — backpressure, so a
    /// pipelining client that never reads cannot balloon server memory.
    /// Default 8 MiB.
    pub outbound_budget: usize,
    /// Speculative cache warming for interactive isovalue scrubs: after a
    /// real cache miss at isovalue `v` extracted from disk, the worker that
    /// served it posts its reply, drops its slot, and then builds the
    /// pyramids of `v - δ` and `v + δ` itself, one after the other. Each is
    /// a single-flight build with no waiter: skipped when the target is
    /// already resident or in flight, run only on a **spare** extraction
    /// slot (never the last one), and inserted behind the recency of real
    /// traffic, so warming evicts nothing a client asked for. A real
    /// request for a neighbor still being warmed waits for that build
    /// instead of extracting it again, and its levels then go in at real
    /// recency. Warm builds still compete for cores and disk with real
    /// misses (`docs/serve.md`, "Speculative cache warming", has the
    /// sizing). Tracked by the
    /// `speculative_{started,completed,cancelled,hits}_total` metrics
    /// family. `None` (the default) disables warming.
    pub warm_delta: Option<f32>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            cache_bytes: 256 << 20,
            lod_ratios: Vec::new(),
            extraction_slots: None,
            max_connections: None,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            idle_timeout: None,
            slow_ms: 1000,
            trace_buffer: 64,
            logger: Logger::stderr(),
            reactor_threads: 2,
            reactor_workers: 0,
            outbound_budget: 8 << 20,
            warm_delta: None,
        }
    }
}

/// Shared shutdown/drain flags and the live-connection gauge — what
/// [`IsoServer::drain`] coordinates with the event loops.
pub(crate) struct Control {
    /// Hard stop: every event loop closes its connections and exits.
    pub(crate) shutdown: AtomicBool,
    /// Graceful phase: the loops stop accepting and parsing, finish the
    /// requests already dispatched (replies counted `drained`), then close.
    pub(crate) draining: AtomicBool,
    /// Connections currently admitted (the admission-cap gauge and what
    /// drain waits on).
    pub(crate) live: AtomicU64,
    /// Out-of-band wakeups (the event loops' doorbells), rung whenever a
    /// flag above flips so a parked loop notices immediately instead of at
    /// its next tick.
    pub(crate) wakers: Mutex<Vec<Box<dyn Fn() + Send + Sync>>>,
}

impl Control {
    pub(crate) fn wake_all(&self) {
        for w in self.wakers.lock().expect("wakers lock").iter() {
            w();
        }
    }
}

/// The server's reporting counters, all living in its [`Registry`] (each
/// server owns its own registry so parallel test servers never alias). The
/// handles are resolved once at bind so the hot path never takes the
/// registry lock. [`ServerReport`] reads the same handles — the metrics
/// exposition and the stats response can never disagree.
pub(crate) struct Counters {
    pub(crate) connections: Counter,
    pub(crate) requests: Counter,
    pub(crate) mesh_requests: Counter,
    pub(crate) frame_requests: Counter,
    pub(crate) errors: Counter,
    pub(crate) bytes_out: Counter,
    pub(crate) shed: Counter,
    pub(crate) timed_out: Counter,
    pub(crate) drained: Counter,
    pub(crate) accept_backoffs: Counter,
    /// Warm flights that actually began a build.
    pub(crate) spec_started: Counter,
    /// Warm builds whose whole pyramid landed in the cache.
    pub(crate) spec_completed: Counter,
    /// Warm jobs dropped without completing: target already resident or in
    /// flight, no spare slot, a failed build, or a level larger than the
    /// spare budget.
    pub(crate) spec_cancelled: Counter,
    /// Real requests that joined a warm flight. Not registered: it is
    /// folded into `speculative_hits_total` beside the cache's own count.
    pub(crate) spec_joined: Counter,
}

impl Counters {
    fn resolve(reg: &Registry) -> Counters {
        Counters {
            connections: reg.counter("connections_total"),
            requests: reg.counter("requests_total"),
            mesh_requests: reg.counter("mesh_requests_total"),
            frame_requests: reg.counter("frame_requests_total"),
            errors: reg.counter("errors_total"),
            bytes_out: reg.counter("bytes_out_total"),
            shed: reg.counter("shed_total"),
            timed_out: reg.counter("timed_out_total"),
            drained: reg.counter("drained_total"),
            accept_backoffs: reg.counter("accept_backoffs_total"),
            spec_started: reg.counter("speculative_started_total"),
            spec_completed: reg.counter("speculative_completed_total"),
            spec_cancelled: reg.counter("speculative_cancelled_total"),
            spec_joined: Counter::new(),
        }
    }
}

/// A pyramid build's outcome, shared with every request that waited on
/// it (the error as kind and text: `io::Error` is not `Clone`).
type FlightResult = Result<Vec<Arc<CachedSurface>>, (io::ErrorKind, String)>;

/// One pyramid build in progress, keyed in [`State::flights`] by isovalue
/// bits. A request that misses on it waits here instead of extracting.
struct Flight {
    state: Mutex<FlightState>,
    done: Condvar,
}

struct FlightState {
    /// Set once, when the leader publishes.
    result: Option<FlightResult>,
    /// A warm flight no real request has joined: its levels go in behind
    /// real recency. The first real joiner clears it under the table lock,
    /// so the leader reads the final value when it inserts.
    speculative: bool,
}

/// What [`State::claim`] found for an isovalue.
enum Claim<'a, S: ScalarValue> {
    /// A build is in flight; `warm` when this real request just turned a
    /// warm one real.
    Join { flight: Arc<Flight>, warm: bool },
    /// Every level is resident.
    Resident(Vec<Arc<CachedSurface>>),
    /// The caller builds it, from `full` when level 0 is resident.
    Lead {
        leader: Leader<'a, S>,
        full: Option<Arc<CachedSurface>>,
    },
}

/// The leader's hold on its flight: dropped unpublished (an unwinding
/// panic), it publishes an error, so no waiter is ever left parked.
struct Leader<'a, S: ScalarValue> {
    state: &'a State<S>,
    iso: f32,
    flight: Arc<Flight>,
    published: bool,
}

/// A built pyramid not yet inserted: the resident level 0 it was
/// re-decimated from, if any, then the levels made fresh.
struct Built {
    reused: Option<Arc<CachedSurface>>,
    fresh: Vec<CachedSurface>,
}

impl Built {
    fn new(
        reused: Option<Arc<CachedSurface>>,
        fresh: Vec<LodLevel>,
        active_metacells: u64,
    ) -> Built {
        let fresh = fresh
            .into_iter()
            .map(|level| CachedSurface {
                mesh: level.mesh,
                active_metacells,
                world_error: level.cumulative_error.sqrt(),
            })
            .collect();
        Built { reused, fresh }
    }
}

impl<S: ScalarValue> Leader<'_, S> {
    /// Insert `built` (behind real recency while the flight is still
    /// speculative), hand the outcome to every waiter and retire the
    /// flight, all under the table lock: a request that finds the flight
    /// finds it unpublished, one that does not finds the levels resident.
    /// Also returns whether every level is resident afterwards (a
    /// speculative level over the spare budget is dropped).
    fn publish(&mut self, built: io::Result<Built>) -> io::Result<(Vec<Arc<CachedSurface>>, bool)> {
        self.published = true;
        // poison-tolerant: `Drop` runs this while unwinding, and each
        // update under these locks is a single step
        let mut flights = self
            .state
            .flights
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut fs = self
            .flight
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let (result, landed) = match built {
            Ok(built) => {
                let (levels, landed) = self.state.insert_pyramid(self.iso, built, fs.speculative);
                (Ok(levels), landed)
            }
            Err(e) => (Err((e.kind(), e.to_string())), false),
        };
        fs.result = Some(result.clone());
        flights.remove(&self.iso.to_bits());
        self.flight.done.notify_all();
        Ok((unshare(result)?, landed))
    }
}

impl<S: ScalarValue> Drop for Leader<'_, S> {
    fn drop(&mut self) {
        if !self.published {
            let _ = self.publish(Err(io::Error::other("pyramid build panicked")));
        }
    }
}

/// A flight's outcome as one request's own result.
fn unshare(result: FlightResult) -> io::Result<Vec<Arc<CachedSurface>>> {
    result.map_err(|(kind, text)| io::Error::new(kind, text))
}

/// Shared state behind every connection.
pub(crate) struct State<S: ScalarValue> {
    db: ClusterDatabase<S>,
    lods: LodSpec,
    cache: Mutex<ResultCache>,
    pub(crate) ctl: Arc<Control>,
    extraction_slots: Option<u32>,
    pub(crate) max_connections: Option<u32>,
    pub(crate) read_timeout: Option<Duration>,
    pub(crate) write_timeout: Option<Duration>,
    pub(crate) idle_timeout: Option<Duration>,
    /// Per-server metrics registry (counters below plus the latency and
    /// extraction-phase histograms; rendered by [`Message::MetricsRequest`]).
    pub(crate) metrics: Registry,
    pub(crate) c: Counters,
    /// End-to-end request wall time, decode to written reply, in µs.
    pub(crate) request_latency_us: Histogram,
    /// Cache-miss extraction wall time (full pyramid build), in µs.
    extract_latency_us: Histogram,
    /// No-disk pyramid re-decimation wall time, in µs.
    rebuild_latency_us: Histogram,
    /// Structured operational log.
    pub(crate) logger: Logger,
    /// Finished traces of wire-traced requests (trace id != 0).
    pub(crate) recent: TraceJournal,
    /// Finished traces of slow requests, traced or not.
    pub(crate) slow: TraceJournal,
    /// Slow-query threshold (ms); 0 disables.
    pub(crate) slow_ms: u64,
    /// Extractions/rebuilds currently holding a slot.
    inflight_miss: AtomicU64,
    /// Smoothed wall-clock of recent **full** cache-miss extractions, in ms
    /// — the source of the `ERR_BUSY` retry-after hint. Cheap work that
    /// costs a fraction of a real miss (pyramid re-decimations, warm
    /// extractions) is deliberately excluded: letting it sample the EWMA
    /// drags the hint far below honest extraction cost and invites retry
    /// stampedes.
    miss_cost_ms: AtomicU64,
    /// The pyramid builds in progress, by isovalue bits: the one producer
    /// of every missed pyramid ([`State::pyramid_for`], [`State::warm`]).
    flights: Mutex<HashMap<u32, Arc<Flight>>>,
    /// Scrub-neighbor distance δ of speculative warming; `None` disables it.
    warm_delta: Option<f32>,
}

/// RAII extraction-slot lease: decrements the in-flight gauge on drop, so a
/// panicking or erroring extraction can never leak its slot. Owns an `Arc`
/// of the state, so a won slot can be shipped to a reactor worker thread
/// and still release on any exit path there.
pub(crate) struct SlotGuard<S: ScalarValue> {
    state: Arc<State<S>>,
    counted: bool,
}

impl<S: ScalarValue> Drop for SlotGuard<S> {
    fn drop(&mut self) {
        if self.counted {
            self.state.inflight_miss.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Floor of the `ERR_BUSY` retry-after hint, in milliseconds. Critically,
/// this is also the **cold-start** hint: before any cache miss has
/// completed, the EWMA has no samples (`miss_cost_ms == 0`), and a raw
/// hint of 0 ms would invite every shed client to retry immediately — a
/// synchronized re-storm against a server that just declared itself
/// overloaded. A shed request is therefore never told to retry sooner than
/// this, samples or not.
pub(crate) const RETRY_HINT_FLOOR_MS: u64 = 25;

/// Ceiling of the retry-after hint: even when recent misses cost minutes,
/// clients are invited back within this bound (they will simply be shed
/// again, cheaply, if the server is still busy).
pub(crate) const RETRY_HINT_CEIL_MS: u64 = 10_000;

/// Clamp a smoothed miss cost (0 = no samples yet) into the hint window.
pub(crate) fn clamp_retry_hint(miss_cost_ms: u64) -> u32 {
    miss_cost_ms.clamp(RETRY_HINT_FLOOR_MS, RETRY_HINT_CEIL_MS) as u32
}

/// One mesh or frame request's admission verdict. `H` is what a hit
/// holds: the one level a mesh request asked for, or the whole pyramid for
/// a frame request.
pub(crate) enum Admit<S: ScalarValue, H> {
    Hit(H),
    /// No extraction slot free: shed with a retry hint.
    Busy {
        retry_after_ms: u32,
    },
    /// A miss holding a slot, its pyramid still to produce off the event
    /// loop through [`State::pyramid_for`].
    Miss(SlotGuard<S>),
}

impl<S: ScalarValue, H> Admit<S, H> {
    /// The same verdict with the hit's surfaces in another shape.
    pub(crate) fn map_hit<T>(self, f: impl FnOnce(H) -> T) -> Admit<S, T> {
        match self {
            Admit::Hit(h) => Admit::Hit(f(h)),
            Admit::Busy { retry_after_ms } => Admit::Busy { retry_after_ms },
            Admit::Miss(slot) => Admit::Miss(slot),
        }
    }
}

impl<S: ScalarValue> State<S> {
    /// Build the shared serving state: everything [`IsoServer::bind`] wires
    /// up except the listener and the serving threads. Factored out so unit
    /// tests can drive admission, extraction, and warming against a real
    /// database without binding a socket. Assumes `opts` already validated.
    pub(crate) fn new(db: ClusterDatabase<S>, opts: &ServeOptions) -> Arc<State<S>> {
        let ctl = Arc::new(Control {
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            live: AtomicU64::new(0),
            wakers: Mutex::new(Vec::new()),
        });
        let metrics = Registry::new();
        let c = Counters::resolve(&metrics);
        let request_latency_us = metrics.histogram("request_latency_us");
        let extract_latency_us = metrics.histogram("extract_latency_us");
        let rebuild_latency_us = metrics.histogram("rebuild_latency_us");
        Arc::new(State {
            db,
            lods: LodSpec {
                ratios: opts.lod_ratios.clone(),
            },
            cache: Mutex::new(ResultCache::new(opts.cache_bytes)),
            ctl,
            extraction_slots: opts.extraction_slots,
            max_connections: opts.max_connections,
            read_timeout: opts.read_timeout,
            write_timeout: opts.write_timeout,
            idle_timeout: opts.idle_timeout,
            metrics,
            c,
            request_latency_us,
            extract_latency_us,
            rebuild_latency_us,
            logger: opts.logger.clone(),
            recent: TraceJournal::new(opts.trace_buffer.max(1)),
            slow: TraceJournal::new(32),
            slow_ms: opts.slow_ms,
            inflight_miss: AtomicU64::new(0),
            miss_cost_ms: AtomicU64::new(0),
            flights: Mutex::new(HashMap::new()),
            warm_delta: opts.warm_delta,
        })
    }

    /// Total levels served (1 = full resolution only).
    pub(crate) fn levels(&self) -> u16 {
        self.lods.levels() as u16
    }

    pub(crate) fn report(&self) -> ServerReport {
        let cache = self.cache.lock().expect("cache lock").stats();
        ServerReport {
            connections: self.c.connections.get(),
            requests: self.c.requests.get(),
            mesh_requests: self.c.mesh_requests.get(),
            frame_requests: self.c.frame_requests.get(),
            errors: self.c.errors.get(),
            bytes_out: self.c.bytes_out.get(),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_resident_bytes: cache.resident_bytes,
            cache_resident_entries: cache.resident_entries,
            lod_hits: cache.lod_hits,
            lod_misses: cache.lod_misses,
            shed: self.c.shed.get(),
            // the wire keeps the field; nothing is served degraded
            degraded: 0,
            timed_out: self.c.timed_out.get(),
            drained: self.c.drained.get(),
            accept_backoffs: self.c.accept_backoffs.get(),
            active_connections: self.ctl.live.load(Ordering::Relaxed),
        }
    }

    /// Render the full metrics exposition: the server's own registry (the
    /// gauges freshened first), the cache counters (owned by [`ResultCache`],
    /// so exposed from its stats rather than double-counted), and the
    /// process-global registry (queue-wait histograms recorded by the I/O
    /// layer, which has no handle on this server).
    pub(crate) fn metrics_text(&self) -> String {
        self.metrics
            .gauge("active_connections")
            .set(self.ctl.live.load(Ordering::Relaxed) as i64);
        self.metrics
            .gauge("inflight_miss")
            .set(self.inflight_miss.load(Ordering::Relaxed) as i64);
        let cache = self.cache.lock().expect("cache lock").stats();
        let mut out = self.metrics.render();
        for (name, v) in [
            ("cache_hits_total", cache.hits),
            ("cache_misses_total", cache.misses),
            ("cache_evictions_total", cache.evictions),
            // owned by the cache (promotion happens inside `get`), plus the
            // real requests that joined a warm flight, exposed here next to
            // its speculative_{started,completed,cancelled} registry siblings
            (
                "speculative_hits_total",
                cache.speculative_hits + self.c.spec_joined.get(),
            ),
        ] {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (name, v) in [
            ("cache_resident_bytes", cache.resident_bytes),
            ("cache_resident_entries", cache.resident_entries),
        ] {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        // which kernel the frame checksum runs on this host — detected, not
        // configured, so a throughput number from elsewhere is explainable
        out.push_str(&format!(
            "# TYPE checksum_path gauge\nchecksum_path{{kernel=\"{}\"}} 1\n",
            oociso_exio::crc::path()
        ));
        out.push_str(&oociso_obs::global().render());
        out
    }

    /// Build the trace-request reply: id 0 = the most recent wire-traced
    /// request, otherwise the id is looked up in the recent journal first,
    /// then among retained slow queries.
    pub(crate) fn trace_reply(&self, id: u64) -> Message {
        let found = if id == 0 {
            self.recent.latest()
        } else {
            self.recent.find(id).or_else(|| self.slow.find(id))
        };
        match found {
            Some(ft) => Message::TraceResponse {
                found: true,
                id: ft.id,
                total_us: ft.total.as_micros().min(u64::MAX as u128) as u64,
                dropped: ft.dropped,
                events: ft
                    .events
                    .iter()
                    .map(|e| TraceEvent {
                        id: e.id,
                        parent: e.parent,
                        name: e.name.to_string(),
                        start_us: e.start.as_micros().min(u64::MAX as u128) as u64,
                        dur_us: e.dur.as_micros().min(u64::MAX as u128) as u64,
                        fields: e.fields.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
                    })
                    .collect(),
            },
            None => Message::TraceResponse {
                found: false,
                id,
                total_us: 0,
                dropped: 0,
                events: Vec::new(),
            },
        }
    }

    /// Try to win one cache-miss slot, leaving `reserved` of them free: a
    /// real miss reserves none, a warm build one, so warming never takes
    /// the last slot (and a one- or zero-slot server never warms).
    /// Unlimited slots (`extraction_slots: None`) have no last slot to
    /// protect. `None` means at capacity; the guard releases on drop.
    fn try_slot(self: &Arc<Self>, reserved: u32) -> Option<SlotGuard<S>> {
        let counted = match self.extraction_slots {
            None => false,
            Some(max) => {
                self.inflight_miss
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                        (n + (reserved as u64) < max as u64).then_some(n + 1)
                    })
                    .ok()?;
                true
            }
        };
        Some(SlotGuard {
            state: self.clone(),
            counted,
        })
    }

    /// Fold one observed cache-miss wall-clock into the smoothed cost the
    /// retry-after hint is derived from.
    fn note_miss_cost(&self, wall: Duration) {
        let ms = wall.as_millis().min(u64::MAX as u128) as u64;
        let old = self.miss_cost_ms.load(Ordering::Relaxed);
        let smoothed = if old == 0 { ms } else { (3 * old + ms) / 4 };
        self.miss_cost_ms.store(smoothed.max(1), Ordering::Relaxed);
    }

    /// The retry-after hint for a shed request: the smoothed cost of recent
    /// miss work, clamped to a sane window — before any miss completed, a
    /// conservative floor.
    pub(crate) fn retry_hint_ms(&self) -> u32 {
        clamp_retry_hint(self.miss_cost_ms.load(Ordering::Relaxed))
    }

    /// Feed the extraction-phase histograms from the span durations the
    /// pipeline just recorded into `trace` — one registry-lock resolve per
    /// phase, on the miss path only (misses cost milliseconds-to-seconds;
    /// the lock costs nanoseconds).
    fn record_phases(&self, trace: &Trace) {
        for name in [
            "execute_plan",
            "triangulate",
            "weld",
            "merge_weld",
            "stitch",
            "lod",
        ] {
            let sum = trace.sum(name);
            if !sum.is_zero() {
                self.metrics
                    .histogram(&format!("phase_{name}_us"))
                    .record_duration(sum);
            }
        }
    }

    /// Find who produces the pyramid at `iso`: a flight already building
    /// it, the cache holding every level, or — neither — a new flight the
    /// caller leads. A real caller (`speculative == false`) that joins a
    /// warm flight turns it real.
    fn claim(&self, iso: f32, speculative: bool) -> Claim<'_, S> {
        let key = iso.to_bits();
        let mut flights = self.flights.lock().expect("flights lock");
        if let Some(flight) = flights.get(&key) {
            let mut fs = flight.state.lock().expect("flight lock");
            let warm = !speculative && std::mem::take(&mut fs.speculative);
            return Claim::Join {
                flight: flight.clone(),
                warm,
            };
        }
        // every level resident: a build finished since admission (its
        // inserts are as recent as they get), or there is nothing to warm
        let full = {
            let cache = self.cache.lock().expect("cache lock");
            let levels: Vec<_> = (0..self.levels())
                .map_while(|lod| cache.peek(iso, MC, lod))
                .collect();
            if levels.len() == self.levels() as usize {
                return Claim::Resident(levels);
            }
            levels.into_iter().next()
        };
        let flight = Arc::new(Flight {
            state: Mutex::new(FlightState {
                result: None,
                speculative,
            }),
            done: Condvar::new(),
        });
        flights.insert(key, flight.clone());
        Claim::Lead {
            leader: Leader {
                state: self,
                iso,
                flight,
                published: false,
            },
            full,
        }
    }

    /// Build the pyramid at `iso`: re-decimate from a resident level 0
    /// (`full`), or extract it from disk. Only a real disk extraction
    /// samples the miss-cost EWMA and `extract_latency_us`: they describe
    /// what a client-visible miss costs.
    fn build(
        &self,
        iso: f32,
        full: Option<Arc<CachedSurface>>,
        trace: &Trace,
        speculative: bool,
    ) -> io::Result<Built> {
        if let Some(full) = full {
            return Ok(self.rebuild_from_full(full, trace));
        }
        let t0 = Instant::now();
        // the default (MC) kernel, spans landing in `trace`
        let opts = oociso_cluster::ExtractOptions {
            trace: trace.clone(),
            ..Default::default()
        };
        let (chain, report) = self.db.extract_lods(iso, &self.lods, &opts)?;
        if !speculative {
            let wall = t0.elapsed();
            self.extract_latency_us.record_duration(wall);
            self.record_phases(trace);
            self.note_miss_cost(wall);
        }
        let active_metacells = report.total_active_metacells();
        Ok(Built::new(None, chain.into_levels(), active_metacells))
    }

    /// Re-decimate the coarse levels from an already-resident
    /// full-resolution mesh — the no-disk path when only they were
    /// evicted. It walks the one ladder, [`LodChain::coarse_levels`], that
    /// built the original levels, so the rebuilt ones are byte-identical to
    /// them; it decimates **by reference**, so the full mesh is never
    /// cloned and its cache entry is reused as level 0 untouched.
    fn rebuild_from_full(&self, full: Arc<CachedSurface>, trace: &Trace) -> Built {
        let mut sp = trace.span("rebuild");
        sp.field("levels", self.lods.ratios.len() as u64);
        let coarse =
            LodChain::coarse_levels(&full.mesh, &self.lods.ratios, |level, wall, stats| {
                sp.annotate("decimate", wall, &decimate_fields(level, stats));
            });
        // NOT a `note_miss_cost` sample: a re-decimation costs a fraction
        // of a disk-backed extraction, and when only coarse levels were
        // evicted rebuilds dominate the miss stream — sampling them would
        // drag the `ERR_BUSY` retry hint far below honest extraction cost
        // and invite retry stampedes.
        self.rebuild_latency_us.record_duration(sp.finish());
        let active_metacells = full.active_metacells;
        Built::new(Some(full), coarse, active_metacells)
    }

    /// Insert a built pyramid at `iso`, every fresh level real or (for a
    /// warm flight no real request joined) behind real recency. Returns the
    /// levels in order and whether all of them are resident afterwards.
    fn insert_pyramid(
        &self,
        iso: f32,
        built: Built,
        speculative: bool,
    ) -> (Vec<Arc<CachedSurface>>, bool) {
        let mut cache = self.cache.lock().expect("cache lock");
        let mut levels = Vec::with_capacity(self.levels() as usize);
        if let Some(full) = built.reused {
            if !speculative {
                cache.touch(iso, MC, 0);
            }
            levels.push(full);
        }
        for surface in built.fresh {
            let lod = levels.len() as u16;
            levels.push(if speculative {
                cache.insert_speculative(iso, MC, lod, surface)
            } else {
                cache.insert(iso, MC, lod, surface)
            });
        }
        let landed = levels.iter().zip(0..).all(|(level, lod)| {
            cache
                .peek(iso, MC, lod)
                .is_some_and(|resident| Arc::ptr_eq(&resident, level))
        });
        (levels, landed)
    }

    /// Produce the whole pyramid for a missed mesh or frame request, as the
    /// one single-flight producer: wait for a build of `iso` already in
    /// flight (annotated `flight_wait` on `root`), take the levels if a
    /// build finished since admission, or else lead — re-decimate from a
    /// resident level 0, or extract from disk — and insert. The extraction
    /// runs outside every lock; its spans land in `trace`. Also returns
    /// whether this request extracted from disk: the scrub signal warming
    /// follows. The caller drops the slot afterwards.
    pub(crate) fn pyramid_for(
        &self,
        iso: f32,
        root: &Span,
        trace: &Trace,
    ) -> io::Result<(Vec<Arc<CachedSurface>>, bool)> {
        match self.claim(iso, false) {
            Claim::Resident(levels) => Ok((levels, false)),
            Claim::Join { flight, warm } => {
                let t = Instant::now();
                if warm {
                    self.c.spec_joined.inc();
                }
                let fs = flight.state.lock().expect("flight lock");
                let fs = flight.done.wait_while(fs, |fs| fs.result.is_none());
                let result = fs.expect("flight lock").result.clone().expect("published");
                root.annotate("flight_wait", t.elapsed(), &[("speculative", warm as u64)]);
                Ok((unshare(result)?, false))
            }
            Claim::Lead { mut leader, full } => {
                let extracted = full.is_none();
                let built = self.build(iso, full, trace, false);
                let (levels, _) = leader.publish(built)?;
                Ok((levels, extracted))
            }
        }
    }

    /// Warm the scrub neighbors `iso ± δ` after a real disk miss at `iso`,
    /// inline on the worker that served it, once its reply is posted and
    /// its slot dropped. Nothing is warmed while the server drains, or
    /// when warming is off.
    pub(crate) fn warm_neighbors(self: &Arc<Self>, iso: f32) {
        let Some(delta) = self.warm_delta else { return };
        for neighbor in [iso - delta, iso + delta] {
            // a hard stop always starts as a drain
            if self.ctl.draining.load(Ordering::SeqCst) {
                return;
            }
            if neighbor.is_finite() {
                self.warm(neighbor);
            }
        }
    }

    /// One warm build: a flight with no waiter on a spare slot, inserted
    /// behind real recency. Skipped (counted cancelled) when no spare slot
    /// is free or the pyramid is already resident or in flight. It never
    /// warms further (no speculative cascades).
    fn warm(self: &Arc<Self>, iso: f32) {
        let Some(slot) = self.try_slot(1) else {
            self.c.spec_cancelled.inc();
            return;
        };
        let Claim::Lead { mut leader, full } = self.claim(iso, true) else {
            self.c.spec_cancelled.inc();
            return;
        };
        self.c.spec_started.inc();
        let built = self.build(iso, full, &Trace::detached(), true);
        match leader.publish(built) {
            Ok((_, true)) => self.c.spec_completed.inc(),
            Ok((_, false)) => self.c.spec_cancelled.inc(),
            Err(e) => {
                self.c.spec_cancelled.inc();
                self.logger.warn(
                    "serve",
                    "warm_failed",
                    "speculative extraction failed",
                    &[("iso", iso.to_string()), ("error", e.to_string())],
                );
            }
        }
        drop(slot);
    }

    /// Admission for level `lod` of the surface at `iso`: a hit (one
    /// accounted lookup against `lod`) or the miss tail of
    /// [`State::miss_or_busy`]. Everything here is cheap (mutexed lookups
    /// and atomics, no extraction), so it runs inline on the event loop.
    pub(crate) fn admit_mesh(
        self: &Arc<Self>,
        iso: f32,
        lod: u16,
        root: &Span,
    ) -> Admit<S, Arc<CachedSurface>> {
        let t = Instant::now();
        let hit = self.cache.lock().expect("cache lock").get(iso, MC, lod);
        root.annotate(
            "cache",
            t.elapsed(),
            &[("hit", hit.is_some() as u64), ("lod", lod as u64)],
        );
        match hit {
            Some(hit) => Admit::Hit(hit),
            None => self.miss_or_busy(),
        }
    }

    /// Admission for a frame request, which needs every pyramid level at
    /// `iso`. The request is accounted as exactly one lookup against level
    /// 0: a hit only when the *whole* pyramid is resident, a miss
    /// otherwise — the levels are peeked first, so a partially evicted
    /// pyramid never books a hit for a request that still has to rebuild.
    /// When level 0 survived but a coarser level was evicted,
    /// [`State::pyramid_for`] re-decimates from the resident full mesh —
    /// deterministic, so byte-identical to the original levels — without
    /// touching disk.
    pub(crate) fn admit_frame(
        self: &Arc<Self>,
        iso: f32,
        root: &Span,
    ) -> Admit<S, Vec<Arc<CachedSurface>>> {
        let want = self.levels() as usize;
        let t = Instant::now();
        {
            let mut cache = self.cache.lock().expect("cache lock");
            let levels: Vec<_> = (0..want as u16)
                .map_while(|lod| cache.peek(iso, MC, lod))
                .collect();
            if levels.len() == want {
                cache.account(0, true);
                // the request used every level: refresh them all, or the
                // coarse levels a frame-heavy workload relies on would
                // decay to LRU victims despite being hot
                for lod in 0..want {
                    cache.touch(iso, MC, lod as u16);
                }
                root.annotate("cache", t.elapsed(), &[("hit", 1)]);
                return Admit::Hit(levels);
            }
            cache.account(0, false);
        }
        root.annotate("cache", t.elapsed(), &[("hit", 0)]);
        self.miss_or_busy()
    }

    /// The tail every missed request shares: win a slot and leave as a
    /// `Miss`, or count a shed and answer `Busy` with the retry hint.
    fn miss_or_busy<H>(self: &Arc<Self>) -> Admit<S, H> {
        match self.try_slot(0) {
            Some(slot) => Admit::Miss(slot),
            None => {
                self.c.shed.inc();
                Admit::Busy {
                    retry_after_ms: self.retry_hint_ms(),
                }
            }
        }
    }
}

/// A running server: the bound address plus the serving core's handle.
///
/// Dropping the handle without calling [`IsoServer::stop`] leaves the event
/// loops running detached until the process exits (what the CLI's
/// foreground `serve` does by parking forever).
pub struct IsoServer {
    addr: SocketAddr,
    ctl: Arc<Control>,
    /// Joins every event loop and worker once they exit.
    core: Option<JoinHandle<()>>,
    report: Arc<dyn Fn() -> ServerReport + Send + Sync>,
    metrics: Arc<dyn Fn() -> String + Send + Sync>,
    logger: Logger,
}

impl IsoServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `db`. Returns once the listener is bound and accepting.
    pub fn bind<S: ScalarValue>(
        db: ClusterDatabase<S>,
        addr: impl ToSocketAddrs,
        opts: ServeOptions,
    ) -> io::Result<IsoServer> {
        if opts.lod_ratios.len() >= MAX_LOD_LEVELS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "at most {} LOD ratios (got {})",
                    MAX_LOD_LEVELS - 1,
                    opts.lod_ratios.len()
                ),
            ));
        }
        // reject malformed ladders here, not as a per-request panic deep in
        // LodChain::build: each ratio must be finite, in (0, 1), and
        // strictly decreasing
        let mut prev = 1.0f64;
        for &r in &opts.lod_ratios {
            if !r.is_finite() || r <= 0.0 || r >= prev {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "LOD ratios must be finite, in (0, 1), strictly decreasing: {:?}",
                        opts.lod_ratios
                    ),
                ));
            }
            prev = r;
        }
        if let Some(delta) = opts.warm_delta {
            if !delta.is_finite() || delta <= 0.0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("warm delta must be finite and positive (got {delta})"),
                ));
            }
        }
        if opts.reactor_threads == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "reactor_threads must be at least 1",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        opts.logger.info(
            "serve",
            "checksum_path",
            "frame checksum kernel detected",
            &[("kernel", oociso_exio::crc::path().to_string())],
        );
        // the event loops drain the backlog until `WouldBlock`
        listener.set_nonblocking(true)?;
        let state = State::new(db, &opts);
        let ctl = state.ctl.clone();
        let report_state = state.clone();
        let metrics_state = state.clone();
        #[cfg(unix)]
        let core = crate::reactor::spawn(
            listener,
            state,
            crate::reactor::ReactorConfig {
                reactors: opts.reactor_threads,
                workers: opts.reactor_workers,
                outbound_budget: opts.outbound_budget.max(1),
            },
        )?;
        // the event loops wait on poll(2) and ring socket-pair doorbells
        #[cfg(not(unix))]
        let core = return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "the serving core runs on poll(2): unix targets only",
        ));
        Ok(IsoServer {
            addr,
            ctl,
            core: Some(core),
            report: Arc::new(move || report_state.report()),
            metrics: Arc::new(move || metrics_state.metrics_text()),
            logger: opts.logger,
        })
    }

    /// The address the server actually bound (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Server counters, as a stats request would see them.
    pub fn report(&self) -> ServerReport {
        (self.report)()
    }

    /// The metrics exposition, as a metrics request would see it.
    pub fn metrics(&self) -> String {
        (self.metrics)()
    }

    /// Gracefully stop: [`IsoServer::drain`] with a 5-second deadline.
    pub fn stop(self) -> ServerReport {
        self.drain(Duration::from_secs(5))
    }

    /// Graceful drain: stop accepting, let every in-flight request finish
    /// (replies completed during the drain are counted `drained`), then
    /// hard-close whatever is left when `deadline` expires and join the
    /// serving core. Returns the final counters.
    pub fn drain(mut self, deadline: Duration) -> ServerReport {
        self.ctl.draining.store(true, Ordering::SeqCst);
        self.ctl.wake_all();
        let t0 = Instant::now();
        while self.ctl.live.load(Ordering::SeqCst) > 0 && t0.elapsed() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let stuck = self.ctl.live.load(Ordering::SeqCst);
        if stuck > 0 {
            self.logger.warn(
                "serve",
                "drain_timeout",
                "drain deadline expired with connections still live; hard-closing",
                &[
                    ("live", stuck.to_string()),
                    ("deadline_ms", deadline.as_millis().to_string()),
                ],
            );
        }
        self.ctl.shutdown.store(true, Ordering::SeqCst);
        self.ctl.wake_all();
        if let Some(h) = self.core.take() {
            let _ = h.join();
        }
        (self.report)()
    }

    /// Block this thread forever (foreground serving).
    pub fn park(self) -> ! {
        loop {
            std::thread::park();
        }
    }
}

/// A computed response, still to be encoded by [`Reply::finalize`]: a
/// message, or a whole cached level, whose frame is written straight from
/// the shared mesh (the hit and miss paths, which must not copy it).
// one transient `Reply` per handled request — the `Message` variant's
// inline size never accumulates, so boxing would only add indirection
#[allow(clippy::large_enum_variant)]
pub(crate) enum Reply {
    Msg(Message),
    Surface {
        surface: Arc<CachedSurface>,
        cache_hit: bool,
        lod: u16,
        trace_id: u64,
    },
}

impl Reply {
    /// Encode, booking the error counter — every reply but a protocol
    /// violation's or a shed connection's ends here. A whole level's frame
    /// holds the level itself; only its head, tail and checksum are built.
    pub(crate) fn finalize<S: ScalarValue>(self, state: &State<S>) -> Frame {
        if matches!(self, Reply::Msg(Message::Error { .. })) {
            state.c.errors.inc();
        }
        match self {
            Reply::Msg(msg) => Frame::Owned(encode_frame(&msg)),
            Reply::Surface {
                surface,
                cache_hit,
                lod,
                trace_id,
            } => Frame::level(
                MeshFields {
                    cache_hit,
                    active_metacells: surface.active_metacells,
                    served_lod: lod,
                    degraded: false,
                    backend: MC,
                    trace_id,
                },
                surface,
            ),
        }
    }

    /// [`Reply::finalize`] under the request's `encode` span annotation.
    pub(crate) fn finalize_traced<S: ScalarValue>(self, state: &State<S>, root: &Span) -> Frame {
        let clock = EncodeClock::start();
        let frame = self.finalize(state);
        clock.annotate(root, frame.len());
        frame
    }
}

/// Stopwatch for a request's `encode` annotation: wall time of the encode,
/// frame `bytes`, and `crc_us`, the part of that wall the frame checksum
/// took (read off the encoding thread's [`crc_time`] clock, so start and
/// annotate on the thread that encodes).
pub(crate) struct EncodeClock {
    started: Instant,
    crc_before: Duration,
}

impl EncodeClock {
    pub(crate) fn start() -> Self {
        EncodeClock {
            started: Instant::now(),
            crc_before: crc_time(),
        }
    }

    pub(crate) fn annotate(self, root: &Span, bytes: usize) {
        root.annotate(
            "encode",
            self.started.elapsed(),
            &[
                ("bytes", bytes as u64),
                ("crc_us", (crc_time() - self.crc_before).as_micros() as u64),
            ],
        );
    }
}

/// The wire trace id a request carries, if its type can carry one.
pub(crate) fn request_trace_id(msg: &Message) -> u64 {
    match msg {
        Message::MeshRequest { trace_id, .. } | Message::FrameRequest { trace_id, .. } => *trace_id,
        _ => 0,
    }
}

/// Largest viewport a frame request may ask for, in pixels. A framebuffer
/// is 8 B/px and the response roughly triples that (buffer + regions +
/// encoded payload), so this bounds a single well-formed request's
/// allocations to ~200 MB instead of letting a 16384² ask commit gigabytes.
const MAX_FRAME_PIXELS: usize = 8 << 20;

/// The structured overload reply: the hint rides as a typed field and in
/// the detail text.
pub(crate) fn busy_reply(context: &str, retry_after_ms: u32) -> Message {
    Message::Error {
        code: ERR_BUSY,
        detail: format!("{context}; retry in {retry_after_ms} ms"),
        retry_after_ms: Some(retry_after_ms),
    }
}

/// Validate a mesh request's LOD and backend selector. `Err` is the error
/// reply to send; the connection survives either rejection.
// the Err is a ready-to-send reply by design; it is moved straight into the
// response path, never propagated through fallible call chains
#[allow(clippy::result_large_err)]
pub(crate) fn validate_mesh_request<S: ScalarValue>(
    state: &State<S>,
    lod: u16,
    backend: Option<u8>,
) -> Result<(), Reply> {
    if lod >= state.levels() {
        return Err(Reply::Msg(Message::Error {
            code: ERR_BAD_LOD,
            detail: format!(
                "lod {lod} out of range: server has {} level(s)",
                state.levels()
            ),
            retry_after_ms: None,
        }));
    }
    // "none named" (0xFF on the wire) and MC are served; any other id is
    // rejected structurally, connection kept
    match backend {
        None | Some(MC) => Ok(()),
        Some(id) => Err(Reply::Msg(Message::Error {
            code: ERR_BAD_BACKEND,
            detail: format!(
                "backend id {id} is not served: this server serves mc (id {MC}) only; \
                 `oociso extract --backend surfacenets` is the offline path"
            ),
            retry_after_ms: None,
        })),
    }
}

/// Validate a frame request's viewport/tiling. `Some` is the rejection.
pub(crate) fn validate_frame_request(params: &FrameParams) -> Option<Reply> {
    let (w, h) = (params.width as usize, params.height as usize);
    let (cols, rows) = (params.tile_cols as usize, params.tile_rows as usize);
    let problem = match TileLayout::try_new(cols, rows, w, h) {
        Err(e) => e,
        Ok(_) if w.saturating_mul(h) > MAX_FRAME_PIXELS => {
            format!("a {w}x{h} viewport is over the pixel cap {MAX_FRAME_PIXELS}")
        }
        Ok(_) => return None,
    };
    Some(Reply::Msg(Message::Error {
        code: ERR_MALFORMED,
        detail: format!("bad viewport: {problem}"),
        retry_after_ms: None,
    }))
}

/// The `ERR_INTERNAL` reply for a failed extraction.
pub(crate) fn internal_error_reply(e: &io::Error) -> Reply {
    Reply::Msg(Message::Error {
        code: ERR_INTERNAL,
        detail: format!("extraction failed: {e}"),
        retry_after_ms: None,
    })
}

/// Level `lod` of a surface as a mesh reply: the shared cached mesh
/// itself without a region (only the head, tail and CRC-32 are built, so
/// the encode costs what the checksum costs, ≈ 0.1–0.25 ms for a 2.2 MB
/// level), or filtered to the region (an owned copy, milliseconds, so only
/// ever on a worker).
pub(crate) fn mesh_reply(
    surface: Arc<CachedSurface>,
    cache_hit: bool,
    lod: u16,
    region: Option<Region>,
    trace_id: u64,
) -> Reply {
    match region {
        None => Reply::Surface {
            surface,
            cache_hit,
            lod,
            trace_id,
        },
        Some(r) => {
            let (lo, hi) = r.corners();
            Reply::Msg(Message::MeshResponse {
                cache_hit,
                active_metacells: surface.active_metacells,
                served_lod: lod,
                degraded: false,
                backend: MC,
                trace_id,
                mesh: surface.mesh.filter_region(lo, hi),
            })
        }
    }
}

/// Screen-space error budget (pixels) for per-tile LOD selection in frame
/// mode: a tile takes the coarsest level whose projected error stays under
/// it.
const LOD_TOLERANCE_PX: f32 = 1.0;

/// Rasterize an admitted frame request from its resident pyramid (on a
/// worker, never the event loop).
pub(crate) fn frame_render_reply(
    levels: &[Arc<CachedSurface>],
    cache_hit: bool,
    params: &FrameParams,
    trace_id: u64,
) -> Reply {
    let (w, h) = (params.width as usize, params.height as usize);
    let (cols, rows) = (params.tile_cols as usize, params.tile_rows as usize);
    let tiles = TileLayout::new(cols, rows, w, h);
    let full = &levels[0].mesh;
    let mut regions = Vec::with_capacity(tiles.num_tiles());
    if full.is_empty() {
        let fb = Framebuffer::new(w, h);
        regions = tiles.shard(&fb);
    } else {
        let bounds = full.bounds();
        let camera = Camera::orbiting(&bounds, params.azimuth, params.elevation, params.distance);
        // one LOD level per tile by projected error; each selected level
        // rasterizes its full framebuffer once, tiles then cut their
        // region from their level's buffer
        let errors: Vec<f64> = levels.iter().map(|l| l.world_error).collect();
        let picks = select_tile_levels(&tiles, &camera, &bounds, &errors, LOD_TOLERANCE_PX);
        let mut buffers: Vec<Option<Framebuffer>> = Vec::new();
        buffers.resize_with(levels.len(), || None);
        for (t, &level) in picks.iter().enumerate() {
            if buffers[level].is_none() {
                let mut fb = Framebuffer::new(w, h);
                rasterize_mesh(&levels[level].mesh, &camera, [0.9, 0.78, 0.5], &mut fb);
                buffers[level] = Some(fb);
            }
            let fb = buffers[level].as_ref().expect("just rasterized");
            regions.push(oociso_render::FrameRegion::extract(
                fb,
                tiles.tile_origin(t),
                tiles.tile_size(),
            ));
        }
    }
    Reply::Msg(Message::FrameResponse {
        cache_hit,
        width: params.width,
        height: params.height,
        regions,
        trace_id,
    })
}

/// Answer a request that needs no admission — stats, ping, metrics, trace
/// lookups, and client messages of a server-to-client type — inline on the
/// event loop (all sub-millisecond). Mesh and frame requests go through
/// admission in [`crate::reactor`] and never reach here.
pub(crate) fn respond<S: ScalarValue>(state: &State<S>, msg: Message) -> Reply {
    match msg {
        Message::StatsRequest => Reply::Msg(Message::StatsResponse(state.report())),
        Message::Ping { payload } => Reply::Msg(Message::Pong { payload }),
        // exposition text covers this server's registry, the cache counters,
        // and the process-global registry (background queue waits)
        Message::MetricsRequest => Reply::Msg(Message::MetricsResponse {
            text: state.metrics_text(),
        }),
        // id 0 = latest wire-traced request; otherwise search recent then slow
        Message::TraceRequest { id } => Reply::Msg(state.trace_reply(id)),
        // a client sending server-to-client messages is confused
        other => Reply::Msg(Message::Error {
            code: ERR_MALFORMED,
            detail: format!("unexpected client message type {}", other.msg_type()),
            retry_after_ms: None,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oociso_core::PreprocessOptions;
    use oociso_volume::field::{FieldExt, SphereField};
    use oociso_volume::{Dims3, Volume};
    use std::sync::Arc;

    /// A [`State`] over a real (tiny) single-node database in a fresh temp
    /// directory — lets unit tests drive extraction, rebuild, and warming
    /// directly, without a socket in the way.
    fn test_state(name: &str, opts: ServeOptions) -> Arc<State<u8>> {
        sphere_state(name, opts, 17)
    }

    /// [`test_state`] over a sphere sampled on an `n`³ grid.
    fn sphere_state(name: &str, opts: ServeOptions, n: usize) -> Arc<State<u8>> {
        let mut dir = std::env::temp_dir();
        dir.push(format!("oociso_server_unit_{}_{name}", std::process::id()));
        let vol: Volume<u8> = SphereField::centered(0.32, 128.0).sample(Dims3::cube(n));
        let db = ClusterDatabase::preprocess(
            &vol,
            &dir,
            &PreprocessOptions {
                nodes: 1,
                ..Default::default()
            },
        )
        .unwrap();
        State::new(db, &opts)
    }

    /// A real miss at `iso` through the one producer, as a worker runs it.
    fn miss(state: &State<u8>, iso: f32) -> (Vec<Arc<CachedSurface>>, bool) {
        let trace = Trace::detached();
        state
            .pyramid_for(iso, &trace.span("request"), &trace)
            .unwrap()
    }

    // pyramid re-decimations record their own histogram but never sample
    // the miss-cost EWMA — a storm of cheap rebuilds must not drag the
    // ERR_BUSY retry hint below honest extraction cost
    #[test]
    fn rebuilds_do_not_feed_the_retry_hint() {
        let state = test_state(
            "rebuild_hint",
            ServeOptions {
                lod_ratios: vec![0.5],
                ..Default::default()
            },
        );
        let (levels, extracted) = miss(&state, 110.0);
        assert!(extracted, "a cold miss extracts from disk");
        assert!(
            state.miss_cost_ms.load(Ordering::Relaxed) > 0,
            "a real miss must sample the EWMA"
        );
        // pin the EWMA at a sentinel, run a rebuild, assert it is untouched
        state.miss_cost_ms.store(5000, Ordering::Relaxed);
        let rebuilt = state.rebuild_from_full(levels[0].clone(), &Trace::detached());
        assert_eq!(rebuilt.fresh.len(), 1);
        assert_eq!(
            state.miss_cost_ms.load(Ordering::Relaxed),
            5000,
            "rebuilds must not sample the miss-cost EWMA"
        );
        assert_eq!(
            state.rebuild_latency_us.snapshot().count,
            1,
            "rebuild wall time still lands in its own histogram"
        );
    }

    // `rebuild_from_full` walks the ladder a miss walks, so a pyramid rebuilt
    // from a resident level 0 is the miss pyramid, bit for bit — on a
    // sphere big enough that the decimator tiles its first level
    #[test]
    fn rebuilt_pyramid_is_the_miss_pyramid_bit_for_bit() {
        let state = sphere_state(
            "rebuild_bits",
            ServeOptions {
                lod_ratios: vec![0.25, 0.06],
                ..Default::default()
            },
            64,
        );
        let (missed, _) = miss(&state, 110.0);
        assert_eq!(missed.len(), 3);
        assert!(
            missed[0].mesh.len() >= 2 * oociso_march::decimate::MIN_TILE_FACES,
            "level 0 must be big enough to tile"
        );
        let built = state.rebuild_from_full(missed[0].clone(), &Trace::detached());
        let (rebuilt, landed) = state.insert_pyramid(110.0, built, false);
        assert!(landed);
        assert_eq!(rebuilt.len(), missed.len());
        assert!(Arc::ptr_eq(&rebuilt[0], &missed[0]), "level 0 is reused");
        for (lod, (a, b)) in missed.iter().zip(&rebuilt).enumerate().skip(1) {
            assert_eq!(a.mesh, b.mesh, "level {lod} mesh differs");
            assert_eq!(
                a.world_error.to_bits(),
                b.world_error.to_bits(),
                "level {lod} world error differs"
            );
        }
    }

    // an extraction whose result is too big to cache (pass-through) still
    // feeds the miss-cost EWMA and the extract-latency histogram — the
    // costliest extractions are exactly the ones the retry hint must see
    #[test]
    fn oversized_pass_through_extractions_still_feed_the_hint() {
        let state = test_state(
            "oversized_hint",
            ServeOptions {
                cache_bytes: 1,
                ..Default::default()
            },
        );
        let (levels, _) = miss(&state, 110.0);
        assert!(!levels[0].mesh.is_empty(), "the sphere must triangulate");
        let cache = state.cache.lock().unwrap().stats();
        assert_eq!(
            cache.resident_entries, 0,
            "1-byte budget: every entry passed through uncached"
        );
        assert!(
            state.miss_cost_ms.load(Ordering::Relaxed) > 0,
            "pass-through extraction must sample the EWMA"
        );
        assert_eq!(
            state.extract_latency_us.snapshot().count,
            1,
            "pass-through extraction must sample extract_latency_us"
        );
    }

    // warm admission: a warm build may take a spare slot but never the last
    // one, so a single-slot server simply never warms
    #[test]
    fn warm_slot_never_takes_the_last_one() {
        let state = test_state(
            "warm_slot",
            ServeOptions {
                extraction_slots: Some(2),
                warm_delta: Some(4.0),
                ..Default::default()
            },
        );
        let spare = state.try_slot(1).expect("one spare slot available");
        assert!(
            state.try_slot(1).is_none(),
            "the last slot is reserved for real traffic"
        );
        let real = state
            .try_slot(0)
            .expect("a real request wins the last slot");
        drop(real);
        drop(spare);

        let single = test_state(
            "warm_slot_single",
            ServeOptions {
                extraction_slots: Some(1),
                warm_delta: Some(4.0),
                ..Default::default()
            },
        );
        assert!(single.try_slot(1).is_none(), "one slot: never warm");
        single.warm_neighbors(110.0);
        assert_eq!(single.c.spec_cancelled.get(), 2, "both neighbors skipped");
        assert_eq!(single.c.spec_started.get(), 0);
        assert!(single.try_slot(0).is_some(), "…but real traffic is served");
    }

    // the warming pipeline end to end at the State level: a real miss
    // extracts (the warm trigger), warming its neighbors builds their
    // pyramids speculatively, a later real query promotes one (counting
    // speculative_hits), and none of it samples client-visible miss
    // economics
    #[test]
    fn warm_jobs_fill_the_cache_behind_real_traffic() {
        let state = test_state(
            "warm_pipeline",
            ServeOptions {
                warm_delta: Some(4.0),
                lod_ratios: vec![0.5],
                ..Default::default()
            },
        );
        let (_, extracted) = miss(&state, 110.0);
        assert!(extracted, "a disk miss is the warm trigger");
        // the EWMA pinned, to prove warming never samples it
        state.miss_cost_ms.store(5000, Ordering::Relaxed);
        state.warm_neighbors(110.0);
        assert_eq!(state.c.spec_started.get(), 2, "v-δ and v+δ");
        assert_eq!(state.c.spec_completed.get(), 2);
        assert_eq!(state.miss_cost_ms.load(Ordering::Relaxed), 5000);
        assert_eq!(
            state.extract_latency_us.snapshot().count,
            1,
            "only the real miss samples extract_latency_us"
        );
        assert!(state.flights.lock().unwrap().is_empty(), "flights retired");
        // the warmed pyramids are resident; the first real query promotes
        for iso in [106.0, 114.0] {
            for lod in 0..2 {
                assert!(state.cache.lock().unwrap().peek(iso, MC, lod).is_some());
            }
        }
        let hit = state.cache.lock().unwrap().get(114.0, MC, 0);
        assert!(hit.is_some(), "warmed level must be resident");
        assert_eq!(state.cache.lock().unwrap().stats().speculative_hits, 1);
        // re-warming a resident isovalue is skipped, counted cancelled
        state.warm(114.0);
        assert_eq!(state.c.spec_cancelled.get(), 1);
        assert_eq!(state.c.spec_started.get(), 2, "a skip never starts");
    }

    // a warm build whose level is larger than the whole budget is dropped
    // by the speculative insert: it did not land, so it is cancelled, not
    // completed
    #[test]
    fn warm_build_over_budget_is_cancelled_not_completed() {
        let state = test_state(
            "warm_budget",
            ServeOptions {
                warm_delta: Some(4.0),
                cache_bytes: 64,
                ..Default::default()
            },
        );
        state.warm(114.0);
        assert_eq!(state.c.spec_started.get(), 1);
        assert_eq!(state.c.spec_completed.get(), 0, "nothing landed");
        assert_eq!(state.c.spec_cancelled.get(), 1);
        assert!(state.cache.lock().unwrap().peek(114.0, MC, 0).is_none());
    }

    /// A real request parked on a flight, on its own thread.
    type Joiner = std::thread::JoinHandle<io::Result<Vec<Arc<CachedSurface>>>>;

    /// Lead a warm flight at `iso` by hand and park a real request on it.
    fn real_request_joins_warm_flight(
        state: &Arc<State<u8>>,
        iso: f32,
    ) -> (Leader<'_, u8>, Joiner) {
        let Claim::Lead { leader, full: None } = state.claim(iso, true) else {
            panic!("a cold isovalue is led");
        };
        let joiner = {
            let state = state.clone();
            std::thread::spawn(move || {
                let trace = Trace::detached();
                state
                    .pyramid_for(iso, &trace.span("request"), &trace)
                    .map(|(levels, extracted)| {
                        assert!(!extracted, "a joiner never extracts");
                        levels
                    })
            })
        };
        // joining turns the flight real
        while leader.flight.state.lock().unwrap().speculative {
            std::thread::yield_now();
        }
        (leader, joiner)
    }

    // a real request that joins a warm flight waits for it instead of
    // extracting, gets its levels at real recency, and counts one
    // speculative hit
    #[test]
    fn a_real_join_turns_a_warm_flight_real() {
        let state = test_state(
            "warm_join",
            ServeOptions {
                warm_delta: Some(4.0),
                ..Default::default()
            },
        );
        let (mut leader, joiner) = real_request_joins_warm_flight(&state, 114.0);
        let built = state.build(114.0, None, &Trace::detached(), true);
        let (levels, landed) = leader.publish(built).unwrap();
        assert!(landed);
        let joined = joiner.join().unwrap().unwrap();
        assert!(Arc::ptr_eq(&joined[0], &levels[0]), "the leader's levels");
        assert_eq!(state.extract_latency_us.snapshot().count, 0);
        assert_eq!(state.c.spec_joined.get(), 1);
        let text = state.metrics_text();
        assert!(text.contains("\nspeculative_hits_total 1\n"), "{text}");
        // inserted as real: a later lookup is no second speculative hit
        assert!(state.cache.lock().unwrap().get(114.0, MC, 0).is_some());
        assert_eq!(state.cache.lock().unwrap().stats().speculative_hits, 0);
    }

    // a leader that never publishes (a panic unwinding through it) wakes
    // every waiter with an error and retires the flight: nothing wedges
    // and nothing is cached
    #[test]
    fn an_abandoned_flight_wakes_its_waiters_with_an_error() {
        let state = test_state("flight_abandoned", ServeOptions::default());
        let (leader, joiner) = real_request_joins_warm_flight(&state, 114.0);
        drop(leader);
        let e = joiner
            .join()
            .unwrap()
            .expect_err("the build never finished");
        assert!(e.to_string().contains("panicked"), "{e}");
        assert!(state.flights.lock().unwrap().is_empty(), "flight retired");
        assert!(state.cache.lock().unwrap().peek(114.0, MC, 0).is_none());
        // the next request leads afresh
        let (levels, extracted) = miss(&state, 114.0);
        assert!(extracted && !levels[0].mesh.is_empty());
    }

    // the cold-start contract: with no miss samples the EWMA reads 0, and a
    // shed client must still be told to wait the documented floor — never
    // "retry in 0 ms", which would synchronize a re-storm
    #[test]
    fn retry_hint_cold_start_clamps_to_floor() {
        assert_eq!(clamp_retry_hint(0), RETRY_HINT_FLOOR_MS as u32);
        assert_eq!(clamp_retry_hint(1), RETRY_HINT_FLOOR_MS as u32);
        assert_eq!(
            clamp_retry_hint(RETRY_HINT_FLOOR_MS),
            RETRY_HINT_FLOOR_MS as u32
        );
        assert_eq!(clamp_retry_hint(500), 500);
        assert_eq!(clamp_retry_hint(u64::MAX), RETRY_HINT_CEIL_MS as u32);
    }
}

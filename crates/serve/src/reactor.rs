//! The serving core: N event loops over `poll(2)`, request pipelining,
//! bounded outbound queues, and an off-loop extraction worker pool.
//!
//! ## Ownership model
//!
//! Each event-loop thread owns one [`Poller`], an accepted share of the
//! connections, and everything about them — buffers, in-order pending
//! replies, deadlines. A connection is touched by exactly one thread for
//! its whole life (the loop it was placed on), so per-connection state
//! needs no locks. All loops watch the shared listener (level-triggered)
//! and drain its backlog on wakeup, but whichever loop wakes first only
//! *accepts*: each stream is handed to the loop with the fewest live
//! connections ([`Placement`]) through that loop's mailbox, so clients that
//! connect together do not queue behind each other on one event loop.
//!
//! ## Request lifecycle
//!
//! Bytes are read until `WouldBlock` into a per-connection buffer and
//! decoded incrementally ([`crate::protocol::decode_frame_bytes`]). Each
//! decoded request is **dispatched in arrival order**: validation, cache
//! probes, and admission control run inline on the event loop (they cost
//! microseconds), so a shed happens the instant a request arrives, and an
//! unfiltered mesh hit is answered there: its frame is the cached level
//! itself between a head and a tail built for the reply.
//! Work that costs milliseconds ships to the worker pool as one of two
//! jobs: a miss (extraction or pyramid rebuild, holding the slot it won)
//! or a hit whose answer is expensive (a region filter, a rasterization).
//! The worker encodes the reply, posts the frame to the owning loop's
//! completion queue and rings its [`Doorbell`]; a worker whose miss
//! extracted from disk then warms its scrub neighbors, when warming is on.
//!
//! ## Pipelining and ordering
//!
//! A client may pipeline any number of requests on one connection. Every
//! request takes a slot in the connection's pending queue at dispatch and
//! is answered by exactly one frame, and replies are released strictly in
//! request order — a fast cache hit
//! queued behind a slow extraction waits for it, so responses can never
//! interleave or reorder. Dispatch (and therefore admission accounting)
//! also happens in request order; only the *execution* of admitted misses
//! overlaps.
//!
//! ## Backpressure
//!
//! Completed replies enter a per-connection outbound queue written out
//! incrementally as the socket accepts bytes, one vectored write at a time
//! across a frame's parts. A queued whole-level reply pins its cached level
//! (an `Arc`), so an eviction never tears it and it holds no copy; the
//! queue still counts its full length. When queued-but-unsent bytes
//! exceed [`crate::server::ServeOptions::outbound_budget`], the loop stops
//! *reading* that connection (drops its read interest) until the queue
//! drains below half the budget — a client that pipelines requests but
//! never reads responses stalls itself, not the server.
//!
//! ## Deadlines and descriptor exhaustion
//!
//! Read, write, idle and shed deadlines are checked on every wakeup, and
//! each `wait` sleeps no longer than the nearest one. When `accept` runs out
//! of file descriptors, every loop stops watching the listener for
//! [`ACCEPT_BACKOFF`] — the pending backlog would otherwise wake them on
//! every wait — and watches it again once the back-off expires.

#![cfg(unix)]

use crate::cache::CachedSurface;
use crate::protocol::{
    decode_frame_bytes, encode_frame, Frame, FrameIn, FrameParams, FrameStep, Message, Region,
    ERR_BUSY, MAX_REQUEST_PAYLOAD,
};
use crate::server::{
    busy_reply, frame_render_reply, internal_error_reply, mesh_reply, request_trace_id, respond,
    validate_frame_request, validate_mesh_request, Admit, Reply, SlotGuard, State,
};
use oociso_exio::poll::{Doorbell, Event, Interest, Poller};
use oociso_obs::{Counter, Gauge, Histogram, Logger, Span, Trace, DEFAULT_TRACE_EVENTS};
use oociso_volume::ScalarValue;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sizing and flow-control knobs resolved from `ServeOptions`.
pub(crate) struct ReactorConfig {
    pub reactors: usize,
    pub workers: usize,
    pub outbound_budget: usize,
}

/// Safety-net poll timeout: all real wakeups arrive via fd readiness, the
/// doorbell, or a computed deadline remainder — this only bounds the damage
/// of a hypothetical missed wakeup.
const IDLE_POLL: Duration = Duration::from_millis(1000);

/// Over-cap connections get at most this long to present the one frame
/// their `ERR_BUSY` reply answers.
const SHED_DEADLINE: Duration = Duration::from_secs(2);

/// How long every loop leaves the listener alone once `accept` runs out of
/// file descriptors.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(100);

const TOKEN_DOORBELL: u64 = 0;
const TOKEN_LISTENER: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;

/// One reactor's cross-thread mailbox: completed jobs land here; the
/// doorbell (registered in that reactor's poller) announces them.
struct Mailbox {
    completions: Mutex<Vec<Completion>>,
    /// Streams another loop accepted and [`Placement`] assigned to this one.
    accepted: Mutex<Vec<TcpStream>>,
    doorbell: Doorbell,
}

/// The listening socket every loop watches, and the descriptor-exhaustion
/// back-off they share. Out of descriptors, the pending backlog keeps the
/// level-triggered listener readable, so a loop that kept watching it would
/// wake, fail to accept, and wake again at full speed.
struct Listener {
    socket: TcpListener,
    backoff: Mutex<AcceptBackoff>,
}

#[derive(Default)]
struct AcceptBackoff {
    /// No loop watches the listener before this instant.
    until: Option<Instant>,
    /// Out of descriptors since the last successful accept: the warning
    /// fires once per episode.
    starved: bool,
}

/// `EMFILE`/`ENFILE`: the process or system is out of file descriptors.
/// Accepting will keep failing until something closes.
pub(crate) fn fd_exhausted(e: &io::Error) -> bool {
    matches!(e.raw_os_error(), Some(23) | Some(24)) // ENFILE | EMFILE
}

/// Book one fd-exhausted accept failure: the backoff counter ticks on every
/// back-off, but the structured warning fires once per starvation *episode*
/// — `starved` stays set until a successful accept resets it, so a wedged
/// process emits one log line, not one per back-off.
pub(crate) fn note_fd_exhaustion(
    backoffs: &Counter,
    logger: &Logger,
    e: &io::Error,
    starved: &mut bool,
) {
    backoffs.inc();
    if !*starved {
        *starved = true;
        logger.warn(
            "serve",
            "accept_backoff",
            "accept failed; backing off until fds free up",
            &[("error", e.to_string())],
        );
    }
}

/// Which loop an accepted connection goes to: the one with the fewest live
/// connections, ties to the lowest index. One small lock makes choosing and
/// counting a single step, so loops that wake for the same backlog cannot
/// both pick the same "emptiest" loop.
struct Placement {
    loops: Mutex<Vec<LoopLoad>>,
    mailboxes: Vec<Arc<Mailbox>>,
}

struct LoopLoad {
    /// Connections the loop owns, counted from the moment they are assigned
    /// (a stream still in its mailbox already weighs on the next choice).
    conns: usize,
    /// Cleared once the loop stops taking connections (drain or exit).
    open: bool,
}

impl Placement {
    /// Assign `stream`, accepted by loop `me`. Returns it when `me` is the
    /// chosen loop; otherwise it is in the chosen loop's mailbox and that
    /// loop's doorbell has been rung.
    fn place(&self, me: usize, stream: TcpStream) -> Option<TcpStream> {
        let mut loops = self.loops.lock().expect("placement lock");
        let target = loops
            .iter()
            .enumerate()
            .filter(|(_, l)| l.open)
            .min_by_key(|&(i, l)| (l.conns, i))
            .map_or(me, |(i, _)| i);
        loops[target].conns += 1;
        if target == me {
            return Some(stream);
        }
        // pushed under the placement lock, so `retire` cannot slip between
        // the choice and the hand-off and strand the stream
        let mailbox = &self.mailboxes[target];
        mailbox.accepted.lock().expect("accepted lock").push(stream);
        drop(loops);
        let _ = mailbox.doorbell.notify();
        None
    }

    /// One of loop `me`'s connections is gone (or never got registered).
    fn release(&self, me: usize) {
        self.loops.lock().expect("placement lock")[me].conns -= 1;
    }

    /// Loop `me` takes no more connections. Returns the streams that were
    /// assigned to it but not yet picked up (still counted as its own).
    fn retire(&self, me: usize) -> Vec<TcpStream> {
        let mut loops = self.loops.lock().expect("placement lock");
        loops[me].open = false;
        std::mem::take(&mut *self.mailboxes[me].accepted.lock().expect("accepted lock"))
    }
}

/// An encoded reply frame coming back from the worker pool.
struct Completion {
    token: u64,
    seq: u64,
    payload: OutPayload,
}

/// Everything needed to account a reply when its last byte reaches the
/// kernel ([`finish_reply`]).
struct ReplyMeta {
    /// When the reply was posted: encoded on the loop, or handed back by a
    /// worker. Its `out_queue` phase runs from here to the first write.
    posted: Instant,
    root: Option<Span>,
    trace: Option<Trace>,
    trace_id: u64,
    /// Close the connection once this reply is flushed (protocol violation
    /// with lost framing, or a shed connection's one allowed reply).
    close_after: bool,
}

/// An encoded reply plus its accounting.
struct OutPayload {
    frame: Frame,
    meta: ReplyMeta,
}

impl OutPayload {
    /// A request's reply, carrying its span and trace to [`finish_reply`].
    fn traced(frame: Frame, root: Span, trace: Trace, trace_id: u64) -> OutPayload {
        OutPayload {
            frame,
            meta: ReplyMeta {
                posted: Instant::now(),
                root: Some(root),
                trace: Some(trace),
                trace_id,
                close_after: false,
            },
        }
    }

    /// An error frame answering no decoded request (a protocol violation or
    /// a shed connection), optionally closing the connection once flushed.
    fn untraced(bytes: Vec<u8>, close_after: bool) -> OutPayload {
        OutPayload {
            frame: Frame::Owned(bytes),
            meta: ReplyMeta {
                posted: Instant::now(),
                root: None,
                trace: None,
                trace_id: 0,
                close_after,
            },
        }
    }
}

/// One reply slot in a connection's in-order pending queue: every request
/// owns one slot and is answered by exactly one frame. A slot is released
/// only once its frame is in hand, and only from the front of the queue, so
/// replies stay strictly ordered per connection.
struct Pending {
    seq: u64,
    /// The encoded reply, once the event loop or a worker produced it.
    reply: Option<OutPayload>,
}

/// What classification decided for one request: answered on the event
/// loop, or shipped to the worker pool (which posts the reply back).
// one transient value per dispatched request, moved straight into its
// pending slot — boxing the inline frame would only add an allocation
#[allow(clippy::large_enum_variant)]
enum Classified {
    Inline(OutPayload),
    Offloaded,
}

/// A reply frame being written out, with a write cursor across its parts.
struct OutFrame {
    frame: Frame,
    /// [`Frame::len`], the bytes this frame adds to the backpressure count.
    len: usize,
    off: usize,
    /// When the first of its bytes reached the kernel.
    first_write: Option<Instant>,
    /// Writes that accepted some of its bytes.
    writes: u64,
    meta: ReplyMeta,
}

/// Per-connection state machine. Owned by exactly one reactor thread.
struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    pending: VecDeque<Pending>,
    next_seq: u64,
    out: VecDeque<OutFrame>,
    /// Queued-but-unsent response bytes (the backpressure quantity).
    out_bytes: usize,
    /// Backpressure engaged: reads stopped until the queue drains.
    paused: bool,
    /// No further bytes will be parsed or read (EOF, violation, shed reply
    /// queued, or drain).
    stop_reading: bool,
    /// A reply marked `close_after` has been fully flushed.
    finished: bool,
    /// Peer closed its write half.
    eof: bool,
    /// Over the connection cap: gets one `ERR_BUSY` for its first frame.
    shed: bool,
    /// What the poller currently watches for this stream.
    interest: Interest,
    accepted_at: Instant,
    last_read_progress: Instant,
    last_write_progress: Instant,
    /// Start of the current between-requests gap (the idle clock).
    idle_since: Instant,
    counted_live: bool,
}

/// What a mesh or frame request asked for: answered on a worker once its
/// surfaces are in hand.
enum Want {
    Mesh { lod: u16, region: Option<Region> },
    Frame(FrameParams),
}

impl Want {
    /// The surfaces a missed request is answered from, out of the pyramid
    /// its miss built: what its hit would have held.
    fn pick(&self, mut pyramid: Vec<Arc<CachedSurface>>) -> Vec<Arc<CachedSurface>> {
        match self {
            Want::Mesh { lod, .. } => vec![pyramid.swap_remove(*lod as usize)],
            Want::Frame(_) => pyramid,
        }
    }

    /// Answer from `surfaces`: the one level of a mesh request, the whole
    /// pyramid of a frame request.
    fn reply(self, mut surfaces: Vec<Arc<CachedSurface>>, cache_hit: bool, trace_id: u64) -> Reply {
        match self {
            Want::Mesh { lod, region } => {
                mesh_reply(surfaces.swap_remove(0), cache_hit, lod, region, trace_id)
            }
            Want::Frame(params) => frame_render_reply(&surfaces, cache_hit, &params, trace_id),
        }
    }
}

/// Work shipped to the extraction/render pool.
enum Job<S: ScalarValue> {
    /// A miss holding a slot: produce the pyramid, release the slot,
    /// answer, then warm the scrub neighbors if it extracted from disk.
    Miss { iso: f32, slot: SlotGuard<S> },
    /// A hit whose answer costs milliseconds: the one level a region filter
    /// cuts, or the pyramid a frame rasterizes.
    Hit(Vec<Arc<CachedSurface>>),
}

/// A job plus the request it answers, its reply slot coordinates, and its
/// span + trace (extraction phases land in them).
struct Envelope<S: ScalarValue> {
    job: Job<S>,
    /// When the event loop queued it: the wait for a free worker is the
    /// request's `pool_wait`.
    queued: Instant,
    want: Want,
    mailbox: Arc<Mailbox>,
    token: u64,
    seq: u64,
    trace_id: u64,
    trace: Trace,
    root: Span,
}

/// Reactor-core metrics, resolved once from the server registry.
#[derive(Clone)]
struct Meters {
    wakeups: Counter,
    loop_us: Histogram,
    offloaded: Counter,
    pauses: Counter,
    conns: Gauge,
    outbound: Gauge,
}

/// Spawn the whole reactor core: `cfg.reactors` event loops, a worker
/// pool, and a supervisor thread that joins them all (what
/// `IsoServer::drain` joins). The listener must already be nonblocking.
pub(crate) fn spawn<S: ScalarValue>(
    listener: TcpListener,
    state: Arc<State<S>>,
    cfg: ReactorConfig,
) -> io::Result<JoinHandle<()>> {
    let listener = Arc::new(Listener {
        socket: listener,
        backoff: Mutex::new(AcceptBackoff::default()),
    });
    let reactors = cfg.reactors;
    let workers = if cfg.workers == 0 {
        // extraction fans out internally; a handful of workers keeps misses
        // and rasterization flowing without oversubscribing small hosts
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(2)
            .max(4)
    } else {
        cfg.workers
    };
    let meters = Meters {
        wakeups: state.metrics.counter("reactor_wakeups_total"),
        loop_us: state.metrics.histogram("reactor_loop_us"),
        offloaded: state.metrics.counter("reactor_jobs_offloaded_total"),
        pauses: state.metrics.counter("reactor_backpressure_pauses_total"),
        conns: state.metrics.gauge("reactor_connections"),
        outbound: state.metrics.gauge("outbound_queue_bytes"),
    };

    let (tx, rx) = mpsc::channel::<Envelope<S>>();
    let rx = Arc::new(Mutex::new(rx));
    let mut worker_handles = Vec::with_capacity(workers);
    for i in 0..workers {
        let rx = rx.clone();
        let state = state.clone();
        worker_handles.push(
            std::thread::Builder::new()
                .name(format!("oociso-worker-{i}"))
                .spawn(move || worker_loop(rx, state))?,
        );
    }

    let mailboxes = (0..reactors)
        .map(|_| {
            Ok(Arc::new(Mailbox {
                completions: Mutex::new(Vec::new()),
                accepted: Mutex::new(Vec::new()),
                doorbell: Doorbell::new()?,
            }))
        })
        .collect::<io::Result<Vec<_>>>()?;
    let placement = Arc::new(Placement {
        loops: Mutex::new(
            (0..reactors)
                .map(|_| LoopLoad {
                    conns: 0,
                    open: true,
                })
                .collect(),
        ),
        mailboxes: mailboxes.clone(),
    });
    let mut reactor_handles = Vec::with_capacity(reactors);
    for (i, mailbox) in mailboxes.into_iter().enumerate() {
        // drain()/stop() ring every doorbell so parked loops react at once
        {
            let mb = mailbox.clone();
            state
                .ctl
                .wakers
                .lock()
                .expect("wakers lock")
                .push(Box::new(move || {
                    let _ = mb.doorbell.notify();
                }));
        }
        let mut reactor = Reactor {
            poller: Poller::default(),
            listener: listener.clone(),
            accepting: true,
            listening: true,
            rearm_at: None,
            index: i,
            placement: placement.clone(),
            own_conns: state.metrics.gauge(&format!("reactor_loop{i}_connections")),
            state: state.clone(),
            mailbox,
            jobs: tx.clone(),
            conns: HashMap::new(),
            next_token: TOKEN_FIRST_CONN,
            budget: cfg.outbound_budget,
            meters: meters.clone(),
        };
        reactor.poller.register(
            &reactor.mailbox.doorbell,
            TOKEN_DOORBELL,
            Interest::READABLE,
        )?;
        reactor
            .poller
            .register(&reactor.listener.socket, TOKEN_LISTENER, Interest::READABLE)?;
        reactor_handles.push(
            std::thread::Builder::new()
                .name(format!("oociso-reactor-{i}"))
                .spawn(move || reactor.run())?,
        );
    }
    drop(tx); // workers exit once every reactor (sender) is gone

    std::thread::Builder::new()
        .name("oociso-serve".to_string()) // what IsoServer::drain joins
        .spawn(move || {
            for h in reactor_handles {
                let _ = h.join();
            }
            for h in worker_handles {
                let _ = h.join();
            }
        })
}

/// Pull envelopes until every reactor hung up, running each job and
/// posting its encoded reply back to the owning reactor.
fn worker_loop<S: ScalarValue>(rx: Arc<Mutex<mpsc::Receiver<Envelope<S>>>>, state: Arc<State<S>>) {
    loop {
        let env = {
            let guard = rx.lock().expect("job queue lock");
            guard.recv()
        };
        let Ok(env) = env else { return };
        run_job(env, &state);
    }
}

/// Post one completed reply frame to the owning reactor.
fn post(mailbox: &Mailbox, token: u64, seq: u64, payload: OutPayload) {
    mailbox
        .completions
        .lock()
        .expect("completions lock")
        .push(Completion {
            token,
            seq,
            payload,
        });
    let _ = mailbox.doorbell.notify();
}

fn run_job<S: ScalarValue>(env: Envelope<S>, state: &Arc<State<S>>) {
    let Envelope {
        job,
        queued,
        want,
        mailbox,
        token,
        seq,
        trace_id,
        trace,
        mut root,
    } = env;
    root.annotate("pool_wait", queued.elapsed(), &[]);
    let mut warm_from = None;
    // a panicking extraction must not strand the reply slot: the client
    // gets ERR_INTERNAL and the connection lives on (the slot guard
    // released during unwind)
    let reply = catch_unwind(AssertUnwindSafe(|| match job {
        Job::Hit(surfaces) => want.reply(surfaces, true, trace_id),
        Job::Miss { iso, slot } => match state.pyramid_for(iso, &root, &trace) {
            Ok((pyramid, extracted)) => {
                drop(slot);
                warm_from = extracted.then_some(iso);
                let surfaces = want.pick(pyramid);
                want.reply(surfaces, false, trace_id)
            }
            Err(e) => internal_error_reply(&e),
        },
    }))
    .unwrap_or_else(|_| internal_error_reply(&io::Error::other("extraction panicked")));
    let frame = reply.finalize_traced(state, &root);
    root.field("offloaded", 1);
    post(
        &mailbox,
        token,
        seq,
        OutPayload::traced(frame, root, trace, trace_id),
    );
    // the reply is on its way and the slot free: warming rides this worker
    if let Some(iso) = warm_from {
        let _ = catch_unwind(AssertUnwindSafe(|| state.warm_neighbors(iso)));
    }
}

/// One event-loop thread.
struct Reactor<S: ScalarValue> {
    poller: Poller,
    listener: Arc<Listener>,
    /// Cleared for good when the graceful drain starts.
    accepting: bool,
    /// The listener is in this loop's poller.
    listening: bool,
    /// When a running accept back-off ends: the listener is watched again.
    rearm_at: Option<Instant>,
    /// This loop's slot in `placement` (and its mailbox's index there).
    index: usize,
    placement: Arc<Placement>,
    /// Connections this loop owns — `reactor_connections` split per loop.
    own_conns: Gauge,
    state: Arc<State<S>>,
    mailbox: Arc<Mailbox>,
    jobs: mpsc::Sender<Envelope<S>>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    budget: usize,
    meters: Meters,
}

impl<S: ScalarValue> Reactor<S> {
    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let ctl = &self.state.ctl;
            if ctl.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let draining = ctl.draining.load(Ordering::SeqCst);
            if draining {
                self.enter_drain();
                if self.conns.is_empty() {
                    break;
                }
            }
            self.sync_listener();
            let timeout = self.next_deadline().min(IDLE_POLL);
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                break; // poll(2) failing on its own table is unrecoverable
            }
            let t0 = Instant::now();
            self.meters.wakeups.inc();
            for ev in std::mem::take(&mut events) {
                match ev.token {
                    TOKEN_DOORBELL => {
                        let _ = self.mailbox.doorbell.drain();
                        self.adopt_accepted();
                        self.deliver_completions();
                    }
                    TOKEN_LISTENER => self.accept_burst(),
                    token => self.service(token, ev),
                }
            }
            self.sweep_deadlines();
            self.meters.loop_us.record_duration(t0.elapsed());
        }
        // hard stop: every owned connection closes now, and streams still
        // waiting in the mailbox close with it
        drop(self.placement.retire(self.index));
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for t in tokens {
            self.close(t);
        }
    }

    /// Graceful drain: stop accepting and parsing; connections close once
    /// their already-dispatched requests are answered and flushed.
    fn enter_drain(&mut self) {
        if self.accepting {
            self.accepting = false;
            self.sync_listener();
            // what was already handed over drains like any accepted
            // connection; nothing more will be
            for stream in self.placement.retire(self.index) {
                self.admit(stream);
            }
        }
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for t in tokens {
            if let Some(conn) = self.conns.get_mut(&t) {
                conn.stop_reading = true;
            }
            self.pump(t);
        }
    }

    /// Route completed jobs into their connections' pending slots.
    fn deliver_completions(&mut self) {
        let done: Vec<Completion> = {
            let mut q = self.mailbox.completions.lock().expect("completions lock");
            std::mem::take(&mut *q)
        };
        let mut touched = Vec::new();
        for c in done {
            if let Some(conn) = self.conns.get_mut(&c.token) {
                if let Some(p) = conn.pending.iter_mut().find(|p| p.seq == c.seq) {
                    p.reply = Some(c.payload);
                    touched.push(c.token);
                }
            }
            // connection already closed: the reply is dropped (its span
            // finalizes via Drop)
        }
        touched.dedup();
        for t in touched {
            self.pump(t);
        }
    }

    /// Accept until `WouldBlock` — the whole backlog in one wakeup — keeping
    /// only the streams [`Placement`] assigns to this loop.
    fn accept_burst(&mut self) {
        if !self.listening {
            return; // unwatched earlier in this batch
        }
        loop {
            match self.listener.socket.accept() {
                Ok((stream, _peer)) => {
                    self.listener.backoff.lock().expect("backoff lock").starved = false;
                    if let Some(stream) = self.placement.place(self.index, stream) {
                        self.admit(stream);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if fd_exhausted(&e) => {
                    self.back_off(&e);
                    break;
                }
                Err(_) => break,
            }
        }
    }

    /// Out of descriptors: start the shared back-off, unless another loop
    /// already did (one back-off, one counter tick, however many loops
    /// failed), and stop watching the listener until it ends.
    fn back_off(&mut self, e: &io::Error) {
        let now = Instant::now();
        {
            let mut backoff = self.listener.backoff.lock().expect("backoff lock");
            if backoff.until.is_none_or(|t| t <= now) {
                backoff.until = Some(now + ACCEPT_BACKOFF);
                note_fd_exhaustion(
                    &self.state.c.accept_backoffs,
                    &self.state.logger,
                    e,
                    &mut backoff.starved,
                );
            }
        }
        self.sync_listener();
    }

    /// Watch the listener exactly when this loop accepts and no back-off is
    /// running; remember when a running one ends, so the wait wakes to
    /// watch it again.
    fn sync_listener(&mut self) {
        let now = Instant::now();
        self.rearm_at = self
            .listener
            .backoff
            .lock()
            .expect("backoff lock")
            .until
            .filter(|&t| t > now);
        let want = self.accepting && self.rearm_at.is_none();
        if want == self.listening {
            return;
        }
        let socket = &self.listener.socket;
        let changed = if want {
            self.poller
                .register(socket, TOKEN_LISTENER, Interest::READABLE)
        } else {
            self.poller.deregister(socket)
        };
        if changed.is_ok() {
            self.listening = want;
        }
    }

    /// Take ownership of the streams other loops accepted for this one.
    fn adopt_accepted(&mut self) {
        let streams = std::mem::take(&mut *self.mailbox.accepted.lock().expect("accepted lock"));
        for stream in streams {
            self.admit(stream);
        }
    }

    /// Start serving a stream [`Placement`] has already counted as ours.
    fn admit(&mut self, stream: TcpStream) {
        let state = &self.state;
        state.c.connections.inc();
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            self.placement.release(self.index);
            return;
        }
        let over = state
            .max_connections
            .is_some_and(|cap| state.ctl.live.load(Ordering::SeqCst) >= cap as u64);
        if !over {
            state.ctl.live.fetch_add(1, Ordering::SeqCst);
        }
        let token = self.next_token;
        self.next_token += 1;
        let now = Instant::now();
        let conn = Conn {
            stream,
            read_buf: Vec::new(),
            pending: VecDeque::new(),
            next_seq: 0,
            out: VecDeque::new(),
            out_bytes: 0,
            paused: false,
            stop_reading: false,
            finished: false,
            eof: false,
            shed: over,
            interest: Interest::READABLE,
            accepted_at: now,
            last_read_progress: now,
            last_write_progress: now,
            idle_since: now,
            counted_live: !over,
        };
        if self
            .poller
            .register(&conn.stream, token, Interest::READABLE)
            .is_err()
        {
            if conn.counted_live {
                state.ctl.live.fetch_sub(1, Ordering::SeqCst);
            }
            self.placement.release(self.index);
            return;
        }
        self.meters.conns.add(1);
        self.own_conns.add(1);
        self.conns.insert(token, conn);
    }

    /// Handle readiness for one connection.
    fn service(&mut self, token: u64, ev: Event) {
        if !self.conns.contains_key(&token) {
            return; // closed earlier in this batch
        }
        if ev.error {
            self.close(token);
            return;
        }
        if (ev.readable || ev.hangup) && !self.read_and_dispatch(token) {
            return; // closed
        }
        // pump always attempts the write-out, so ev.writable needs no
        // separate branch
        self.pump(token);
    }

    /// Read until `WouldBlock`, decode every complete frame, dispatch each
    /// in arrival order. Returns false if the connection was closed.
    fn read_and_dispatch(&mut self, token: u64) -> bool {
        let state = self.state.clone();
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        if !conn.stop_reading && !conn.paused {
            let mut chunk = [0u8; 64 * 1024];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.eof = true;
                        conn.stop_reading = true;
                        break;
                    }
                    Ok(n) => {
                        conn.read_buf.extend_from_slice(&chunk[..n]);
                        let now = Instant::now();
                        conn.last_read_progress = now;
                        conn.idle_since = now;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.close(token);
                        return false;
                    }
                }
            }
        }
        // decode + dispatch loop: stops at a partial frame, on pause, at a
        // violation that poisons framing, or when drain forbids new work
        let mut consumed = 0usize;
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return false;
            };
            if conn.stop_reading
                || conn.paused
                || state.ctl.draining.load(Ordering::SeqCst)
                || consumed >= conn.read_buf.len()
            {
                break;
            }
            match decode_frame_bytes(&conn.read_buf[consumed..], MAX_REQUEST_PAYLOAD) {
                FrameStep::NeedMore { .. } => break,
                FrameStep::Frame { frame, consumed: n } => {
                    consumed += n;
                    self.dispatch(token, frame);
                }
            }
        }
        match self.conns.get_mut(&token) {
            Some(conn) => {
                if consumed > 0 {
                    conn.read_buf.drain(..consumed);
                }
                if conn.stop_reading {
                    // nothing behind a poisoned/final frame is interpreted
                    conn.read_buf.clear();
                }
                true
            }
            None => false,
        }
    }

    /// Dispatch one decoded frame: inline answer or worker offload, with a
    /// reply slot reserved in request order either way.
    fn dispatch(&mut self, token: u64, frame: FrameIn) {
        let state = self.state.clone();
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        state.c.requests.inc();
        let seq = conn.next_seq;
        conn.next_seq += 1;

        if conn.shed {
            // over the connection cap: one ERR_BUSY, then close
            state.c.shed.inc();
            state.c.errors.inc();
            let hint = state.retry_hint_ms();
            let bytes = encode_frame(&Message::Error {
                code: ERR_BUSY,
                detail: format!("connection limit reached; retry in {hint} ms"),
                retry_after_ms: Some(hint),
            });
            conn.stop_reading = true;
            conn.pending.push_back(Pending {
                seq,
                reply: Some(OutPayload::untraced(bytes, true)),
            });
            return;
        }

        match frame {
            FrameIn::Violation {
                code,
                detail,
                close,
            } => {
                state.c.errors.inc();
                let bytes = encode_frame(&Message::Error {
                    code,
                    detail,
                    retry_after_ms: None,
                });
                if close {
                    conn.stop_reading = true;
                }
                conn.pending.push_back(Pending {
                    seq,
                    reply: Some(OutPayload::untraced(bytes, close)),
                });
            }
            FrameIn::Ok { msg } => {
                let trace_id = request_trace_id(&msg);
                let trace = if trace_id != 0 {
                    Trace::new(trace_id, DEFAULT_TRACE_EVENTS)
                } else {
                    Trace::detached()
                };
                let mut root = trace.span("request");
                root.field("msg_type", msg.msg_type() as u64);
                // an offloaded request's slot waits for the worker's post
                let reply = match self.classify(token, seq, msg, trace, root) {
                    Classified::Inline(payload) => Some(payload),
                    Classified::Offloaded => None,
                };
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.pending.push_back(Pending { seq, reply });
                }
            }
        }
    }

    /// Decide one well-formed request: answer inline (unfiltered mesh
    /// hits, sheds, stats/ping/metrics/trace, validation errors) or ship an
    /// envelope to the pool.
    fn classify(
        &mut self,
        token: u64,
        seq: u64,
        msg: Message,
        trace: Trace,
        root: Span,
    ) -> Classified {
        let state = self.state.clone();
        let inline = |reply: Reply, root: Span, trace: Trace, trace_id: u64| {
            let frame = reply.finalize_traced(&state, &root);
            Classified::Inline(OutPayload::traced(frame, root, trace, trace_id))
        };
        let (iso, want, trace_id, admit) = match msg {
            Message::MeshRequest {
                iso,
                region,
                lod,
                backend,
                trace_id,
            } => {
                state.c.mesh_requests.inc();
                if let Err(reply) = validate_mesh_request(&state, lod, backend) {
                    return inline(reply, root, trace, trace_id);
                }
                let admit = match state.admit_mesh(iso, lod, &root) {
                    // an unfiltered hit is written straight from the cached
                    // mesh (only head, tail and CRC are built), so it stays
                    // on the loop
                    Admit::Hit(surface) if region.is_none() => {
                        let reply = mesh_reply(surface, true, lod, None, trace_id);
                        return inline(reply, root, trace, trace_id);
                    }
                    admit => admit.map_hit(|surface| vec![surface]),
                };
                (iso, Want::Mesh { lod, region }, trace_id, admit)
            }
            Message::FrameRequest {
                iso,
                params,
                trace_id,
            } => {
                state.c.frame_requests.inc();
                if let Some(reply) = validate_frame_request(&params) {
                    return inline(reply, root, trace, trace_id);
                }
                let admit = state.admit_frame(iso, &root);
                (iso, Want::Frame(params), trace_id, admit)
            }
            other => return inline(respond(&state, other), root, trace, 0),
        };
        let job = match admit {
            Admit::Busy { retry_after_ms } => {
                let reply = Reply::Msg(busy_reply("extraction slots exhausted", retry_after_ms));
                return inline(reply, root, trace, trace_id);
            }
            Admit::Hit(surfaces) => Job::Hit(surfaces),
            Admit::Miss(slot) => Job::Miss { iso, slot },
        };
        self.offload(Envelope {
            job,
            queued: Instant::now(),
            want,
            mailbox: self.mailbox.clone(),
            token,
            seq,
            trace_id,
            trace,
            root,
        });
        Classified::Offloaded
    }

    fn offload(&mut self, env: Envelope<S>) {
        self.meters.offloaded.inc();
        // send fails only after every worker died (channel closed at
        // shutdown); the pending slot then simply never completes and the
        // connection closes with the server
        let _ = self.jobs.send(env);
    }

    /// Move ready in-order replies to the write queue, write until the
    /// socket blocks, account finished replies, manage backpressure and
    /// interest, and close when the connection's story ends.
    fn pump(&mut self, token: u64) {
        let state = self.state.clone();
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        // release replies in request order only: a slot still waiting on its
        // worker blocks every later one — responses never reorder
        while let Some(payload) = conn.pending.front_mut().and_then(|p| p.reply.take()) {
            conn.pending.pop_front();
            let len = payload.frame.len();
            conn.out_bytes += len;
            self.meters.outbound.add(len as i64);
            conn.out.push_back(OutFrame {
                frame: payload.frame,
                len,
                off: 0,
                first_write: None,
                writes: 0,
                meta: payload.meta,
            });
        }
        // incremental write-out, one vectored write per call across the
        // parts the front frame has left
        let mut hard_close = false;
        while let Some(front) = conn.out.front_mut() {
            let before = Instant::now();
            match front.frame.write_from(&mut conn.stream, front.off) {
                Ok(0) => {
                    hard_close = true;
                    break;
                }
                Ok(n) => {
                    front.first_write.get_or_insert(before);
                    front.writes += 1;
                    front.off += n;
                    conn.out_bytes -= n;
                    self.meters.outbound.add(-(n as i64));
                    conn.last_write_progress = Instant::now();
                    if front.off == front.len {
                        let f = conn.out.pop_front().expect("checked front");
                        finish_reply(&state, f, conn);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    hard_close = true;
                    break;
                }
            }
        }
        if hard_close {
            self.close(token);
            return;
        }
        // backpressure: pause reads over budget, resume under half
        if !conn.paused && conn.out_bytes > self.budget {
            conn.paused = true;
            self.meters.pauses.inc();
        } else if conn.paused && conn.out_bytes <= self.budget / 2 {
            conn.paused = false;
        }
        // story's end?
        let drained_out = conn.out.is_empty() && conn.pending.is_empty();
        if (conn.finished && conn.out.is_empty())
            || (conn.eof && drained_out)
            || (conn.stop_reading && drained_out && conn.read_buf.is_empty())
        {
            self.close(token);
            return;
        }
        // interest: read unless stopped/paused; write while output queued
        let want = Interest {
            readable: !conn.stop_reading && !conn.paused,
            writable: !conn.out.is_empty(),
        };
        if want != conn.interest && self.poller.modify(&conn.stream, token, want).is_ok() {
            conn.interest = want;
        }
    }

    /// Close every connection whose [`deadline`] has passed, adding to
    /// `timed_out` for the expiries that count.
    fn sweep_deadlines(&mut self) {
        let now = Instant::now();
        let doomed: Vec<(u64, bool)> = self
            .conns
            .iter()
            .filter_map(|(&token, conn)| match deadline(conn, &self.state) {
                Some((at, counted)) if at <= now => Some((token, counted)),
                _ => None,
            })
            .collect();
        for (token, counted) in doomed {
            if counted {
                self.state.c.timed_out.inc();
            }
            self.close(token);
        }
    }

    /// How long the next wait may sleep before some deadline needs
    /// enforcement or the listener needs watching again.
    fn next_deadline(&self) -> Duration {
        let now = Instant::now();
        self.rearm_at
            .into_iter()
            .chain(
                self.conns
                    .values()
                    .filter_map(|conn| deadline(conn, &self.state).map(|(at, _)| at)),
            )
            .map(|at| at.saturating_duration_since(now))
            .fold(IDLE_POLL, Duration::min)
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(&conn.stream);
            if conn.counted_live {
                self.state.ctl.live.fetch_sub(1, Ordering::SeqCst);
            }
            self.meters.conns.add(-1);
            self.own_conns.add(-1);
            self.placement.release(self.index);
            if conn.out_bytes > 0 {
                self.meters.outbound.add(-(conn.out_bytes as i64));
            }
        }
    }
}

/// When `conn` must be closed unless it makes progress first, and whether
/// that expiry counts toward `timed_out`: the earliest of a mid-frame read
/// stall (the read timeout), a stalled write (the write timeout) and an
/// idle gap between requests, all counted; or, for an over-cap connection,
/// the shed cap on presenting its first frame, not counted. `None`: no
/// deadline runs. The wait sleeps toward this and the sweep enforces it, so
/// the two cannot disagree.
fn deadline<S: ScalarValue>(conn: &Conn, state: &State<S>) -> Option<(Instant, bool)> {
    if conn.shed {
        let cap = state
            .read_timeout
            .unwrap_or(SHED_DEADLINE)
            .min(SHED_DEADLINE);
        return conn
            .pending
            .is_empty()
            .then(|| (conn.accepted_at + cap, false));
    }
    // a started-but-unfinished frame counts against the read deadline
    // (slowloris); waiting pipelined work does not
    let reading = !conn.read_buf.is_empty() && !conn.stop_reading && !conn.paused;
    // a peer that stops draining mid-reply is cut: a partially written
    // frame is never followed by another byte
    let writing = !conn.out.is_empty();
    let idle = conn.pending.is_empty() && conn.out.is_empty() && conn.read_buf.is_empty();
    [
        (reading, conn.last_read_progress, state.read_timeout),
        (writing, conn.last_write_progress, state.write_timeout),
        (idle, conn.idle_since, state.idle_timeout),
    ]
    .into_iter()
    .filter_map(|(on, since, limit)| since.checked_add(limit.filter(|_| on)?))
    .min()
    .map(|at| (at, true))
}

/// Account one fully written reply — its `out_queue` and `socket_write`
/// phases, byte counters, latency histogram, journals, slow-query log,
/// drain bookkeeping.
fn finish_reply<S: ScalarValue>(state: &Arc<State<S>>, sent: OutFrame, conn: &mut Conn) {
    let OutFrame {
        len,
        first_write,
        writes,
        meta,
        ..
    } = sent;
    let now = Instant::now();
    state.c.bytes_out.add(len as u64);
    conn.idle_since = now;
    if let (Some(root), Some(trace)) = (&meta.root, &meta.trace) {
        // every frame is at least a header long, so some write took a byte
        let first = first_write.unwrap_or(now);
        let at = |t: Instant| t.saturating_duration_since(trace.epoch());
        trace.record_complete(
            "out_queue",
            root.id(),
            at(meta.posted),
            first.saturating_duration_since(meta.posted),
            &[],
        );
        trace.record_complete(
            "socket_write",
            root.id(),
            at(first),
            now.saturating_duration_since(first),
            &[("bytes", len as u64), ("writes", writes)],
        );
    }
    if let Some(root) = meta.root {
        let total = root.finish();
        state.request_latency_us.record_duration(total);
        if let Some(trace) = &meta.trace {
            if meta.trace_id != 0 {
                state.recent.push(trace, total);
            }
            if state.slow_ms > 0 && total >= Duration::from_millis(state.slow_ms) {
                state.slow.push(trace, total);
                state.logger.warn(
                    "serve",
                    "slow_query",
                    format!("request took {} ms", total.as_millis()),
                    &[
                        ("trace_id", meta.trace_id.to_string()),
                        ("threshold_ms", state.slow_ms.to_string()),
                    ],
                );
            }
        }
    }
    if state.ctl.draining.load(Ordering::SeqCst) {
        // this reply completed during the graceful drain
        state.c.drained.inc();
    }
    if meta.close_after {
        conn.finished = true;
        conn.stop_reading = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oociso_obs::{CaptureSink, Level};

    // the chaos contract for fd starvation: the backoff counter ticks on
    // every back-off, the structured warning fires exactly once per
    // episode, and a fresh episode warns again
    #[test]
    fn fd_exhaustion_warns_once_per_episode() {
        let sink = Arc::new(CaptureSink::new());
        let logger = Logger::new(sink.clone());
        let backoffs = Counter::new();
        let emfile = || io::Error::from_raw_os_error(24);
        assert!(fd_exhausted(&emfile()));

        let mut starved = false;
        for _ in 0..5 {
            note_fd_exhaustion(&backoffs, &logger, &emfile(), &mut starved);
        }
        assert_eq!(backoffs.get(), 5, "every back-off ticks the counter");
        assert_eq!(
            sink.named("accept_backoff").len(),
            1,
            "one warn per episode"
        );

        // a successful accept resets the flag; the next starvation warns anew
        starved = false;
        note_fd_exhaustion(&backoffs, &logger, &emfile(), &mut starved);
        assert_eq!(backoffs.get(), 6);
        assert_eq!(sink.named("accept_backoff").len(), 2);
        assert_eq!(sink.count_at(Level::Warn), 2);
    }
}

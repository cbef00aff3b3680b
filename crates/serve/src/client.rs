//! Blocking client for the query server, with per-request deadlines and
//! structured retry.
//!
//! The pre-v3 client trusted the server completely: a stalled peer hung
//! `query_mesh` forever, and any hiccup was the caller's problem.
//! [`ClientOptions`] makes the failure policy explicit:
//!
//! * **Deadlines** — socket read/write timeouts bound every request;
//!   expiry surfaces as [`io::ErrorKind::TimedOut`].
//! * **Overload** — a structured `ERR_BUSY` reply is retried with jittered
//!   exponential backoff, honoring the server's `retry_after_ms` hint.
//!   The jitter is seeded and deterministic per client, so tests replay
//!   exactly.
//! * **Torn connections** — resets, EOFs, and timeouts mid-exchange are
//!   retried by reconnecting, but **only for idempotent requests** (every
//!   current request type is a read; a future mutating message must opt
//!   out via [`idempotent`]) — a retry can duplicate a request, and only
//!   idempotence makes that safe.
//!
//! Server-reported failures carry their protocol error code as a typed
//! [`ServerError`] inside the `io::Error`, so callers can tell an honest
//! `ERR_BUSY` from a malformed request without string matching.

use crate::protocol::{
    encode_frame_raw, read_frame, read_raw_frame, write_frame, FrameIn, FrameParams, Message,
    Region, ServerReport, TraceEvent, ERR_BUSY, MAX_PAYLOAD,
};
use oociso_march::IndexedMesh;
use oociso_render::Framebuffer;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// A decoded mesh reply plus its serving metadata.
#[derive(Clone, Debug)]
pub struct MeshReply {
    /// The isosurface (bit-identical to the server's in-process result).
    pub mesh: IndexedMesh,
    /// Whether the server answered from its result cache.
    pub cache_hit: bool,
    /// Active metacells of the producing extraction.
    pub active_metacells: u64,
    /// The LOD level served: always the requested level.
    pub served_lod: u16,
    /// Always false: the server answers a busy miss with `ERR_BUSY`, never
    /// with another level.
    pub degraded: bool,
    /// Echo of the trace id this request carried (0 = untraced). A nonzero
    /// echo can be handed to
    /// [`Client::trace`] to pull the request's span tree.
    pub trace_id: u64,
}

/// A decoded framebuffer reply.
#[derive(Clone, Debug)]
pub struct FrameReply {
    /// The reassembled full-viewport framebuffer.
    pub framebuffer: Framebuffer,
    /// Whether the backing surface came from the result cache.
    pub cache_hit: bool,
    /// Tile regions exactly as they crossed the wire.
    pub regions: Vec<oociso_render::FrameRegion>,
    /// Echo of the trace id this request carried (0 = untraced).
    pub trace_id: u64,
}

/// A finished request trace fetched from the server's journal.
#[derive(Clone, Debug)]
pub struct TraceReply {
    /// Whether the journal still held the requested trace.
    pub found: bool,
    /// The trace's id (the one the request carried on the wire).
    pub id: u64,
    /// Total request wall time in microseconds.
    pub total_us: u64,
    /// Span events that overflowed the trace's bounded buffer.
    pub dropped: u64,
    /// The recorded span events.
    pub events: Vec<TraceEvent>,
}

/// A failure the server reported in a structured error frame, preserved
/// with its protocol code (and, for `ERR_BUSY`, the retry hint) so callers
/// can dispatch on it: `err.get_ref()` downcasts to `ServerError`, or use
/// [`ServerError::from_io`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerError {
    /// The `ERR_*` protocol code.
    pub code: u16,
    /// Human-readable detail from the server.
    pub detail: String,
    /// The server's retry-after hint, when it sent one (`ERR_BUSY`).
    pub retry_after_ms: Option<u32>,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "server error {}: {}", self.code, self.detail)
    }
}

impl std::error::Error for ServerError {}

impl ServerError {
    /// The typed server error inside `e`, if that is what `e` carries.
    pub fn from_io(e: &io::Error) -> Option<&ServerError> {
        e.get_ref().and_then(|inner| inner.downcast_ref())
    }
}

/// The minimum delay before any retry, whatever the server's hint or the
/// configured base backoff say. See [`Client::backoff_delay`].
const BACKOFF_FLOOR: Duration = Duration::from_millis(25);

/// Lift a server error frame into an `io::Error` carrying the typed code.
fn server_error(code: u16, detail: String, retry_after_ms: Option<u32>) -> io::Error {
    io::Error::other(ServerError {
        code,
        detail,
        retry_after_ms,
    })
}

fn unexpected(msg_type: u16) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected response type {msg_type}"),
    )
}

/// Can this request be safely sent twice? A torn connection leaves the
/// client unsure whether the server processed the request, so reconnect-
/// and-retry may duplicate it — only allowed when duplication is harmless.
/// Every current request is a pure read; anything else (including all
/// server-to-client types, which a client never retries anyway) is not.
fn idempotent(msg: &Message) -> bool {
    matches!(
        msg,
        Message::MeshRequest { .. }
            | Message::FrameRequest { .. }
            | Message::StatsRequest
            | Message::Ping { .. }
            | Message::MetricsRequest
            | Message::TraceRequest { .. }
    )
}

/// Did this error tear the connection (or leave it in an unknowable
/// mid-frame state)? These are the reconnect-and-retry errors.
fn torn(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::WriteZero
            | io::ErrorKind::TimedOut
    )
}

/// Read one reply off the wire: the message, or the server's
/// protocol-violation frame as its typed error. `Ok(None)` means the server
/// closed the connection instead of replying.
fn read_reply(stream: &mut TcpStream) -> io::Result<Option<Message>> {
    match read_frame(stream).map_err(map_timeout)? {
        None => Ok(None),
        Some(FrameIn::Ok { msg, .. }) => Ok(Some(msg)),
        Some(FrameIn::Violation { code, detail, .. }) => Err(server_error(code, detail, None)),
    }
}

/// Read one complete reply frame off the wire, undecoded: header +
/// payload + checksum, exactly as the server sent it. A poisoned header is
/// an error, checked before any payload byte is buffered.
fn read_raw_reply(stream: &mut TcpStream) -> io::Result<Vec<u8>> {
    match read_raw_frame(stream, MAX_PAYLOAD).map_err(map_timeout)? {
        Ok(frame) => Ok(frame),
        Err(FrameIn::Violation { code, detail, .. }) => Err(server_error(code, detail, None)),
        Err(FrameIn::Ok { msg }) => Err(unexpected(msg.msg_type())),
    }
}

/// Socket-timeout expiry surfaces as `WouldBlock` on Unix; normalize to
/// `TimedOut` so callers see one deadline error kind.
fn map_timeout(e: io::Error) -> io::Error {
    if e.kind() == io::ErrorKind::WouldBlock {
        io::Error::new(io::ErrorKind::TimedOut, e)
    } else {
        e
    }
}

/// Client failure policy: deadlines and retry/backoff tuning.
#[derive(Clone, Debug)]
pub struct ClientOptions {
    /// Socket read/write deadline per request attempt; expiry surfaces as
    /// [`io::ErrorKind::TimedOut`]. `None` waits forever (the pre-v3
    /// behavior). Default 30 s.
    pub request_timeout: Option<Duration>,
    /// Extra attempts after the first, spent on `ERR_BUSY` replies and —
    /// for idempotent requests — torn connections. Default 0: fail fast,
    /// exactly like the pre-v3 client.
    pub retries: u32,
    /// Base backoff before the first retry; doubles each retry. Default
    /// 50 ms.
    pub backoff: Duration,
    /// Ceiling on the exponential backoff (a server `retry_after_ms` hint
    /// may still exceed it — the server knows better). Default 2 s.
    pub backoff_max: Duration,
    /// Seed for the deterministic backoff jitter. Two clients with
    /// different seeds desynchronize their retry storms; one seed always
    /// replays the same schedule.
    pub jitter_seed: u64,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            request_timeout: Some(Duration::from_secs(30)),
            retries: 0,
            backoff: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
            jitter_seed: 0x5EED_CAFE,
        }
    }
}

/// A blocking connection to an [`crate::IsoServer`].
pub struct Client {
    stream: TcpStream,
    /// The peer actually connected to — what reconnect dials.
    peer: SocketAddr,
    opts: ClientOptions,
    /// xorshift64* jitter state (seeded, deterministic).
    rng: u64,
}

impl Client {
    /// Connect to `addr` with the default (fail-fast, 30 s deadline)
    /// options.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::connect_with(addr, ClientOptions::default())
    }

    /// Connect to `addr` with an explicit failure policy.
    pub fn connect_with(addr: impl ToSocketAddrs, opts: ClientOptions) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let peer = stream.peer_addr()?;
        let rng = opts.jitter_seed | 1; // xorshift must not start at 0
        let client = Client {
            stream,
            peer,
            opts,
            rng,
        };
        client.configure_stream()?;
        Ok(client)
    }

    fn configure_stream(&self) -> io::Result<()> {
        self.stream.set_nodelay(true)?;
        self.stream.set_read_timeout(self.opts.request_timeout)?;
        self.stream.set_write_timeout(self.opts.request_timeout)?;
        Ok(())
    }

    /// Tear down and redial the same peer (used after a torn connection).
    fn reconnect(&mut self) -> io::Result<()> {
        self.stream = TcpStream::connect(self.peer)?;
        self.configure_stream()
    }

    /// Next jitter draw in `[0, 1)` (xorshift64*, deterministic).
    fn jitter(&mut self) -> f64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        (self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Backoff before retry number `attempt` (0-based): exponential from
    /// `opts.backoff`, capped at `opts.backoff_max`, floored by the
    /// server's hint when present, then equal-jittered into
    /// `[base/2, base)` so synchronized clients spread out.
    ///
    /// Never below [`BACKOFF_FLOOR`]: a server whose hint EWMA reads 0 ms
    /// (or a hintless `ERR_BUSY`, combined with `opts.backoff` configured to
    /// zero) must not spin the client into a hot retry loop against a peer
    /// that just declared itself overloaded.
    fn backoff_delay(&mut self, attempt: u32, hint_ms: Option<u32>) -> Duration {
        let exp = self
            .opts
            .backoff
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.opts.backoff_max);
        let base = exp
            .max(Duration::from_millis(u64::from(hint_ms.unwrap_or(0))))
            .max(BACKOFF_FLOOR);
        base / 2 + Duration::from_secs_f64(base.as_secs_f64() / 2.0 * self.jitter())
    }

    /// One raw request/response exchange, no retry.
    fn exchange(&mut self, msg: &Message) -> io::Result<Message> {
        write_frame(&mut self.stream, msg).map_err(map_timeout)?;
        read_reply(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })
    }

    /// One request/response exchange under the retry policy: `ERR_BUSY`
    /// replies back off (honoring the server's hint) and retry; torn
    /// connections reconnect and retry, idempotent requests only. Non-busy
    /// error frames are returned as `Ok(Message::Error { .. })` for the
    /// caller to interpret — they are answers, not transport failures.
    fn roundtrip(&mut self, msg: &Message) -> io::Result<Message> {
        let mut attempt = 0u32;
        loop {
            let outcome = self.exchange(msg);
            let retries_left = attempt < self.opts.retries;
            match outcome {
                Ok(Message::Error {
                    code: ERR_BUSY,
                    detail,
                    retry_after_ms,
                }) => {
                    if !retries_left {
                        return Err(server_error(ERR_BUSY, detail, retry_after_ms));
                    }
                    let delay = self.backoff_delay(attempt, retry_after_ms);
                    std::thread::sleep(delay);
                }
                Ok(reply) => return Ok(reply),
                Err(e) if torn(&e) && idempotent(msg) && retries_left => {
                    // the old stream may hold half a frame: always redial.
                    // A failed redial burns this attempt and is retried on
                    // the next one (the server may still be restarting).
                    std::thread::sleep(self.backoff_delay(attempt, None));
                    let _ = self.reconnect();
                }
                Err(e) => return Err(e),
            }
            attempt += 1;
        }
    }

    /// [`Client::roundtrip`] for a request with one expected reply type:
    /// `expect` returns that reply's value, `None` for any other message.
    /// An error frame becomes the server's typed error, any other
    /// unexpected reply an unexpected-type error.
    fn request<T>(
        &mut self,
        msg: &Message,
        expect: impl FnOnce(Message) -> Option<T>,
    ) -> io::Result<T> {
        let reply = self.roundtrip(msg)?;
        if let Message::Error {
            code,
            detail,
            retry_after_ms,
        } = reply
        {
            return Err(server_error(code, detail, retry_after_ms));
        }
        let msg_type = reply.msg_type();
        expect(reply).ok_or_else(|| unexpected(msg_type))
    }

    /// Query the isosurface at `iso`, optionally restricted to a region
    /// (full resolution — LOD level 0).
    pub fn query_mesh(&mut self, iso: f32, region: Option<Region>) -> io::Result<MeshReply> {
        self.query_mesh_lod(iso, region, 0)
    }

    /// Query LOD pyramid level `lod` of the isosurface at `iso` (0 = full
    /// resolution), optionally restricted to a region. Levels the server
    /// does not have come back as a structured `ERR_BAD_LOD` error.
    pub fn query_mesh_lod(
        &mut self,
        iso: f32,
        region: Option<Region>,
        lod: u16,
    ) -> io::Result<MeshReply> {
        self.query_mesh_traced(iso, region, lod, 0)
    }

    /// [`Client::query_mesh_lod`] with a client-supplied trace id. The
    /// server records the request's span tree under `trace_id` in its trace
    /// journal and echoes the id on the reply; fetch the tree afterwards
    /// with [`Client::trace`]. Id 0 means untraced.
    pub fn query_mesh_traced(
        &mut self,
        iso: f32,
        region: Option<Region>,
        lod: u16,
        trace_id: u64,
    ) -> io::Result<MeshReply> {
        let request = Message::MeshRequest {
            iso,
            region,
            lod,
            backend: None,
            trace_id,
        };
        self.request(&request, |reply| match reply {
            Message::MeshResponse {
                cache_hit,
                active_metacells,
                served_lod,
                degraded,
                trace_id,
                mesh,
                ..
            } => Some(MeshReply {
                mesh,
                cache_hit,
                active_metacells,
                served_lod,
                degraded,
                trace_id,
            }),
            _ => None,
        })
    }

    /// Query a rendered frame of the isosurface at `iso` and reassemble the
    /// tiles into one framebuffer.
    pub fn query_frame(&mut self, iso: f32, params: FrameParams) -> io::Result<FrameReply> {
        let request = Message::FrameRequest {
            iso,
            params,
            trace_id: 0,
        };
        self.request(&request, |reply| match reply {
            Message::FrameResponse {
                cache_hit,
                width,
                height,
                regions,
                trace_id,
            } => {
                let mut fb = Framebuffer::new(width as usize, height as usize);
                for r in &regions {
                    r.merge_into(&mut fb, (0, 0));
                }
                Some(FrameReply {
                    framebuffer: fb,
                    cache_hit,
                    regions,
                    trace_id,
                })
            }
            _ => None,
        })
    }

    /// Fetch the server's counters.
    pub fn stats(&mut self) -> io::Result<ServerReport> {
        self.request(&Message::StatsRequest, |reply| match reply {
            Message::StatsResponse(report) => Some(report),
            _ => None,
        })
    }

    /// Fetch the server's metrics registry exposition (Prometheus text
    /// format).
    pub fn metrics(&mut self) -> io::Result<String> {
        self.request(&Message::MetricsRequest, |reply| match reply {
            Message::MetricsResponse { text } => Some(text),
            _ => None,
        })
    }

    /// Fetch a finished request trace from the server's journal. Id 0 asks
    /// for the most recent trace; `found` is false when the journal no
    /// longer holds the id.
    pub fn trace(&mut self, id: u64) -> io::Result<TraceReply> {
        self.request(&Message::TraceRequest { id }, |reply| match reply {
            Message::TraceResponse {
                found,
                id,
                total_us,
                dropped,
                events,
            } => Some(TraceReply {
                found,
                id,
                total_us,
                dropped,
                events,
            }),
            _ => None,
        })
    }

    /// Round-trip a payload of `bytes` zeros through the server's echo,
    /// returning the measured wall-clock.
    pub fn ping(&mut self, bytes: usize) -> io::Result<Duration> {
        let ping = Message::Ping {
            payload: vec![0u8; bytes],
        };
        let t0 = Instant::now();
        let echoed = self.request(&ping, |reply| match reply {
            Message::Pong { payload } => Some(payload),
            _ => None,
        })?;
        let elapsed = t0.elapsed();
        if !matches!(&ping, Message::Ping { payload } if *payload == echoed) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "pong payload differs from ping",
            ));
        }
        Ok(elapsed)
    }

    /// Write every request back-to-back on this connection, then read the
    /// replies — the pipelined exchange. The server guarantees replies
    /// come back **in request order**, so `replies[i]` answers
    /// `requests[i]`. No retry policy applies: a transport failure fails
    /// the whole batch, while per-request refusals (`ERR_BUSY`, bad
    /// parameters) come back as `Message::Error` entries in their slot.
    pub fn pipeline(&mut self, requests: &[Message]) -> io::Result<Vec<Message>> {
        for msg in requests {
            write_frame(&mut self.stream, msg).map_err(map_timeout)?;
        }
        let mut replies = Vec::with_capacity(requests.len());
        for _ in requests {
            let reply = read_reply(&mut self.stream)?.ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "server closed mid-pipeline")
            })?;
            replies.push(reply);
        }
        Ok(replies)
    }

    /// Like [`Client::pipeline`] but returning each reply's raw frame
    /// bytes (header + payload + checksum), undecoded — the hook for
    /// byte-level equivalence tests between serving cores.
    pub fn pipeline_raw(&mut self, requests: &[Message]) -> io::Result<Vec<Vec<u8>>> {
        for msg in requests {
            write_frame(&mut self.stream, msg).map_err(map_timeout)?;
        }
        let mut replies = Vec::with_capacity(requests.len());
        for _ in requests {
            replies.push(read_raw_reply(&mut self.stream)?);
        }
        Ok(replies)
    }

    /// Send a frame with explicit header fields and return the server's
    /// reply message — the hook the protocol-abuse tests (wrong magic,
    /// future version, corrupted checksum) drive the server with. Returns
    /// `Ok(None)` if the server hung up instead of replying. Never retried.
    pub fn roundtrip_raw(
        &mut self,
        magic: u32,
        version: u16,
        msg_type: u16,
        payload: &[u8],
        corrupt_checksum: bool,
    ) -> io::Result<Option<Message>> {
        let mut frame = encode_frame_raw(magic, version, msg_type, payload);
        if corrupt_checksum {
            let n = frame.len();
            frame[n - 1] ^= 0xFF;
        }
        self.stream.write_all(&frame)?;
        self.stream.flush()?;
        match read_reply(&mut self.stream) {
            // a reset mid-read also counts as "hung up"
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => Ok(None),
            reply => reply,
        }
    }
}

//! The length-prefixed binary wire protocol.
//!
//! Every message travels as one **frame**:
//!
//! ```text
//! offset  size  field
//! 0       4     magic       the bytes "OISO" (0x4F53494F, little-endian u32)
//! 4       2     version     protocol version (always 6, [`VERSION`])
//! 6       2     msg type    see the `MSG_*` constants
//! 8       8     payload len bytes that follow the header
//! 16      n     payload     message-specific little-endian encoding
//! 16+n    4     checksum    CRC-32 (IEEE) of the payload bytes
//! ```
//!
//! The header is fixed-size so a reader always knows how much to pull next
//! (length-prefixed framing — no delimiters, binary-safe payloads). The
//! version rides in *every* frame: a reader refuses any other version with a
//! structured [`Message::Error`] instead of misparsing it. The checksum
//! closes the loop on torn or corrupted writes: a payload that does
//! not hash to its trailer is rejected as [`ERR_BAD_CHECKSUM`] before any
//! field of it is judged or returned. (A mesh response's two counts are
//! read first, but only to size the vectors its slabs are read into, and
//! only once they fill the capped payload length exactly.)
//!
//! All integers and floats are little-endian; `f32`s are moved as their IEEE
//! bit patterns, so a mesh or framebuffer survives the wire **bit-exactly**
//! (the round-trip property every serve test leans on).

use crate::cache::CachedSurface;
use oociso_exio::crc::Crc32;
use oociso_march::{IndexedMesh, Vec3};
use oociso_render::FrameRegion;
use std::borrow::Cow;
use std::cell::Cell;
use std::io::{self, IoSlice, Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frame magic: `"OISO"` read as a little-endian u32.
pub const MAGIC: u32 = u32::from_le_bytes(*b"OISO");
/// The protocol version, the only one spoken. Every frame header carries
/// it, and a reader answers a frame stamped with any other version
/// [`ERR_UNSUPPORTED_VERSION`] (the connection stays usable). Every payload
/// has one fixed layout; the only optional field is the error frame's
/// trailing retry-after hint.
pub const VERSION: u16 = 6;
/// Most LOD pyramid levels the protocol (and the per-level stats counters)
/// can address, level 0 included.
pub const MAX_LOD_LEVELS: usize = 4;
/// Fixed frame header size in bytes (magic + version + type + payload len).
pub const HEADER_BYTES: usize = 16;
/// Upper bound on a single frame's payload (guards readers against
/// allocating unbounded memory for a hostile or corrupted length field).
/// This is the *response*-side bound — meshes are legitimately huge.
pub const MAX_PAYLOAD: u64 = 1 << 31; // 2 GiB

/// Upper bound the **server** enforces on request payloads. Every
/// legitimate request is under 100 bytes (pings aside), so a client
/// claiming more is hostile or broken — rejected before any allocation,
/// closing the hole where a 16-byte header could commit gigabytes.
pub const MAX_REQUEST_PAYLOAD: u64 = 1 << 20; // 1 MiB

/// Message type tags (the `msg type` header field).
pub const MSG_MESH_REQUEST: u16 = 1;
pub const MSG_FRAME_REQUEST: u16 = 2;
pub const MSG_STATS_REQUEST: u16 = 3;
pub const MSG_PING: u16 = 4;
pub const MSG_MESH_RESPONSE: u16 = 5;
pub const MSG_FRAME_RESPONSE: u16 = 6;
pub const MSG_STATS_RESPONSE: u16 = 7;
pub const MSG_ERROR: u16 = 8;
pub const MSG_PONG: u16 = 9;
// Tag 10 carried the retired compositing `Region` message. It decodes as an
// unknown type; do not reuse it, old peers may still send it.
/// Ask the server for its metrics registry exposition.
pub const MSG_METRICS_REQUEST: u16 = 11;
/// Metrics exposition text (UTF-8, Prometheus text format).
pub const MSG_METRICS_RESPONSE: u16 = 12;
/// Ask the server for a finished request trace by id (0 = most recent).
pub const MSG_TRACE_REQUEST: u16 = 13;
/// A finished request trace's span events.
pub const MSG_TRACE_RESPONSE: u16 = 14;
// Tags 15 and 16 carried the retired progressive delivery (a request
// answered by one chunk frame per LOD level). They decode as unknown types;
// do not reuse them, old peers may still send them.

/// Error codes carried by [`Message::Error`].
pub const ERR_UNSUPPORTED_VERSION: u16 = 1;
pub const ERR_BAD_MAGIC: u16 = 2;
pub const ERR_BAD_CHECKSUM: u16 = 3;
pub const ERR_MALFORMED: u16 = 4;
pub const ERR_INTERNAL: u16 = 5;
/// The requested LOD level does not exist on this server (the reply's
/// detail names the server's level count; the connection stays usable).
pub const ERR_BAD_LOD: u16 = 6;
/// The server is at capacity and shed this request instead of queueing it
/// behind an unbounded backlog. The reply is honest overload, not failure:
/// the request was never started, so retrying is always safe, and the error
/// frame carries a `retry_after_ms` hint for when. The connection stays
/// usable.
pub const ERR_BUSY: u16 = 7;
/// The requested extraction backend id is not served: the server extracts
/// with MC (id 0) only (the reply's detail names the offline path; the
/// connection stays usable).
pub const ERR_BAD_BACKEND: u16 = 8;

/// The backend byte of a mesh request that names no
/// backend: `None` encodes as it, and it decodes as `None`.
pub const BACKEND_DEFAULT: u8 = 0xFF;

/// CRC-32 (IEEE) of `bytes` — the frame trailer's checksum. The routine
/// lives in `oociso-exio` ([`oociso_exio::crc`]: sliced tables, carry-less
/// multiply where the CPU has it); the polynomial and therefore every byte
/// on the wire are what the protocol has always shipped.
pub use oociso_exio::crc::crc32;

/// An axis-aligned query region in mesh (vertex-grid) coordinates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Region {
    pub lo: [f32; 3],
    pub hi: [f32; 3],
}

impl Region {
    /// Corner vectors for mesh filtering.
    pub fn corners(&self) -> (Vec3, Vec3) {
        (
            Vec3::new(self.lo[0], self.lo[1], self.lo[2]),
            Vec3::new(self.hi[0], self.hi[1], self.hi[2]),
        )
    }
}

/// Camera + viewport parameters of a framebuffer-mode request (the orbiting
/// camera every example and test uses, made explicit on the wire).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FrameParams {
    pub width: u32,
    pub height: u32,
    pub azimuth: f32,
    pub elevation: f32,
    pub distance: f32,
    /// Tile grid the response framebuffer is sharded into.
    pub tile_cols: u16,
    pub tile_rows: u16,
}

/// Server-side counters returned by a stats request — the serving layer's
/// analogue of a `NodeReport` row.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerReport {
    /// Client connections accepted so far.
    pub connections: u64,
    /// Requests answered (all types, errors included).
    pub requests: u64,
    /// Mesh-mode requests answered.
    pub mesh_requests: u64,
    /// Framebuffer-mode requests answered.
    pub frame_requests: u64,
    /// Error responses sent.
    pub errors: u64,
    /// Response payload bytes written.
    pub bytes_out: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses (each one ran a full extraction).
    pub cache_misses: u64,
    /// Entries evicted to stay under the cache's byte budget.
    pub cache_evictions: u64,
    /// Mesh bytes currently resident in the cache.
    pub cache_resident_bytes: u64,
    /// Meshes currently resident in the cache.
    pub cache_resident_entries: u64,
    /// Cache hits per LOD level (level 0 first; levels beyond the server's
    /// pyramid stay 0). Sums to `cache_hits`.
    pub lod_hits: [u64; MAX_LOD_LEVELS],
    /// Cache misses per LOD level. Sums to `cache_misses`.
    pub lod_misses: [u64; MAX_LOD_LEVELS],
    /// Requests answered with [`ERR_BUSY`] by admission control (no
    /// extraction slot / connection cap reached).
    pub shed: u64,
    /// Always 0: the server answers a busy miss with [`ERR_BUSY`], never
    /// with another level.
    pub degraded: u64,
    /// Connections closed by a read/write deadline (slowloris defense) or
    /// the idle timeout.
    pub timed_out: u64,
    /// Requests that completed during a graceful drain.
    pub drained: u64,
    /// Accept-loop backoffs taken on fd exhaustion (`EMFILE`/`ENFILE`).
    pub accept_backoffs: u64,
    /// Connections currently being served (a gauge, not a counter).
    pub active_connections: u64,
}

/// One decoded protocol message.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Extract (or serve from cache) the isosurface at `iso`, optionally
    /// restricted to triangles intersecting `region`, at LOD pyramid level
    /// `lod` (0 = full resolution).
    MeshRequest {
        iso: f32,
        region: Option<Region>,
        lod: u16,
        /// Extraction backend id (`oociso_march::Backend::id`), or `None`
        /// when the client names none (encoded as [`BACKEND_DEFAULT`]). The
        /// id travels raw; the server serves `None` and MC's id 0, and
        /// answers any other id with [`ERR_BAD_BACKEND`] (mirroring how an
        /// out-of-range `lod` draws [`ERR_BAD_LOD`]).
        backend: Option<u8>,
        /// Client-supplied trace id, echoed on the response and used to key
        /// the server's trace journal (0 = untraced).
        trace_id: u64,
    },
    /// Extract, rasterize, and return the framebuffer as tile frames.
    FrameRequest {
        iso: f32,
        params: FrameParams,
        /// Client-supplied trace id (0 = untraced).
        trace_id: u64,
    },
    /// Ask for the server's counters.
    StatsRequest,
    /// Latency/bandwidth probe; the payload is echoed back in a `Pong`.
    Ping { payload: Vec<u8> },
    /// The isosurface (welded vertices + triangle indices), with serving
    /// metadata.
    MeshResponse {
        cache_hit: bool,
        active_metacells: u64,
        /// The LOD level served: always the requested level.
        served_lod: u16,
        /// Always false from this server: a busy miss is answered with
        /// [`ERR_BUSY`], never with another level.
        degraded: bool,
        /// Extraction backend id that produced this mesh (always 0, MC, from
        /// this server).
        backend: u8,
        /// Echo of the request's trace id.
        trace_id: u64,
        mesh: IndexedMesh,
    },
    /// The rendered framebuffer, sharded into per-tile regions.
    FrameResponse {
        cache_hit: bool,
        width: u32,
        height: u32,
        regions: Vec<FrameRegion>,
        /// Echo of the request's trace id.
        trace_id: u64,
    },
    /// Server counters.
    StatsResponse(ServerReport),
    /// Structured failure (`ERR_*` code + human-readable detail).
    Error {
        code: u16,
        detail: String,
        /// For [`ERR_BUSY`]: how long the client should wait before
        /// retrying, in milliseconds. The protocol's one optional field: a
        /// trailing `u32` when present, `None` when the payload ends at the
        /// detail.
        retry_after_ms: Option<u32>,
    },
    /// Echo of a `Ping` payload.
    Pong { payload: Vec<u8> },
    /// Ask the server for its metrics registry exposition.
    MetricsRequest,
    /// The server's metrics exposition (Prometheus text format).
    MetricsResponse { text: String },
    /// Ask for a finished request trace by id (0 = most recent).
    TraceRequest { id: u64 },
    /// A finished request trace: its span events, total wall time, and how
    /// many events overflowed the trace's bounded buffer. `found` is false
    /// (and everything else zero/empty) when the journal no longer holds the
    /// requested id.
    TraceResponse {
        found: bool,
        id: u64,
        total_us: u64,
        dropped: u64,
        events: Vec<TraceEvent>,
    },
}

/// One span event inside a [`Message::TraceResponse`] — the wire twin of
/// `oociso_obs::SpanEvent`, with owned strings so it survives decoding.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Span id, unique within the trace.
    pub id: u32,
    /// Parent span id, or `u32::MAX` for a root span.
    pub parent: u32,
    /// Span name (e.g. `request`, `extract`, `cache`).
    pub name: String,
    /// Start offset from the trace origin, in microseconds.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
    /// Structured key/value annotations.
    pub fields: Vec<(String, u64)>,
}

/// Render a decoded trace's events as the same indented tree
/// `oociso_obs::Trace::render_tree` produces server-side: one line per span,
/// children indented two spaces under their parent, siblings ordered by
/// (start, id).
pub fn render_trace_events(events: &[TraceEvent]) -> String {
    let mut by_parent: Vec<(u32, usize)> = events
        .iter()
        .enumerate()
        .map(|(i, e)| (e.parent, i))
        .collect();
    by_parent.sort_by_key(|&(parent, i)| (parent, events[i].start_us, events[i].id));
    let mut out = String::new();
    fn emit(
        events: &[TraceEvent],
        by_parent: &[(u32, usize)],
        parent: u32,
        depth: usize,
        out: &mut String,
    ) {
        let lo = by_parent.partition_point(|&(p, _)| p < parent);
        for &(p, i) in &by_parent[lo..] {
            if p != parent {
                break;
            }
            let e = &events[i];
            for _ in 0..depth {
                out.push_str("  ");
            }
            out.push_str(&e.name);
            out.push_str(&format!(" {:.3}ms", e.dur_us as f64 / 1e3));
            for (k, v) in &e.fields {
                out.push_str(&format!(" {k}={v}"));
            }
            out.push('\n');
            emit(events, by_parent, e.id, depth + 1, out);
        }
    }
    emit(events, &by_parent, u32::MAX, 0, &mut out);
    out
}

impl Message {
    /// The wire tag of this message.
    pub fn msg_type(&self) -> u16 {
        match self {
            Message::MeshRequest { .. } => MSG_MESH_REQUEST,
            Message::FrameRequest { .. } => MSG_FRAME_REQUEST,
            Message::StatsRequest => MSG_STATS_REQUEST,
            Message::Ping { .. } => MSG_PING,
            Message::MeshResponse { .. } => MSG_MESH_RESPONSE,
            Message::FrameResponse { .. } => MSG_FRAME_RESPONSE,
            Message::StatsResponse(_) => MSG_STATS_RESPONSE,
            Message::Error { .. } => MSG_ERROR,
            Message::Pong { .. } => MSG_PONG,
            Message::MetricsRequest => MSG_METRICS_REQUEST,
            Message::MetricsResponse { .. } => MSG_METRICS_RESPONSE,
            Message::TraceRequest { .. } => MSG_TRACE_REQUEST,
            Message::TraceResponse { .. } => MSG_TRACE_RESPONSE,
        }
    }
}

fn malformed(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed frame: {what}"),
    )
}

/// Little-endian payload reader with truncation checks.
struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Rd { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| malformed("truncated payload"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f32(&mut self) -> io::Result<f32> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Read an element count, requiring the `elem_bytes` each element needs
    /// at minimum to still fit in the unread payload — so a hostile count
    /// can never drive a pre-reservation larger than the bytes actually
    /// received.
    fn len(&mut self, what: &str, elem_bytes: usize) -> io::Result<usize> {
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        let need = n.checked_mul(elem_bytes.max(1) as u64);
        if need.is_none_or(|b| b > remaining) {
            return Err(malformed(what));
        }
        Ok(n as usize)
    }

    /// Unread bytes left in the payload.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn done(&self) -> io::Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(malformed("trailing bytes"))
        }
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(out: &mut Vec<u8>, v: f32) {
    put_u32(out, v.to_bits());
}

fn put_region(out: &mut Vec<u8>, r: &FrameRegion) {
    put_u64(out, r.origin.0 as u64);
    put_u64(out, r.origin.1 as u64);
    put_u64(out, r.size.0 as u64);
    put_u64(out, r.size.1 as u64);
    for px in &r.color {
        out.extend_from_slice(px);
    }
    for &d in &r.depth {
        put_f32(out, d);
    }
}

fn read_region(rd: &mut Rd) -> io::Result<FrameRegion> {
    let origin = (rd.u64()? as usize, rd.u64()? as usize);
    let w = rd.u64()? as usize;
    let h = rd.u64()? as usize;
    let n = w
        .checked_mul(h)
        .filter(|&n| {
            (n as u64)
                .checked_mul(8)
                .is_some_and(|b| b <= rd.buf.len() as u64)
        })
        .ok_or_else(|| malformed("region size"))?;
    let mut color = Vec::with_capacity(n);
    for _ in 0..n {
        color.push(rd.take(4)?.try_into().unwrap());
    }
    let mut depth = Vec::with_capacity(n);
    for _ in 0..n {
        depth.push(rd.f32()?);
    }
    Ok(FrameRegion {
        origin,
        size: (w, h),
        color,
        depth,
    })
}

/// Append `vals` little-endian as one slab (one resize, one pass): the
/// portable slab encoder, for a target whose own bytes are not the wire's,
/// and the oracle of [`wire_bytes`].
#[cfg(any(test, not(target_endian = "little")))]
fn put_u32s(out: &mut Vec<u8>, vals: &[u32]) {
    let at = out.len();
    out.resize(at + std::mem::size_of_val(vals), 0);
    for (dst, v) in out[at..].chunks_exact_mut(4).zip(vals) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// Append positions as one slab of little-endian `f32` bit patterns (see
/// [`put_u32s`]).
#[cfg(any(test, not(target_endian = "little")))]
fn put_vec3s(out: &mut Vec<u8>, ps: &[Vec3]) {
    let at = out.len();
    out.resize(at + std::mem::size_of_val(ps), 0);
    for (dst, p) in out[at..].chunks_exact_mut(12).zip(ps) {
        dst[0..4].copy_from_slice(&p.x.to_le_bytes());
        dst[4..8].copy_from_slice(&p.y.to_le_bytes());
        dst[8..12].copy_from_slice(&p.z.to_le_bytes());
    }
}

/// The element types of a mesh body slab: `u32` indices and `Vec3`
/// positions (three `f32`s, `#[repr(C)]`). Neither has padding, and every
/// byte of either is some bit pattern of a `u32`/`f32`.
trait SlabElem: Copy {
    /// What a slab is filled with before it is read into.
    #[cfg(target_endian = "little")]
    const ZERO: Self;
    /// One element from its `size_of::<Self>()` little-endian wire bytes:
    /// the portable slab decoder.
    #[cfg(not(target_endian = "little"))]
    fn from_wire(bytes: &[u8]) -> Self;
}

impl SlabElem for u32 {
    #[cfg(target_endian = "little")]
    const ZERO: u32 = 0;
    #[cfg(not(target_endian = "little"))]
    fn from_wire(bytes: &[u8]) -> u32 {
        u32::from_le_bytes(bytes.try_into().unwrap())
    }
}

impl SlabElem for Vec3 {
    #[cfg(target_endian = "little")]
    const ZERO: Vec3 = Vec3::ZERO;
    #[cfg(not(target_endian = "little"))]
    fn from_wire(bytes: &[u8]) -> Vec3 {
        let f = |at: usize| f32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        Vec3::new(f(0), f(4), f(8))
    }
}

// `wire_bytes` and `wire_bytes_mut` rely on this: 12 bytes is three `f32`s
// and no padding
const _: () = assert!(std::mem::size_of::<Vec3>() == 12);

/// `vals` as its wire bytes, viewed in place: on a little-endian target a
/// `u32`'s or `f32`'s memory is its `to_le_bytes()`, so this is exactly
/// what [`put_u32s`] / [`put_vec3s`] would write, without the copy.
#[cfg(target_endian = "little")]
fn wire_bytes<T: SlabElem>(vals: &[T]) -> &[u8] {
    // SAFETY: `T` is `u32` or `Vec3` (`SlabElem` is private and implemented
    // for nothing else). Neither has padding — `Vec3` is `#[repr(C)]` over
    // three `f32`s and the assertion above pins its size at 12 — so every
    // one of the `size_of_val(vals)` bytes starting at `vals.as_ptr()` is
    // initialized and inside the one allocation `vals` points into. `u8`
    // has alignment 1. The returned slice borrows `vals`, so nothing can
    // write or free those bytes while it is alive.
    unsafe { std::slice::from_raw_parts(vals.as_ptr().cast::<u8>(), std::mem::size_of_val(vals)) }
}

/// `vals` as wire bytes to be written, viewed in place: the mutable twin of
/// [`wire_bytes`]. Whatever bytes are written through the view, each
/// element then holds the value the portable decoder would read from them.
#[cfg(target_endian = "little")]
fn wire_bytes_mut<T: SlabElem>(vals: &mut [T]) -> &mut [u8] {
    // SAFETY: as in `wire_bytes`, the `size_of_val(vals)` bytes starting at
    // `vals.as_mut_ptr()` are initialized, free of padding and inside the
    // one allocation `vals` points into, and `u8` has alignment 1. Every
    // bit pattern of those bytes is a valid `u32` or three valid `f32`s, so
    // no write through the view can leave an invalid `T` behind. The view
    // borrows `vals` mutably, so it is the only access while it is alive.
    unsafe {
        std::slice::from_raw_parts_mut(vals.as_mut_ptr().cast::<u8>(), std::mem::size_of_val(vals))
    }
}

/// Bytes of a slab zero-filled ahead of the read that overwrites them: a
/// step small enough to stay in cache from the fill to the read.
#[cfg(target_endian = "little")]
const SLAB_STEP_BYTES: usize = 256 << 10;

/// `n` slab elements read off `r` into a fresh vector: straight into the
/// vector's bytes on a little-endian target ([`wire_bytes_mut`]), through
/// a byte buffer and the portable decoder on any other. The caller has
/// bounded `n` by the bytes the frame carries.
fn read_slab<T: SlabElem>(r: &mut impl Read, n: usize) -> io::Result<Vec<T>> {
    #[cfg(target_endian = "little")]
    {
        // the vector is filled a step at a time, just ahead of the bytes
        // read into it: memory is committed as the bytes arrive, never
        // on the counts' say-so alone
        let step = SLAB_STEP_BYTES / std::mem::size_of::<T>();
        let mut vals = Vec::with_capacity(n);
        while vals.len() < n {
            let at = vals.len();
            vals.resize(n.min(at + step), T::ZERO);
            r.read_exact(wire_bytes_mut(&mut vals[at..]))?;
        }
        Ok(vals)
    }
    #[cfg(not(target_endian = "little"))]
    {
        let size = std::mem::size_of::<T>();
        let mut bytes = vec![0u8; n * size];
        r.read_exact(&mut bytes)?;
        Ok(bytes.chunks_exact(size).map(T::from_wire).collect())
    }
}

/// Reject an index count that is not a whole number of triangles.
fn check_triangle_multiple(nidx: usize) -> io::Result<()> {
    if nidx.is_multiple_of(3) {
        Ok(())
    } else {
        Err(malformed("index count not a triangle multiple"))
    }
}

/// Reject an index buffer that points past `nvert` vertices (one max-scan).
fn check_indices(indices: &[u32], nvert: usize) -> io::Result<()> {
    match indices.iter().copied().max() {
        Some(max) if max as usize >= nvert => Err(malformed("index out of range")),
        _ => Ok(()),
    }
}

/// The two body slabs of a mesh response, positions then indices, as wire
/// bytes: the mesh's own arrays viewed in place on a little-endian target,
/// encoded by the slab loops on any other.
fn body_slabs(mesh: &IndexedMesh) -> [Cow<'_, [u8]>; 2] {
    #[cfg(target_endian = "little")]
    {
        [
            Cow::Borrowed(wire_bytes(mesh.positions())),
            Cow::Borrowed(wire_bytes(mesh.indices())),
        ]
    }
    #[cfg(not(target_endian = "little"))]
    {
        let (mut positions, mut indices) = (Vec::new(), Vec::new());
        put_vec3s(&mut positions, mesh.positions());
        put_u32s(&mut indices, mesh.indices());
        [Cow::Owned(positions), Cow::Owned(indices)]
    }
}

/// Inverse of the mesh body ([`mesh_envelope`]'s counts and
/// [`body_slabs`]) inside a payload already in hand: both counts are
/// bounded by the unread bytes before anything is allocated, the two slabs
/// are moved in bulk by [`read_slab`], and the index buffer is validated
/// (triangle multiple, every index in range) before the mesh is assembled.
/// A reply read off a stream skips the payload buffer and reads its slabs
/// with the same [`read_slab`] ([`read_mesh_in_place`]).
fn get_mesh_body(rd: &mut Rd) -> io::Result<IndexedMesh> {
    let nvert = rd.len("vertex count", 12)?;
    let nidx = rd.len("index count", 4)?;
    check_triangle_multiple(nidx)?;
    let positions = read_slab(&mut rd.take(12 * nvert)?, nvert)?;
    let indices = read_slab(&mut rd.take(4 * nidx)?, nidx)?;
    check_indices(&indices, nvert)?;
    Ok(IndexedMesh::from_parts(positions, indices))
}

/// A mesh response from its decoded mesh and the payload fields around it:
/// `before` holds `cache_hit` and `active_metacells`, `after` the suffix.
fn mesh_response(before: &mut Rd, mesh: IndexedMesh, after: &mut Rd) -> io::Result<Message> {
    Ok(Message::MeshResponse {
        cache_hit: before.u8()? != 0,
        active_metacells: before.u64()?,
        served_lod: after.u16()?,
        degraded: after.u8()? != 0,
        backend: after.u8()?,
        trace_id: after.u64()?,
        mesh,
    })
}

/// The fields of a mesh response around its mesh (see
/// [`Message::MeshResponse`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct MeshFields {
    pub(crate) cache_hit: bool,
    pub(crate) active_metacells: u64,
    pub(crate) served_lod: u16,
    pub(crate) degraded: bool,
    pub(crate) backend: u8,
    pub(crate) trace_id: u64,
}

/// Bytes of a mesh response payload before its positions: `cache_hit`,
/// `active_metacells` and the vertex and index counts.
const MESH_FIELDS_BYTES: usize = 1 + 8 + 8 + 8;
/// Bytes of a mesh response frame before its positions: the frame header
/// and the [`MESH_FIELDS_BYTES`].
const MESH_HEAD_BYTES: usize = HEADER_BYTES + MESH_FIELDS_BYTES;
/// Bytes of its payload after the indices: `served_lod`, `degraded`,
/// `backend` and `trace_id`.
const MESH_SUFFIX_BYTES: usize = 2 + 1 + 1 + 8;
/// The frame's last bytes: the suffix, then the CRC-32 trailer.
const MESH_TAIL_BYTES: usize = MESH_SUFFIX_BYTES + 4;

/// `parts` laid end to end in an `N`-byte array they fill exactly.
fn packed<const N: usize>(parts: &[&[u8]]) -> [u8; N] {
    let mut out = [0u8; N];
    let mut at = 0;
    for part in parts {
        out[at..at + part.len()].copy_from_slice(part);
        at += part.len();
    }
    assert_eq!(at, N, "parts must fill the array");
    out
}

/// The mesh response layout — its only copy. The head is the frame header
/// (payload length included) and the fields before the body; the suffix is
/// the fields after it. The body between them is [`body_slabs`].
fn mesh_envelope(
    f: &MeshFields,
    mesh: &IndexedMesh,
) -> ([u8; MESH_HEAD_BYTES], [u8; MESH_SUFFIX_BYTES]) {
    let body = std::mem::size_of_val(mesh.positions()) + std::mem::size_of_val(mesh.indices());
    let payload = (MESH_FIELDS_BYTES + body + MESH_SUFFIX_BYTES) as u64;
    let head = packed(&[
        &MAGIC.to_le_bytes(),
        &VERSION.to_le_bytes(),
        &MSG_MESH_RESPONSE.to_le_bytes(),
        &payload.to_le_bytes(),
        &[f.cache_hit as u8],
        &f.active_metacells.to_le_bytes(),
        &(mesh.num_vertices() as u64).to_le_bytes(),
        &(mesh.indices().len() as u64).to_le_bytes(),
    ]);
    let suffix = packed(&[
        &f.served_lod.to_le_bytes(),
        &[f.degraded as u8, f.backend],
        &f.trace_id.to_le_bytes(),
    ]);
    (head, suffix)
}

/// Append a mesh response's payload to `out` (a frame under assembly, or a
/// bare payload): the envelope's fields around the two body slabs.
fn put_mesh_response(out: &mut Vec<u8>, f: &MeshFields, mesh: &IndexedMesh) {
    let (head, suffix) = mesh_envelope(f, mesh);
    let body = body_slabs(mesh);
    // room for the frame's checksum trailer too, so sealing never regrows
    // a mesh-sized buffer
    out.reserve(MESH_FIELDS_BYTES + body[0].len() + body[1].len() + MESH_TAIL_BYTES);
    out.extend_from_slice(&head[HEADER_BYTES..]);
    for slab in &body {
        out.extend_from_slice(slab);
    }
    out.extend_from_slice(&suffix);
}

/// A mesh response frame in its four parts: head ‖ positions ‖ indices ‖
/// tail. Only the head and the tail (suffix + CRC-32) are built; the body
/// is [`body_slabs`].
struct MeshParts<'m> {
    head: [u8; MESH_HEAD_BYTES],
    body: [Cow<'m, [u8]>; 2],
    tail: [u8; MESH_TAIL_BYTES],
}

impl<'m> MeshParts<'m> {
    fn new(f: &MeshFields, mesh: &'m IndexedMesh) -> Self {
        let (head, suffix) = mesh_envelope(f, mesh);
        let body = body_slabs(mesh);
        let crc = timed_crc(&[&head[HEADER_BYTES..], &body[0], &body[1], &suffix]);
        let tail = packed(&[&suffix, &crc.to_le_bytes()]);
        MeshParts { head, body, tail }
    }

    fn concat(&self) -> Vec<u8> {
        let [positions, indices] = &self.body;
        [&self.head[..], positions, indices, &self.tail].concat()
    }
}

/// Encode a complete `MeshResponse` frame from a **borrowed** mesh, as one
/// owned buffer: the concatenation of the parts the server writes in place
/// ([`Frame`]), so the two never differ by a byte. `version` must be
/// [`VERSION`], the only one spoken.
#[allow(clippy::too_many_arguments)]
pub fn encode_mesh_response_frame(
    cache_hit: bool,
    active_metacells: u64,
    served_lod: u16,
    degraded: bool,
    backend: u8,
    trace_id: u64,
    mesh: &IndexedMesh,
    version: u16,
) -> Vec<u8> {
    assert_eq!(version, VERSION, "only protocol v{VERSION} is spoken");
    let fields = MeshFields {
        cache_hit,
        active_metacells,
        served_lod,
        degraded,
        backend,
        trace_id,
    };
    MeshParts::new(&fields, mesh).concat()
}

/// An encoded reply frame, as the event loop queues and writes it.
pub(crate) enum Frame {
    /// The whole frame in one buffer.
    Owned(Vec<u8>),
    /// A whole-level mesh response: the head and tail built for this reply
    /// around the level's own two arrays, written in place from the shared
    /// cache entry. The `Arc` keeps the level alive until the last byte is
    /// written, even after the cache evicts it.
    #[cfg(target_endian = "little")]
    Level {
        head: [u8; MESH_HEAD_BYTES],
        level: Arc<CachedSurface>,
        tail: [u8; MESH_TAIL_BYTES],
    },
}

impl Frame {
    /// The mesh response carrying the whole of `level`; the CRC is computed
    /// here, once.
    pub(crate) fn level(f: MeshFields, level: Arc<CachedSurface>) -> Frame {
        #[cfg(target_endian = "little")]
        {
            let (head, tail) = {
                let parts = MeshParts::new(&f, &level.mesh);
                (parts.head, parts.tail)
            };
            Frame::Level { head, level, tail }
        }
        #[cfg(not(target_endian = "little"))]
        Frame::Owned(MeshParts::new(&f, &level.mesh).concat())
    }

    /// The frame's bytes as up to four parts, in write order.
    fn parts(&self) -> [&[u8]; 4] {
        match self {
            Frame::Owned(bytes) => [bytes, &[], &[], &[]],
            #[cfg(target_endian = "little")]
            Frame::Level { head, level, tail } => [
                head,
                wire_bytes(level.mesh.positions()),
                wire_bytes(level.mesh.indices()),
                tail,
            ],
        }
    }

    /// Total frame length in bytes.
    pub(crate) fn len(&self) -> usize {
        self.parts().iter().map(|p| p.len()).sum()
    }

    /// One vectored write of what follows the first `off` bytes (`off`
    /// below [`Frame::len`]). Returns how many bytes `w` accepted, which
    /// may end anywhere, inside a part or on a boundary.
    pub(crate) fn write_from(&self, w: &mut impl Write, mut off: usize) -> io::Result<usize> {
        let mut rest = [IoSlice::new(&[]); 4];
        let mut n = 0;
        for part in self.parts() {
            if off >= part.len() {
                off -= part.len();
                continue;
            }
            rest[n] = IoSlice::new(&part[off..]);
            off = 0;
            n += 1;
        }
        w.write_vectored(&rest[..n])
    }
}

/// Serialize a [`ServerReport`]: the 11 base counters, the per-LOD-level
/// hit/miss arrays, the robustness counters, then the per-backend
/// `[MC, SurfaceNets]` hit and miss arrays — all MC, since MC is the only
/// kernel served.
fn put_server_report(out: &mut Vec<u8>, s: &ServerReport) {
    for v in [
        s.connections,
        s.requests,
        s.mesh_requests,
        s.frame_requests,
        s.errors,
        s.bytes_out,
        s.cache_hits,
        s.cache_misses,
        s.cache_evictions,
        s.cache_resident_bytes,
        s.cache_resident_entries,
    ] {
        put_u64(out, v);
    }
    for v in s.lod_hits.iter().chain(&s.lod_misses) {
        put_u64(out, *v);
    }
    for v in [
        s.shed,
        s.degraded,
        s.timed_out,
        s.drained,
        s.accept_backoffs,
        s.active_connections,
        s.cache_hits,
        0,
        s.cache_misses,
        0,
    ] {
        put_u64(out, v);
    }
}

/// Encode a message's payload (everything between header and checksum).
pub fn encode_payload(msg: &Message) -> Vec<u8> {
    let mut out = Vec::new();
    put_payload(&mut out, msg);
    out
}

/// Append `msg`'s payload to `out` — a frame under assembly
/// ([`encode_frame`]) or a bare payload ([`encode_payload`]).
fn put_payload(out: &mut Vec<u8>, msg: &Message) {
    match msg {
        Message::MeshRequest {
            iso,
            region,
            lod,
            backend,
            trace_id,
        } => {
            put_f32(out, *iso);
            out.push(region.is_some() as u8);
            if let Some(r) = region {
                for v in r.lo.iter().chain(&r.hi) {
                    put_f32(out, *v);
                }
            }
            put_u16(out, *lod);
            out.push(backend.unwrap_or(BACKEND_DEFAULT));
            put_u64(out, *trace_id);
        }
        Message::FrameRequest {
            iso,
            params,
            trace_id,
        } => {
            put_f32(out, *iso);
            put_u32(out, params.width);
            put_u32(out, params.height);
            put_f32(out, params.azimuth);
            put_f32(out, params.elevation);
            put_f32(out, params.distance);
            put_u16(out, params.tile_cols);
            put_u16(out, params.tile_rows);
            put_u64(out, *trace_id);
        }
        Message::StatsRequest => {}
        Message::Ping { payload } | Message::Pong { payload } => {
            out.extend_from_slice(payload);
        }
        Message::MeshResponse {
            cache_hit,
            active_metacells,
            served_lod,
            degraded,
            backend,
            trace_id,
            mesh,
        } => put_mesh_response(
            out,
            &MeshFields {
                cache_hit: *cache_hit,
                active_metacells: *active_metacells,
                served_lod: *served_lod,
                degraded: *degraded,
                backend: *backend,
                trace_id: *trace_id,
            },
            mesh,
        ),
        Message::FrameResponse {
            cache_hit,
            width,
            height,
            regions,
            trace_id,
        } => {
            out.push(*cache_hit as u8);
            put_u32(out, *width);
            put_u32(out, *height);
            put_u64(out, regions.len() as u64);
            for r in regions {
                put_region(out, r);
            }
            put_u64(out, *trace_id);
        }
        Message::StatsResponse(s) => put_server_report(out, s),
        Message::Error {
            code,
            detail,
            retry_after_ms,
        } => {
            put_u16(out, *code);
            put_u64(out, detail.len() as u64);
            out.extend_from_slice(detail.as_bytes());
            if let Some(ms) = retry_after_ms {
                put_u32(out, *ms);
            }
        }
        Message::MetricsRequest => {}
        Message::MetricsResponse { text } => {
            out.extend_from_slice(text.as_bytes());
        }
        Message::TraceRequest { id } => {
            put_u64(out, *id);
        }
        Message::TraceResponse {
            found,
            id,
            total_us,
            dropped,
            events,
        } => {
            out.push(*found as u8);
            put_u64(out, *id);
            put_u64(out, *total_us);
            put_u64(out, *dropped);
            put_u64(out, events.len() as u64);
            for e in events {
                put_u32(out, e.id);
                put_u32(out, e.parent);
                put_u16(out, e.name.len() as u16);
                out.extend_from_slice(e.name.as_bytes());
                put_u64(out, e.start_us);
                put_u64(out, e.dur_us);
                put_u16(out, e.fields.len() as u16);
                for (k, v) in &e.fields {
                    put_u16(out, k.len() as u16);
                    out.extend_from_slice(k.as_bytes());
                    put_u64(out, *v);
                }
            }
        }
    }
}

/// A request's backend byte: [`BACKEND_DEFAULT`] is "none named".
fn get_backend(rd: &mut Rd) -> io::Result<Option<u8>> {
    let b = rd.u8()?;
    Ok((b != BACKEND_DEFAULT).then_some(b))
}

/// Decode a payload of known `msg_type`.
pub fn decode_payload(msg_type: u16, payload: &[u8]) -> io::Result<Message> {
    let mut rd = Rd::new(payload);
    let msg = match msg_type {
        MSG_MESH_REQUEST => {
            let iso = rd.f32()?;
            let region = match rd.u8()? {
                0 => None,
                1 => Some(Region {
                    lo: [rd.f32()?, rd.f32()?, rd.f32()?],
                    hi: [rd.f32()?, rd.f32()?, rd.f32()?],
                }),
                _ => return Err(malformed("region flag")),
            };
            Message::MeshRequest {
                iso,
                region,
                lod: rd.u16()?,
                backend: get_backend(&mut rd)?,
                trace_id: rd.u64()?,
            }
        }
        MSG_FRAME_REQUEST => {
            let iso = rd.f32()?;
            let params = FrameParams {
                width: rd.u32()?,
                height: rd.u32()?,
                azimuth: rd.f32()?,
                elevation: rd.f32()?,
                distance: rd.f32()?,
                tile_cols: rd.u16()?,
                tile_rows: rd.u16()?,
            };
            Message::FrameRequest {
                iso,
                params,
                trace_id: rd.u64()?,
            }
        }
        MSG_STATS_REQUEST => Message::StatsRequest,
        MSG_PING => Message::Ping {
            payload: rd.take(payload.len())?.to_vec(),
        },
        MSG_PONG => Message::Pong {
            payload: rd.take(payload.len())?.to_vec(),
        },
        MSG_MESH_RESPONSE => {
            let mut before = Rd::new(rd.take(1 + 8)?);
            let mesh = get_mesh_body(&mut rd)?;
            mesh_response(&mut before, mesh, &mut rd)?
        }
        MSG_FRAME_RESPONSE => {
            let cache_hit = rd.u8()? != 0;
            let width = rd.u32()?;
            let height = rd.u32()?;
            // even an empty region carries its 32-byte origin/size header
            let n = rd.len("region count", 32)?;
            let mut regions = Vec::with_capacity(n);
            for _ in 0..n {
                regions.push(read_region(&mut rd)?);
            }
            Message::FrameResponse {
                cache_hit,
                width,
                height,
                regions,
                trace_id: rd.u64()?,
            }
        }
        MSG_STATS_RESPONSE => {
            let mut v = [0u64; 11];
            let mut lod_hits = [0u64; MAX_LOD_LEVELS];
            let mut lod_misses = [0u64; MAX_LOD_LEVELS];
            let mut robust = [0u64; 6];
            // the per-backend hit/miss arrays come last, derived from the
            // aggregates: read and discarded
            let mut per_backend = [0u64; 4];
            for slot in v
                .iter_mut()
                .chain(&mut lod_hits)
                .chain(&mut lod_misses)
                .chain(&mut robust)
                .chain(&mut per_backend)
            {
                *slot = rd.u64()?;
            }
            Message::StatsResponse(ServerReport {
                connections: v[0],
                requests: v[1],
                mesh_requests: v[2],
                frame_requests: v[3],
                errors: v[4],
                bytes_out: v[5],
                cache_hits: v[6],
                cache_misses: v[7],
                cache_evictions: v[8],
                cache_resident_bytes: v[9],
                cache_resident_entries: v[10],
                lod_hits,
                lod_misses,
                shed: robust[0],
                degraded: robust[1],
                timed_out: robust[2],
                drained: robust[3],
                accept_backoffs: robust[4],
                active_connections: robust[5],
            })
        }
        MSG_ERROR => {
            let code = rd.u16()?;
            let n = rd.len("detail length", 1)?;
            let detail = String::from_utf8(rd.take(n)?.to_vec())
                .map_err(|_| malformed("detail not UTF-8"))?;
            // the one optional field: a trailing retry-after hint
            let retry_after_ms = if rd.remaining() > 0 {
                Some(rd.u32()?)
            } else {
                None
            };
            Message::Error {
                code,
                detail,
                retry_after_ms,
            }
        }
        MSG_METRICS_REQUEST => Message::MetricsRequest,
        MSG_METRICS_RESPONSE => Message::MetricsResponse {
            text: String::from_utf8(rd.take(payload.len())?.to_vec())
                .map_err(|_| malformed("metrics text not UTF-8"))?,
        },
        MSG_TRACE_REQUEST => Message::TraceRequest { id: rd.u64()? },
        MSG_TRACE_RESPONSE => {
            let found = rd.u8()? != 0;
            let id = rd.u64()?;
            let total_us = rd.u64()?;
            let dropped = rd.u64()?;
            // minimal event: ids + empty name + times + zero fields
            let n = rd.len("trace event count", 28)?;
            let mut events = Vec::with_capacity(n);
            for _ in 0..n {
                let eid = rd.u32()?;
                let parent = rd.u32()?;
                let name_len = rd.u16()? as usize;
                let name = String::from_utf8(rd.take(name_len)?.to_vec())
                    .map_err(|_| malformed("span name not UTF-8"))?;
                let start_us = rd.u64()?;
                let dur_us = rd.u64()?;
                let nfields = rd.u16()? as usize;
                if nfields * 10 > rd.remaining() {
                    return Err(malformed("trace field count"));
                }
                let mut fields = Vec::with_capacity(nfields);
                for _ in 0..nfields {
                    let klen = rd.u16()? as usize;
                    let key = String::from_utf8(rd.take(klen)?.to_vec())
                        .map_err(|_| malformed("field key not UTF-8"))?;
                    fields.push((key, rd.u64()?));
                }
                events.push(TraceEvent {
                    id: eid,
                    parent,
                    name,
                    start_us,
                    dur_us,
                    fields,
                });
            }
            Message::TraceResponse {
                found,
                id,
                total_us,
                dropped,
                events,
            }
        }
        other => return Err(malformed(&format!("unknown message type {other}"))),
    };
    rd.done()?;
    Ok(msg)
}

/// Start a frame: the 16-byte header with the payload length still zero.
/// The payload is appended straight behind it and [`seal_frame`] finishes
/// the frame in place — one buffer, no separate payload vector.
fn begin_frame(magic: u32, version: u16, msg_type: u16) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + 4);
    put_u32(&mut out, magic);
    put_u16(&mut out, version);
    put_u16(&mut out, msg_type);
    put_u64(&mut out, 0);
    out
}

/// Finish a frame started by [`begin_frame`]: patch the payload length into
/// the header and append the CRC-32 of the payload bytes.
fn seal_frame(mut out: Vec<u8>) -> Vec<u8> {
    let len = (out.len() - HEADER_BYTES) as u64;
    out[8..HEADER_BYTES].copy_from_slice(&len.to_le_bytes());
    let crc = timed_crc(&[&out[HEADER_BYTES..]]);
    put_u32(&mut out, crc);
    out
}

/// CRC-32 of `parts` laid end to end, its time added to the calling
/// thread's [`crc_time`] clock.
fn timed_crc(parts: &[&[u8]]) -> u32 {
    let t_crc = Instant::now();
    let mut crc = Crc32::new();
    for part in parts {
        crc.update(part);
    }
    CRC_TIME.with(|t| t.set(t.get() + t_crc.elapsed()));
    crc.finish()
}

thread_local! {
    static CRC_TIME: Cell<Duration> = const { Cell::new(Duration::ZERO) };
}

/// Total time the calling thread has spent checksumming frames it encoded.
/// A reply is encoded on the thread that annotates its `encode` span, so
/// the difference across an encode is that reply's `crc_us`.
pub(crate) fn crc_time() -> Duration {
    CRC_TIME.with(Cell::get)
}

/// Serialize a whole frame (header + payload + checksum) into a byte vector.
pub fn encode_frame(msg: &Message) -> Vec<u8> {
    let mut out = begin_frame(MAGIC, VERSION, msg.msg_type());
    put_payload(&mut out, msg);
    seal_frame(out)
}

/// Serialize a frame with explicit header fields — the doctored-frame hook
/// the protocol-abuse tests (bad magic, future version, corrupt checksum)
/// are built on.
pub fn encode_frame_raw(magic: u32, version: u16, msg_type: u16, payload: &[u8]) -> Vec<u8> {
    let mut out = begin_frame(magic, version, msg_type);
    out.reserve(payload.len() + 4);
    out.extend_from_slice(payload);
    seal_frame(out)
}

/// Write one frame to `w` (single `write_all`, then flush).
pub fn write_frame(w: &mut impl Write, msg: &Message) -> io::Result<usize> {
    let frame = encode_frame(msg);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(frame.len())
}

/// What a frame read produced before payload interpretation: either a decoded
/// message or a structured protocol violation the server answers with an
/// `ERR_*` response.
// `Ok` carries a whole `Message` (inline stats arrays dominate its size);
// one `FrameIn` exists per in-flight frame read, never in bulk, so the
// size skew is irrelevant and boxing would just add a hop.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum FrameIn {
    /// A well-formed [`VERSION`] frame carrying `msg`.
    Ok { msg: Message },
    /// The header, version, checksum or payload was unacceptable; `close`
    /// means framing is lost (wrong magic, oversized length) and the
    /// connection cannot continue.
    Violation {
        code: u16,
        detail: String,
        close: bool,
    },
}

/// Read one frame from `r`. Returns `Ok(None)` on clean EOF at a frame
/// boundary; hard I/O errors and mid-frame truncation surface as `Err`.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<FrameIn>> {
    read_frame_limited(r, MAX_PAYLOAD)
}

/// A frame header that passed the checks made before its payload is read.
struct Header {
    version: u16,
    msg_type: u16,
    len: usize,
}

/// Parse the fixed header, enforcing magic and `min(max_payload,
/// MAX_PAYLOAD)` **before** any payload byte is buffered. Both failures
/// lose framing (`close: true`): a wrong magic cannot be re-synchronized,
/// and an oversized length claim may be hostile and gigabytes long, so it
/// is never drained.
#[allow(clippy::result_large_err)] // one per frame read, as `FrameIn` itself
fn parse_header(h: &[u8; HEADER_BYTES], max_payload: u64) -> Result<Header, FrameIn> {
    let magic = u32::from_le_bytes(h[0..4].try_into().unwrap());
    let version = u16::from_le_bytes(h[4..6].try_into().unwrap());
    let msg_type = u16::from_le_bytes(h[6..8].try_into().unwrap());
    let len = u64::from_le_bytes(h[8..16].try_into().unwrap());
    let lost = |code, detail| FrameIn::Violation {
        code,
        detail,
        close: true,
    };
    if magic != MAGIC {
        return Err(lost(ERR_BAD_MAGIC, format!("bad magic {magic:#x}")));
    }
    let cap = max_payload.min(MAX_PAYLOAD);
    if len > cap {
        return Err(lost(
            ERR_MALFORMED,
            format!("payload length {len} exceeds cap {cap}"),
        ));
    }
    Ok(Header {
        version,
        msg_type,
        len: len as usize,
    })
}

/// A violation of a frame that was read whole: framing survives.
fn violation(code: u16, detail: String) -> FrameIn {
    FrameIn::Violation {
        code,
        detail,
        close: false,
    }
}

/// Judge a frame whose payload and trailer are fully in hand. The version
/// check comes only now, after the frame has been drained, so the
/// connection stays framed and usable for the error reply; the checksum is
/// verified before any payload field is interpreted.
fn decode_body(h: &Header, payload: &[u8], crc: u32) -> FrameIn {
    if h.version != VERSION {
        return violation(
            ERR_UNSUPPORTED_VERSION,
            format!(
                "protocol version {} not supported: only v{VERSION} is spoken",
                h.version
            ),
        );
    }
    if crc != crc32(payload) {
        return violation(ERR_BAD_CHECKSUM, "payload checksum mismatch".to_string());
    }
    match decode_payload(h.msg_type, payload) {
        Ok(msg) => FrameIn::Ok { msg },
        Err(e) => violation(ERR_MALFORMED, e.to_string()),
    }
}

/// [`read_frame`] with an explicit payload cap: the length field is checked
/// against `min(max_payload, MAX_PAYLOAD)` **before** any payload
/// allocation, so a reader of small messages (the server reading requests)
/// never commits memory on a hostile header's say-so.
///
/// A v6 mesh response whose two counts fill its length exactly is read in
/// place ([`read_mesh_in_place`]): no payload buffer, each slab read
/// straight into the mesh's vectors. Every other frame, a mesh response
/// whose counts do not fit included, is read whole and judged by
/// [`decode_body`]; the verdict is the same either way.
pub fn read_frame_limited(r: &mut impl Read, max_payload: u64) -> io::Result<Option<FrameIn>> {
    let mut header = [0u8; HEADER_BYTES];
    // EOF before any header byte = peer closed between frames
    let mut got = 0;
    while got < HEADER_BYTES {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "torn header")),
            Ok(n) => got += n,
            // a signal is not a failure: retry, as `read_exact` does
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let h = match parse_header(&header, max_payload) {
        Ok(h) => h,
        Err(violation) => return Ok(Some(violation)),
    };
    let mut fields = [0u8; MESH_FIELDS_BYTES];
    let prefix: &[u8] =
        if h.version == VERSION && h.msg_type == MSG_MESH_RESPONSE && h.len >= MESH_FIELDS_BYTES {
            r.read_exact(&mut fields)?;
            if let Some((nvert, nidx)) = filling_counts(&fields, h.len) {
                return read_mesh_in_place(r, &fields, nvert, nidx).map(Some);
            }
            &fields
        } else {
            &[]
        };
    let mut payload = vec![0u8; h.len];
    payload[..prefix.len()].copy_from_slice(prefix);
    r.read_exact(&mut payload[prefix.len()..])?;
    let mut crc = [0u8; 4];
    r.read_exact(&mut crc)?;
    Ok(Some(decode_body(&h, &payload, u32::from_le_bytes(crc))))
}

/// The vertex and index counts in a mesh response's leading `fields`, if
/// its two slabs and suffix fill a `len`-byte payload exactly. Checked
/// arithmetic: no hostile count can wrap around into a match, and a match
/// sizes the slabs within `len`, which the header check has capped.
fn filling_counts(fields: &[u8; MESH_FIELDS_BYTES], len: usize) -> Option<(usize, usize)> {
    let count = |at: usize| u64::from_le_bytes(fields[at..at + 8].try_into().unwrap());
    // behind `cache_hit` (1 byte) and `active_metacells` (8)
    let (nvert, nidx) = (count(1 + 8), count(1 + 8 + 8));
    let total = nvert
        .checked_mul(12)?
        .checked_add(nidx.checked_mul(4)?)?
        .checked_add((MESH_FIELDS_BYTES + MESH_SUFFIX_BYTES) as u64)?;
    (total == len as u64).then_some((nvert as usize, nidx as usize))
}

/// A reader that folds every byte it hands out into a running CRC-32.
struct CrcReader<R> {
    inner: R,
    crc: Crc32,
}

impl<R: Read> Read for CrcReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.crc.update(&buf[..n]);
        Ok(n)
    }
}

/// The rest of a v6 mesh response whose counts fill its length, after its
/// leading `fields`: each slab is read straight into its vector
/// ([`read_slab`]), the CRC is folded over fields ‖ slabs ‖ suffix as they
/// arrive, and the frame is judged in [`decode_body`]'s order — checksum,
/// then triangle multiple, then index range — so the verdict, its code and
/// its detail are what the buffered path returns for the same bytes.
fn read_mesh_in_place(
    r: &mut impl Read,
    fields: &[u8; MESH_FIELDS_BYTES],
    nvert: usize,
    nidx: usize,
) -> io::Result<FrameIn> {
    let mut slabs = CrcReader {
        inner: &mut *r,
        crc: Crc32::new(),
    };
    slabs.crc.update(fields);
    let positions = read_slab(&mut slabs, nvert)?;
    let indices = read_slab(&mut slabs, nidx)?;
    let mut crc = slabs.crc;
    let mut tail = [0u8; MESH_TAIL_BYTES];
    r.read_exact(&mut tail)?;
    let (suffix, trailer) = tail.split_at(MESH_SUFFIX_BYTES);
    crc.update(suffix);
    if crc.finish() != u32::from_le_bytes(trailer.try_into().unwrap()) {
        return Ok(violation(
            ERR_BAD_CHECKSUM,
            "payload checksum mismatch".to_string(),
        ));
    }
    let checked = check_triangle_multiple(nidx).and_then(|()| check_indices(&indices, nvert));
    if let Err(e) = checked {
        return Ok(violation(ERR_MALFORMED, e.to_string()));
    }
    let mesh = IndexedMesh::from_parts(positions, indices);
    let msg = mesh_response(&mut Rd::new(&fields[..1 + 8]), mesh, &mut Rd::new(suffix))?;
    Ok(FrameIn::Ok { msg })
}

/// Read one whole frame off `r` undecoded — header, payload and checksum,
/// exactly as sent — for callers that compare reply bytes. The header gets
/// [`read_frame_limited`]'s checks before any payload byte is buffered: a
/// bad magic or an oversized length claim is `Ok(Err(violation))`, never an
/// allocation on the header's say-so. Version and checksum are left to
/// whoever decodes the bytes.
#[allow(clippy::result_large_err)] // as `parse_header`
pub fn read_raw_frame(r: &mut impl Read, max_payload: u64) -> io::Result<Result<Vec<u8>, FrameIn>> {
    let mut header = [0u8; HEADER_BYTES];
    r.read_exact(&mut header)?;
    let h = match parse_header(&header, max_payload) {
        Ok(h) => h,
        Err(violation) => return Ok(Err(violation)),
    };
    let mut frame = vec![0u8; HEADER_BYTES + h.len + 4];
    frame[..HEADER_BYTES].copy_from_slice(&header);
    r.read_exact(&mut frame[HEADER_BYTES..])?;
    Ok(Ok(frame))
}

/// One step of buffer-based incremental frame decoding — the nonblocking
/// reactor's counterpart to [`read_frame_limited`], sharing its exact
/// violation semantics (same codes, same close-the-connection decisions).
#[allow(clippy::large_enum_variant)] // same rationale as `FrameIn`
#[derive(Debug)]
pub enum FrameStep {
    /// The buffer does not yet hold a whole frame. `need` is the total
    /// buffered byte count required before decoding can complete — a lower
    /// bound the caller can use to size its next read (16 until the header
    /// is in, then the frame's exact length).
    NeedMore { need: usize },
    /// One complete frame occupied the first `consumed` buffer bytes.
    /// For violations with `close: true` (bad magic, oversized length
    /// claim) framing is lost and `consumed` covers the whole buffer:
    /// nothing behind the poisoned header may be interpreted.
    Frame { frame: FrameIn, consumed: usize },
}

/// Decode one frame from the front of `buf` without consuming input — the
/// caller drains `consumed` bytes after acting on the result. Semantics
/// mirror [`read_frame_limited`] exactly: same payload cap enforced before
/// the payload is even buffered, same violation codes. (EOF handling stays
/// with the caller: an empty buffer at peer close is a clean boundary, a
/// partial frame is a torn one.)
pub fn decode_frame_bytes(buf: &[u8], max_payload: u64) -> FrameStep {
    let Some(header) = buf.first_chunk::<HEADER_BYTES>() else {
        return FrameStep::NeedMore { need: HEADER_BYTES };
    };
    let h = match parse_header(header, max_payload) {
        Ok(h) => h,
        // framing is lost: nothing behind the poisoned header may be read
        Err(frame) => {
            return FrameStep::Frame {
                frame,
                consumed: buf.len(),
            }
        }
    };
    let total = HEADER_BYTES + h.len + 4;
    if buf.len() < total {
        return FrameStep::NeedMore { need: total };
    }
    let (payload, crc) = buf[HEADER_BYTES..total].split_at(h.len);
    FrameStep::Frame {
        frame: decode_body(&h, payload, u32::from_le_bytes(crc.try_into().unwrap())),
        consumed: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let frame = encode_frame(&msg);
        let mut cursor = &frame[..];
        match read_frame(&mut cursor).unwrap().unwrap() {
            FrameIn::Ok { msg: got } => assert_eq!(got, msg),
            FrameIn::Violation { detail, .. } => panic!("rejected own frame: {detail}"),
        }
        assert!(cursor.is_empty(), "frame not fully consumed");
    }

    fn sample_mesh() -> IndexedMesh {
        let mut m = IndexedMesh::new();
        let a = m.push_vertex(Vec3::new(0.25, -1.5, 3.0));
        let b = m.push_vertex(Vec3::new(1.0, 0.0, f32::MIN_POSITIVE));
        let c = m.push_vertex(Vec3::new(-0.0, 9.75, 2.5));
        m.push_triangle(a, b, c);
        m.push_triangle(c, b, a);
        m
    }

    fn sample_region() -> FrameRegion {
        FrameRegion {
            origin: (3, 7),
            size: (2, 2),
            color: vec![[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12], [0, 0, 0, 0]],
            depth: vec![0.5, f32::INFINITY, -1.25, 0.0],
        }
    }

    #[test]
    fn all_messages_roundtrip() {
        roundtrip(Message::MeshRequest {
            iso: 127.5,
            region: None,
            lod: 0,
            backend: None,
            trace_id: 0,
        });
        roundtrip(Message::MeshRequest {
            iso: -3.25,
            region: Some(Region {
                lo: [0.0, 1.0, 2.0],
                hi: [3.0, 4.0, 5.0],
            }),
            lod: 2,
            backend: Some(1),
            trace_id: 0xDEAD_BEEF_0042_1337,
        });
        roundtrip(Message::FrameRequest {
            iso: 190.0,
            params: FrameParams {
                width: 640,
                height: 480,
                azimuth: 0.9,
                elevation: 0.45,
                distance: 2.0,
                tile_cols: 2,
                tile_rows: 2,
            },
            trace_id: 77,
        });
        roundtrip(Message::StatsRequest);
        roundtrip(Message::Ping {
            payload: vec![0xAB; 1000],
        });
        roundtrip(Message::Pong { payload: vec![] });
        roundtrip(Message::MeshResponse {
            cache_hit: true,
            active_metacells: 42,
            served_lod: 0,
            degraded: false,
            backend: 0,
            trace_id: 0,
            mesh: sample_mesh(),
        });
        roundtrip(Message::MeshResponse {
            cache_hit: true,
            active_metacells: 42,
            served_lod: 2,
            degraded: true,
            backend: 1,
            trace_id: u64::MAX,
            mesh: sample_mesh(),
        });
        roundtrip(Message::FrameResponse {
            cache_hit: false,
            width: 8,
            height: 8,
            regions: vec![sample_region(), sample_region()],
            trace_id: 9,
        });
        roundtrip(Message::StatsResponse(ServerReport {
            connections: 1,
            requests: 2,
            mesh_requests: 3,
            frame_requests: 4,
            errors: 5,
            bytes_out: 6,
            cache_hits: 7,
            cache_misses: 8,
            cache_evictions: 9,
            cache_resident_bytes: 10,
            cache_resident_entries: 11,
            lod_hits: [4, 2, 1, 0],
            lod_misses: [1, 1, 1, 0],
            shed: 12,
            degraded: 13,
            timed_out: 14,
            drained: 15,
            accept_backoffs: 16,
            active_connections: 17,
        }));
        roundtrip(Message::Error {
            code: ERR_MALFORMED,
            detail: "¿qué?".to_string(),
            retry_after_ms: None,
        });
        roundtrip(Message::Error {
            code: ERR_BUSY,
            detail: "server busy".to_string(),
            retry_after_ms: Some(75),
        });
        roundtrip(Message::MetricsRequest);
        roundtrip(Message::MetricsResponse {
            text: "# TYPE requests_total counter\nrequests_total 3\n".to_string(),
        });
        roundtrip(Message::TraceRequest { id: 0 });
        roundtrip(Message::TraceRequest { id: u64::MAX });
        roundtrip(Message::TraceResponse {
            found: false,
            id: 0,
            total_us: 0,
            dropped: 0,
            events: vec![],
        });
        roundtrip(Message::TraceResponse {
            found: true,
            id: 42,
            total_us: 1500,
            dropped: 2,
            events: vec![
                TraceEvent {
                    id: 0,
                    parent: u32::MAX,
                    name: "request".to_string(),
                    start_us: 0,
                    dur_us: 1500,
                    fields: vec![("iso_millis".to_string(), 127_500)],
                },
                TraceEvent {
                    id: 1,
                    parent: 0,
                    name: "extract".to_string(),
                    start_us: 10,
                    dur_us: 1400,
                    fields: vec![("nodes".to_string(), 4), ("triangles".to_string(), 99)],
                },
            ],
        });
    }

    #[test]
    fn mesh_response_is_bit_exact() {
        let mesh = sample_mesh();
        let frame = encode_frame(&Message::MeshResponse {
            cache_hit: false,
            active_metacells: 0,
            served_lod: 0,
            degraded: false,
            backend: 0,
            trace_id: 0,
            mesh: mesh.clone(),
        });
        let Some(FrameIn::Ok {
            msg: Message::MeshResponse { mesh: got, .. },
            ..
        }) = read_frame(&mut &frame[..]).unwrap()
        else {
            panic!("decode failed");
        };
        // bit patterns, not approximate equality
        for (a, b) in mesh.positions().iter().zip(got.positions()) {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
            assert_eq!(a.z.to_bits(), b.z.to_bits());
        }
        assert_eq!(mesh.indices(), got.indices());
    }

    #[test]
    fn borrowed_mesh_encode_matches_owned_message_encode() {
        let mesh = sample_mesh();
        let borrowed = encode_mesh_response_frame(true, 42, 1, true, 1, 77, &mesh, VERSION);
        let owned = encode_frame(&Message::MeshResponse {
            cache_hit: true,
            active_metacells: 42,
            served_lod: 1,
            degraded: true,
            backend: 1,
            trace_id: 77,
            mesh: mesh.clone(),
        });
        assert_eq!(borrowed, owned);
    }

    /// A socket that takes at most `k` bytes per call, gathered across the
    /// slices of a vectored write.
    struct Trickle {
        k: usize,
        out: Vec<u8>,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut left = self.k;
            for buf in bufs {
                let n = buf.len().min(left);
                self.out.extend_from_slice(&buf[..n]);
                left -= n;
            }
            Ok(self.k - left)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A socket with std's default `write_vectored`: only the first
    /// non-empty slice is written, whole.
    struct FirstSlice(Vec<u8>);

    impl Write for FirstSlice {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Write all of `frame` through `w` from a moving cursor, as the event
    /// loop does; returns the number of write calls.
    fn write_out(frame: &Frame, w: &mut impl Write) -> usize {
        let (mut off, mut calls) = (0, 0);
        while off < frame.len() {
            let n = frame.write_from(w, off).unwrap();
            assert!(n > 0, "a write that takes bytes never returns 0");
            off += n;
            calls += 1;
        }
        assert_eq!(off, frame.len());
        calls
    }

    /// Levels 0 and 2 of the 64³ torus zoo field's (0.25, 0.06) pyramid.
    fn torus_levels() -> (IndexedMesh, IndexedMesh) {
        use oociso_core::{ClusterDatabase, PreprocessOptions};
        use oociso_march::LodChain;
        use oociso_volume::field::{FieldExt, TorusField};
        use oociso_volume::Dims3;
        let vol: oociso_volume::Volume<u8> = TorusField {
            major: 0.3,
            minor: 0.12,
            level: 128.0,
            slope: 300.0,
        }
        .sample(Dims3::cube(64));
        let mut dir = std::env::temp_dir();
        dir.push(format!("oociso_protocol_torus_{}", std::process::id()));
        let db = ClusterDatabase::preprocess(&vol, &dir, &PreprocessOptions::default()).unwrap();
        let full = db.extract(128.5).unwrap().mesh;
        std::fs::remove_dir_all(&dir).ok();
        let chain = LodChain::build(full, &[0.25, 0.06]);
        let levels = chain.levels();
        (levels[0].mesh.clone(), levels[2].mesh.clone())
    }

    // the borrowed frame, written in any split a socket may take, is the
    // owned encoder's bytes: per-call limits that end inside the head, the
    // body slabs and the tail, and std's first-slice-only vectored write
    #[test]
    fn borrowed_frame_survives_every_partial_write() {
        let (l0, l2) = torus_levels();
        assert!(!l2.is_empty() && l2.len() < l0.len());
        let one = {
            let mut m = IndexedMesh::new();
            let a = m.push_vertex(Vec3::new(0.5, -0.0, f32::MIN_POSITIVE));
            let b = m.push_vertex(Vec3::new(1.0, f32::NAN, 2.0));
            let c = m.push_vertex(Vec3::new(f32::INFINITY, 3.0, -7.25));
            m.push_triangle(a, b, c);
            m
        };
        let meshes = [
            ("empty", IndexedMesh::new(), 0u16),
            ("one triangle", one, 0),
            ("torus lod 0", l0, 0),
            ("torus lod 2", l2, 2),
        ];
        for (name, mesh, lod) in meshes {
            let owned =
                encode_mesh_response_frame(true, 9, lod, false, 0, 0xC0FFEE, &mesh, VERSION);
            let level = Arc::new(CachedSurface {
                mesh,
                active_metacells: 9,
                world_error: 0.0,
            });
            let fields = MeshFields {
                cache_hit: true,
                active_metacells: 9,
                served_lod: lod,
                degraded: false,
                backend: 0,
                trace_id: 0xC0FFEE,
            };
            let frame = Frame::level(fields, level);
            assert_eq!(frame.len(), owned.len(), "{name}");
            for k in [1, 3, 13, 4096] {
                let mut w = Trickle { k, out: Vec::new() };
                let calls = write_out(&frame, &mut w);
                assert_eq!(calls, owned.len().div_ceil(k), "{name}, k = {k}");
                assert!(w.out == owned, "{name}, k = {k}: bytes differ");
            }
            let mut w = FirstSlice(Vec::new());
            write_out(&frame, &mut w);
            assert!(w.0 == owned, "{name}, first slice only: bytes differ");
        }
    }

    // the contract of `wire_bytes`, the one `unsafe` site here: the view of
    // a slab is byte for byte what the safe slab encoder writes, for every
    // kind of `f32` bit pattern and for empty slabs
    #[cfg(target_endian = "little")]
    #[test]
    fn wire_bytes_view_equals_the_slab_encoder() {
        let specials = [
            0.0,
            -0.0,
            1.5,
            -3.25e7,
            f32::MIN_POSITIVE,
            f32::MIN_POSITIVE / 4.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(0xFFC0_0001),
            f32::MAX,
        ];
        let mut positions: Vec<Vec3> = specials
            .iter()
            .map(|&x| Vec3::new(x, -x, x * 0.5))
            .collect();
        positions.extend((0..1000u32).map(|i| {
            let f = |s: u32| f32::from_bits(i.wrapping_mul(0x9E37_79B9).rotate_left(s));
            Vec3::new(f(0), f(11), f(22))
        }));
        let indices: Vec<u32> = (0..3001u32)
            .map(|i| i.wrapping_mul(0x85EB_CA6B) ^ (i << 7))
            .collect();
        for n in [0, 1, 2, 7, positions.len()] {
            let mut slab = Vec::new();
            put_vec3s(&mut slab, &positions[..n]);
            assert_eq!(wire_bytes(&positions[..n]), &slab[..], "{n} positions");
        }
        for n in [0, 1, 3, indices.len()] {
            let mut slab = Vec::new();
            put_u32s(&mut slab, &indices[..n]);
            assert_eq!(wire_bytes(&indices[..n]), &slab[..], "{n} indices");
        }
        // a view of a slab that starts mid-array
        let mut slab = Vec::new();
        put_vec3s(&mut slab, &positions[5..]);
        assert_eq!(wire_bytes(&positions[5..]), &slab[..]);
    }

    // the slab reader inverts the slab encoder bit for bit, from a slice
    // as from a stream that hands out a few bytes per call
    #[test]
    fn slab_reader_inverts_the_slab_encoder() {
        let positions: Vec<Vec3> = (0..1000u32)
            .map(|i| {
                let f = |s: u32| f32::from_bits(i.wrapping_mul(0x9E37_79B9).rotate_left(s));
                Vec3::new(f(0), f(11), f(22))
            })
            .collect();
        let indices: Vec<u32> = (0..3001u32).map(|i| i.wrapping_mul(0x85EB_CA6B)).collect();
        let bits = |ps: &[Vec3]| -> Vec<[u32; 3]> {
            ps.iter()
                .map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
                .collect()
        };
        for n in [0, 1, 7, positions.len()] {
            let mut slab = Vec::new();
            put_vec3s(&mut slab, &positions[..n]);
            let got: Vec<Vec3> = read_slab(&mut &slab[..], n).unwrap();
            assert_eq!(bits(&got), bits(&positions[..n]), "{n} positions");
            let got: Vec<Vec3> = read_slab(&mut Stutter::new(&slab, 5, &[]), n).unwrap();
            assert_eq!(
                bits(&got),
                bits(&positions[..n]),
                "{n} positions, 5 B a read"
            );
        }
        for n in [0, 1, 3, indices.len()] {
            let mut slab = Vec::new();
            put_u32s(&mut slab, &indices[..n]);
            let got: Vec<u32> = read_slab(&mut &slab[..], n).unwrap();
            assert_eq!(got, &indices[..n], "{n} indices");
        }
        // a slab cut short is a torn stream
        let mut slab = Vec::new();
        put_u32s(&mut slab, &indices[..4]);
        let err = read_slab::<u32>(&mut &slab[..15], 4).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// A stream that hands out at most `k` bytes per read and fails with
    /// `Interrupted` once at each offset in `signals`: a read stops short
    /// of the next signal, and the read after it is interrupted.
    struct Stutter<'a> {
        bytes: &'a [u8],
        at: usize,
        k: usize,
        signals: Vec<usize>,
    }

    impl<'a> Stutter<'a> {
        fn new(bytes: &'a [u8], k: usize, signals: &[usize]) -> Self {
            Stutter {
                bytes,
                at: 0,
                k,
                signals: signals.to_vec(),
            }
        }
    }

    impl Read for Stutter<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if let Some(i) = self.signals.iter().position(|&s| s == self.at) {
                self.signals.remove(i);
                return Err(io::ErrorKind::Interrupted.into());
            }
            let next = self.signals.iter().filter(|&&s| s > self.at).min();
            let n = buf
                .len()
                .min(self.k)
                .min(self.bytes.len() - self.at)
                .min(next.map_or(usize::MAX, |s| s - self.at));
            buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    // a signal during a read is retried, never a failed request: before the
    // first header byte, inside the header, and inside a mesh reply's slabs
    #[test]
    fn interrupted_reads_are_retried() {
        let ping = Message::Ping {
            payload: b"echo".to_vec(),
        };
        let mesh = Message::MeshResponse {
            cache_hit: true,
            active_metacells: 3,
            served_lod: 0,
            degraded: false,
            backend: 0,
            trace_id: 11,
            mesh: sample_mesh(),
        };
        for msg in [ping, mesh] {
            let frame = encode_frame(&msg);
            for k in [1, 7, frame.len()] {
                let signals: Vec<usize> = [0, 5, HEADER_BYTES + 30, frame.len() - 2]
                    .into_iter()
                    .filter(|&s| s < frame.len())
                    .collect();
                let mut r = Stutter::new(&frame, k, &signals);
                match read_frame(&mut r).unwrap().unwrap() {
                    FrameIn::Ok { msg: got } => assert_eq!(got, msg, "{k} B a read"),
                    FrameIn::Violation { detail, .. } => panic!("{k} B a read: {detail}"),
                }
                assert_eq!(r.at, frame.len(), "{k} B a read: frame drained");
                assert!(r.signals.is_empty(), "{k} B a read: every signal seen");
            }
        }
        // a signal, then the peer's close, is still a clean end of stream
        let mut r = Stutter::new(&[], 1, &[0]);
        assert!(read_frame(&mut r).unwrap().is_none());
        assert!(r.signals.is_empty());
        // any other error still fails the read
        struct Broken;
        impl Read for Broken {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::ErrorKind::ConnectionReset.into())
            }
        }
        let err = read_frame(&mut Broken).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
    }

    #[test]
    fn trace_tree_renders_from_wire_events() {
        let events = vec![
            TraceEvent {
                id: 0,
                parent: u32::MAX,
                name: "request".to_string(),
                start_us: 0,
                dur_us: 2000,
                fields: vec![],
            },
            TraceEvent {
                id: 1,
                parent: 0,
                name: "cache".to_string(),
                start_us: 5,
                dur_us: 10,
                fields: vec![("hit".to_string(), 0)],
            },
            TraceEvent {
                id: 2,
                parent: 0,
                name: "extract".to_string(),
                start_us: 20,
                dur_us: 1900,
                fields: vec![],
            },
        ];
        let tree = render_trace_events(&events);
        let lines: Vec<&str> = tree.lines().collect();
        assert_eq!(lines[0], "request 2.000ms");
        assert_eq!(lines[1], "  cache 0.010ms hit=0");
        assert_eq!(lines[2], "  extract 1.900ms");
    }

    #[test]
    fn limited_reader_rejects_hostile_length_before_allocating() {
        // header claims 1 GiB (within MAX_PAYLOAD) but the reader's cap is
        // 1 KiB: must reject from the header alone — the stream holds no
        // payload at all, so any attempt to read/allocate it would error
        let mut frame = encode_frame_raw(MAGIC, VERSION, MSG_PING, b"");
        frame[8..16].copy_from_slice(&(1u64 << 30).to_le_bytes());
        let header_only = &frame[..HEADER_BYTES];
        match read_frame_limited(&mut &header_only[..], 1024)
            .unwrap()
            .unwrap()
        {
            FrameIn::Violation { code, close, .. } => {
                assert_eq!(code, ERR_MALFORMED);
                assert!(close, "framing is abandoned, not drained");
            }
            FrameIn::Ok { .. } => panic!("hostile length accepted"),
        }
        // under the cap, the same reader still works
        let ok = encode_frame(&Message::Ping {
            payload: vec![1; 16],
        });
        assert!(matches!(
            read_frame_limited(&mut &ok[..], 1024).unwrap().unwrap(),
            FrameIn::Ok {
                msg: Message::Ping { .. },
                ..
            }
        ));
    }

    #[test]
    fn every_other_version_is_refused_and_the_frame_drained() {
        let payload = encode_payload(&Message::StatsRequest);
        for version in [0, 1, 5, VERSION + 1, u16::MAX] {
            let frame = encode_frame_raw(MAGIC, version, MSG_STATS_REQUEST, &payload);
            let mut cursor = &frame[..];
            match read_frame(&mut cursor).unwrap().unwrap() {
                FrameIn::Violation {
                    code,
                    detail,
                    close,
                } => {
                    assert_eq!(code, ERR_UNSUPPORTED_VERSION, "v{version}");
                    assert!(detail.contains("v6"), "v{version}: {detail}");
                    assert!(!close, "v{version}: framing survives");
                }
                FrameIn::Ok { .. } => panic!("v{version} accepted"),
            }
            assert!(cursor.is_empty(), "v{version}: frame not drained");
        }
    }

    #[test]
    fn corrupted_checksum_is_flagged() {
        let mut frame = encode_frame(&Message::MeshRequest {
            iso: 1.0,
            region: None,
            lod: 0,
            backend: None,
            trace_id: 0,
        });
        let n = frame.len();
        frame[n - 1] ^= 0x40; // flip a checksum bit
        match read_frame(&mut &frame[..]).unwrap().unwrap() {
            FrameIn::Violation { code, close, .. } => {
                assert_eq!(code, ERR_BAD_CHECKSUM);
                assert!(!close, "checksum failure keeps the connection framed");
            }
            FrameIn::Ok { .. } => panic!("corrupt frame accepted"),
        }
        // corrupt a payload byte instead: same verdict
        let mut frame2 = encode_frame(&Message::Ping {
            payload: vec![7; 32],
        });
        frame2[HEADER_BYTES + 3] ^= 0x01;
        assert!(matches!(
            read_frame(&mut &frame2[..]).unwrap().unwrap(),
            FrameIn::Violation {
                code: ERR_BAD_CHECKSUM,
                ..
            }
        ));
    }

    #[test]
    fn wrong_magic_and_future_version_are_flagged() {
        let payload = encode_payload(&Message::StatsRequest);
        let bad_magic = encode_frame_raw(0xDEAD_BEEF, VERSION, MSG_STATS_REQUEST, &payload);
        match read_frame(&mut &bad_magic[..]).unwrap().unwrap() {
            FrameIn::Violation { code, close, .. } => {
                assert_eq!(code, ERR_BAD_MAGIC);
                assert!(close, "framing is lost after a magic mismatch");
            }
            FrameIn::Ok { .. } => panic!("bad magic accepted"),
        }
        let future = encode_frame_raw(MAGIC, VERSION + 41, MSG_STATS_REQUEST, &payload);
        match read_frame(&mut &future[..]).unwrap().unwrap() {
            FrameIn::Violation { code, close, .. } => {
                assert_eq!(code, ERR_UNSUPPORTED_VERSION);
                assert!(!close, "version rejection is a framed, recoverable reply");
            }
            FrameIn::Ok { .. } => panic!("future version accepted"),
        }
    }

    #[test]
    fn truncation_and_garbage_are_errors_not_panics() {
        // empty stream = clean EOF
        assert!(read_frame(&mut &[][..]).unwrap().is_none());
        // half a header
        let frame = encode_frame(&Message::StatsRequest);
        assert!(read_frame(&mut &frame[..7]).is_err());
        // header promises more payload than the stream holds
        assert!(read_frame(&mut &frame[..HEADER_BYTES]).is_err());
        // unknown message types — including 10, the retired `Region`, and
        // 15/16, the retired progressive delivery — decode to a violation
        // that keeps the connection, not a panic
        for tag in [999, 10, 15, 16] {
            let junk = encode_frame_raw(MAGIC, VERSION, tag, b"junk");
            assert!(
                matches!(
                    read_frame(&mut &junk[..]).unwrap().unwrap(),
                    FrameIn::Violation {
                        code: ERR_MALFORMED,
                        close: false,
                        ..
                    }
                ),
                "tag {tag}"
            );
        }
        // absurd length field is capped, not allocated
        let mut huge = encode_frame_raw(MAGIC, VERSION, MSG_PING, b"");
        huge[8..16].copy_from_slice(&(u64::MAX).to_le_bytes());
        assert!(matches!(
            read_frame(&mut &huge[..]).unwrap().unwrap(),
            FrameIn::Violation {
                code: ERR_MALFORMED,
                close: true,
                ..
            }
        ));
        // element counts that can't fit the received bytes are rejected
        // before any proportional reservation happens
        let mut hostile = vec![0u8]; // cache_hit
        hostile.extend_from_slice(&0u64.to_le_bytes()); // active_metacells
        hostile.extend_from_slice(&0u64.to_le_bytes()); // nvert = 0
        hostile.extend_from_slice(&(1u64 << 31).to_le_bytes()); // nidx: 2^31
        assert!(decode_payload(MSG_MESH_RESPONSE, &hostile).is_err());
        // ...and a count whose byte requirement overflows u64
        let mut overflow = vec![0u8];
        overflow.extend_from_slice(&0u64.to_le_bytes());
        overflow.extend_from_slice(&u64::MAX.to_le_bytes()); // nvert: 2^64-1
        overflow.extend_from_slice(&0u64.to_le_bytes());
        assert!(decode_payload(MSG_MESH_RESPONSE, &overflow).is_err());
        // mesh payload with out-of-range indices is rejected
        let mut mesh = IndexedMesh::new();
        let v = mesh.push_vertex(Vec3::ZERO);
        mesh.push_triangle(v, v, v);
        let mut payload = encode_payload(&Message::MeshResponse {
            cache_hit: false,
            active_metacells: 0,
            served_lod: 0,
            degraded: false,
            backend: 0,
            trace_id: 0,
            mesh,
        });
        // the last index sits just before the 12-byte trailer (served_lod
        // u16 + degraded u8 + backend u8 + trace id u64)
        let off = payload.len() - 12 - 4;
        payload[off..off + 4].copy_from_slice(&99u32.to_le_bytes());
        assert!(decode_payload(MSG_MESH_RESPONSE, &payload).is_err());
    }

    // the incremental decoder must agree with the blocking reader on every
    // prefix: NeedMore until the frame completes, then the same FrameIn
    #[test]
    fn incremental_decode_agrees_with_blocking_reader() {
        let msgs = [
            Message::Ping {
                payload: b"abc".to_vec(),
            },
            Message::StatsRequest,
            Message::MeshRequest {
                iso: 0.5,
                region: None,
                lod: 1,
                backend: Some(1),
                trace_id: 77,
            },
        ];
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&encode_frame(m));
        }
        // feed the concatenated stream byte by byte
        let mut decoded = Vec::new();
        let mut buf: Vec<u8> = Vec::new();
        for &b in &stream {
            buf.push(b);
            match decode_frame_bytes(&buf, MAX_REQUEST_PAYLOAD) {
                FrameStep::NeedMore { need } => assert!(need > buf.len()),
                FrameStep::Frame { frame, consumed } => {
                    assert_eq!(consumed, buf.len(), "frames decode exactly at their end");
                    decoded.push(frame);
                    buf.clear();
                }
            }
        }
        assert!(buf.is_empty());
        assert_eq!(decoded.len(), msgs.len());
        for (frame, want) in decoded.iter().zip(&msgs) {
            match frame {
                FrameIn::Ok { msg } => assert_eq!(msg, want),
                FrameIn::Violation { detail, .. } => panic!("rejected own frame: {detail}"),
            }
        }
        // two whole frames buffered at once decode one at a time
        let FrameStep::Frame { consumed, .. } = decode_frame_bytes(&stream, MAX_REQUEST_PAYLOAD)
        else {
            panic!("complete frame not decoded");
        };
        assert_eq!(consumed, encode_frame(&msgs[0]).len());
    }

    #[test]
    fn incremental_decode_violations_match_blocking_reader() {
        // bad magic: close, whole buffer poisoned
        let bad = encode_frame_raw(0xDEAD_BEEF, VERSION, MSG_PING, b"x");
        match decode_frame_bytes(&bad, MAX_REQUEST_PAYLOAD) {
            FrameStep::Frame {
                frame:
                    FrameIn::Violation {
                        code: ERR_BAD_MAGIC,
                        close: true,
                        ..
                    },
                consumed,
            } => assert_eq!(consumed, bad.len()),
            other => panic!("bad magic not flagged: {other:?}"),
        }
        // hostile length claim: rejected from the header alone, close
        let mut huge = encode_frame_raw(MAGIC, VERSION, MSG_PING, b"");
        huge[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame_bytes(&huge[..HEADER_BYTES], MAX_REQUEST_PAYLOAD),
            FrameStep::Frame {
                frame: FrameIn::Violation {
                    code: ERR_MALFORMED,
                    close: true,
                    ..
                },
                ..
            }
        ));
        // the blocking reader and the raw-bytes reader refuse both poisoned
        // headers alike, from the header alone: a claim of 2^40 bytes
        // (within u64, above MAX_PAYLOAD) is refused before any allocation
        let mut tera = encode_frame_raw(MAGIC, VERSION, MSG_PING, b"");
        tera[8..16].copy_from_slice(&(1u64 << 40).to_le_bytes());
        for (what, frame, want) in [
            ("bad magic", &bad[..], ERR_BAD_MAGIC),
            ("u64::MAX length", &huge[..HEADER_BYTES], ERR_MALFORMED),
            ("2^40 length", &tera[..HEADER_BYTES], ERR_MALFORMED),
        ] {
            match read_frame_limited(&mut &frame[..], MAX_PAYLOAD) {
                Ok(Some(FrameIn::Violation {
                    code, close: true, ..
                })) => assert_eq!(code, want, "{what}: blocking reader"),
                other => panic!("{what}: blocking reader gave {other:?}"),
            }
            match read_raw_frame(&mut &frame[..], MAX_PAYLOAD) {
                Ok(Err(FrameIn::Violation {
                    code, close: true, ..
                })) => assert_eq!(code, want, "{what}: raw reader"),
                other => panic!("{what}: raw reader gave {other:?}"),
            }
        }
        // future version: full frame consumed, connection survives
        let fut = encode_frame_raw(MAGIC, VERSION + 10, MSG_PING, b"");
        match decode_frame_bytes(&fut, MAX_REQUEST_PAYLOAD) {
            FrameStep::Frame {
                frame:
                    FrameIn::Violation {
                        code: ERR_UNSUPPORTED_VERSION,
                        close: false,
                        ..
                    },
                consumed,
            } => assert_eq!(consumed, fut.len()),
            other => panic!("future version not flagged: {other:?}"),
        }
        // corrupt checksum: full frame consumed, connection survives
        let mut corrupt = encode_frame(&Message::Ping {
            payload: b"payload".to_vec(),
        });
        let n = corrupt.len();
        corrupt[n - 1] ^= 0xFF;
        assert!(matches!(
            decode_frame_bytes(&corrupt, MAX_REQUEST_PAYLOAD),
            FrameStep::Frame {
                frame: FrameIn::Violation {
                    code: ERR_BAD_CHECKSUM,
                    close: false,
                    ..
                },
                ..
            }
        ));
    }
}

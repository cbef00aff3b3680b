//! The mesh codec's contract, stated as properties: `decode ∘ encode = id`
//! bit for bit, hostile bytes end in a structured error (never a panic,
//! never an allocation larger than the bytes received), and the frame bytes
//! of a known mesh and of one request of each kind are pinned — "the same
//! bytes on the wire" is asserted against frames built by an independent
//! implementation, not assumed.

use oociso_march::{IndexedMesh, Vec3};
use oociso_serve::protocol::{
    decode_frame_bytes, decode_payload, encode_frame, encode_frame_raw, encode_mesh_response_frame,
    read_frame, FrameIn, FrameStep, Message, ERR_BAD_CHECKSUM, ERR_MALFORMED,
    ERR_UNSUPPORTED_VERSION, HEADER_BYTES, MAGIC, MAX_PAYLOAD, MSG_MESH_RESPONSE, VERSION,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// ---- a per-thread "largest single allocation" gauge -----------------------

struct Watching;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a write to a const-initialised
// thread-local `Cell<usize>` (no allocation, no destructor, cannot unwind).
unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the slot is gone while a thread tears down
        let _ = LARGEST.try_with(|m| m.set(m.get().max(layout.size())));
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    // forwarded, not left to the default (`alloc`, then zero every byte):
    // `System`'s zeroed memory is committed as it is touched, as in a
    // program without this gauge
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|m| m.set(m.get().max(layout.size())));
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Watching = Watching;

/// Run `f`, returning its result and the largest single allocation (fresh
/// or regrown) this thread requested meanwhile.
fn largest_alloc_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|m| m.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// What a decoder may allocate in one piece for `received` input bytes: a
/// slab no larger than the input, or a short diagnostic string.
fn alloc_bound(received: usize) -> usize {
    received.max(256)
}

// ---- seeded inputs --------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
    /// Any `f32` bit pattern, with the awkward ones over-represented.
    fn float(&mut self) -> f32 {
        match self.below(8) {
            0 => f32::from_bits(0x7FC0_0001 | (self.next() as u32 & 0x003F_FFFF)), // NaN + payload
            1 => -0.0,
            2 => f32::from_bits(self.next() as u32 & 0x007F_FFFF), // subnormal
            3 => [f32::INFINITY, f32::NEG_INFINITY, f32::MIN_POSITIVE][self.below(3)],
            _ => f32::from_bits(self.next() as u32),
        }
    }
    fn vec3(&mut self) -> Vec3 {
        Vec3::new(self.float(), self.float(), self.float())
    }
}

/// Round `i` meshes are the edge shapes; later rounds are random.
fn mesh_for_round(rng: &mut Rng, round: usize) -> IndexedMesh {
    let (nvert, ntri) = match round {
        0 => (0, 0), // the empty mesh
        1 => (5, 0), // vertices nobody references
        2 => (1, 3), // every corner the same vertex
        _ => (1 + rng.below(40), rng.below(60)),
    };
    let mut mesh = IndexedMesh::new();
    for _ in 0..nvert {
        mesh.push_vertex(rng.vec3());
    }
    for _ in 0..ntri {
        let mut corner = || rng.below(nvert) as u32;
        let (a, b, c) = (corner(), corner(), corner());
        mesh.push_triangle(a, b, c);
    }
    mesh
}

fn bits(ps: &[Vec3]) -> Vec<[u32; 3]> {
    ps.iter()
        .map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
        .collect()
}

fn assert_same_mesh(got: &IndexedMesh, want: &IndexedMesh, ctx: &str) {
    assert_eq!(
        bits(got.positions()),
        bits(want.positions()),
        "{ctx}: positions"
    );
    assert_eq!(got.indices(), want.indices(), "{ctx}: indices");
}

/// Decode `frame` through both readers; they must agree, and each gets the
/// whole frame consumed.
fn decode_both(frame: &[u8], ctx: &str) -> Message {
    let blocking = match read_frame(&mut &frame[..]).unwrap().unwrap() {
        FrameIn::Ok { msg } => msg,
        other => panic!("{ctx}: blocking reader: {other:?}"),
    };
    match decode_frame_bytes(frame, MAX_PAYLOAD) {
        FrameStep::Frame {
            frame: FrameIn::Ok { msg },
            consumed,
        } => {
            assert_eq!(consumed, frame.len(), "{ctx}");
            // a NaN never equals itself, so the two decodes compare as text
            assert_eq!(format!("{msg:?}"), format!("{blocking:?}"), "{ctx}");
        }
        other => panic!("{ctx}: incremental reader: {other:?}"),
    }
    blocking
}

// ---- decode ∘ encode = id -------------------------------------------------

#[test]
fn mesh_response_roundtrips_bit_exactly() {
    let mut rng = Rng(0x5EED_0001);
    for round in 0..200 {
        let mesh = mesh_for_round(&mut rng, round);
        let (hit, active) = (rng.below(2) == 1, rng.next());
        let (lod, degraded, backend, trace) = (
            rng.below(4) as u16,
            rng.below(2) == 1,
            rng.below(2) as u8,
            rng.next(),
        );
        let ctx = format!("round {round}");
        let frame =
            encode_mesh_response_frame(hit, active, lod, degraded, backend, trace, &mesh, VERSION);
        // a NaN never equals itself, so the owned path is compared by bytes
        let owned = encode_frame(&Message::MeshResponse {
            cache_hit: hit,
            active_metacells: active,
            served_lod: lod,
            degraded,
            backend,
            trace_id: trace,
            mesh: mesh.clone(),
        });
        assert_eq!(frame, owned, "{ctx}: borrowed and owned encoders");
        let Message::MeshResponse {
            cache_hit,
            active_metacells,
            served_lod,
            degraded: got_degraded,
            backend: got_backend,
            trace_id,
            mesh: got,
        } = decode_both(&frame, &ctx)
        else {
            panic!("{ctx}: not a mesh response");
        };
        assert_same_mesh(&got, &mesh, &ctx);
        assert_eq!(
            (cache_hit, active_metacells, served_lod, got_degraded),
            (hit, active, lod, degraded),
            "{ctx}"
        );
        assert_eq!((got_backend, trace_id), (backend, trace), "{ctx}");
    }
}

// ---- hostile bytes --------------------------------------------------------

/// A mesh-response payload whose counts claim `nvert`/`nidx` but which
/// carries only `tail` bytes behind them.
fn claimed_mesh_payload(nvert: u64, nidx: u64, tail: usize) -> Vec<u8> {
    let mut p = vec![1u8];
    p.extend_from_slice(&7u64.to_le_bytes());
    p.extend_from_slice(&nvert.to_le_bytes());
    p.extend_from_slice(&nidx.to_le_bytes());
    p.resize(p.len() + tail, 0);
    p
}

#[test]
fn huge_claimed_counts_in_a_short_payload_are_malformed_without_allocating() {
    let huge = [
        u32::MAX as u64 - 1,
        u32::MAX as u64,
        u64::MAX / 12,
        u64::MAX,
    ];
    for &n in &huge {
        for (nvert, nidx) in [(n, 0), (0, n), (n, n), (3, n), (n, 3)] {
            let payload = claimed_mesh_payload(nvert, nidx, 36);
            let ctx = format!("nvert {nvert} nidx {nidx}");
            let frame = encode_frame_raw(MAGIC, VERSION, MSG_MESH_RESPONSE, &payload);
            let (step, largest) = largest_alloc_during(|| decode_frame_bytes(&frame, MAX_PAYLOAD));
            match step {
                FrameStep::Frame {
                    frame: FrameIn::Violation { code, close, .. },
                    consumed,
                } => {
                    assert_eq!(code, ERR_MALFORMED, "{ctx}");
                    assert!(!close, "{ctx}: the frame was whole, framing survives");
                    assert_eq!(consumed, frame.len(), "{ctx}");
                }
                other => panic!("{ctx}: {other:?}"),
            }
            assert!(
                largest <= alloc_bound(frame.len()),
                "{ctx}: allocated {largest} B"
            );
        }
    }
}

fn small_frames() -> Vec<(&'static str, Vec<u8>)> {
    let mut rng = Rng(0x5EED_0003);
    let mut mesh = mesh_for_round(&mut rng, 7);
    let v = mesh.push_vertex(rng.vec3());
    mesh.push_triangle(0, v, 0);
    let resp = encode_mesh_response_frame(true, 7, 1, false, 0, 42, &mesh, VERSION);
    vec![("response", resp)]
}

/// Flip every bit of every byte (and the whole byte) of a sealed frame. The
/// checksum covers the payload, so damage there or in the trailer is always
/// `ERR_BAD_CHECKSUM`; header fields are outside it and fail — or pass —
/// on their own terms, but never panic and never over-allocate.
#[test]
fn every_single_byte_corruption_of_a_frame_is_contained() {
    for (name, frame) in small_frames() {
        for at in 0..frame.len() {
            for mask in [1u8, 2, 4, 8, 16, 32, 64, 128, 0xFF] {
                let ctx = format!("{name}: byte {at} ^ {mask:#x}");
                let mut bad = frame.clone();
                bad[at] ^= mask;
                let (step, largest) =
                    largest_alloc_during(|| decode_frame_bytes(&bad, MAX_PAYLOAD));
                assert!(
                    largest <= alloc_bound(bad.len()),
                    "{ctx}: allocated {largest} B"
                );
                let blocking = read_frame(&mut &bad[..]);
                if at >= HEADER_BYTES {
                    let FrameStep::Frame {
                        frame: FrameIn::Violation { code, close, .. },
                        consumed,
                    } = step
                    else {
                        panic!("{ctx}: {step:?}");
                    };
                    assert_eq!(
                        (code, close, consumed),
                        (ERR_BAD_CHECKSUM, false, bad.len()),
                        "{ctx}"
                    );
                    assert!(
                        matches!(
                            blocking,
                            Ok(Some(FrameIn::Violation {
                                code: ERR_BAD_CHECKSUM,
                                ..
                            }))
                        ),
                        "{ctx}: blocking reader"
                    );
                    continue;
                }
                // header damage: a longer length claim is a torn stream for
                // the blocking reader and NeedMore for the incremental one;
                // anything else is a verdict both readers share
                match step {
                    FrameStep::NeedMore { need } => {
                        assert!(need > bad.len(), "{ctx}");
                        assert!(
                            blocking.is_err(),
                            "{ctx}: blocking reader saw a whole frame"
                        );
                    }
                    FrameStep::Frame { frame: inc, .. } => {
                        let blk = blocking.expect("whole frame").expect("not EOF");
                        match (inc, blk) {
                            (
                                FrameIn::Violation {
                                    code: a, close: ca, ..
                                },
                                FrameIn::Violation {
                                    code: b, close: cb, ..
                                },
                            ) => assert_eq!((a, ca), (b, cb), "{ctx}"),
                            (FrameIn::Ok { .. }, FrameIn::Ok { .. }) => {}
                            (a, b) => panic!("{ctx}: readers disagree: {a:?} vs {b:?}"),
                        }
                    }
                }
            }
        }
    }
}

/// The same damage behind a *valid* checksum (what a buggy or hostile peer
/// sends): the payload decoder alone must hold the line.
#[test]
fn corrupted_payloads_behind_a_valid_checksum_never_panic_or_over_allocate() {
    for (name, frame) in small_frames() {
        let msg_type = u16::from_le_bytes([frame[6], frame[7]]);
        let payload = &frame[HEADER_BYTES..frame.len() - 4];
        let mut rejected = 0;
        for at in 0..payload.len() {
            for mask in [1u8, 2, 4, 8, 16, 32, 64, 128, 0xFF] {
                let mut bad = payload.to_vec();
                bad[at] ^= mask;
                let (res, largest) = largest_alloc_during(|| decode_payload(msg_type, &bad));
                assert!(
                    largest <= alloc_bound(bad.len()),
                    "{name}: byte {at} ^ {mask:#x}: allocated {largest} B"
                );
                if let Err(e) = res {
                    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                    rejected += 1;
                }
            }
        }
        // counts, flags and indices are all load-bearing; float bits are not
        assert!(
            rejected > payload.len(),
            "{name}: only {rejected} rejections"
        );
    }
}

#[test]
fn every_truncation_point_is_a_torn_stream_or_need_more_never_a_message() {
    for (name, frame) in small_frames() {
        for cut in 0..frame.len() {
            let ctx = format!("{name}: cut at {cut}");
            let (step, largest) =
                largest_alloc_during(|| decode_frame_bytes(&frame[..cut], MAX_PAYLOAD));
            assert!(largest <= alloc_bound(cut), "{ctx}: allocated {largest} B");
            match step {
                FrameStep::NeedMore { need } => assert!(need > cut && need <= frame.len(), "{ctx}"),
                other => panic!("{ctx}: {other:?}"),
            }
            match read_frame(&mut &frame[..cut]) {
                Ok(None) => assert_eq!(cut, 0, "{ctx}: clean EOF only at a frame boundary"),
                Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{ctx}"),
                Ok(Some(f)) => panic!("{ctx}: decoded {f:?}"),
            }
            // the payload alone, cut anywhere, is malformed — not a panic:
            // every field of a mesh payload is required
            if (HEADER_BYTES..frame.len() - 4).contains(&cut) {
                let msg_type = u16::from_le_bytes([frame[6], frame[7]]);
                let (res, largest) =
                    largest_alloc_during(|| decode_payload(msg_type, &frame[HEADER_BYTES..cut]));
                assert!(res.is_err(), "{ctx}: {res:?}");
                assert!(largest <= alloc_bound(cut), "{ctx}: allocated {largest} B");
            }
        }
    }
}

// ---- the in-place mesh reader ---------------------------------------------

/// A mesh-response payload whose counts claim `nvert`/`nidx`, carrying the
/// given slabs whatever their length (reply fields `cache_hit = true,
/// active_metacells = 7, served_lod = 1, degraded = false, backend = 0,
/// trace_id = 42`).
fn mesh_payload(nvert: u64, nidx: u64, positions: &[Vec3], indices: &[u32]) -> Vec<u8> {
    let mut p = vec![1u8];
    p.extend_from_slice(&7u64.to_le_bytes());
    p.extend_from_slice(&nvert.to_le_bytes());
    p.extend_from_slice(&nidx.to_le_bytes());
    for v in positions {
        for c in [v.x, v.y, v.z] {
            p.extend_from_slice(&c.to_le_bytes());
        }
    }
    for i in indices {
        p.extend_from_slice(&i.to_le_bytes());
    }
    p.extend_from_slice(&1u16.to_le_bytes());
    p.extend_from_slice(&[0, 0]);
    p.extend_from_slice(&42u64.to_le_bytes());
    p
}

/// `read_frame` reads a v6 mesh reply whose counts fill its length straight
/// into the mesh's vectors, and every other frame through a payload buffer.
/// On each frame here, well formed or not, it gives the incremental
/// decoder's verdict (code, detail, `close`, bytes consumed), and the good
/// frame written right behind it on the same stream is still read.
#[test]
fn the_in_place_mesh_reader_agrees_with_the_buffered_decoder() {
    let ps = [
        Vec3::new(0.0, 1.0, -2.5),
        Vec3::new(-0.0, f32::NAN, 1e-3),
        Vec3::new(7.0, f32::INFINITY, 9.0),
    ];
    let tri = [0, 1, 2, 2, 1, 0];
    let frame =
        |version, payload: &[u8]| encode_frame_raw(MAGIC, version, MSG_MESH_RESPONSE, payload);
    let mut bad_crc = frame(VERSION, &mesh_payload(3, 6, &ps, &tri));
    *bad_crc.last_mut().unwrap() ^= 0x20;
    // 12 · (3 + 2^62) wraps to 36 in u64: only checked arithmetic tells it
    // from the 3 vertices the payload carries
    let wrapping = 3 + (1u64 << 62);
    let cases = [
        (
            "bad checksum",
            bad_crc,
            Some((ERR_BAD_CHECKSUM, "checksum")),
        ),
        (
            "index count not a triangle multiple",
            frame(VERSION, &mesh_payload(3, 4, &ps, &tri[..4])),
            Some((ERR_MALFORMED, "triangle multiple")),
        ),
        (
            "index out of range",
            frame(VERSION, &mesh_payload(3, 3, &ps, &[0, 1, 3])),
            Some((ERR_MALFORMED, "index out of range")),
        ),
        (
            "counts over-fill the length",
            frame(VERSION, &mesh_payload(4, 6, &ps, &tri)),
            Some((ERR_MALFORMED, "index out of range")),
        ),
        (
            "counts under-fill the length",
            frame(VERSION, &mesh_payload(3, 3, &ps, &tri)),
            Some((ERR_MALFORMED, "trailing bytes")),
        ),
        (
            "vertex count whose byte size wraps",
            frame(VERSION, &mesh_payload(wrapping, 6, &ps, &tri)),
            Some((ERR_MALFORMED, "vertex count")),
        ),
        (
            "version 5",
            frame(5, &mesh_payload(3, 6, &ps, &tri)),
            Some((ERR_UNSUPPORTED_VERSION, "only v6")),
        ),
        (
            "empty mesh",
            frame(VERSION, &mesh_payload(0, 0, &[], &[])),
            None,
        ),
    ];
    let good_mesh = IndexedMesh::from_parts(ps.to_vec(), tri.to_vec());
    let good = encode_mesh_response_frame(false, 9, 0, false, 0, 5, &good_mesh, VERSION);
    for (name, bad, want) in cases {
        let stream = [&bad[..], &good[..]].concat();
        let mut cursor = &stream[..];
        let blocking = read_frame(&mut cursor).unwrap().unwrap();
        let blocking_consumed = stream.len() - cursor.len();
        let FrameStep::Frame {
            frame: incremental,
            consumed,
        } = decode_frame_bytes(&stream, MAX_PAYLOAD)
        else {
            panic!("{name}: the incremental decoder wants more");
        };
        assert_eq!(blocking_consumed, bad.len(), "{name}: blocking reader");
        assert_eq!(consumed, bad.len(), "{name}: incremental decoder");
        // a NaN never equals itself, so the two verdicts compare as text
        assert_eq!(
            format!("{blocking:?}"),
            format!("{incremental:?}"),
            "{name}"
        );
        match (blocking, want) {
            (
                FrameIn::Violation {
                    code,
                    detail,
                    close,
                },
                Some((want, needle)),
            ) => {
                assert_eq!((code, close), (want, false), "{name}: {detail}");
                assert!(detail.contains(needle), "{name}: {detail}");
            }
            (FrameIn::Ok { msg }, None) => {
                let Message::MeshResponse { mesh, trace_id, .. } = msg else {
                    panic!("{name}: {msg:?}");
                };
                assert!(mesh.is_empty() && trace_id == 42, "{name}");
            }
            (got, want) => panic!("{name}: got {got:?}, want {want:?}"),
        }
        let FrameIn::Ok {
            msg: Message::MeshResponse { mesh, .. },
        } = read_frame(&mut cursor).unwrap().unwrap()
        else {
            panic!("{name}: the frame behind it was not read");
        };
        assert_same_mesh(&mesh, &good_mesh, name);
        assert!(cursor.is_empty(), "{name}: stream not drained");
    }
}

/// A ≈ 2 MB mesh reply comes off a stream with no allocation larger than
/// its larger slab: each slab is read into its own vector, and no buffer
/// of the payload's size exists on the way.
#[test]
fn a_mesh_reply_is_read_without_a_payload_sized_buffer() {
    let mut rng = Rng(0x5EED_0009);
    let nvert = 120_000;
    let positions: Vec<Vec3> = (0..nvert).map(|_| rng.vec3()).collect();
    let indices: Vec<u32> = (0..3 * 60_000).map(|_| rng.below(nvert) as u32).collect();
    let mesh = IndexedMesh::from_parts(positions, indices);
    let frame = encode_mesh_response_frame(true, 1, 0, false, 0, 3, &mesh, VERSION);
    assert!(frame.len() > 2_000_000);
    let (read, largest) = largest_alloc_during(|| read_frame(&mut &frame[..]));
    let slab = 12 * nvert;
    assert!(
        largest <= slab,
        "allocated {largest} B for a {} B frame whose larger slab is {slab} B",
        frame.len()
    );
    let Some(FrameIn::Ok {
        msg: Message::MeshResponse { mesh: got, .. },
    }) = read.unwrap()
    else {
        panic!("the reply was not read");
    };
    assert_same_mesh(&got, &mesh, "2 MB reply");
}

/// Resident set size of this process, in bytes (Linux).
#[cfg(target_os = "linux")]
fn resident_bytes() -> usize {
    let statm = std::fs::read_to_string("/proc/self/statm").unwrap();
    let pages: usize = statm.split_whitespace().nth(1).unwrap().parse().unwrap();
    pages * 4096
}

/// A stream that sends `head`, then, on the next read, notes the resident
/// set size and ends: the peer went away before the slabs it announced.
#[cfg(target_os = "linux")]
struct AnnounceThenHangUp<'a> {
    head: &'a [u8],
    rss_at_hangup: Option<usize>,
}

#[cfg(target_os = "linux")]
impl std::io::Read for AnnounceThenHangUp<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.head.is_empty() {
            self.rss_at_hangup.get_or_insert_with(resident_bytes);
            return Ok(0);
        }
        std::io::Read::read(&mut self.head, buf)
    }
}

/// The counts of a mesh reply size its vectors, but memory is committed
/// only as the slabs' bytes arrive: a 41-byte head announcing 240 MB of
/// positions commits a fraction of it before the first slab byte.
#[cfg(target_os = "linux")]
#[test]
fn a_mesh_reply_commits_memory_only_as_its_bytes_arrive() {
    let nvert = 20_000_000u64;
    let payload_len = 25 + 12 * nvert + 12;
    let mut head = Vec::new();
    head.extend_from_slice(&MAGIC.to_le_bytes());
    head.extend_from_slice(&VERSION.to_le_bytes());
    head.extend_from_slice(&MSG_MESH_RESPONSE.to_le_bytes());
    head.extend_from_slice(&payload_len.to_le_bytes());
    head.extend_from_slice(&claimed_mesh_payload(nvert, 0, 0));
    let before = resident_bytes();
    let mut stream = AnnounceThenHangUp {
        head: &head,
        rss_at_hangup: None,
    };
    let err = read_frame(&mut stream).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    let grown = stream.rss_at_hangup.unwrap().saturating_sub(before);
    assert!(
        grown < 64 << 20,
        "{grown} B committed for a reply that sent none of its 240 MB"
    );
}

// ---- the bytes themselves -------------------------------------------------

/// One tiny mesh (three vertices incl. −0.0, two triangles), reply fields
/// `cache_hit = true, active_metacells = 7, served_lod = 1, degraded = true,
/// backend = 1, trace_id = 0x0102030405060708`. The frames below were built
/// from `docs/serve.md`'s layout with Python's `struct` and `zlib.crc32`,
/// not by this crate — a peer built from an older revision produces and
/// accepts exactly the v6 bytes. The v1 frame, the same reply in the
/// retired first layout, and the chunk frame of the retired progressive
/// delivery are kept as input that must be refused.
fn golden_mesh() -> IndexedMesh {
    let mut mesh = IndexedMesh::new();
    mesh.push_vertex(Vec3::new(0.0, 1.0, -2.5));
    mesh.push_vertex(Vec3::new(-0.0, 3.25, 1e-3));
    mesh.push_vertex(Vec3::new(7.0, 8.0, 9.0));
    mesh.push_triangle(0, 1, 2);
    mesh.push_triangle(2, 1, 0);
    mesh
}

#[rustfmt::skip]
const GOLDEN_MESH_RESPONSE_V6: [u8; 117] = [
    0x4f, 0x49, 0x53, 0x4f, 0x06, 0x00, 0x05, 0x00, 0x61, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,
    0x3f, 0x00, 0x00, 0x20, 0xc0, 0x00, 0x00, 0x00, 0x80, 0x00, 0x00, 0x50,
    0x40, 0x6f, 0x12, 0x83, 0x3a, 0x00, 0x00, 0xe0, 0x40, 0x00, 0x00, 0x00,
    0x41, 0x00, 0x00, 0x10, 0x41, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
    0x00, 0x02, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x01, 0x01, 0x08, 0x07, 0x06,
    0x05, 0x04, 0x03, 0x02, 0x01, 0x95, 0xcb, 0x80, 0xee,
];

#[rustfmt::skip]
const GOLDEN_MESH_RESPONSE_V1: [u8; 105] = [
    0x4f, 0x49, 0x53, 0x4f, 0x01, 0x00, 0x05, 0x00, 0x55, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,
    0x3f, 0x00, 0x00, 0x20, 0xc0, 0x00, 0x00, 0x00, 0x80, 0x00, 0x00, 0x50,
    0x40, 0x6f, 0x12, 0x83, 0x3a, 0x00, 0x00, 0xe0, 0x40, 0x00, 0x00, 0x00,
    0x41, 0x00, 0x00, 0x10, 0x41, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
    0x00, 0x02, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0xbd, 0xfb, 0xf5, 0x8c,
];

/// The same mesh as a full chunk of the retired progressive delivery
/// (type 16: `last = true, level = 2, cache_hit = false, backend = 1`).
#[rustfmt::skip]
const GOLDEN_MESH_CHUNK_V6: [u8; 118] = [
    0x4f, 0x49, 0x53, 0x4f, 0x06, 0x00, 0x10, 0x00, 0x62, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x02, 0x00, 0x00, 0x01, 0x00, 0x07, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x20, 0xc0, 0x00, 0x00,
    0x00, 0x80, 0x00, 0x00, 0x50, 0x40, 0x6f, 0x12, 0x83, 0x3a, 0x00, 0x00,
    0xe0, 0x40, 0x00, 0x00, 0x00, 0x41, 0x00, 0x00, 0x10, 0x41, 0x00, 0x00,
    0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x02, 0x00,
    0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x07,
    0x06, 0x05, 0x04, 0x03, 0x02, 0x01, 0x34, 0xb7, 0x7e, 0xab,
];

#[test]
fn golden_frame_bytes_are_pinned_at_v6_and_v1_is_refused() {
    let mesh = golden_mesh();
    let id = 0x0102_0304_0506_0708;
    assert_eq!(VERSION, 6, "a new version needs its own golden frames");
    assert_eq!(
        encode_mesh_response_frame(true, 7, 1, true, 1, id, &mesh, VERSION),
        GOLDEN_MESH_RESPONSE_V6
    );
    // and the other direction: frames this crate did not build decode to
    // exactly that mesh
    let Message::MeshResponse {
        mesh: got,
        active_metacells: 7,
        cache_hit: true,
        served_lod: 1,
        degraded: true,
        backend: 1,
        trace_id,
    } = decode_both(&GOLDEN_MESH_RESPONSE_V6, "golden response")
    else {
        panic!("golden response decoded to something else");
    };
    assert_eq!(trace_id, id);
    assert_same_mesh(&got, &mesh, "golden response");
    // a v1 frame is well framed but no longer spoken: both readers refuse
    // it with the version error and keep the connection
    assert_refused(&GOLDEN_MESH_RESPONSE_V1, ERR_UNSUPPORTED_VERSION, "v6");
    // so is a retired progressive chunk: its type is unknown
    assert_refused(
        &GOLDEN_MESH_CHUNK_V6,
        ERR_MALFORMED,
        "unknown message type 16",
    );
}

/// Both readers judge the whole `frame` a `code` violation whose detail
/// mentions `needle`, and keep the connection.
fn assert_refused(frame: &[u8], code: u16, needle: &str) {
    let refused = |judged: FrameIn| match judged {
        FrameIn::Violation {
            code: got,
            detail,
            close,
        } => {
            assert_eq!((got, close), (code, false), "{detail}");
            assert!(detail.contains(needle), "{detail}");
        }
        other => panic!("refused frame accepted: {other:?}"),
    };
    refused(read_frame(&mut &frame[..]).unwrap().unwrap());
    match decode_frame_bytes(frame, MAX_PAYLOAD) {
        FrameStep::Frame {
            frame: judged,
            consumed,
        } => {
            assert_eq!(consumed, frame.len());
            refused(judged);
        }
        other => panic!("frame not judged: {other:?}"),
    }
}

/// One request of each kind, built like the response frames above with
/// Python's `struct` and `zlib.crc32` from `docs/serve.md`'s layout: a mesh
/// request (iso 127.5, region (0, −1.5, 2)–(9, 8.5, 28), lod 2, backend
/// `0xFF` = none named, trace id `0x0102030405060708`) and a frame request
/// (iso 190, 640×480, azimuth 0.75, elevation 0.5, distance 2.25, 2×2
/// tiles, trace id 77). The request of the retired progressive delivery
/// (type 15: iso 120, lod 1, backend 0, trace id 5) is kept as input that
/// must be refused.
#[rustfmt::skip]
const GOLDEN_MESH_REQUEST_V6: [u8; 60] = [
    0x4f, 0x49, 0x53, 0x4f, 0x06, 0x00, 0x01, 0x00, 0x28, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0x42, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0xc0, 0xbf, 0x00, 0x00, 0x00, 0x40, 0x00, 0x00, 0x10,
    0x41, 0x00, 0x00, 0x08, 0x41, 0x00, 0x00, 0xe0, 0x41, 0x02, 0x00, 0xff,
    0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, 0xa4, 0x92, 0xd2, 0xad,
];
#[rustfmt::skip]
const GOLDEN_PROGRESSIVE_REQUEST_V6: [u8; 35] = [
    0x4f, 0x49, 0x53, 0x4f, 0x06, 0x00, 0x0f, 0x00, 0x0f, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x42, 0x01, 0x00, 0x00, 0x05,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xbf, 0xa2, 0x7b, 0x98,
];
#[rustfmt::skip]
const GOLDEN_FRAME_REQUEST_V6: [u8; 56] = [
    0x4f, 0x49, 0x53, 0x4f, 0x06, 0x00, 0x02, 0x00, 0x24, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x3e, 0x43, 0x80, 0x02, 0x00, 0x00,
    0xe0, 0x01, 0x00, 0x00, 0x00, 0x00, 0x40, 0x3f, 0x00, 0x00, 0x00, 0x3f,
    0x00, 0x00, 0x10, 0x40, 0x02, 0x00, 0x02, 0x00, 0x4d, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x37, 0xa2, 0x03, 0x96,
];

#[test]
fn golden_request_bytes_are_pinned() {
    let mesh = |backend| Message::MeshRequest {
        iso: 127.5,
        region: Some(Region {
            lo: [0.0, -1.5, 2.0],
            hi: [9.0, 8.5, 28.0],
        }),
        lod: 2,
        backend,
        trace_id: 0x0102_0304_0506_0708,
    };
    let frame = Message::FrameRequest {
        iso: 190.0,
        params: FrameParams {
            width: 640,
            height: 480,
            azimuth: 0.75,
            elevation: 0.5,
            distance: 2.25,
            tile_cols: 2,
            tile_rows: 2,
        },
        trace_id: 77,
    };
    for (name, msg, golden) in [
        ("mesh", mesh(None), &GOLDEN_MESH_REQUEST_V6[..]),
        ("frame", frame, &GOLDEN_FRAME_REQUEST_V6[..]),
    ] {
        assert_eq!(encode_frame(&msg), golden, "{name}: encoder");
        assert_eq!(decode_both(golden, name), msg, "{name}: readers");
    }
    assert_refused(
        &GOLDEN_PROGRESSIVE_REQUEST_V6,
        ERR_MALFORMED,
        "unknown message type 15",
    );
    // an explicit 0xFF is the same bytes as naming no backend
    assert_eq!(
        encode_frame(&mesh(Some(BACKEND_DEFAULT))),
        GOLDEN_MESH_REQUEST_V6
    );
}

// ---- the request decoders -------------------------------------------------

use oociso_serve::protocol::{
    read_frame_limited, FrameParams, Region, BACKEND_DEFAULT, MAX_REQUEST_PAYLOAD,
};

/// A random region, or none.
fn region_for(rng: &mut Rng) -> Option<Region> {
    (rng.below(2) == 1).then(|| Region {
        lo: [rng.float(), rng.float(), rng.float()],
        hi: [rng.float(), rng.float(), rng.float()],
    })
}

/// A backend selector: none, MC, SurfaceNets, "none named", or any byte.
fn backend_for(rng: &mut Rng) -> Option<u8> {
    match rng.below(5) {
        0 => None,
        1 => Some(0),
        2 => Some(1),
        3 => Some(BACKEND_DEFAULT),
        _ => Some(rng.next() as u8),
    }
}

/// A trace id, zero (untraced) a quarter of the time.
fn trace_for(rng: &mut Rng) -> u64 {
    if rng.below(4) == 0 {
        0
    } else {
        rng.next()
    }
}

/// Frame `sent` and decode it through both readers: the result is `want`
/// (`sent` as the wire carries it) and re-encodes to the very bytes sent.
/// The debug text compares every NaN equal; the byte check covers NaN
/// payloads.
fn assert_roundtrip(sent: &Message, want: &Message, ctx: &str) {
    let frame = encode_frame(sent);
    let got = decode_both(&frame, ctx);
    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{ctx}");
    assert_eq!(encode_frame(&got), frame, "{ctx}: re-encoded");
}

#[test]
fn mesh_requests_roundtrip() {
    let mut rng = Rng(0x5EED_0004);
    for round in 0..300 {
        let (iso, region, lod) = (rng.float(), region_for(&mut rng), rng.next() as u16);
        let (backend, trace) = (backend_for(&mut rng), trace_for(&mut rng));
        let sent = Message::MeshRequest {
            iso,
            region,
            lod,
            backend,
            trace_id: trace,
        };
        // 0xFF on the wire means "none named"
        let want = Message::MeshRequest {
            iso,
            region,
            lod,
            backend: backend.filter(|&b| b != BACKEND_DEFAULT),
            trace_id: trace,
        };
        assert_roundtrip(&sent, &want, &format!("round {round}"));
    }
}

#[test]
fn frame_requests_roundtrip() {
    let mut rng = Rng(0x5EED_0005);
    for round in 0..300 {
        let (iso, trace) = (rng.float(), trace_for(&mut rng));
        let params = FrameParams {
            width: rng.next() as u32,
            height: rng.next() as u32,
            azimuth: rng.float(),
            elevation: rng.float(),
            distance: rng.float(),
            tile_cols: rng.next() as u16,
            tile_rows: rng.next() as u16,
        };
        let sent = Message::FrameRequest {
            iso,
            params,
            trace_id: trace,
        };
        assert_roundtrip(&sent, &sent, &format!("round {round}"));
    }
}

/// One request frame of every shape the server parses.
fn request_frames() -> Vec<(&'static str, Vec<u8>)> {
    let region = Some(Region {
        lo: [0.0, -1.5, 2.0],
        hi: [9.0, 8.5, f32::NAN],
    });
    let mesh = |region, backend| Message::MeshRequest {
        iso: 127.5,
        region,
        lod: 2,
        backend,
        trace_id: 0x0102_0304_0506_0708,
    };
    let frame = Message::FrameRequest {
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
    };
    [
        ("mesh", mesh(None, None)),
        ("mesh+region", mesh(region, Some(1))),
        ("frame", frame),
    ]
    .into_iter()
    .map(|(name, msg)| (name, encode_frame(&msg)))
    .collect()
}

/// Every single-byte corruption and every truncation of every request frame,
/// through both readers and through the payload decoder alone (behind a
/// valid checksum): a structured error or a well-formed message, never a
/// panic. Both readers run under the server's request cap; the incremental
/// reader and the payload decoder never allocate more than the bytes
/// received, the blocking reader at most the capped length claim.
#[test]
fn request_frames_survive_every_corruption_and_truncation() {
    for (name, frame) in request_frames() {
        let msg_type = u16::from_le_bytes([frame[6], frame[7]]);
        let payload = &frame[HEADER_BYTES..frame.len() - 4];
        for at in 0..frame.len() {
            for mask in [1u8, 2, 4, 8, 16, 32, 64, 128, 0xFF] {
                let ctx = format!("{name}: byte {at} ^ {mask:#x}");
                let mut bad = frame.clone();
                bad[at] ^= mask;
                let (step, largest) =
                    largest_alloc_during(|| decode_frame_bytes(&bad, MAX_REQUEST_PAYLOAD));
                assert!(
                    largest <= alloc_bound(bad.len()),
                    "{ctx}: allocated {largest} B"
                );
                match (step, read_frame_limited(&mut &bad[..], MAX_REQUEST_PAYLOAD)) {
                    // a payload or trailer byte: the checksum catches it
                    (
                        FrameStep::Frame {
                            frame: FrameIn::Violation { code: a, .. },
                            ..
                        },
                        Ok(Some(FrameIn::Violation { code: b, .. })),
                    ) => assert_eq!(a, b, "{ctx}"),
                    // a longer length claim: more bytes wanted / torn stream
                    (FrameStep::NeedMore { need }, Err(_)) => assert!(need > bad.len(), "{ctx}"),
                    // a header byte that still names a frame both accept
                    (
                        FrameStep::Frame {
                            frame: FrameIn::Ok { .. },
                            ..
                        },
                        Ok(Some(FrameIn::Ok { .. })),
                    ) => {
                        assert!(at < HEADER_BYTES, "{ctx}")
                    }
                    (a, b) => panic!("{ctx}: readers disagree: {a:?} vs {b:?}"),
                }
            }
        }
        for at in 0..payload.len() {
            for mask in [1u8, 2, 4, 8, 16, 32, 64, 128, 0xFF] {
                let mut bad = payload.to_vec();
                bad[at] ^= mask;
                let (res, largest) = largest_alloc_during(|| decode_payload(msg_type, &bad));
                assert!(
                    largest <= alloc_bound(bad.len()),
                    "{name}: payload byte {at} ^ {mask:#x}: allocated {largest} B"
                );
                if let Err(e) = res {
                    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{name}");
                }
            }
        }
        for cut in 0..frame.len() {
            let ctx = format!("{name}: cut at {cut}");
            let (step, largest) =
                largest_alloc_during(|| decode_frame_bytes(&frame[..cut], MAX_REQUEST_PAYLOAD));
            assert!(largest <= alloc_bound(cut), "{ctx}: allocated {largest} B");
            assert!(
                matches!(step, FrameStep::NeedMore { need } if need > cut),
                "{ctx}: {step:?}"
            );
            match read_frame_limited(&mut &frame[..cut], MAX_REQUEST_PAYLOAD) {
                Ok(None) => assert_eq!(cut, 0, "{ctx}: clean EOF only at a frame boundary"),
                Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{ctx}"),
                Ok(Some(f)) => panic!("{ctx}: decoded {f:?}"),
            }
            if (HEADER_BYTES..frame.len() - 4).contains(&cut) {
                let (res, largest) =
                    largest_alloc_during(|| decode_payload(msg_type, &frame[HEADER_BYTES..cut]));
                assert!(largest <= alloc_bound(cut), "{ctx}: allocated {largest} B");
                // every request field is required: any cut is malformed
                let e = res.expect_err(&ctx);
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{ctx}");
            }
        }
    }
}

// ---- the response decoders ------------------------------------------------

use oociso_render::FrameRegion;
use oociso_serve::protocol::{ServerReport, TraceEvent, ERR_BUSY};

/// Any short string, with multi-byte UTF-8 now and then.
fn text_for(rng: &mut Rng) -> String {
    (0..rng.below(24))
        .map(|_| match rng.below(6) {
            0 => 'µ',
            1 => '→',
            _ => (b'a' + rng.below(26) as u8) as char,
        })
        .collect()
}

fn report_for(rng: &mut Rng) -> ServerReport {
    let mut lod = || [0; 4].map(|_: u64| rng.next());
    let (lod_hits, lod_misses) = (lod(), lod());
    ServerReport {
        connections: rng.next(),
        requests: rng.next(),
        mesh_requests: rng.next(),
        frame_requests: rng.next(),
        errors: rng.next(),
        bytes_out: rng.next(),
        cache_hits: rng.next(),
        cache_misses: rng.next(),
        cache_evictions: rng.next(),
        cache_resident_bytes: rng.next(),
        cache_resident_entries: rng.next(),
        lod_hits,
        lod_misses,
        shed: rng.next(),
        degraded: rng.next(),
        timed_out: rng.next(),
        drained: rng.next(),
        accept_backoffs: rng.next(),
        active_connections: rng.next(),
    }
}

fn region_of(rng: &mut Rng, w: usize, h: usize) -> FrameRegion {
    FrameRegion {
        origin: (rng.below(4096), rng.below(4096)),
        size: (w, h),
        color: (0..w * h)
            .map(|_| (rng.next() as u32).to_le_bytes())
            .collect(),
        depth: (0..w * h).map(|_| rng.float()).collect(),
    }
}

fn frame_response_for(rng: &mut Rng) -> Message {
    Message::FrameResponse {
        cache_hit: rng.below(2) == 1,
        width: rng.next() as u32,
        height: rng.next() as u32,
        regions: (0..rng.below(4))
            .map(|_| {
                let (w, h) = (rng.below(5), rng.below(5));
                region_of(rng, w, h)
            })
            .collect(),
        trace_id: trace_for(rng),
    }
}

fn trace_response_for(rng: &mut Rng) -> Message {
    Message::TraceResponse {
        found: rng.below(2) == 1,
        id: rng.next(),
        total_us: rng.next(),
        dropped: rng.next(),
        events: (0..rng.below(5))
            .map(|i| TraceEvent {
                id: i as u32,
                parent: if i == 0 {
                    u32::MAX
                } else {
                    rng.below(i) as u32
                },
                name: text_for(rng),
                start_us: rng.next(),
                dur_us: rng.next(),
                fields: (0..rng.below(4))
                    .map(|_| (text_for(rng), rng.next()))
                    .collect(),
            })
            .collect(),
    }
}

/// What decoding a response may allocate in one piece. Frame regions, span
/// events and span fields are larger in memory than their smallest wire
/// form (a region 80 B against 32, an event 72 against 28, a field 32
/// against 10), so their vectors may take that ratio — at most 4× — of the
/// bytes received; everything else is held to [`alloc_bound`].
fn response_alloc_bound(msg: &Message, received: usize) -> usize {
    match msg {
        Message::FrameResponse { .. } | Message::TraceResponse { .. } => 4 * alloc_bound(received),
        _ => alloc_bound(received),
    }
}

#[test]
fn response_messages_roundtrip() {
    let mut rng = Rng(0x5EED_0006);
    for round in 0..200 {
        let hint = (rng.below(2) == 1).then(|| rng.next() as u32);
        let messages = [
            Message::StatsResponse(report_for(&mut rng)),
            Message::Error {
                code: rng.next() as u16,
                detail: text_for(&mut rng),
                retry_after_ms: hint,
            },
            frame_response_for(&mut rng),
            trace_response_for(&mut rng),
            Message::MetricsResponse {
                text: text_for(&mut rng),
            },
        ];
        for msg in &messages {
            assert_roundtrip(msg, msg, &format!("round {round} type {}", msg.msg_type()));
        }
    }
}

/// One frame of every response layout: stats, errors with and without a
/// retry hint, a frame response, a trace and a metrics response.
fn response_frames() -> Vec<(&'static str, Message)> {
    let mut rng = Rng(0x5EED_0007);
    let stats = Message::StatsResponse(report_for(&mut rng));
    let busy = |retry_after_ms| Message::Error {
        code: ERR_BUSY,
        detail: "extraction slots exhausted; retry in 40 ms".into(),
        retry_after_ms,
    };
    let frame = Message::FrameResponse {
        cache_hit: true,
        width: 8,
        height: 4,
        regions: vec![region_of(&mut rng, 4, 4), region_of(&mut rng, 4, 4)],
        trace_id: 0x0102_0304_0506_0708,
    };
    let trace = Message::TraceResponse {
        found: true,
        id: 42,
        total_us: 1234,
        dropped: 0,
        events: vec![
            TraceEvent {
                id: 0,
                parent: u32::MAX,
                name: "request".into(),
                start_us: 0,
                dur_us: 1234,
                fields: vec![("msg_type".into(), 1), ("lod".into(), 2)],
            },
            TraceEvent {
                id: 1,
                parent: 0,
                name: "cache".into(),
                start_us: 3,
                dur_us: 2,
                fields: vec![("hit".into(), 1)],
            },
        ],
    };
    let metrics = Message::MetricsResponse {
        text: "# TYPE requests_total counter\nrequests_total 5\n".into(),
    };
    vec![
        ("stats", stats),
        ("busy+hint", busy(Some(40))),
        ("busy", busy(None)),
        ("frame", frame),
        ("trace", trace),
        ("metrics", metrics),
    ]
}

/// Every single-byte corruption and every truncation of every response
/// frame, through both readers and through the payload decoder alone
/// (behind a valid checksum): a structured error or a well-formed message,
/// never a panic, never an allocation past [`response_alloc_bound`]. A
/// truncated payload decodes only where it ends exactly before the error
/// frame's optional retry hint (or, for free-form metrics text, anywhere).
#[test]
fn response_frames_survive_every_corruption_and_truncation() {
    for (name, msg) in response_frames() {
        let frame = encode_frame(&msg);
        let msg_type = msg.msg_type();
        let payload = &frame[HEADER_BYTES..frame.len() - 4];
        // the one optional field: the error frame's trailing retry hint
        let hint_cut = match msg {
            Message::Error {
                retry_after_ms: Some(_),
                ..
            } => Some(payload.len() - 4),
            _ => None,
        };
        // the debug text compares every NaN depth equal
        let decoded = decode_both(&frame, name);
        assert_eq!(format!("{decoded:?}"), format!("{msg:?}"), "{name}");
        for at in 0..frame.len() {
            for mask in [1u8, 2, 4, 8, 16, 32, 64, 128, 0xFF] {
                let ctx = format!("{name}: byte {at} ^ {mask:#x}");
                let mut bad = frame.clone();
                bad[at] ^= mask;
                let (step, largest) =
                    largest_alloc_during(|| decode_frame_bytes(&bad, MAX_PAYLOAD));
                assert!(
                    largest <= response_alloc_bound(&msg, bad.len()),
                    "{ctx}: allocated {largest} B"
                );
                match (step, read_frame(&mut &bad[..])) {
                    // a payload or trailer byte: the checksum catches it
                    (
                        FrameStep::Frame {
                            frame: FrameIn::Violation { code: a, .. },
                            ..
                        },
                        Ok(Some(FrameIn::Violation { code: b, .. })),
                    ) => assert_eq!(a, b, "{ctx}"),
                    // a longer length claim: more bytes wanted / torn stream
                    (FrameStep::NeedMore { need }, Err(_)) => assert!(need > bad.len(), "{ctx}"),
                    // a header byte that still names a frame both accept
                    (
                        FrameStep::Frame {
                            frame: FrameIn::Ok { .. },
                            ..
                        },
                        Ok(Some(FrameIn::Ok { .. })),
                    ) => assert!(at < HEADER_BYTES, "{ctx}"),
                    (a, b) => panic!("{ctx}: readers disagree: {a:?} vs {b:?}"),
                }
            }
        }
        for at in 0..payload.len() {
            for mask in [1u8, 2, 4, 8, 16, 32, 64, 128, 0xFF] {
                let mut bad = payload.to_vec();
                bad[at] ^= mask;
                let (res, largest) = largest_alloc_during(|| decode_payload(msg_type, &bad));
                assert!(
                    largest <= response_alloc_bound(&msg, bad.len()),
                    "{name}: payload byte {at} ^ {mask:#x}: allocated {largest} B"
                );
                if let Err(e) = res {
                    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{name}");
                }
            }
        }
        for cut in 0..frame.len() {
            let ctx = format!("{name}: cut at {cut}");
            let (step, largest) =
                largest_alloc_during(|| decode_frame_bytes(&frame[..cut], MAX_PAYLOAD));
            assert!(
                largest <= response_alloc_bound(&msg, cut),
                "{ctx}: allocated {largest} B"
            );
            assert!(
                matches!(step, FrameStep::NeedMore { need } if need > cut),
                "{ctx}: {step:?}"
            );
            match read_frame(&mut &frame[..cut]) {
                Ok(None) => assert_eq!(cut, 0, "{ctx}: clean EOF only at a frame boundary"),
                Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{ctx}"),
                Ok(Some(f)) => panic!("{ctx}: decoded {f:?}"),
            }
            if (HEADER_BYTES..frame.len() - 4).contains(&cut) {
                let body = &frame[HEADER_BYTES..cut];
                let (res, largest) = largest_alloc_during(|| decode_payload(msg_type, body));
                assert!(
                    largest <= response_alloc_bound(&msg, cut),
                    "{ctx}: allocated {largest} B"
                );
                let legal =
                    hint_cut == Some(body.len()) || matches!(msg, Message::MetricsResponse { .. });
                match res {
                    Ok(_) => assert!(legal, "{ctx}: a torn payload decoded"),
                    Err(e) => {
                        assert!(!legal, "{ctx}: a hint-less error refused: {e}");
                        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{ctx}");
                    }
                }
            }
        }
    }
}

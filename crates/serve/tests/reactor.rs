//! Serving-core tests: pipelining order, burst accepts, placement across
//! event loops, torn-frame safety under write stalls, outbound
//! backpressure, and the 512-connection pipelining storm.
//!
//! The pipelining test intentionally compares **raw reply bytes** between
//! pipelined and sequential delivery — the contract is not "similar"
//! responses, but the same bytes in request order.

use oociso_core::{ClusterDatabase, PreprocessOptions};
use oociso_serve::protocol::{
    encode_mesh_response_frame, read_frame, write_frame, FrameIn, TraceEvent, HEADER_BYTES, VERSION,
};
use oociso_serve::{
    ChaosProxy, Client, ClientOptions, ConnFault, FrameParams, IsoServer, Message, Region,
    ServeOptions,
};
use oociso_volume::field::{FieldExt, SphereField};
use oociso_volume::{Dims3, Volume};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tmpdir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("oociso_reactor_{}_{}", std::process::id(), name));
    p
}

fn test_volume() -> Volume<u8> {
    SphereField::centered(0.32, 128.0).sample(Dims3::cube(29))
}

fn bind(name: &str, opts: ServeOptions) -> (PathBuf, IsoServer) {
    let dir = tmpdir(name);
    let vol = test_volume();
    let served = ClusterDatabase::preprocess(&vol, &dir, &PreprocessOptions::default()).unwrap();
    let server = IsoServer::bind(served, ("127.0.0.1", 0), opts).unwrap();
    (dir, server)
}

fn frame_params() -> FrameParams {
    FrameParams {
        width: 64,
        height: 64,
        azimuth: 0.6,
        elevation: 0.3,
        distance: 2.5,
        tile_cols: 2,
        tile_rows: 2,
    }
}

/// The 8-request interleaved pipeline of the equivalence scenario:
/// mesh/frame/stats (and a ping) with distinct v5 trace ids.
fn pipeline_requests(iso: f32) -> Vec<Message> {
    vec![
        Message::MeshRequest {
            iso,
            region: None,
            lod: 0,
            backend: None,
            trace_id: 0xA1,
        },
        Message::FrameRequest {
            iso,
            params: frame_params(),
            trace_id: 0xA2,
        },
        Message::StatsRequest,
        Message::MeshRequest {
            iso,
            region: None,
            lod: 0,
            backend: None,
            trace_id: 0xA3,
        },
        Message::FrameRequest {
            iso,
            params: frame_params(),
            trace_id: 0xA4,
        },
        Message::StatsRequest,
        Message::Ping {
            payload: vec![7u8; 512],
        },
        Message::MeshRequest {
            iso,
            region: None,
            lod: 0,
            backend: None,
            trace_id: 0,
        },
    ]
}

fn decode_reply(raw: &[u8]) -> Message {
    match read_frame(&mut &raw[..]).unwrap() {
        Some(FrameIn::Ok { msg, .. }) => msg,
        other => panic!("undecodable reply frame: {other:?}"),
    }
}

/// Satellite: 8 interleaved v5 mesh/frame/stats requests pipelined on one
/// connection come back in order and byte-identical to the same requests
/// issued sequentially on fresh connections: warm the cache, issue the 8
/// pipelined on one connection, then the same 8 on 8 fresh connections,
/// and cross-check.
#[test]
fn pipelined_replies_in_order_and_byte_identical_to_sequential() {
    let iso = 120.0f32;
    let (dir, server) = bind("equiv", ServeOptions::default());
    let addr = server.addr();
    // warm: after this, every mesh/frame request below is a cache hit in
    // both delivery orders, so replies carry identical cache_hit bits
    Client::connect(addr)
        .unwrap()
        .query_mesh(iso, None)
        .unwrap();

    let requests = pipeline_requests(iso);
    let pipelined = Client::connect(addr)
        .unwrap()
        .pipeline_raw(&requests)
        .unwrap();
    assert_eq!(pipelined.len(), requests.len());

    // sequential baseline: each request alone on a fresh connection
    let sequential: Vec<Vec<u8>> = requests
        .iter()
        .map(|req| {
            Client::connect(addr)
                .unwrap()
                .pipeline_raw(std::slice::from_ref(req))
                .unwrap()
                .remove(0)
        })
        .collect();

    for (i, req) in requests.iter().enumerate() {
        match req {
            // stats responses cannot be byte-identical across delivery
            // modes: the connection/request counters necessarily differ
            // between "one pipelined connection" and "eight fresh ones".
            // Compare the fields the scenario does pin.
            Message::StatsRequest => {
                let (a, b) = (decode_reply(&pipelined[i]), decode_reply(&sequential[i]));
                let (Message::StatsResponse(p), Message::StatsResponse(s)) = (a, b) else {
                    panic!("slot {i}: stats reply expected");
                };
                for (r, mode) in [(p, "pipelined"), (s, "sequential")] {
                    assert_eq!(r.shed, 0, "{mode} slot {i}");
                    assert_eq!(r.timed_out, 0, "{mode} slot {i}");
                    assert_eq!(r.errors, 0, "{mode} slot {i}");
                    assert_eq!(r.degraded, 0, "{mode} slot {i}");
                    // active_connections is NOT compared: a just-closed
                    // fresh connection may linger until its handler
                    // notices the EOF, so the gauge is timing-dependent
                }
            }
            _ => assert_eq!(
                pipelined[i], sequential[i],
                "slot {i}: pipelined reply must be byte-identical to its \
                 sequential twin"
            ),
        }
        // in-order delivery is observable through the trace-id echo
        let echoed = match decode_reply(&pipelined[i]) {
            Message::MeshResponse { trace_id, .. } => Some(trace_id),
            Message::FrameResponse { trace_id, .. } => Some(trace_id),
            _ => None,
        };
        let sent = match req {
            Message::MeshRequest { trace_id, .. } => Some(*trace_id),
            Message::FrameRequest { trace_id, .. } => Some(*trace_id),
            _ => None,
        };
        assert_eq!(echoed, sent, "slot {i}: trace id echo out of order");
    }
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite regression: a burst of simultaneous connects is accepted by
/// draining the whole backlog per wakeup. An accept loop that takes one
/// connection per 2 ms park would need >= 190 ms for 96 connections; the
/// fixed loop admits them all in a couple of wakeups.
#[test]
fn burst_connect_drains_backlog_per_wakeup() {
    let (dir, server) = bind("burst", ServeOptions::default());
    let addr = server.addr();
    let n = 96usize;
    let streams: Vec<TcpStream> = (0..n).map(|_| TcpStream::connect(addr).unwrap()).collect();
    let t0 = Instant::now();
    let deadline = Duration::from_secs(5);
    while (server.report().active_connections as usize) < n {
        assert!(
            t0.elapsed() < deadline,
            "only {}/{n} accepted after {deadline:?}",
            server.report().active_connections
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_millis(150),
        "backlog of {n} took {elapsed:?} to accept — not drained per wakeup"
    );
    drop(streams);
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// The value of a plain `name value` row of the metrics exposition.
fn metric(server: &IsoServer, name: &str) -> i64 {
    server
        .metrics()
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no metric row `{name}`"))
}

/// `reactor_jobs_offloaded_total` as a client reads it over the wire.
fn offloaded(client: &mut Client) -> u64 {
    let text = client.metrics().unwrap();
    let row = text
        .lines()
        .find_map(|l| l.strip_prefix("reactor_jobs_offloaded_total "));
    row.expect("offloaded counter row").parse().unwrap()
}

/// A region-filtered cache hit costs milliseconds (the filter and an owned
/// encode), so it leaves the event loop as one worker job; an unfiltered
/// hit encodes straight from the cached mesh on the loop. The filtered
/// reply is the unfiltered one cut to the region.
#[test]
fn region_filtered_hits_leave_the_event_loop() {
    let (dir, server) = bind("region_hit", ServeOptions::default());
    let mut client = Client::connect(server.addr()).unwrap();
    let miss = client.query_mesh(120.0, None).unwrap();
    assert!(!miss.cache_hit);
    let before = offloaded(&mut client);
    let whole = client.query_mesh(120.0, None).unwrap();
    assert!(whole.cache_hit);
    assert_eq!(offloaded(&mut client), before, "an unfiltered hit stays");
    // one octant of the sphere's bounds
    let b = whole.mesh.bounds();
    let mid = (b.lo + b.hi) * 0.5;
    let region = Region {
        lo: [b.lo.x, b.lo.y, b.lo.z],
        hi: [mid.x, mid.y, mid.z],
    };
    let cut = client.query_mesh(120.0, Some(region)).unwrap();
    assert!(cut.cache_hit);
    assert_eq!(
        offloaded(&mut client),
        before + 1,
        "one region hit, one job"
    );
    let (lo, hi) = region.corners();
    assert_eq!(cut.mesh, whole.mesh.filter_region(lo, hi));
    assert!(!cut.mesh.is_empty() && cut.mesh.len() < whole.mesh.len());
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// Clients that connect together must not share one event loop: whichever
/// loop wakes for the backlog hands each stream to the loop with the fewest
/// live connections, so 8 simultaneous connects against 2 loops end 4/4 —
/// and stay balanced as connections come and go.
#[test]
fn simultaneous_connects_spread_evenly_across_loops() {
    let (dir, server) = bind("even_accept", ServeOptions::default());
    let addr = server.addr();
    let mut streams: Vec<TcpStream> = (0..8).map(|_| TcpStream::connect(addr).unwrap()).collect();
    // a pong on every stream proves its owning loop has admitted it
    let ping_all = |streams: &mut [TcpStream]| {
        for (i, s) in streams.iter_mut().enumerate() {
            write_frame(
                s,
                &Message::Ping {
                    payload: vec![i as u8],
                },
            )
            .unwrap();
        }
        for (i, s) in streams.iter_mut().enumerate() {
            match read_frame(s).unwrap().unwrap() {
                FrameIn::Ok {
                    msg: Message::Pong { payload },
                    ..
                } => assert_eq!(payload, vec![i as u8]),
                other => panic!("stream {i}: unexpected reply {other:?}"),
            }
        }
    };
    ping_all(&mut streams);
    let per_loop = |server: &IsoServer| {
        (
            metric(server, "reactor_loop0_connections"),
            metric(server, "reactor_loop1_connections"),
        )
    };
    assert_eq!(per_loop(&server), (4, 4), "8 connects over 2 loops");
    assert_eq!(metric(&server, "reactor_connections"), 8);

    // close three and wait for the loops to notice, then connect three
    // more: the newcomers must fill the emptier loop back up to 4/4
    streams.truncate(5);
    let t0 = Instant::now();
    while metric(&server, "reactor_connections") != 5 {
        assert!(t0.elapsed() < Duration::from_secs(5), "closes not noticed");
        std::thread::sleep(Duration::from_millis(1));
    }
    streams.extend((0..3).map(|_| TcpStream::connect(addr).unwrap()));
    ping_all(&mut streams);
    assert_eq!(per_loop(&server), (4, 4), "refill after 3 closes");

    drop(streams);
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// Walk `received` as a sequence of reply frames: every frame must be
/// complete except possibly the last, and nothing may follow a partial
/// one. Returns (complete, partial_bytes).
fn assert_no_torn_interleaving(received: &[u8]) -> (usize, usize) {
    let mut off = 0usize;
    let mut complete = 0usize;
    while off < received.len() {
        let rest = received.len() - off;
        if rest < HEADER_BYTES {
            return (complete, rest); // partial header ends the stream
        }
        let len = u64::from_le_bytes(received[off + 8..off + 16].try_into().unwrap()) as usize;
        let total = HEADER_BYTES + len + 4;
        if rest < total {
            return (complete, rest); // partial frame ends the stream
        }
        off += total;
        complete += 1;
    }
    (complete, 0)
}

/// Freeze a socket's receive buffer at `bytes`, disabling receiver-side
/// autotuning. Without this, Linux grows the unread client's window toward
/// `tcp_rmem[2]` (32 MB on some hosts) and the server's "stalled" write
/// keeps trickling — the deadline under test measures *zero* progress.
#[cfg(target_os = "linux")]
fn clamp_rcvbuf(stream: &TcpStream, bytes: i32) {
    use std::os::fd::AsRawFd;
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            name: i32,
            val: *const core::ffi::c_void,
            len: u32,
        ) -> i32;
    }
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            (&bytes as *const i32).cast(),
            4,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_RCVBUF)");
}

#[cfg(not(target_os = "linux"))]
fn clamp_rcvbuf(_stream: &TcpStream, _bytes: i32) {}

/// Satellite audit pin: when the peer stops reading and the write deadline
/// fires, the connection is cut — a partially written response frame is
/// never followed by bytes of another reply.
#[test]
fn write_stall_is_cut_without_torn_frame() {
    let (dir, server) = bind(
        "stall",
        ServeOptions {
            write_timeout: Some(Duration::from_millis(150)),
            read_timeout: Some(Duration::from_secs(30)),
            // keep backpressure out of the picture: this scenario is about
            // the write deadline, not the outbound budget
            outbound_budget: 1 << 30,
            ..Default::default()
        },
    );
    let addr = server.addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    clamp_rcvbuf(&stream, 128 * 1024);
    stream
        .set_write_timeout(Some(Duration::from_secs(2)))
        .unwrap();

    // pipeline far more reply bytes than the (clamped) socket buffers can
    // hold, and do not read any of them: the server's write must stall
    // mid-frame with zero progress until the deadline cuts it
    let requests = 48usize;
    let frame = oociso_serve::protocol::encode_frame(&Message::Ping {
        payload: vec![0x5A; 512 * 1024],
    });
    let mut sent_all = true;
    for _ in 0..requests {
        if stream.write_all(&frame).is_err() {
            // the server already cut us off — expected, stop sending
            sent_all = false;
            break;
        }
    }
    // wait for the server to cut the stalled connection (it may still be
    // chewing through the pipelined backlog before its first write blocks)
    let t0 = Instant::now();
    while server.report().timed_out == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "write deadline never fired"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut received = Vec::new();
    let mut buf = [0u8; 64 * 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => received.extend_from_slice(&buf[..n]),
            Err(_) => break, // reset counts as the end of the stream too
        }
    }
    let (complete, partial) = assert_no_torn_interleaving(&received);
    assert!(
        complete < requests,
        "all {requests} replies flushed — the stall never happened \
         (got {complete} complete, {partial} partial bytes, sent_all={sent_all})"
    );
    let report = server.stop();
    assert_eq!(report.timed_out, 1, "the cut is counted");
    std::fs::remove_dir_all(&dir).ok();
}

/// Tentpole: a client that pipelines requests faster than it reads replies
/// trips the outbound byte budget — the reactor pauses *reading* that
/// connection (never dropping or reordering anything) and resumes once the
/// queue drains. Every reply still arrives, intact and in order.
#[test]
fn backpressure_pauses_reads_and_every_reply_survives() {
    let (dir, server) = bind(
        "backpressure",
        ServeOptions {
            outbound_budget: 64 * 1024,
            ..Default::default()
        },
    );
    let addr = server.addr();
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let requests = 32usize;
    let payload_len = 512 * 1024usize;

    let writer = {
        let mut half = stream.try_clone().unwrap();
        std::thread::spawn(move || {
            for i in 0..requests {
                let frame = oociso_serve::protocol::encode_frame(&Message::Ping {
                    payload: vec![i as u8; payload_len],
                });
                half.write_all(&frame).unwrap();
            }
        })
    };
    // let the writer run ahead so replies pile into the outbound queue
    // beyond the 64 KiB budget before any are drained
    std::thread::sleep(Duration::from_millis(300));

    let mut reader = stream;
    reader
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    for i in 0..requests {
        match read_frame(&mut reader).unwrap() {
            Some(FrameIn::Ok {
                msg: Message::Pong { payload },
                ..
            }) => {
                assert_eq!(payload.len(), payload_len, "reply {i}");
                assert!(
                    payload.iter().all(|&b| b == i as u8),
                    "reply {i} out of order or corrupted"
                );
            }
            other => panic!("reply {i}: expected a pong, got {other:?}"),
        }
    }
    writer.join().unwrap();

    let metrics = server.metrics();
    let pauses: u64 = metrics
        .lines()
        .find(|l| l.starts_with("reactor_backpressure_pauses_total"))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("pause counter missing from metrics:\n{metrics}"));
    assert!(pauses >= 1, "the budget was never hit (pauses = {pauses})");
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// Tentpole acceptance: 512 concurrent pipelining connections, every reply
/// correct and in order — and with all 512 still connected, warm-cache
/// latency keeps p99 under 25 ms (no tick quantization: the event loop
/// reacts to request arrival, not to a poll interval).
#[test]
fn storm_512_pipelining_connections_warm_p99_under_25ms() {
    let iso = 120.0f32;
    let (dir, server) = bind("storm512", ServeOptions::default());
    let addr = server.addr();
    Client::connect(addr)
        .unwrap()
        .query_mesh(iso, None)
        .unwrap();

    let conns = 512usize;
    let mut clients: Vec<Client> = (0..conns)
        .map(|_| {
            Client::connect_with(
                addr,
                ClientOptions {
                    request_timeout: Some(Duration::from_secs(60)),
                    ..Default::default()
                },
            )
            .unwrap()
        })
        .collect();

    // phase 1: every connection pipelines a mixed batch concurrently
    std::thread::scope(|scope| {
        for chunk in clients.chunks_mut(64) {
            scope.spawn(move || {
                for (i, client) in chunk.iter_mut().enumerate() {
                    let batch = vec![
                        Message::Ping {
                            payload: vec![i as u8; 256],
                        },
                        Message::MeshRequest {
                            iso,
                            region: None,
                            lod: 0,
                            backend: None,
                            trace_id: 1 + i as u64,
                        },
                        Message::StatsRequest,
                    ];
                    let replies = client.pipeline(&batch).unwrap();
                    match &replies[0] {
                        Message::Pong { payload } => {
                            assert!(payload.iter().all(|&b| b == i as u8))
                        }
                        other => panic!("slot 0: {other:?}"),
                    }
                    match &replies[1] {
                        Message::MeshResponse {
                            cache_hit,
                            trace_id,
                            ..
                        } => {
                            assert!(*cache_hit, "storm runs warm");
                            assert_eq!(*trace_id, 1 + i as u64);
                        }
                        other => panic!("slot 1: {other:?}"),
                    }
                    assert!(matches!(&replies[2], Message::StatsResponse(_)));
                }
            });
        }
    });

    // phase 2: with all 512 connections still open, warm-hit latency —
    // one timed request per connection, p99 must clear the old 25 ms
    // tick floor with room to spare
    let mesh_req = [Message::MeshRequest {
        iso,
        region: None,
        lod: 0,
        backend: None,
        trace_id: 0,
    }];
    let mut lat: Vec<Duration> = clients
        .iter_mut()
        .map(|c| {
            let t0 = Instant::now();
            c.pipeline_raw(&mesh_req).unwrap();
            t0.elapsed()
        })
        .collect();
    lat.sort();
    let p99 = lat[(conns * 99) / 100 - 1];
    assert!(
        p99 < Duration::from_millis(25),
        "warm-cache p99 {p99:?} across {conns} live connections — \
         quantized or queue-bound"
    );
    drop(clients);
    let report = server.stop();
    assert_eq!(report.timed_out, 0);
    assert_eq!(report.shed, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite pin: a response stream stalled *inside the 16-byte response
/// header* (8 bytes in) trips the client deadline; the retrying client
/// redials and converges on the second connection with a bit-correct
/// reply.
#[test]
fn stall_inside_response_header_retry_converges() {
    let iso = 120.0f32;
    let (dir, server) = bind("hdrstall", ServeOptions::default());
    let mut direct = Client::connect(server.addr()).unwrap();
    let truth = direct.query_mesh(iso, None).unwrap();

    let proxy = ChaosProxy::start(
        server.addr(),
        vec![
            ConnFault::Stall {
                after_bytes: 8, // mid-header: client holds a torn prefix
                pause: Duration::from_millis(700),
            },
            ConnFault::Clean,
        ],
    )
    .unwrap();
    let mut client = Client::connect_with(
        proxy.addr(),
        ClientOptions {
            request_timeout: Some(Duration::from_millis(150)),
            retries: 3,
            backoff: Duration::from_millis(10),
            ..Default::default()
        },
    )
    .unwrap();
    let reply = client.query_mesh(iso, None).unwrap();
    assert_eq!(
        reply.mesh.positions().len(),
        truth.mesh.positions().len(),
        "converged reply must be the real mesh"
    );
    assert_eq!(reply.mesh.indices(), truth.mesh.indices());
    assert_eq!(proxy.connections(), 2, "torn attempt + converging redial");
    proxy.stop();
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// A hit's reply holds its cached level, not a copy of it: with 48 `lod 0`
/// replies queued behind a client that does not read (its receive buffer
/// clamped, the outbound queue over budget), another isovalue's miss evicts
/// that level from a cache too small for both. The queued replies still
/// read back byte-identical to the original level's owned encode, in
/// order, and the server keeps serving — the level comes back as a miss.
#[test]
fn queued_hit_outlives_its_eviction_byte_identical() {
    let (iso_a, iso_b) = (120.0f32, 100.0f32);
    let dir = tmpdir("evict_queued");
    let vol: Volume<u8> = SphereField::centered(0.32, 128.0).sample(Dims3::cube(64));
    let served = ClusterDatabase::preprocess(&vol, &dir, &PreprocessOptions::default()).unwrap();
    // a budget that holds either level alone but not both
    let bytes = |iso: f32| {
        let m = served.extract(iso).unwrap().mesh;
        (std::mem::size_of_val(m.positions()) + std::mem::size_of_val(m.indices())) as u64
    };
    let (a, b) = (bytes(iso_a), bytes(iso_b));
    let server = IsoServer::bind(
        served,
        ("127.0.0.1", 0),
        ServeOptions {
            cache_bytes: a.max(b) + a.min(b) / 2,
            outbound_budget: 64 * 1024,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let mut other = Client::connect(addr).unwrap();
    let level = other.query_mesh(iso_a, None).unwrap();
    assert!(!level.cache_hit);

    // pipeline the hits in one write and read nothing
    let requests = 48u64;
    let mut stalled = TcpStream::connect(addr).unwrap();
    clamp_rcvbuf(&stalled, 32 * 1024);
    let mut burst = Vec::new();
    for id in 1..=requests {
        burst.extend(oociso_serve::protocol::encode_frame(
            &Message::MeshRequest {
                iso: iso_a,
                region: None,
                lod: 0,
                backend: None,
                trace_id: id,
            },
        ));
    }
    stalled.write_all(&burst).unwrap();
    let t0 = Instant::now();
    while server.report().mesh_requests < 1 + requests
        || metric(&server, "outbound_queue_bytes") == 0
    {
        assert!(t0.elapsed() < Duration::from_secs(10), "hits never queued");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        server.report().cache_hits,
        requests,
        "every queued reply a hit"
    );

    // another isovalue's miss evicts the level while its replies wait
    assert!(!other.query_mesh(iso_b, None).unwrap().cache_hit);
    assert!(
        server.report().cache_evictions >= 1,
        "the level was evicted"
    );
    assert!(
        metric(&server, "outbound_queue_bytes") > 0,
        "the replies drained before the eviction: nothing was tested"
    );

    stalled
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    for id in 1..=requests {
        let want = encode_mesh_response_frame(
            true,
            level.active_metacells,
            0,
            false,
            0,
            id,
            &level.mesh,
            VERSION,
        );
        let mut got = vec![0u8; want.len()];
        stalled.read_exact(&mut got).unwrap();
        assert!(
            got == want,
            "queued reply {id} differs from the level's encode"
        );
    }
    // the server keeps serving: the evicted level is a miss again, the
    // same mesh, and the stalled connection is still usable
    let again = other.query_mesh(iso_a, None).unwrap();
    assert!(!again.cache_hit, "the level was not evicted");
    assert_eq!(again.mesh, level.mesh);
    write_frame(&mut stalled, &Message::Ping { payload: vec![1] }).unwrap();
    assert!(matches!(
        read_frame(&mut stalled).unwrap(),
        Some(FrameIn::Ok {
            msg: Message::Pong { .. }
        })
    ));
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// The reactor names the two phases after `encode`: `out_queue` (reply
/// posted → first byte written) and `socket_write` (first byte → last byte
/// in the kernel). A traced hit's `socket_write` and `encode` both count
/// the whole frame's bytes.
#[test]
fn traced_hit_names_out_queue_and_socket_write() {
    let (dir, server) = bind("phases", ServeOptions::default());
    let mut client = Client::connect(server.addr()).unwrap();
    client.query_mesh(120.0, None).unwrap();
    let hit = client.query_mesh_traced(120.0, None, 0, 0x5EED).unwrap();
    assert!(hit.cache_hit);
    let frame_len = encode_mesh_response_frame(
        true,
        hit.active_metacells,
        0,
        false,
        0,
        0x5EED,
        &hit.mesh,
        VERSION,
    )
    .len() as u64;
    let trace = client.trace(0x5EED).unwrap();
    assert!(trace.found);
    let root = trace
        .events
        .iter()
        .find(|e| e.name == "request")
        .expect("request root");
    let phase = |name: &str| {
        let e = trace
            .events
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("no `{name}` span"));
        assert_eq!(e.parent, root.id, "`{name}` hangs off the request root");
        e
    };
    let field = |e: &TraceEvent, key: &str| {
        e.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("`{}` has no `{key}`", e.name))
    };
    let write = phase("socket_write");
    assert_eq!(field(write, "bytes"), frame_len);
    assert!(field(write, "writes") >= 1);
    assert_eq!(field(phase("encode"), "bytes"), frame_len);
    let queued = phase("out_queue");
    assert!(queued.start_us + queued.dur_us <= write.start_us + 1);
    assert!(write.start_us + write.dur_us <= root.start_us + root.dur_us + 1);
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// Read `stream` until the server closes it (EOF or reset), returning how
/// long that took; fails if it stays open for `limit`.
fn wait_for_close(stream: &mut TcpStream, limit: Duration) -> Duration {
    let t0 = Instant::now();
    stream.set_read_timeout(Some(limit)).unwrap();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return t0.elapsed(),
            Ok(_) => assert!(t0.elapsed() < limit, "still open after {limit:?}"),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                panic!("still open after {limit:?}")
            }
            Err(_) => return t0.elapsed(), // a reset closes it too
        }
    }
}

/// A connection that goes quiet between requests for the idle timeout is
/// closed, and the close counts as a timeout.
#[test]
fn idle_connection_is_closed_and_counted() {
    let (dir, server) = bind(
        "idle",
        ServeOptions {
            idle_timeout: Some(Duration::from_millis(150)),
            ..Default::default()
        },
    );
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    write_frame(
        &mut stream,
        &Message::Ping {
            payload: vec![7; 16],
        },
    )
    .unwrap();
    match read_frame(&mut stream).unwrap().unwrap() {
        FrameIn::Ok {
            msg: Message::Pong { payload },
        } => assert_eq!(payload, vec![7; 16]),
        other => panic!("expected a pong, got {other:?}"),
    }
    let waited = wait_for_close(&mut stream, Duration::from_secs(10));
    assert!(
        waited >= Duration::from_millis(100),
        "closed after {waited:?}"
    );
    assert_eq!(server.report().timed_out, 1);
    // the server keeps serving
    Client::connect(server.addr()).unwrap().ping(16).unwrap();
    assert_eq!(server.stop().timed_out, 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// An over-cap peer that never sends its first frame is closed once the
/// read timeout runs out (it caps the shed deadline), without counting a
/// timeout or a shed, and the admitted client is served throughout.
#[test]
fn silent_over_cap_peer_is_closed_within_the_cap() {
    let (dir, server) = bind(
        "silent_shed",
        ServeOptions {
            max_connections: Some(1),
            read_timeout: Some(Duration::from_millis(200)),
            ..Default::default()
        },
    );
    let mut admitted = Client::connect(server.addr()).unwrap();
    // once this completes the admitted connection is live: the cap is full
    admitted.ping(16).unwrap();
    let mut silent = TcpStream::connect(server.addr()).unwrap();
    let waited = wait_for_close(&mut silent, Duration::from_secs(10));
    assert!(
        waited < Duration::from_millis(1500),
        "closed after {waited:?}: the 200 ms read timeout should cap it"
    );
    admitted.ping(16).unwrap();
    let report = server.stop();
    assert_eq!(report.timed_out, 0, "an uncounted close");
    assert_eq!(report.shed, 0, "no frame was presented to shed");
    std::fs::remove_dir_all(&dir).ok();
}

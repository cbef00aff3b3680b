//! Chaos suite: the serving layer under overload, disk faults, flaky
//! transport, and shutdown-under-load.
//!
//! The invariant every test here enforces is the strong one: a client may
//! see a bit-correct result or an honest structured `ERR_BUSY` with a retry
//! hint — but never a wrong mesh, and never a wedged server. Fault schedules are seeded
//! (`FaultPlan`) or scripted per connection (`ChaosProxy`), so every
//! failure either reproduces deterministically or is asserted through
//! counters that reconcile exactly with what the clients observed.

mod common;

use common::tmpdir;
use oociso::core::{ClusterDatabase, PreprocessOptions};
use oociso::exio::{
    BlockDevice, DiskFarm, FaultPlan, FaultyDevice, IoStats, MemDevice, RecordStore,
    ThrottledDevice,
};
use oociso::march::IndexedMesh;
use oociso::render::{rasterize_mesh, Camera, Framebuffer};
use oociso::serve::protocol::{
    self, encode_frame, read_frame_limited, FrameIn, ERR_INTERNAL, MAX_REQUEST_PAYLOAD,
};
use oociso::serve::{
    ChaosProxy, Client, ClientOptions, ConnFault, FrameParams, FrameReply, IsoServer, MeshReply,
    Message, ServeOptions, ServerError, ERR_BUSY,
};
use oociso::volume::field::{FieldExt, SphereField};
use oociso::volume::{Dims3, Volume};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn test_volume() -> Volume<u8> {
    SphereField::centered(0.32, 128.0).sample(Dims3::cube(29))
}

/// Which event-loop layout a scenario's server runs. Every server-side
/// fault scenario in this suite runs under both layouts with the *same*
/// assertions: a single event loop that owns every connection, and the
/// default two loops that share one listener (the `_reactor` tests).
/// Overload and fault semantics must not depend on how connections are
/// spread across loops.
#[derive(Clone, Copy, Debug)]
enum Loops {
    One,
    Two,
}

impl Loops {
    fn options(self, opts: ServeOptions) -> ServeOptions {
        ServeOptions {
            reactor_threads: match self {
                Loops::One => 1,
                Loops::Two => 2,
            },
            ..opts
        }
    }

    fn suffix(self) -> &'static str {
        match self {
            Loops::One => "oneloop",
            Loops::Two => "twoloops",
        }
    }
}

/// A 1-node database on disk plus an independent direct-access handle on
/// the same directory for ground truth.
fn build_db(name: &str) -> (PathBuf, ClusterDatabase<u8>, ClusterDatabase<u8>) {
    let dir = tmpdir(name);
    let vol = test_volume();
    let served = ClusterDatabase::preprocess(&vol, &dir, &PreprocessOptions::default()).unwrap();
    let direct = ClusterDatabase::<u8>::open(&dir, false).unwrap();
    (dir, served, direct)
}

/// Swap the served database's single store for a throttled in-memory copy
/// (byte-identical data), so one extraction takes a few hundred ms — long
/// enough that tests can overlap events with it deterministically.
fn throttle_db(dir: &Path, db: &mut ClusterDatabase<u8>, bytes_per_sec_factor: f64) {
    let bricks = std::fs::read(DiskFarm::new(dir, 1).store_path(0)).unwrap();
    let rate = bricks.len() as f64 * bytes_per_sec_factor;
    db.replace_store(
        0,
        RecordStore::from_device(Box::new(ThrottledDevice::new(
            MemDevice::new(bricks),
            Duration::from_micros(200),
            rate,
        ))),
    );
}

fn assert_same_mesh(a: &IndexedMesh, b: &IndexedMesh, ctx: &str) {
    assert_eq!(
        a.positions().len(),
        b.positions().len(),
        "{ctx}: vertex count"
    );
    for (i, (x, y)) in a.positions().iter().zip(b.positions()).enumerate() {
        assert_eq!(x.x.to_bits(), y.x.to_bits(), "{ctx}: vertex {i}.x");
        assert_eq!(x.y.to_bits(), y.y.to_bits(), "{ctx}: vertex {i}.y");
        assert_eq!(x.z.to_bits(), y.z.to_bits(), "{ctx}: vertex {i}.z");
    }
    assert_eq!(a.indices(), b.indices(), "{ctx}: indices");
}

/// The acceptance storm: 16 clients against 2 extraction slots. Every
/// reply must be a bit-correct mesh or an honest `ERR_BUSY` carrying a
/// retry hint — and the server's shed counter must reconcile exactly with
/// the busy replies the clients counted.
fn storm_with_two_slots_scenario(loops: Loops) {
    let (dir, served, direct) = build_db(&format!("chaos_storm_{}", loops.suffix()));
    let server = IsoServer::bind(
        served,
        ("127.0.0.1", 0),
        loops.options(ServeOptions {
            extraction_slots: Some(2),
            ..Default::default()
        }),
    )
    .unwrap();
    let addr = server.addr();
    let isovalues = [90.0f32, 105.0, 120.0, 150.0];
    let truth: Vec<IndexedMesh> = isovalues
        .iter()
        .map(|&iso| direct.extract(iso).unwrap().mesh)
        .collect();

    let ok = AtomicU64::new(0);
    let busy = AtomicU64::new(0);
    let threads = 16;
    let per_thread = 3;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let (ok, busy, truth) = (&ok, &busy, &truth);
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..per_thread {
                    let which = (t + i) % isovalues.len();
                    match client.query_mesh(isovalues[which], None) {
                        Ok(reply) => {
                            assert!(!reply.degraded, "a reply is never degraded");
                            assert_same_mesh(&reply.mesh, &truth[which], "storm");
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            let se = ServerError::from_io(&e)
                                .unwrap_or_else(|| panic!("unstructured failure: {e}"));
                            assert_eq!(se.code, ERR_BUSY, "{}", se.detail);
                            let hint = se.retry_after_ms.expect("busy carries a retry hint");
                            assert!((25..=10_000).contains(&hint), "hint {hint} ms");
                            busy.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let (ok, busy) = (ok.load(Ordering::Relaxed), busy.load(Ordering::Relaxed));
    assert_eq!(
        ok + busy,
        (threads * per_thread) as u64,
        "every request answered"
    );
    assert!(ok > 0, "some requests must get through 2 slots");
    let report = server.stop();
    assert_eq!(
        report.shed, busy,
        "server sheds reconcile with client busys"
    );
    assert_eq!(report.requests, (threads * per_thread) as u64);
    assert_eq!(report.timed_out, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn storm_with_two_slots_never_serves_a_wrong_mesh() {
    storm_with_two_slots_scenario(Loops::One);
}

#[test]
fn storm_with_two_slots_never_serves_a_wrong_mesh_reactor() {
    storm_with_two_slots_scenario(Loops::Two);
}

/// `extraction_slots: Some(0)` sheds every miss deterministically — the
/// read-only-replica configuration, and the exact-count anchor for the
/// shed counter and the retry hint's clamp window (which the cold-start
/// hint, EWMA with zero samples, must sit at the floor of).
fn zero_slots_scenario(loops: Loops) {
    let (dir, served, _direct) = build_db(&format!("chaos_zeroslots_{}", loops.suffix()));
    let server = IsoServer::bind(
        served,
        ("127.0.0.1", 0),
        loops.options(ServeOptions {
            extraction_slots: Some(0),
            ..Default::default()
        }),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for attempt in 0..3 {
        let e = client
            .query_mesh(120.0, None)
            .expect_err("no slots: must shed");
        let se = ServerError::from_io(&e).expect("structured busy");
        assert_eq!(se.code, ERR_BUSY, "attempt {attempt}: {}", se.detail);
        assert!(se.detail.contains("retry in"), "{}", se.detail);
        let hint = se.retry_after_ms.expect("hint present");
        assert!((25..=10_000).contains(&hint));
    }
    // the connection survived three sheds, and non-extraction work still runs
    client.ping(64).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.shed, 3);
    assert_eq!(stats.degraded, 0);
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn zero_slots_shed_every_miss_with_retry_hint() {
    zero_slots_scenario(Loops::One);
}

#[test]
fn zero_slots_shed_every_miss_with_retry_hint_reactor() {
    zero_slots_scenario(Loops::Two);
}

/// A coarser view now: a miss that cannot win the (single, occupied)
/// extraction slot is shed with `ERR_BUSY`, and the client that pipelined
/// `lod + 1` behind it gets the cached coarser level as a plain hit —
/// unflagged, at the level it asked for, bit-identical to what that level
/// serves normally.
fn degraded_fallback_scenario(loops: Loops) {
    let (dir, mut served, direct) = build_db(&format!("chaos_busy_coarser_{}", loops.suffix()));
    // slow extraction (~0.5 s) so another request reliably arrives while
    // the only slot is held
    throttle_db(&dir, &mut served, 1.0);
    // budget one byte under the full-resolution mesh: level 0 passes
    // through uncached while the coarse pyramid levels stay resident
    let full = direct.extract(120.0).unwrap().mesh;
    let full_bytes =
        (std::mem::size_of_val(full.positions()) + std::mem::size_of_val(full.indices())) as u64;
    let server = IsoServer::bind(
        served,
        ("127.0.0.1", 0),
        loops.options(ServeOptions {
            cache_bytes: full_bytes - 1,
            lod_ratios: vec![0.25, 0.06],
            extraction_slots: Some(1),
            ..Default::default()
        }),
    )
    .unwrap();
    let addr = server.addr();

    // warm: build the 120.0 pyramid (slow), then snapshot what lod 1
    // serves normally (a cache hit — needs no slot)
    let mut client = Client::connect(addr).unwrap();
    let reply = client.query_mesh(120.0, None).unwrap();
    assert!(!reply.degraded);
    assert_same_mesh(&reply.mesh, &full, "warm");
    let lod1 = client.query_mesh_lod(120.0, None, 1).unwrap();
    assert!(lod1.cache_hit, "coarse levels are resident");
    assert!(!lod1.mesh.is_empty());

    let at = |lod| Message::MeshRequest {
        iso: 120.0,
        region: None,
        lod,
        backend: None,
        trace_id: 0,
    };
    std::thread::scope(|scope| {
        // occupy the only slot with a slow extraction of another isovalue
        let slot_holder = scope.spawn(move || {
            let mut b = Client::connect(addr).unwrap();
            b.query_mesh(90.0, None).unwrap()
        });
        std::thread::sleep(Duration::from_millis(100));
        // full resolution of 120.0 misses (uncached) and can't extract:
        // shed with a hint; the pipelined lod 1 is a plain cache hit
        let replies = client.pipeline(&[at(0), at(1)]).unwrap();
        match &replies[0] {
            Message::Error {
                code,
                retry_after_ms,
                ..
            } => {
                assert_eq!(*code, ERR_BUSY);
                assert!(retry_after_ms.is_some_and(|h| (25..=10_000).contains(&h)));
            }
            other => panic!("lod 0 must be shed, got {other:?}"),
        }
        match &replies[1] {
            Message::MeshResponse {
                cache_hit,
                served_lod,
                degraded,
                mesh,
                ..
            } => {
                assert!(*cache_hit);
                assert!(!*degraded, "a hit is never flagged");
                assert_eq!(*served_lod, 1, "the level asked for");
                assert_same_mesh(mesh, &lod1.mesh, "pipelined lod 1");
            }
            other => panic!("lod 1 must be a cache hit, got {other:?}"),
        }
        let held = slot_holder.join().unwrap();
        assert!(!held.degraded, "the slot holder extracted normally");
    });
    let report = server.stop();
    assert_eq!(report.shed, 1, "the busy lod 0 was shed");
    assert_eq!(report.degraded, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn degraded_fallback_serves_flagged_cached_coarser_lod() {
    degraded_fallback_scenario(Loops::One);
}

#[test]
fn degraded_fallback_serves_flagged_cached_coarser_lod_reactor() {
    degraded_fallback_scenario(Loops::Two);
}

/// The connection cap: an over-cap connection gets one structured
/// `ERR_BUSY` and a close — never a silent drop — and the capped server
/// keeps serving its admitted client.
fn connection_cap_scenario(loops: Loops) {
    let (dir, served, _direct) = build_db(&format!("chaos_conncap_{}", loops.suffix()));
    let server = IsoServer::bind(
        served,
        ("127.0.0.1", 0),
        loops.options(ServeOptions {
            max_connections: Some(1),
            ..Default::default()
        }),
    )
    .unwrap();
    let addr = server.addr();
    let mut admitted = Client::connect(addr).unwrap();
    // once this completes, the admitted connection's handler is live and
    // the cap is provably full
    admitted.query_mesh(120.0, None).unwrap();

    let mut overflow = Client::connect(addr).unwrap();
    let e = overflow.query_mesh(120.0, None).expect_err("over the cap");
    let se = ServerError::from_io(&e).expect("structured busy, not a silent drop");
    assert_eq!(se.code, ERR_BUSY, "{}", se.detail);
    assert!(se.detail.contains("connection limit"), "{}", se.detail);
    assert!(se.retry_after_ms.is_some());

    // the admitted client is unaffected (and now hits the cache)
    let again = admitted.query_mesh(120.0, None).unwrap();
    assert!(again.cache_hit);
    let stats = admitted.stats().unwrap();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.active_connections, 1);
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn connection_cap_sheds_overflow_with_busy() {
    connection_cap_scenario(Loops::One);
}

#[test]
fn connection_cap_sheds_overflow_with_busy_reactor() {
    connection_cap_scenario(Loops::Two);
}

/// A disk fault mid-extraction surfaces as a structured `ERR_INTERNAL` —
/// and the server stays healthy: the connection survives, the extraction
/// slot is released, and the same query succeeds once the disk heals.
fn disk_fault_scenario(loops: Loops) {
    let (dir, mut served, direct) = build_db(&format!("chaos_diskfault_{}", loops.suffix()));
    let bricks = std::fs::read(DiskFarm::new(&dir, 1).store_path(0)).unwrap();
    served.replace_store(
        0,
        RecordStore::from_device(Box::new(FaultyDevice::new(
            MemDevice::new(bricks),
            FaultPlan::fail_first(1),
        ))),
    );
    let server = IsoServer::bind(
        served,
        ("127.0.0.1", 0),
        loops.options(ServeOptions {
            // a single slot proves the failed extraction released it
            extraction_slots: Some(1),
            ..Default::default()
        }),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let e = client.query_mesh(120.0, None).expect_err("read #0 fails");
    let se = ServerError::from_io(&e).expect("structured error");
    assert_eq!(se.code, ERR_INTERNAL, "{}", se.detail);
    assert!(se.detail.contains("injected fault"), "{}", se.detail);

    // same connection, same query: the disk healed, the slot is free
    let reply = client.query_mesh(120.0, None).unwrap();
    assert_same_mesh(&reply.mesh, &direct.extract(120.0).unwrap().mesh, "healed");
    let stats = client.stats().unwrap();
    assert_eq!(stats.errors, 1);
    assert_eq!(stats.shed, 0, "a fault is not overload");
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_disk_fault_surfaces_as_err_internal_and_server_heals() {
    disk_fault_scenario(Loops::One);
}

#[test]
fn injected_disk_fault_surfaces_as_err_internal_and_server_heals_reactor() {
    disk_fault_scenario(Loops::Two);
}

/// Drain under load: every request accepted before the drain started gets
/// its full, bit-correct reply — zero are dropped, shed, or timed out —
/// and the listener is gone afterwards.
fn drain_under_load_scenario(loops: Loops) {
    let (dir, mut served, direct) = build_db(&format!("chaos_drain_{}", loops.suffix()));
    // ~0.5 s per extraction: all six requests are still in flight when
    // the drain begins
    throttle_db(&dir, &mut served, 1.0);
    let server = IsoServer::bind(
        served,
        ("127.0.0.1", 0),
        loops.options(ServeOptions::default()),
    )
    .unwrap();
    let addr = server.addr();
    let isovalues = [80.0f32, 90.0, 100.0, 110.0, 120.0, 130.0];

    std::thread::scope(|scope| {
        let handles: Vec<_> = isovalues
            .iter()
            .map(|&iso| {
                scope.spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    (iso, c.query_mesh(iso, None).unwrap())
                })
            })
            .collect();
        // all six are in flight; drain must finish them, not cut them off
        std::thread::sleep(Duration::from_millis(150));
        let report = server.drain(Duration::from_secs(30));
        assert_eq!(report.requests, isovalues.len() as u64, "none lost");
        assert_eq!(report.timed_out, 0);
        assert_eq!(report.shed, 0);
        assert_eq!(
            report.active_connections, 0,
            "drain waited for every handler"
        );
        for h in handles {
            let (iso, reply) = h.join().expect("accepted request must complete");
            assert_same_mesh(&reply.mesh, &direct.extract(iso).unwrap().mesh, "drained");
        }
    });
    // the drained server is gone: a new client cannot get service
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut late) => assert!(late.query_mesh(80.0, None).is_err(), "listener closed"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn drain_under_load_completes_all_accepted_requests() {
    drain_under_load_scenario(Loops::One);
}

#[test]
fn drain_under_load_completes_all_accepted_requests_reactor() {
    drain_under_load_scenario(Loops::Two);
}

/// The retrying client converges through a scripted flaky transport: a
/// mid-frame truncation, then a refused connection, then a clean one —
/// one `query_mesh` call, a bit-correct result, exactly three connections.
fn retrying_client_scenario(loops: Loops) {
    let (dir, served, direct) = build_db(&format!("chaos_retry_{}", loops.suffix()));
    let server = IsoServer::bind(
        served,
        ("127.0.0.1", 0),
        loops.options(ServeOptions::default()),
    )
    .unwrap();
    // warm the cache through a direct connection so proxied attempts are fast
    let truth = direct.extract(120.0).unwrap().mesh;
    Client::connect(server.addr())
        .unwrap()
        .query_mesh(120.0, None)
        .unwrap();

    // connection 1: response cut mid-frame; connection 2: dropped on
    // accept; connection 3: clean
    let proxy = ChaosProxy::start(
        server.addr(),
        vec![
            ConnFault::TruncateResponse { after_bytes: 40 },
            ConnFault::Refuse,
            ConnFault::Clean,
        ],
    )
    .unwrap();
    let mut client = Client::connect_with(
        proxy.addr(),
        ClientOptions {
            retries: 4,
            backoff: Duration::from_millis(10),
            ..Default::default()
        },
    )
    .unwrap();
    let reply = client.query_mesh(120.0, None).unwrap();
    assert!(!reply.degraded);
    assert_same_mesh(&reply.mesh, &truth, "through the flaky transport");
    assert_eq!(
        proxy.connections(),
        3,
        "exactly: torn attempt, refused redial, converging redial"
    );
    proxy.stop();
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retrying_client_converges_through_flaky_transport() {
    retrying_client_scenario(Loops::One);
}

#[test]
fn retrying_client_converges_through_flaky_transport_reactor() {
    retrying_client_scenario(Loops::Two);
}

/// `ERR_BUSY` replies drive the client's backoff (honoring the server's
/// hint) until a later attempt succeeds — pinned against a scripted
/// protocol endpoint so the reply schedule is exact: busy, busy, serve.
#[test]
fn busy_replies_back_off_and_then_succeed() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let served_after = 2u32; // busy replies before the real one
    let handle = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut replies = 0u32;
        while let Ok(Some(frame)) = read_frame_limited(&mut stream, MAX_REQUEST_PAYLOAD) {
            let FrameIn::Ok { .. } = frame else {
                panic!("client sent a malformed frame")
            };
            let msg = if replies < served_after {
                Message::Error {
                    code: protocol::ERR_BUSY,
                    detail: "scripted busy".into(),
                    retry_after_ms: Some(60),
                }
            } else {
                Message::MeshResponse {
                    cache_hit: true,
                    active_metacells: 7,
                    served_lod: 0,
                    degraded: false,
                    backend: 0,
                    trace_id: 0,
                    mesh: IndexedMesh::new(),
                }
            };
            use std::io::Write;
            stream.write_all(&encode_frame(&msg)).unwrap();
            replies += 1;
            if replies > served_after {
                break;
            }
        }
        replies
    });

    let mut client = Client::connect_with(
        addr,
        ClientOptions {
            retries: 3,
            backoff: Duration::from_millis(5),
            ..Default::default()
        },
    )
    .unwrap();
    let t0 = Instant::now();
    let reply = client.query_mesh(42.0, None).unwrap();
    let elapsed = t0.elapsed();
    assert_eq!(reply.active_metacells, 7);
    assert!(reply.mesh.is_empty());
    assert_eq!(handle.join().unwrap(), 3, "busy, busy, served");
    // each of the two backoffs is jittered into [hint/2, hint) = [30, 60) ms
    assert!(
        elapsed >= Duration::from_millis(60),
        "the 60 ms hint was honored twice, got {elapsed:?}"
    );
}

/// A server that never replies trips the client's per-request deadline as
/// a clean `TimedOut` — not a hang.
#[test]
fn request_deadline_surfaces_as_timed_out() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        // swallow everything, answer nothing
        let mut sink = Vec::new();
        use std::io::Read;
        let _ = stream.read_to_end(&mut sink);
    });
    let mut client = Client::connect_with(
        addr,
        ClientOptions {
            request_timeout: Some(Duration::from_millis(150)),
            retries: 0,
            ..Default::default()
        },
    )
    .unwrap();
    let t0 = Instant::now();
    let e = client
        .query_mesh(1.0, None)
        .expect_err("no reply is coming");
    assert_eq!(e.kind(), std::io::ErrorKind::TimedOut, "{e}");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "deadline, not a hang"
    );
    drop(client);
    handle.join().unwrap();
}

/// Slowloris defense: a peer that starts a frame and stalls is cut off by
/// the read deadline (counted `timed_out`), and the server keeps serving
/// well-behaved clients.
fn slowloris_scenario(loops: Loops) {
    let (dir, served, _direct) = build_db(&format!("chaos_slowloris_{}", loops.suffix()));
    let server = IsoServer::bind(
        served,
        ("127.0.0.1", 0),
        loops.options(ServeOptions {
            read_timeout: Some(Duration::from_millis(100)),
            ..Default::default()
        }),
    )
    .unwrap();
    let addr = server.addr();

    // half a header, then silence
    let mut slow = std::net::TcpStream::connect(addr).unwrap();
    {
        use std::io::{Read, Write};
        slow.write_all(&protocol::MAGIC.to_le_bytes()).unwrap();
        slow.write_all(&protocol::VERSION.to_le_bytes()).unwrap();
        slow.flush().unwrap();
        // the deadline fires and the server hangs up on us
        slow.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(
            slow.read(&mut buf).unwrap(),
            0,
            "server closed the stalled conn"
        );
    }

    // a well-behaved client is unaffected
    let mut client = Client::connect(addr).unwrap();
    client.query_mesh(120.0, None).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.timed_out, 1);
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn slowloris_peer_is_disconnected_and_server_keeps_serving() {
    slowloris_scenario(Loops::One);
}

#[test]
fn slowloris_peer_is_disconnected_and_server_keeps_serving_reactor() {
    slowloris_scenario(Loops::Two);
}

/// Exact-token lookup in a Prometheus text exposition: `name value` lines
/// only, so `speculative_hits_total` never matches a longer sibling.
fn metric_value(exposition: &str, name: &str) -> u64 {
    exposition
        .lines()
        .find_map(|line| {
            let mut it = line.split_whitespace();
            (it.next() == Some(name)).then(|| it.next().unwrap().parse().unwrap())
        })
        .unwrap_or_else(|| panic!("metric {name} missing from exposition"))
}

/// Speculative warming pays for an isovalue scrub: one real miss at `v`
/// warms `v ± δ` on idle slots, so the next scrub stops are cache hits —
/// bit-identical to direct extraction — and the warming added zero sheds
/// and zero degraded serves.
fn warmed_scrub_scenario(loops: Loops) {
    let (dir, served, direct) = build_db(&format!("chaos_warmscrub_{}", loops.suffix()));
    let server = IsoServer::bind(
        served,
        ("127.0.0.1", 0),
        loops.options(ServeOptions {
            warm_delta: Some(10.0),
            extraction_slots: Some(2),
            ..Default::default()
        }),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // the scrub's first stop: a real miss, which schedules 100.0 and 120.0
    let first = client.query_mesh(110.0, None).unwrap();
    assert!(!first.cache_hit);
    assert_same_mesh(
        &first.mesh,
        &direct.extract(110.0).unwrap().mesh,
        "first stop",
    );

    // wait for both warm jobs to land (idle slots, so this is quick)
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let m = client.metrics().unwrap();
        if metric_value(&m, "speculative_completed_total") >= 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "warm jobs for 110±10 never completed:\n{m}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // the neighboring stops are served from the warmed cache, bit-correct
    for iso in [100.0f32, 120.0] {
        let reply = client.query_mesh(iso, None).unwrap();
        assert!(reply.cache_hit, "warmed {iso} must be resident");
        assert!(!reply.degraded);
        assert_same_mesh(
            &reply.mesh,
            &direct.extract(iso).unwrap().mesh,
            &format!("warmed {iso}"),
        );
    }
    let m = client.metrics().unwrap();
    assert!(
        metric_value(&m, "speculative_hits_total") >= 2,
        "both neighbors were speculative entries:\n{m}"
    );
    assert!(metric_value(&m, "speculative_started_total") >= 2);

    let report = server.stop();
    assert_eq!(report.shed, 0, "warming must not cost real traffic a slot");
    assert_eq!(report.degraded, 0);
    assert_eq!(report.errors, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warmed_scrub_hits_speculative_entries_without_shedding() {
    warmed_scrub_scenario(Loops::One);
}

#[test]
fn warmed_scrub_hits_speculative_entries_without_shedding_reactor() {
    warmed_scrub_scenario(Loops::Two);
}

/// The herd's requests: even members ask for `lod 0` as a mesh, odd ones
/// for a frame of the same surface.
const HERD: usize = 8;

fn herd_frame() -> FrameParams {
    FrameParams {
        width: 64,
        height: 64,
        azimuth: 0.7,
        elevation: 0.4,
        distance: 2.5,
        tile_cols: 2,
        tile_rows: 2,
    }
}

/// Fire `HERD` clients at once at isovalue `iso` on `addr`; returns each
/// member's outcome, `Ok` holding a mesh reply and `Err` a frame reply.
fn fire_herd(
    addr: std::net::SocketAddr,
    iso: f32,
) -> Vec<std::io::Result<Result<MeshReply, FrameReply>>> {
    let barrier = Barrier::new(HERD);
    std::thread::scope(|scope| {
        let members: Vec<_> = (0..HERD)
            .map(|i| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let opts = ClientOptions {
                        request_timeout: Some(Duration::from_secs(20)),
                        ..Default::default()
                    };
                    let mut client = Client::connect_with(addr, opts).unwrap();
                    barrier.wait();
                    if i % 2 == 0 {
                        client.query_mesh(iso, None).map(Ok)
                    } else {
                        client.query_frame(iso, herd_frame()).map(Err)
                    }
                })
            })
            .collect();
        members.into_iter().map(|m| m.join().unwrap()).collect()
    })
}

/// The herd's server: 4 workers, unlimited slots.
fn herd_server(served: ClusterDatabase<u8>, loops: Loops) -> IsoServer {
    IsoServer::bind(
        served,
        ("127.0.0.1", 0),
        loops.options(ServeOptions {
            reactor_workers: 4,
            ..Default::default()
        }),
    )
    .unwrap()
}

/// Single flight: a herd of clients on one cold isovalue costs one
/// extraction. Every member waits for the first one's build (or, reaching
/// a worker after it finished, takes the resident levels), and every reply
/// is bit-identical to an in-process extraction.
fn cold_herd_scenario(loops: Loops) {
    let (dir, mut served, direct) = build_db(&format!("chaos_herd_{}", loops.suffix()));
    // ~0.5 s per extraction: the whole herd arrives while the first build runs
    throttle_db(&dir, &mut served, 1.0);
    let server = herd_server(served, loops);
    let iso = 120.0f32;
    let truth = direct.extract(iso).unwrap().mesh;
    let params = herd_frame();
    let mut frame_truth = Framebuffer::new(params.width as usize, params.height as usize);
    let camera = Camera::orbiting(
        &truth.bounds(),
        params.azimuth,
        params.elevation,
        params.distance,
    );
    rasterize_mesh(&truth, &camera, [0.9, 0.78, 0.5], &mut frame_truth);

    for (i, reply) in fire_herd(server.addr(), iso).into_iter().enumerate() {
        match reply.unwrap_or_else(|e| panic!("herd member {i} failed: {e}")) {
            Ok(mesh) => assert_same_mesh(&mesh.mesh, &truth, &format!("herd member {i}")),
            Err(frame) => assert_eq!(frame.framebuffer, frame_truth, "herd member {i}"),
        }
    }
    let m = server.metrics();
    assert_eq!(
        metric_value(&m, "extract_latency_us_count"),
        1,
        "the herd must cost one extraction:\n{m}"
    );
    let report = server.stop();
    assert_eq!((report.errors, report.shed), (0, 0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cold_herd_extracts_once() {
    cold_herd_scenario(Loops::One);
}

#[test]
fn cold_herd_extracts_once_reactor() {
    cold_herd_scenario(Loops::Two);
}

/// A store that fails every read (after a short delay, so the herd
/// overlaps the failing build) until `healed` is set.
struct HealableStore {
    faulty: FaultyDevice<MemDevice>,
    healed: Arc<AtomicBool>,
}

impl BlockDevice for HealableStore {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        if self.healed.load(Ordering::SeqCst) {
            self.faulty.inner().read_at(offset, buf)
        } else {
            self.faulty.read_at(offset, buf)
        }
    }

    fn len(&self) -> u64 {
        self.faulty.len()
    }

    fn stats(&self) -> &IoStats {
        self.faulty.stats()
    }

    fn block_bytes(&self) -> u64 {
        self.faulty.block_bytes()
    }
}

/// The herd's fault twin: a build that fails hands every waiter the
/// structured `ERR_INTERNAL` (none hangs), and the failed flight leaves
/// nothing behind — once the disk heals, the next request extracts fresh.
fn cold_herd_fault_scenario(loops: Loops) {
    let (dir, mut served, direct) = build_db(&format!("chaos_herdfault_{}", loops.suffix()));
    let bricks = std::fs::read(DiskFarm::new(&dir, 1).store_path(0)).unwrap();
    let healed = Arc::new(AtomicBool::new(false));
    served.replace_store(
        0,
        RecordStore::from_device(Box::new(HealableStore {
            faulty: FaultyDevice::new(
                MemDevice::new(bricks),
                FaultPlan {
                    error_rate: 1.0,
                    delay_rate: 1.0,
                    delay: Duration::from_millis(100),
                    ..FaultPlan::default()
                },
            ),
            healed: healed.clone(),
        })),
    );
    let server = herd_server(served, loops);
    let iso = 120.0f32;
    for (i, reply) in fire_herd(server.addr(), iso).into_iter().enumerate() {
        let e = reply.expect_err("every herd member sees the fault");
        let se = ServerError::from_io(&e)
            .unwrap_or_else(|| panic!("herd member {i}: unstructured failure {e}"));
        assert_eq!(se.code, ERR_INTERNAL, "herd member {i}: {}", se.detail);
        assert!(se.detail.contains("injected fault"), "{}", se.detail);
    }

    healed.store(true, Ordering::SeqCst);
    let mut client = Client::connect(server.addr()).unwrap();
    let reply = client.query_mesh(iso, None).unwrap();
    assert!(!reply.cache_hit, "a failed build is never cached");
    assert_same_mesh(&reply.mesh, &direct.extract(iso).unwrap().mesh, "healed");
    let m = client.metrics().unwrap();
    assert_eq!(metric_value(&m, "extract_latency_us_count"), 1, "{m}");
    let report = server.stop();
    assert_eq!(report.errors, HERD as u64);
    assert_eq!(report.shed, 0, "a fault is not overload");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cold_herd_fault_wakes_every_waiter_and_caches_nothing() {
    cold_herd_fault_scenario(Loops::One);
}

#[test]
fn cold_herd_fault_wakes_every_waiter_and_caches_nothing_reactor() {
    cold_herd_fault_scenario(Loops::Two);
}

/// Regression: a busy reply hinting `retry_after_ms: 0` (or carrying no
/// hint at all) must not turn the retry loop into a hot spin — the client
/// clamps the delay to a 25 ms floor. Scripted schedule: busy with a zero
/// hint, busy with no hint, then serve.
#[test]
fn zero_and_absent_busy_hints_are_floored_not_hot_looped() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let script = [Some(0u32), None];
        let mut replies = 0usize;
        while let Ok(Some(frame)) = read_frame_limited(&mut stream, MAX_REQUEST_PAYLOAD) {
            let FrameIn::Ok { .. } = frame else {
                panic!("client sent a malformed frame")
            };
            let msg = match script.get(replies) {
                Some(&hint) => Message::Error {
                    code: protocol::ERR_BUSY,
                    detail: "scripted busy".into(),
                    retry_after_ms: hint,
                },
                None => Message::MeshResponse {
                    cache_hit: true,
                    active_metacells: 7,
                    served_lod: 0,
                    degraded: false,
                    backend: 0,
                    trace_id: 0,
                    mesh: IndexedMesh::new(),
                },
            };
            use std::io::Write;
            stream.write_all(&encode_frame(&msg)).unwrap();
            replies += 1;
            if replies > script.len() {
                break;
            }
        }
        replies
    });

    // zero base backoff: before the floor fix, both waits rounded to ~0 ms
    let mut client = Client::connect_with(
        addr,
        ClientOptions {
            retries: 3,
            backoff: Duration::ZERO,
            ..Default::default()
        },
    )
    .unwrap();
    let t0 = Instant::now();
    let reply = client.query_mesh(42.0, None).unwrap();
    let elapsed = t0.elapsed();
    assert_eq!(reply.active_metacells, 7);
    assert_eq!(handle.join().unwrap(), 3, "busy, busy, served");
    // each floored wait is jittered into [12.5, 25) ms; two of them
    assert!(
        elapsed >= Duration::from_millis(25),
        "the floor must hold even with a 0 ms hint, got {elapsed:?}"
    );
}

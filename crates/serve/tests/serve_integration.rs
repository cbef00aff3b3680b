//! End-to-end serving tests: concurrent clients against one live TCP server
//! must observe responses bit-identical to direct library calls, the result
//! cache must be visibly doing its job, and protocol abuse must produce
//! structured errors without wedging the server.

use oociso_cluster::LodSpec;
use oociso_core::{ClusterDatabase, PreprocessOptions};
use oociso_march::IndexedMesh;
use oociso_serve::protocol::{
    encode_frame_raw, encode_payload, read_frame, read_raw_frame, ERR_BAD_CHECKSUM, ERR_BAD_MAGIC,
    ERR_MALFORMED, ERR_UNSUPPORTED_VERSION, HEADER_BYTES, MAX_PAYLOAD, MSG_FRAME_REQUEST,
    MSG_MESH_REQUEST, MSG_MESH_RESPONSE, MSG_PING, MSG_STATS_REQUEST,
};
use oociso_serve::{
    render_trace_events, Client, FrameParams, IsoServer, Message, Region, ServeOptions,
    ServerError, ERR_BAD_BACKEND, ERR_BAD_LOD, MAGIC, VERSION,
};
use oociso_volume::field::{FieldExt, SphereField};
use oociso_volume::{Dims3, Volume};
use std::collections::HashMap;
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("oociso_serve_{}_{}", std::process::id(), name));
    p
}

fn test_volume() -> Volume<u8> {
    SphereField::centered(0.32, 128.0).sample(Dims3::cube(29))
}

/// A 2-node database + a bound server over it + a second direct-access
/// database on the same directory for ground truth.
fn serve_fixture(name: &str, cache_bytes: u64) -> (PathBuf, IsoServer, ClusterDatabase<u8>) {
    let dir = tmpdir(name);
    let vol = test_volume();
    let opts = PreprocessOptions {
        nodes: 2,
        ..Default::default()
    };
    let served = ClusterDatabase::preprocess(&vol, &dir, &opts).unwrap();
    let direct = ClusterDatabase::<u8>::open(&dir, false).unwrap();
    let server = IsoServer::bind(
        served,
        ("127.0.0.1", 0),
        ServeOptions {
            cache_bytes,
            ..Default::default()
        },
    )
    .unwrap();
    (dir, server, direct)
}

/// Like [`serve_fixture`] but with the 100%/25%/6% LOD pyramid enabled.
fn lod_fixture(name: &str) -> (PathBuf, IsoServer, ClusterDatabase<u8>) {
    let dir = tmpdir(name);
    let vol = test_volume();
    let opts = PreprocessOptions {
        nodes: 2,
        ..Default::default()
    };
    let served = ClusterDatabase::preprocess(&vol, &dir, &opts).unwrap();
    let direct = ClusterDatabase::<u8>::open(&dir, false).unwrap();
    let server = IsoServer::bind(
        served,
        ("127.0.0.1", 0),
        ServeOptions {
            lod_ratios: vec![0.25, 0.06],
            ..Default::default()
        },
    )
    .unwrap();
    (dir, server, direct)
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

#[test]
fn concurrent_clients_get_bit_identical_results_and_cache_hits() {
    let (dir, server, direct) = serve_fixture("concurrent", 256 << 20);
    let addr = server.addr();
    let isovalues = [90.0f32, 120.0, 150.0];

    // ground truth once per isovalue, via direct library calls
    let truth: HashMap<u32, IndexedMesh> = isovalues
        .iter()
        .map(|&iso| (iso.to_bits(), direct.extract(iso).unwrap().mesh))
        .collect();

    // warm pass: one sequential client populates the cache (all misses)
    {
        let mut warm = Client::connect(addr).unwrap();
        for &iso in &isovalues {
            let reply = warm.query_mesh(iso, None).unwrap();
            assert!(!reply.cache_hit, "first query of {iso} cannot hit");
            assert_same_mesh(&reply.mesh, &truth[&iso.to_bits()], "warm");
        }
        let s = warm.stats().unwrap();
        assert_eq!(s.cache_misses, isovalues.len() as u64);
        assert_eq!(s.cache_resident_entries, isovalues.len() as u64);
    }

    // storm pass: N threads × mixed isovalues, all concurrent, all hits
    let threads = 6;
    let per_thread = 4;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let truth = &truth;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for q in 0..per_thread {
                    let iso = isovalues[(t + q) % isovalues.len()];
                    let reply = client.query_mesh(iso, None).unwrap();
                    assert!(reply.cache_hit, "warmed isovalue {iso} must hit");
                    assert!(reply.active_metacells > 0);
                    assert_same_mesh(
                        &reply.mesh,
                        &truth[&iso.to_bits()],
                        &format!("thread {t} query {q} iso {iso}"),
                    );
                }
            });
        }
    });

    let report = server.report();
    assert_eq!(report.connections, 1 + threads as u64);
    assert_eq!(
        report.cache_hits,
        (threads * per_thread) as u64,
        "every storm query must be a cache hit: {report:?}"
    );
    assert_eq!(report.cache_misses, isovalues.len() as u64);
    assert_eq!(
        report.mesh_requests,
        (isovalues.len() + threads * per_thread) as u64
    );
    assert_eq!(report.errors, 0);
    assert!(report.bytes_out > 0);

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn region_and_frame_requests_match_direct_calls() {
    let (dir, server, direct) = serve_fixture("modes", 256 << 20);
    let mut client = Client::connect(server.addr()).unwrap();
    let iso = 120.0f32;
    let full = direct.extract(iso).unwrap().mesh;

    // region-restricted mesh = the same public filter applied locally
    let region = Region {
        lo: [0.0, 0.0, 0.0],
        hi: [14.0, 14.0, 14.0],
    };
    let (lo, hi) = region.corners();
    let expected = full.filter_region(lo, hi);
    let reply = client.query_mesh(iso, Some(region)).unwrap();
    assert!(
        !reply.mesh.is_empty(),
        "test region should catch some surface"
    );
    assert!(
        reply.mesh.len() < full.len(),
        "region should truly restrict"
    );
    assert_same_mesh(&reply.mesh, &expected, "region");

    // frame mode = rasterizing the same mesh locally, pixel for pixel
    let params = FrameParams {
        width: 96,
        height: 96,
        azimuth: 0.7,
        elevation: 0.4,
        distance: 2.5,
        tile_cols: 2,
        tile_rows: 2,
    };
    let frame = client.query_frame(iso, params).unwrap();
    assert!(frame.cache_hit, "mesh query warmed this isovalue");
    let mut local = oociso_render::Framebuffer::new(96, 96);
    let camera = oociso_render::Camera::orbiting(&full.bounds(), 0.7, 0.4, 2.5);
    oociso_render::rasterize_mesh(&full, &camera, [0.9, 0.78, 0.5], &mut local);
    assert_eq!(
        frame.framebuffer, local,
        "remote frame differs from local raster"
    );
    assert_eq!(frame.regions.len(), 4);
    assert!(frame.framebuffer.covered_pixels() > 100);

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_and_wrong_version_requests_get_structured_errors() {
    let (dir, server, _direct) = serve_fixture("abuse", 256 << 20);
    let addr = server.addr();
    // iso, region flag, lod, backend byte, 8-byte trace id: the torn-field
    // cases below cut or extend it
    let good_payload = encode_payload(&Message::MeshRequest {
        iso: 120.0,
        region: None,
        lod: 0,
        backend: None,
        trace_id: 0,
    });

    // future protocol version → ERR_UNSUPPORTED_VERSION, connection survives
    let mut client = Client::connect(addr).unwrap();
    match client
        .roundtrip_raw(
            oociso_serve::MAGIC,
            oociso_serve::VERSION + 7,
            MSG_MESH_REQUEST,
            &good_payload,
            false,
        )
        .unwrap()
    {
        Some(Message::Error { code, detail, .. }) => {
            assert_eq!(code, ERR_UNSUPPORTED_VERSION, "{detail}");
        }
        other => panic!("expected version error, got {other:?}"),
    }
    // ...and a well-formed request on the same connection still works
    let reply = client.query_mesh(120.0, None).unwrap();
    assert!(!reply.mesh.is_empty());

    // corrupted checksum → ERR_BAD_CHECKSUM
    match client
        .roundtrip_raw(
            oociso_serve::MAGIC,
            oociso_serve::VERSION,
            MSG_MESH_REQUEST,
            &good_payload,
            true,
        )
        .unwrap()
    {
        Some(Message::Error { code, .. }) => assert_eq!(code, ERR_BAD_CHECKSUM),
        other => panic!("expected checksum error, got {other:?}"),
    }

    // truncated request body → ERR_MALFORMED
    match client
        .roundtrip_raw(
            oociso_serve::MAGIC,
            oociso_serve::VERSION,
            MSG_MESH_REQUEST,
            &good_payload[..2],
            false,
        )
        .unwrap()
    {
        Some(Message::Error { code, .. }) => assert_eq!(code, ERR_MALFORMED),
        other => panic!("expected malformed error, got {other:?}"),
    }

    // every field is required and nothing may follow the last: a truncated
    // trace id and trailing junk are ERR_MALFORMED, while a well-formed
    // request naming an unserved backend draws the structured
    // ERR_BAD_BACKEND — a torn field is never misread
    let n = good_payload.len();
    let mut junk = good_payload.clone();
    junk.push(0xEE);
    let mut unserved = good_payload.clone();
    unserved[n - 9] = 0xEE; // the backend byte, just before the trace id
    for (torn, want, what) in [
        (
            good_payload[..n - 3].to_vec(),
            ERR_MALFORMED,
            "truncated trace id",
        ),
        (junk, ERR_MALFORMED, "trailing junk"),
        (unserved, ERR_BAD_BACKEND, "unserved backend"),
    ] {
        match client
            .roundtrip_raw(
                oociso_serve::MAGIC,
                oociso_serve::VERSION,
                MSG_MESH_REQUEST,
                &torn,
                false,
            )
            .unwrap()
        {
            Some(Message::Error { code, .. }) => assert_eq!(code, want, "{what}"),
            other => panic!("expected error for torn request, got {other:?}"),
        }
    }

    // a client sending a server-to-server message type → ERR_MALFORMED
    match client
        .roundtrip_raw(
            oociso_serve::MAGIC,
            oociso_serve::VERSION,
            MSG_MESH_RESPONSE,
            &encode_payload(&Message::MeshResponse {
                cache_hit: false,
                active_metacells: 0,
                served_lod: 0,
                degraded: false,
                backend: 0,
                trace_id: 0,
                mesh: IndexedMesh::new(),
            }),
            false,
        )
        .unwrap()
    {
        Some(Message::Error { code, .. }) => assert_eq!(code, ERR_MALFORMED),
        other => panic!("expected malformed error, got {other:?}"),
    }

    // retired tags with well-formed old payloads → ERR_MALFORMED, and the
    // connection still answers a ping after each: 10, the compositing
    // `Region` message (origin, size, RGBA8 pixels, f32 depths); 15, the
    // progressive request (iso, lod, backend byte, trace id); 16, one
    // full-mesh chunk of its reply (flags, level, active count, an empty
    // mesh, trace id)
    let mut old_region = Vec::new();
    for v in [5u64, 9, 2, 1] {
        old_region.extend_from_slice(&v.to_le_bytes());
    }
    old_region.extend_from_slice(&[255, 0, 127, 1, 255, 0, 127, 1]);
    for d in [0.5f32, f32::INFINITY] {
        old_region.extend_from_slice(&d.to_bits().to_le_bytes());
    }
    let mut old_progressive = 120.0f32.to_bits().to_le_bytes().to_vec();
    old_progressive.extend_from_slice(&[0, 0, 0xFF]);
    old_progressive.extend_from_slice(&0u64.to_le_bytes());
    let mut old_chunk = vec![1, 0, 0, 0, 0, 0];
    for v in [7u64, 0, 0, 0] {
        old_chunk.extend_from_slice(&v.to_le_bytes());
    }
    for (tag, payload) in [(10, old_region), (15, old_progressive), (16, old_chunk)] {
        match client
            .roundtrip_raw(
                oociso_serve::MAGIC,
                oociso_serve::VERSION,
                tag,
                &payload,
                false,
            )
            .unwrap()
        {
            Some(Message::Error { code, .. }) => assert_eq!(code, ERR_MALFORMED, "tag {tag}"),
            other => panic!("expected malformed error for tag {tag}, got {other:?}"),
        }
        client.ping(16).unwrap();
    }

    // wrong magic: the server replies (if it can) and hangs up
    let mut bad_magic = Client::connect(addr).unwrap();
    match bad_magic.roundtrip_raw(
        0x0BAD_CAFE,
        oociso_serve::VERSION,
        MSG_MESH_REQUEST,
        &good_payload,
        false,
    ) {
        Ok(Some(Message::Error { code, .. })) => {
            assert_eq!(code, oociso_serve::protocol::ERR_BAD_MAGIC)
        }
        Ok(Some(other)) => panic!("expected error frame, got {other:?}"),
        Ok(None) | Err(_) => {} // hung up before/while replying: acceptable
    }

    // a request claiming a payload over the server's request cap is
    // rejected before any allocation (the header alone cannot commit
    // memory), and that connection is closed
    let mut hostile = Client::connect(addr).unwrap();
    let big = vec![0u8; (oociso_serve::protocol::MAX_REQUEST_PAYLOAD + 1) as usize];
    match hostile.roundtrip_raw(
        oociso_serve::MAGIC,
        oociso_serve::VERSION,
        oociso_serve::protocol::MSG_PING,
        &big,
        false,
    ) {
        Ok(Some(Message::Error { code, detail, .. })) => {
            assert_eq!(code, ERR_MALFORMED, "{detail}");
            assert!(detail.contains("exceeds cap"), "{detail}");
        }
        Ok(Some(other)) => panic!("oversized request accepted: {other:?}"),
        Ok(None) | Err(_) => {} // hung up mid-write: also acceptable
    }

    // a well-formed frame request demanding a multi-gigabyte viewport is
    // refused by the pixel cap
    let mut greedy = Client::connect(addr).unwrap();
    let err = greedy
        .query_frame(
            120.0,
            FrameParams {
                width: 16_384,
                height: 16_384,
                azimuth: 0.0,
                elevation: 0.0,
                distance: 2.0,
                tile_cols: 1,
                tile_rows: 1,
            },
        )
        .unwrap_err();
    assert!(err.to_string().contains("pixel cap"), "{err}");

    // the server is still healthy for new connections after all the abuse
    let mut fresh = Client::connect(addr).unwrap();
    assert!(!fresh.query_mesh(120.0, None).unwrap().mesh.is_empty());
    let s = fresh.stats().unwrap();
    assert!(s.errors >= 4, "abuse must be counted: {s:?}");

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_eviction_under_tiny_budget_still_serves_correct_meshes() {
    // a budget big enough for roughly one mesh: every new isovalue evicts,
    // correctness must be unaffected
    let (dir, server, direct) = serve_fixture("evict", 40 << 10);
    let mut client = Client::connect(server.addr()).unwrap();
    for &iso in &[90.0f32, 120.0, 150.0, 90.0] {
        let reply = client.query_mesh(iso, None).unwrap();
        let truth = direct.extract(iso).unwrap().mesh;
        assert_same_mesh(&reply.mesh, &truth, &format!("iso {iso}"));
    }
    let s = client.stats().unwrap();
    assert!(
        s.cache_evictions > 0 || s.cache_resident_entries <= 1,
        "tiny budget must constrain the cache: {s:?}"
    );
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lod_pyramid_roundtrips_bit_exact_with_exact_per_level_accounting() {
    let (dir, server, direct) = lod_fixture("lod");
    let addr = server.addr();
    let iso = 127.5f32;

    // ground truth: the same post-weld pyramid the server builds
    let (chain, _report) = direct.extract_lods(iso, &LodSpec::pyramid()).unwrap();
    assert_eq!(chain.len(), 3);

    let mut client = Client::connect(addr).unwrap();
    // query level 1 first: its miss extracts the pyramid and caches every
    // level, so levels 0 and 2 are hits afterwards
    let l1 = client.query_mesh_lod(iso, None, 1).unwrap();
    assert!(!l1.cache_hit, "first query of the isovalue cannot hit");
    let l0 = client.query_mesh_lod(iso, None, 0).unwrap();
    assert!(l0.cache_hit, "level 0 was cached by the pyramid build");
    let l2 = client.query_mesh_lod(iso, None, 2).unwrap();
    assert!(l2.cache_hit);
    let l1_again = client.query_mesh_lod(iso, None, 1).unwrap();
    assert!(l1_again.cache_hit);

    // every level crosses the wire bit-exactly
    for (lod, reply) in [(0u16, &l0), (1, &l1), (2, &l2)] {
        let want = &chain.level(lod as usize).unwrap().mesh;
        assert_same_mesh(&reply.mesh, want, &format!("lod {lod}"));
    }
    assert_same_mesh(&l1_again.mesh, &l1.mesh, "cache hit bytes");

    // the pyramid really decimates: budgets respected, topology intact
    let v0 = l0.mesh.num_vertices();
    assert!(l1.mesh.num_vertices() <= (v0 as f64 * 0.25).ceil() as usize);
    assert!(l2.mesh.num_vertices() <= (v0 as f64 * 0.06).ceil() as usize);
    for (lod, reply) in [(0u16, &l0), (1, &l1), (2, &l2)] {
        let topo = oociso_march::analyze_mesh_connectivity(&reply.mesh);
        assert!(topo.is_closed_manifold(), "lod {lod}: {topo:?}");
        assert_eq!(topo.euler_characteristic(), 2, "lod {lod}");
    }

    // out-of-range levels: structured ERR_BAD_LOD, connection survives
    for bad in [3u16, 9] {
        let err = client.query_mesh_lod(iso, None, bad).unwrap_err();
        assert!(
            err.to_string()
                .contains(&format!("server error {ERR_BAD_LOD}")),
            "lod {bad}: {err}"
        );
    }
    let still = client.query_mesh_lod(iso, None, 2).unwrap();
    assert!(still.cache_hit, "connection must survive bad-lod errors");

    // exact per-level accounting: 1 miss (level 1), then hits 0/2/1/2
    let s = client.stats().unwrap();
    assert_eq!(s.lod_misses, [0, 1, 0, 0], "{s:?}");
    assert_eq!(s.lod_hits, [1, 1, 2, 0], "{s:?}");
    assert_eq!(s.cache_hits, s.lod_hits.iter().sum::<u64>());
    assert_eq!(s.cache_misses, s.lod_misses.iter().sum::<u64>());
    assert_eq!(s.errors, 2, "the two bad-lod requests: {s:?}");
    assert_eq!(s.cache_resident_entries, 3, "one entry per level");

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_lod_ladders_are_rejected_at_bind_not_per_request() {
    let dir = tmpdir("badlods");
    let vol = test_volume();
    let opts = PreprocessOptions {
        nodes: 1,
        ..Default::default()
    };
    for ratios in [
        vec![0.5, 0.6],             // not decreasing
        vec![1.5],                  // out of range
        vec![f64::NAN],             // not finite
        vec![0.0],                  // zero
        vec![0.5, 0.25, 0.1, 0.05], // too many levels
    ] {
        let db = ClusterDatabase::preprocess(&vol, &dir, &opts).unwrap();
        match IsoServer::bind(
            db,
            ("127.0.0.1", 0),
            ServeOptions {
                lod_ratios: ratios.clone(),
                ..Default::default()
            },
        ) {
            Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{ratios:?}"),
            Ok(server) => {
                server.stop();
                panic!("{ratios:?} must be rejected at bind");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// There is one serving core, and it needs at least one event loop: zero
/// is an invalid option at bind, not a core selector.
#[test]
fn zero_event_loops_are_rejected_at_bind() {
    let dir = tmpdir("zero_loops");
    let db =
        ClusterDatabase::preprocess(&test_volume(), &dir, &PreprocessOptions::default()).unwrap();
    match IsoServer::bind(
        db,
        ("127.0.0.1", 0),
        ServeOptions {
            reactor_threads: 0,
            ..Default::default()
        },
    ) {
        Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}"),
        Ok(server) => {
            server.stop();
            panic!("reactor_threads: 0 must be rejected at bind");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Only v6 is spoken: a frame of any older version — mesh, frame, stats or
/// ping — draws `ERR_UNSUPPORTED_VERSION` naming v6, starts
/// no extraction, and leaves the connection serving v6 queries.
#[test]
fn pre_v6_frames_are_refused_and_the_connection_survives() {
    let (dir, server, direct) = lod_fixture("prev6");
    let iso = 120.0f32;
    let truth = direct.extract(iso).unwrap().mesh;
    let mut client = Client::connect(server.addr()).unwrap();
    let requests = [
        (
            MSG_MESH_REQUEST,
            encode_payload(&Message::MeshRequest {
                iso,
                region: None,
                lod: 0,
                backend: None,
                trace_id: 0,
            }),
        ),
        (
            MSG_FRAME_REQUEST,
            encode_payload(&Message::FrameRequest {
                iso,
                params: FrameParams {
                    width: 64,
                    height: 64,
                    azimuth: 0.9,
                    elevation: 0.45,
                    distance: 2.0,
                    tile_cols: 1,
                    tile_rows: 1,
                },
                trace_id: 0,
            }),
        ),
        (MSG_STATS_REQUEST, Vec::new()),
        (MSG_PING, vec![7; 16]),
    ];
    for version in 1u16..=5 {
        for (msg_type, payload) in &requests {
            let ctx = format!("v{version} type {msg_type}");
            match raw(&mut client, version, *msg_type, payload) {
                Message::Error { code, detail, .. } => {
                    assert_eq!(code, ERR_UNSUPPORTED_VERSION, "{ctx}: {detail}");
                    assert!(detail.contains("v6"), "{ctx}: {detail}");
                }
                other => panic!("{ctx}: {other:?}"),
            }
        }
    }
    let s = client.stats().unwrap();
    assert_eq!(s.cache_misses, 0, "a refused frame extracts nothing: {s:?}");
    assert_eq!(s.errors, 20, "{s:?}");

    // the same connection still serves v6: the coarsest level (the miss
    // that builds the pyramid), then the full-resolution mesh of an
    // in-process extraction
    let coarse = client.query_mesh_lod(iso, None, 2).unwrap();
    assert!(!coarse.cache_hit && coarse.served_lod == 2);
    let (chain, _) = direct.extract_lods(iso, &LodSpec::pyramid()).unwrap();
    assert_same_mesh(&coarse.mesh, &chain.level(2).unwrap().mesh, "lod 2");
    let reply = client.query_mesh_lod(iso, None, 0).unwrap();
    assert!(reply.cache_hit, "the lod 2 miss cached level 0");
    assert_same_mesh(&reply.mesh, &truth, "v6 after refusals");

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn frame_requests_select_lods_by_screen_space_error() {
    // with the pyramid enabled, a frame request rasterizes each tile from
    // the level its projected error budget allows — reproduce the server's
    // choice client-side from the same public selection function and the
    // cached per-level meshes
    let (dir, server, direct) = lod_fixture("lodframe");
    let iso = 127.5f32;
    let (chain, _) = direct.extract_lods(iso, &LodSpec::pyramid()).unwrap();

    let mut client = Client::connect(server.addr()).unwrap();
    let params = FrameParams {
        width: 96,
        height: 96,
        azimuth: 0.7,
        elevation: 0.4,
        distance: 2.5,
        tile_cols: 2,
        tile_rows: 2,
    };
    let frame = client.query_frame(iso, params).unwrap();

    // expectation: same camera, same selection, same rasterization
    let bounds = chain.full().bounds();
    let camera = oociso_render::Camera::orbiting(&bounds, 0.7, 0.4, 2.5);
    let tiles = oociso_render::TileLayout::new(2, 2, 96, 96);
    let picks = oociso_render::select_tile_levels(
        &tiles,
        &camera,
        &bounds,
        &chain.world_errors(),
        1.0, // ServeOptions::default().lod_tolerance_px
    );
    let mut expected = Vec::new();
    for (t, &level) in picks.iter().enumerate() {
        let mut fb = oociso_render::Framebuffer::new(96, 96);
        oociso_render::rasterize_mesh(
            &chain.level(level).unwrap().mesh,
            &camera,
            [0.9, 0.78, 0.5],
            &mut fb,
        );
        expected.push(oociso_render::FrameRegion::extract(
            &fb,
            tiles.tile_origin(t),
            tiles.tile_size(),
        ));
    }
    assert_eq!(
        frame.regions, expected,
        "served tiles must match the public per-tile LOD selection"
    );

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ping_echoes_and_measures() {
    let (dir, server, _direct) = serve_fixture("ping", 1 << 20);
    let mut client = Client::connect(server.addr()).unwrap();
    let rtt = client.ping(1024).unwrap();
    assert!(rtt > std::time::Duration::ZERO);
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn welded_mesh_roundtrips_bit_exact_and_cache_serves_identical_bytes() {
    // Extraction welds seams by default, so the mesh a client receives must
    // be watertight, bit-identical to the in-process welded extraction, and
    // — because the cache stores the welded result — every later cache hit
    // must hand back the very same bytes.
    let (dir, server, direct) = serve_fixture("welded", 256 << 20);
    let addr = server.addr();
    // half-integer isovalue: crossings stay off the u8 lattice, the sphere
    // is closed, and quantized welding collapses nothing
    let iso = 127.5f32;
    let truth = direct.extract(iso).unwrap().mesh;
    assert!(!truth.is_empty());

    let mut client = Client::connect(addr).unwrap();
    let first = client.query_mesh(iso, None).unwrap();
    assert!(!first.cache_hit, "first query cannot hit");
    assert_same_mesh(&first.mesh, &truth, "served vs in-process weld");

    let topo = oociso_march::analyze_mesh(&first.mesh);
    assert!(topo.is_closed_manifold(), "{topo:?}");
    assert_eq!(topo.components, 1);
    assert_eq!(topo.euler_characteristic(), 2, "{topo:?}");
    assert_eq!(
        topo.vertices,
        first.mesh.num_vertices(),
        "no duplicate seam vertices survive the weld"
    );

    let second = client.query_mesh(iso, None).unwrap();
    assert!(second.cache_hit, "second identical query must hit");
    assert_same_mesh(&second.mesh, &first.mesh, "cache hit bytes");
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// Send `payload` as a `msg_type` frame at `version` and return the reply.
fn raw(client: &mut Client, version: u16, msg_type: u16, payload: &[u8]) -> Message {
    client
        .roundtrip_raw(MAGIC, version, msg_type, payload, false)
        .unwrap()
        .expect("a reply frame")
}

/// The server extracts with MC only: a mesh request naming another backend
/// id draws `ERR_BAD_BACKEND` on a connection that stays
/// usable, while MC's id 0 and `0xFF` ("none named") both get the MC mesh
/// of an in-process extraction, stamped backend 0. The stats payload's
/// per-backend trailer is the derived `[hits, 0, misses, 0]`.
#[test]
fn only_mc_is_served_and_other_backend_ids_are_refused() {
    let iso = 127.5f32;
    let dir = tmpdir("mc_only");
    let opts = PreprocessOptions {
        nodes: 2,
        ..Default::default()
    };
    let served = ClusterDatabase::preprocess(&test_volume(), &dir, &opts).unwrap();
    let truth = ClusterDatabase::<u8>::open(&dir, false)
        .unwrap()
        .extract(iso)
        .unwrap()
        .mesh;
    let server = IsoServer::bind(served, ("127.0.0.1", 0), ServeOptions::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let mesh_request = |backend| Message::MeshRequest {
        iso,
        region: None,
        lod: 0,
        backend,
        trace_id: 0,
    };
    let ctx = "mc only";

    for id in [1u8, 9] {
        let payload = encode_payload(&mesh_request(Some(id)));
        match raw(&mut client, VERSION, MSG_MESH_REQUEST, &payload) {
            Message::Error { code, detail, .. } => {
                assert_eq!(code, ERR_BAD_BACKEND, "{ctx} id {id}: {detail}");
                assert!(detail.contains("mc"), "{detail}");
                assert!(
                    detail.contains("oociso extract --backend surfacenets"),
                    "{detail}"
                );
            }
            other => panic!("{ctx} id {id}: {other:?}"),
        }
    }

    // the connection survived every refusal: a plain request is the miss,
    // then explicit 0 and 0xFF hit the same MC surface
    let plain = client.query_mesh(iso, None).unwrap();
    assert!(!plain.cache_hit, "{ctx}");
    assert_same_mesh(&plain.mesh, &truth, ctx);
    for id in [0u8, 0xFF] {
        let ctx = format!("{ctx} id {id}");
        let payload = encode_payload(&mesh_request(Some(id)));
        match raw(&mut client, VERSION, MSG_MESH_REQUEST, &payload) {
            Message::MeshResponse {
                mesh,
                backend,
                cache_hit,
                ..
            } => {
                assert_eq!(backend, 0, "{ctx}");
                assert!(cache_hit, "{ctx}");
                assert_same_mesh(&mesh, &truth, &ctx);
            }
            other => panic!("{ctx}: {other:?}"),
        }
    }

    // the stats trailer, read off the wire: [hits, 0] then [misses, 0]
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    std::io::Write::write_all(
        &mut stream,
        &encode_frame_raw(MAGIC, VERSION, MSG_STATS_REQUEST, &[]),
    )
    .unwrap();
    let frame = read_raw_frame(&mut stream, MAX_PAYLOAD).unwrap().unwrap();
    let counters: Vec<u64> = frame[HEADER_BYTES..frame.len() - 4]
        .chunks_exact(8)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        .collect();
    let (hits, misses) = (counters[6], counters[7]);
    assert_eq!((hits, misses), (2, 1), "{ctx}");
    assert_eq!(
        counters[counters.len() - 4..],
        [hits, 0, misses, 0],
        "{ctx}"
    );

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_ids_round_trip_and_journals_serve_traces() {
    let (dir, server, _direct) = serve_fixture("traced", 256 << 20);
    let mut client = Client::connect(server.addr()).unwrap();
    let iso = 120.0f32;

    // a traced cold query: the id is echoed and the retained span tree
    // shows the extraction actually happening under the request root
    let cold = client.query_mesh_traced(iso, None, 0, 0xDEAD_BEEF).unwrap();
    assert!(!cold.cache_hit);
    assert_eq!(cold.trace_id, 0xDEAD_BEEF, "id echoed on the reply");
    let t = client.trace(0xDEAD_BEEF).unwrap();
    assert!(t.found, "traced request retained in the journal");
    assert_eq!(t.id, 0xDEAD_BEEF);
    assert!(t.total_us > 0);
    let tree = render_trace_events(&t.events);
    for span in ["request", "cache", "extract", "encode"] {
        assert!(tree.contains(span), "cold trace missing `{span}`:\n{tree}");
    }

    // a traced warm query: cache annotate says hit, no extract span
    let warm = client.query_mesh_traced(iso, None, 0, 77).unwrap();
    assert!(warm.cache_hit);
    assert_eq!(warm.trace_id, 77);
    let t = client.trace(77).unwrap();
    assert!(t.found);
    let tree = render_trace_events(&t.events);
    assert!(tree.contains("hit=1"), "{tree}");
    assert!(!tree.contains("extract"), "{tree}");

    // id 0 = "latest traced request" = the warm one; unknown ids miss
    let latest = client.trace(0).unwrap();
    assert!(latest.found);
    assert_eq!(latest.id, 77);
    assert!(!client.trace(0xBAD0_BAD0).unwrap().found);

    // an untraced request (trace_id 0 on the wire) does not enter the journal
    let plain = client.query_mesh(iso, None).unwrap();
    assert_eq!(plain.trace_id, 0);
    assert_eq!(
        client.trace(0).unwrap().id,
        77,
        "untraced requests not journaled"
    );

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_exposition_agrees_with_stats() {
    let (dir, server, _direct) = serve_fixture("metrics", 256 << 20);
    let mut client = Client::connect(server.addr()).unwrap();
    let iso = 120.0f32;
    client.query_mesh(iso, None).unwrap(); // miss
    client.query_mesh(iso, None).unwrap(); // hit

    let text = client.metrics().unwrap();
    let line = |name: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
            .unwrap_or_else(|| panic!("metric `{name}` missing from:\n{text}"))
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap_or_else(|_| panic!("metric `{name}` not an integer"))
    };
    // the exposition reads the same counter handles as the stats reply, so
    // the two views can never disagree
    let s = client.stats().unwrap();
    assert_eq!(line("mesh_requests_total"), s.mesh_requests);
    assert_eq!(line("cache_hits_total"), s.cache_hits);
    assert_eq!(line("cache_misses_total"), s.cache_misses);
    assert_eq!(line("connections_total"), s.connections);
    // requests_total on the wire text was sampled before the metrics and
    // stats requests themselves were counted; allow that skew only
    assert!(line("requests_total") >= 2);
    // histograms made it into the exposition with recorded samples
    assert!(
        text.contains("request_latency_us_count"),
        "histogram missing:\n{text}"
    );
    assert!(text.contains("phase_triangulate_us_count"), "{text}");

    // the in-process view matches too
    assert!(server.metrics().contains("mesh_requests_total"));

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// A one-shot peer that reads one request and answers it with `reply`,
/// then holds the connection open until the client hangs up.
fn poisoned_peer(reply: Vec<u8>) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    use std::io::{Read, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        read_frame(&mut stream).unwrap().expect("a request");
        stream.write_all(&reply).unwrap();
        // wait for the client to give up rather than closing first, so a
        // reader that believed the header would block here, not see EOF
        let _ = stream.read(&mut [0u8; 1]);
    });
    (addr, peer)
}

#[test]
fn pipeline_raw_refuses_a_poisoned_reply_header() {
    let mut huge = encode_frame_raw(MAGIC, VERSION, MSG_PING, b"");
    huge[8..16].copy_from_slice(&(1u64 << 40).to_le_bytes());
    let bad_magic = encode_frame_raw(0xDEAD_BEEF, VERSION, MSG_PING, b"x");
    for (what, reply, want) in [
        (
            "2^40-byte claim",
            huge[..HEADER_BYTES].to_vec(),
            ERR_MALFORMED,
        ),
        ("bad magic", bad_magic, ERR_BAD_MAGIC),
    ] {
        let (addr, peer) = poisoned_peer(reply);
        let mut client = Client::connect(addr).unwrap();
        let ping = Message::Ping {
            payload: b"p".to_vec(),
        };
        let err = client
            .pipeline_raw(std::slice::from_ref(&ping))
            .expect_err(what);
        let server = ServerError::from_io(&err).unwrap_or_else(|| panic!("{what}: {err}"));
        assert_eq!(server.code, want, "{what}: {err}");
        drop(client);
        peer.join().unwrap();
    }
}

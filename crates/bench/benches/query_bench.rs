//! Criterion: end-to-end cluster extraction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use oociso_cluster::{Cluster, ClusterBuildOptions};
use oociso_volume::{Dims3, RmProxy};
use std::time::Duration;

fn bench_extract(c: &mut Criterion) {
    let dims = Dims3::new(64, 64, 60);
    let vol = RmProxy::with_seed(7).volume(200, dims);
    let mut group = c.benchmark_group("cluster_extract");
    group.sample_size(20);
    for &nodes in &[1usize, 2, 4] {
        let dir =
            std::env::temp_dir().join(format!("oociso_qbench_{}_{nodes}", std::process::id()));
        let (cluster, _) = Cluster::build(
            &vol,
            &dir,
            nodes,
            &ClusterBuildOptions {
                metacell_k: 9,
                mmap: true,
            },
        )
        .unwrap();
        let tris = cluster.extract(110.0).unwrap().report.total_triangles();
        group.throughput(Throughput::Elements(tris));
        group.bench_with_input(
            BenchmarkId::new("extract_iso110", nodes),
            &cluster,
            |b, cl| b.iter(|| cl.extract(110.0).unwrap()),
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    group.finish();
}

fn bench_isovalue_sensitivity(c: &mut Criterion) {
    let dims = Dims3::new(64, 64, 60);
    let vol = RmProxy::with_seed(7).volume(200, dims);
    let dir = std::env::temp_dir().join(format!("oociso_qbench_io_{}", std::process::id()));
    let (cluster, _) = Cluster::build(
        &vol,
        &dir,
        1,
        &ClusterBuildOptions {
            metacell_k: 9,
            mmap: true,
        },
    )
    .unwrap();
    let mut group = c.benchmark_group("query_isovalues");
    group.sample_size(20);
    for iso in [30.0f32, 110.0, 190.0] {
        group.bench_with_input(BenchmarkId::new("extract", iso as u32), &iso, |b, &iso| {
            b.iter(|| cluster.extract(iso).unwrap())
        });
    }
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_worker_scaling(c: &mut Criterion) {
    // intra-node parallel triangulation: one simulated node, scaling the
    // worker pool — near-linear until the machine's cores are saturated
    let dims = Dims3::new(96, 96, 90);
    let vol = RmProxy::with_seed(7).volume(200, dims);
    let dir = std::env::temp_dir().join(format!("oociso_qbench_w_{}", std::process::id()));
    let (cluster, _) = Cluster::build(
        &vol,
        &dir,
        1,
        &ClusterBuildOptions {
            metacell_k: 9,
            mmap: true,
        },
    )
    .unwrap();
    let tris = cluster.extract(110.0).unwrap().report.total_triangles();
    let mut group = c.benchmark_group("worker_scaling");
    group.sample_size(15);
    group.throughput(Throughput::Elements(tris));
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("extract_1node", workers),
            &workers,
            |b, &w| b.iter(|| cluster.extract_with_workers(110.0, w).unwrap()),
        );
    }
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_admission_storm(c: &mut Criterion) {
    // an 8-client miss storm against a live TCP server: unbounded admission
    // vs 2 extraction slots with busy-retrying clients. The 1-byte cache
    // budget makes every mesh oversized for the cache, so all 24 queries per
    // iteration pay a full uncached extraction and the slots are genuinely
    // contended. Admission bounds peak memory/CPU (never more than 2
    // extractions in flight) at the cost of retry round-trips — this group
    // prices that trade
    use oociso_core::{ClusterDatabase, PreprocessOptions};
    use oociso_serve::{Client, ClientOptions, IsoServer, ServeOptions};
    let dims = Dims3::new(48, 48, 44);
    let vol = RmProxy::with_seed(7).volume(200, dims);
    let dir = std::env::temp_dir().join(format!("oociso_qbench_storm_{}", std::process::id()));
    ClusterDatabase::preprocess(&vol, &dir, &PreprocessOptions::default()).unwrap();
    let isovalues = [90.0f32, 110.0, 130.0];
    let clients = 8usize;
    let mut group = c.benchmark_group("admission_storm");
    group.sample_size(10);
    group.throughput(Throughput::Elements((clients * isovalues.len()) as u64));
    for (name, slots) in [("admit_all", None), ("slots2", Some(2u32))] {
        let db = ClusterDatabase::<u8>::open(&dir, true).unwrap();
        let server = IsoServer::bind(
            db,
            ("127.0.0.1", 0),
            ServeOptions {
                cache_bytes: 1,
                extraction_slots: slots,
                ..Default::default()
            },
        )
        .unwrap();
        let addr = server.addr();
        group.bench_function(BenchmarkId::new("storm_8x3", name), |b| {
            b.iter(|| {
                std::thread::scope(|scope| {
                    for t in 0..clients {
                        scope.spawn(move || {
                            let mut client = Client::connect_with(
                                addr,
                                ClientOptions {
                                    retries: 256,
                                    backoff: Duration::from_millis(2),
                                    backoff_max: Duration::from_millis(40),
                                    jitter_seed: 0xBEEF ^ t as u64,
                                    ..Default::default()
                                },
                            )
                            .unwrap();
                            for &iso in &isovalues {
                                client.query_mesh(iso, None).unwrap();
                            }
                        });
                    }
                });
            })
        });
        server.stop();
    }
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_metrics_overhead(c: &mut Criterion) {
    // the observability tax on the served hot path: a single-client warm
    // storm where every query is a cache hit, so per-request cost is
    // framing + cache lookup + the instrumentation itself (counter bumps,
    // histogram records, span events on a detached trace). Run once as
    // compiled normally and once with `--features oociso-obs/no-obs` (which
    // compiles every recording path into a no-op); the two runs land under
    // different criterion ids, and the instrumented/baseline delta is the
    // overhead — the guard is that it stays under 2%.
    use oociso_core::{ClusterDatabase, PreprocessOptions};
    use oociso_serve::{Client, IsoServer, ServeOptions};
    let dims = Dims3::new(48, 48, 44);
    let vol = RmProxy::with_seed(7).volume(200, dims);
    let dir = std::env::temp_dir().join(format!("oociso_qbench_obs_{}", std::process::id()));
    ClusterDatabase::preprocess(&vol, &dir, &PreprocessOptions::default()).unwrap();
    let db = ClusterDatabase::<u8>::open(&dir, true).unwrap();
    let server = IsoServer::bind(db, ("127.0.0.1", 0), ServeOptions::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let isovalues = [90.0f32, 110.0, 130.0];
    for &iso in &isovalues {
        assert!(!client.query_mesh(iso, None).unwrap().cache_hit); // warm it
    }
    let mut group = c.benchmark_group("metrics_overhead");
    group.sample_size(20);
    group.throughput(Throughput::Elements(isovalues.len() as u64));
    let label = if oociso_obs::RECORDING {
        "instrumented"
    } else {
        "no_obs"
    };
    group.bench_function(BenchmarkId::new("warm_storm", label), |b| {
        b.iter(|| {
            for &iso in &isovalues {
                assert!(client.query_mesh(iso, None).unwrap().cache_hit);
            }
        })
    });
    group.finish();
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_client_storm(c: &mut Criterion) {
    // pipelined warm-cache storm: 16 clients each write a burst of 8 mesh
    // requests before reading any reply, so the server sees genuine
    // pipelining (each event loop decodes the whole buffer per wakeup and
    // releases replies in request order). Every request is a cache hit, so
    // the group prices the per-request serving overhead — framing, dispatch,
    // ordered write-out — not extraction.
    use oociso_core::{ClusterDatabase, PreprocessOptions};
    use oociso_serve::{Client, ClientOptions, IsoServer, Message, ServeOptions};
    let dims = Dims3::new(48, 48, 44);
    let vol = RmProxy::with_seed(7).volume(200, dims);
    let dir = std::env::temp_dir().join(format!("oociso_qbench_cstorm_{}", std::process::id()));
    ClusterDatabase::preprocess(&vol, &dir, &PreprocessOptions::default()).unwrap();
    let clients = 16usize;
    let depth = 8usize;
    let isovalues = [90.0f32, 110.0, 130.0];
    let burst: Vec<Message> = (0..depth)
        .map(|i| Message::MeshRequest {
            iso: isovalues[i % isovalues.len()],
            region: None,
            lod: 0,
            backend: None,
            trace_id: 0,
        })
        .collect();
    let mut group = c.benchmark_group("client_storm");
    group.sample_size(10);
    group.throughput(Throughput::Elements((clients * depth) as u64));
    let db = ClusterDatabase::<u8>::open(&dir, true).unwrap();
    let server = IsoServer::bind(db, ("127.0.0.1", 0), ServeOptions::default()).unwrap();
    let addr = server.addr();
    // warm the cache so every benched request is a hit
    let mut warm = Client::connect(addr).unwrap();
    for &iso in &isovalues {
        warm.query_mesh(iso, None).unwrap();
    }
    drop(warm);
    group.bench_function(BenchmarkId::new("pipeline_16x8", "reactor"), |b| {
        b.iter(|| {
            std::thread::scope(|scope| {
                for t in 0..clients {
                    let burst = &burst;
                    scope.spawn(move || {
                        let mut client = Client::connect_with(
                            addr,
                            ClientOptions {
                                jitter_seed: 0xC0DE ^ t as u64,
                                ..Default::default()
                            },
                        )
                        .unwrap();
                        let replies = client.pipeline(burst).unwrap();
                        assert_eq!(replies.len(), burst.len());
                    });
                }
            });
        })
    });
    server.stop();
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_isovalue_scrub(c: &mut Criterion) {
    // the interactive scrub speculative warming exists for: one client
    // sweeps 8 isovalues 5.0 apart, dwelling ~60 ms on each stop (a human
    // dragging a slider), against a cold server. Measured time is the *sum
    // of per-stop query latencies* — dwell excluded — so the group prices
    // exactly what the user feels. With `warm_delta` matching the scrub
    // step, each miss extracts the next stop's pyramid on an idle spare
    // slot during the dwell, converting roughly every other stop from a
    // full extraction into a cache hit; the cold config pays a miss at
    // every stop. A fresh server (empty cache) per iteration keeps the
    // comparison honest.
    use oociso_core::{ClusterDatabase, PreprocessOptions};
    use oociso_serve::{Client, IsoServer, ServeOptions};
    let dims = Dims3::new(48, 48, 44);
    let vol = RmProxy::with_seed(7).volume(200, dims);
    let dir = std::env::temp_dir().join(format!("oociso_qbench_scrub_{}", std::process::id()));
    ClusterDatabase::preprocess(&vol, &dir, &PreprocessOptions::default()).unwrap();
    let stops: Vec<f32> = (0..8).map(|i| 90.0 + 5.0 * i as f32).collect();
    let dwell = Duration::from_millis(60);

    // one-time sanity pass outside the measurement loop: the warmed scrub
    // really does serve δ-neighbors from cache
    {
        let db = ClusterDatabase::<u8>::open(&dir, true).unwrap();
        let server = IsoServer::bind(
            db,
            ("127.0.0.1", 0),
            ServeOptions {
                warm_delta: Some(5.0),
                extraction_slots: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let mut hits = 0u32;
        for &iso in &stops {
            std::thread::sleep(dwell);
            if client.query_mesh(iso, None).unwrap().cache_hit {
                hits += 1;
            }
        }
        server.stop();
        assert!(
            hits >= 3,
            "warmed scrub must hit δ-neighbors (got {hits}/8)"
        );
    }

    let mut group = c.benchmark_group("isovalue_scrub");
    group.sample_size(10);
    group.throughput(Throughput::Elements(stops.len() as u64));
    for (name, warm_delta) in [("cold", None), ("warmed", Some(5.0f32))] {
        group.bench_function(BenchmarkId::new("scrub_8x5", name), |b| {
            b.iter_custom(|iters| {
                let mut served = Duration::ZERO;
                for _ in 0..iters {
                    let db = ClusterDatabase::<u8>::open(&dir, true).unwrap();
                    let server = IsoServer::bind(
                        db,
                        ("127.0.0.1", 0),
                        ServeOptions {
                            warm_delta,
                            extraction_slots: Some(2),
                            ..Default::default()
                        },
                    )
                    .unwrap();
                    let mut client = Client::connect(server.addr()).unwrap();
                    for &iso in &stops {
                        std::thread::sleep(dwell);
                        let t0 = std::time::Instant::now();
                        client.query_mesh(iso, None).unwrap();
                        served += t0.elapsed();
                    }
                    server.stop();
                }
                served
            })
        });
    }
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(
    benches,
    bench_extract,
    bench_isovalue_sensitivity,
    bench_worker_scaling,
    bench_admission_storm,
    bench_metrics_overhead,
    bench_client_storm,
    bench_isovalue_scrub
);
criterion_main!(benches);

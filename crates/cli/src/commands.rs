//! Subcommand implementations.

use crate::args::Options;
use oociso_cluster::SimulatedTimeModel;
use oociso_core::{ClusterDatabase, PreprocessOptions};
use oociso_render::{Camera, TileLayout};
use oociso_volume::{io::write_volume, Dims3, RmProxy};
use std::path::Path;

/// Top-level usage text.
pub const USAGE: &str = "\
oociso — out-of-core isosurface extraction and rendering

USAGE:
  oociso gen        --out FILE [--dims NXxNYxNZ] [--step N] [--seed N] [--field rm|ball]
  oociso preprocess --volume FILE --db DIR [--nodes N] [--metacell K]
  oociso info       --db DIR
  oociso extract    --db DIR --iso V [--backend mc|surfacenets] [--obj FILE]
                    [--topology] [--decimate RATIO]
  oociso render     --db DIR --iso V --out FILE.ppm [--size N] [--tiles CxR]
  oociso serve      --db DIR [--addr 127.0.0.1:7077] [--cache-mb N] [--port-file FILE]
                    [--lods R1,R2|none] [--slots N]
                    [--max-conns N] [--warm-delta D]
                    [--reactor-threads N] [--workers N] [--outbound-budget-mb N]
                    [--read-timeout-ms N] [--idle-timeout-ms N]
                    [--slow-ms N] [--trace-buffer N]
  oociso query      --addr HOST:PORT (--iso V | --stats) [--lod N]
                    [--obj FILE]
                    [--region x0,y0,z0,x1,y1,z1]
                    [--frame FILE.ppm] [--size N] [--tiles CxR] [--stats]
                    [--timeout MS] [--retries N] [--trace [ID]]
  oociso stats      --addr HOST:PORT [--metrics]
  oociso help

Generate a Richtmyer-Meshkov proxy volume, preprocess it into a striped
out-of-core database (compact interval tree index), then extract or render
isosurfaces reading only the active metacells. `extract --decimate 0.25`
quadric-simplifies the welded mesh to 25% of its vertices; `serve` exposes
a database over TCP (binary wire protocol, LRU result cache, LOD pyramid —
default levels 100%/25%/6%); `query --lod N` fetches pyramid level N.
`serve --slots N` bounds concurrent extractions (overflow answers ERR_BUSY
with a retry hint; cache hits never wait for a slot);
`query --timeout MS --retries N` retries busy/torn requests with jittered
exponential backoff. `extract --backend` selects the extraction kernel —
`mc` (Marching Cubes, the default) or `surfacenets` (`sn`): same triangle
budget, half the primitives, globally vertex-unique; the server always
extracts with Marching Cubes. `query --trace` stamps
the request with a trace id and prints the server-side span tree (cache →
admission → extraction phases → encode); `stats` prints the server
counters, and `stats --metrics` dumps the raw Prometheus-style exposition
(counters, gauges, latency histograms). `serve --slow-ms N` logs and
retains a trace for any request slower than N ms; `--trace-buffer N` sizes
the journal `query --trace` reads from. `serve` runs `--reactor-threads N`
event loops (default 2) with request pipelining and bounded per-client
outbound queues (`--outbound-budget-mb`); `--workers N` sizes their
extraction pool. `serve --warm-delta D` speculatively pre-extracts v±D
after each cache-miss at v, on the worker that served the miss once its
reply is sent: a scrub that pauses between stops hits the warmed cache,
and one that does not joins the warm build of its next stop instead of
extracting it again. Warm builds never take the last `--slots` slot, but
they share cores and disk with real misses (docs/serve.md).
";

/// A subcommand's entry point.
pub type Command = fn(&Options) -> Result<(), String>;

/// Every subcommand with the options and flags its usage line documents;
/// anything else on its command line is refused, not silently ignored.
#[rustfmt::skip]
pub const COMMANDS: &[(&str, Command, &[&str])] = &[
    ("gen", gen, &["out", "dims", "step", "seed", "field"]),
    ("preprocess", preprocess, &["volume", "db", "nodes", "metacell"]),
    ("info", info, &["db"]),
    ("extract", extract, &["db", "iso", "backend", "obj", "topology", "decimate"]),
    ("render", render, &["db", "iso", "out", "size", "tiles"]),
    ("serve", serve, &[
        "db", "addr", "cache-mb", "port-file", "lods", "slots", "max-conns", "warm-delta",
        "reactor-threads", "workers", "outbound-budget-mb",
        "read-timeout-ms", "idle-timeout-ms", "slow-ms", "trace-buffer",
    ]),
    ("query", query, &[
        "addr", "iso", "stats", "lod", "obj", "region", "frame", "size", "tiles", "timeout",
        "retries", "trace",
    ]),
    ("stats", stats, &["addr", "metrics"]),
];

/// Refuse an option `command` does not document. `--backend` anywhere but
/// `extract` points at the offline path: the server extracts with MC only.
pub fn check_options(command: &str, opts: &Options, known: &[&str]) -> Result<(), String> {
    match opts.unknown(known) {
        None => Ok(()),
        Some("backend") => Err(format!(
            "unknown option --backend for {command}: the server extracts with mc only; \
             SurfaceNets runs offline with `oociso extract --backend surfacenets`"
        )),
        Some(key) => Err(format!("unknown option --{key} for {command}")),
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `oociso gen`: write a synthetic volume file — the RM proxy time step
/// (default), or `--field ball`, a centered sphere whose isosurfaces close
/// strictly inside the volume (the closed-manifold fixture the decimation
/// smoke tests need).
pub fn gen(opts: &Options) -> Result<(), String> {
    let out = opts.require("out")?;
    let dims = opts.dims("dims", Dims3::new(256, 256, 240))?;
    let step: u32 = opts.num("step", 250)?;
    let seed: u64 = opts.num("seed", 0x524D_2006)?;
    let field = opts.get("field").unwrap_or("rm");
    let vol = match field {
        "rm" => {
            eprintln!(
                "generating RM proxy step {step} at {}x{}x{} (seed {seed:#x})…",
                dims.nx, dims.ny, dims.nz
            );
            RmProxy::with_seed(seed).volume(step, dims)
        }
        "ball" => {
            use oociso_volume::field::{FieldExt, SphereField};
            eprintln!(
                "generating centered ball at {}x{}x{}…",
                dims.nx, dims.ny, dims.nz
            );
            SphereField::centered(0.34, 128.0).sample(dims)
        }
        other => return Err(format!("--field: unknown field `{other}` (rm | ball)")),
    };
    write_volume(Path::new(out), &vol).map_err(err)?;
    println!(
        "wrote {} ({:.1} MB raw)",
        out,
        dims.raw_bytes::<u8>() as f64 / 1e6
    );
    Ok(())
}

/// `oociso preprocess`: stream a raw volume file into a database directory.
pub fn preprocess(opts: &Options) -> Result<(), String> {
    let volume = opts.require("volume")?;
    let db_dir = opts.require("db")?;
    let nodes: usize = opts.num("nodes", 1)?;
    let metacell_k: usize = opts.num("metacell", 9)?;
    let popts = PreprocessOptions {
        metacell_k,
        nodes,
        mmap: true,
    };
    eprintln!("preprocessing {volume} -> {db_dir} ({nodes} node(s), {metacell_k}^3 metacells)…");
    let t = std::time::Instant::now();
    let db = ClusterDatabase::<u8>::preprocess_file(Path::new(volume), Path::new(db_dir), &popts)
        .map_err(err)?;
    let stats = db.preprocess_stats().expect("fresh build");
    println!(
        "done in {:.1}s: {} metacells kept, {} culled ({:.0}% of raw size), index {:.1} KB",
        t.elapsed().as_secs_f64(),
        stats.kept_metacells,
        stats.culled_metacells,
        stats.size_ratio() * 100.0,
        db.index_bytes() as f64 / 1024.0
    );
    // the paper's kept bytes count raw records; the store holds packed ones
    println!(
        "stored {:.2} MB packed, {:.0}% of the {:.2} MB of kept records",
        stats.stored_bytes as f64 / 1e6,
        stats.stored_ratio() * 100.0,
        stats.kept_bytes as f64 / 1e6
    );
    Ok(())
}

/// `oociso info`: summarize a database directory.
pub fn info(opts: &Options) -> Result<(), String> {
    let db_dir = opts.require("db")?;
    let db = ClusterDatabase::<u8>::open(Path::new(db_dir), true).map_err(err)?;
    let layout = db.cluster().layout();
    let dims = layout.volume_dims();
    println!("database:   {db_dir}");
    println!("volume:     {}x{}x{} u8", dims.nx, dims.ny, dims.nz);
    println!(
        "metacells:  {}^3 vertices ({} B full record raw), grid {}x{}x{}",
        layout.k(),
        layout.full_record_len(1),
        layout.grid().nx,
        layout.grid().ny,
        layout.grid().nz
    );
    println!("format:     {}", oociso_cluster::meta::ClusterMeta::FORMAT);
    println!("nodes:      {}", db.nodes());
    println!(
        "index:      {:.1} KB total",
        db.index_bytes() as f64 / 1024.0
    );
    for (i, tree) in db.cluster().trees().iter().enumerate() {
        println!(
            "  node {i}: {} tree nodes, {} brick entries, {} metacells, height {}, store {} B",
            tree.num_nodes(),
            tree.num_entries(),
            tree.num_intervals(),
            tree.height(),
            db.cluster().store_bytes(i)
        );
    }
    Ok(())
}

/// `oociso extract`: query an isosurface, optionally export OBJ / topology.
pub fn extract(opts: &Options) -> Result<(), String> {
    let db_dir = opts.require("db")?;
    let iso: f32 = opts.num("iso", f32::NAN)?;
    if iso.is_nan() {
        return Err("missing required option --iso".into());
    }
    let db = ClusterDatabase::<u8>::open(Path::new(db_dir), true).map_err(err)?;
    // `--backend mc|surfacenets`: default MC, matching the library default
    let backend: oociso_march::Backend = match opts.get("backend") {
        None => oociso_march::Backend::Mc,
        Some(s) => s.parse().map_err(|e| format!("--backend: {e}"))?,
    };
    let result = db
        .extract_with_options(
            iso,
            &oociso_cluster::ExtractOptions {
                backend,
                ..Default::default()
            },
        )
        .map_err(err)?;
    let r = &result.report;
    println!(
        "isovalue {iso} ({backend}): {} active metacells, {} triangles, {:.1} MB read, wall {:.3}s",
        r.total_active_metacells(),
        r.total_triangles(),
        r.total_bytes_read() as f64 / 1e6,
        r.total_wall.as_secs_f64()
    );
    // retrieval→triangulation pipeline: staging memory and hidden wall-clock
    let max_overlap = r
        .nodes
        .iter()
        .map(|n| n.overlap_fraction())
        .fold(0.0f64, f64::max);
    println!(
        "pipeline: peak staging {:.1} KB/node, overlap saved {:.1} ms across nodes ({:.0}% of the shorter phase on the best node)",
        r.max_peak_queue_bytes() as f64 / 1024.0,
        r.total_overlap_saved().as_secs_f64() * 1e3,
        max_overlap * 100.0
    );
    // the read stream: device calls, the contiguous runs they form, and what
    // was fetched per byte of active record delivered
    let exec = r.total_exec();
    println!(
        "reads: {} calls in {} runs, {} seeks, {:.2} bytes per active byte",
        exec.read_calls,
        exec.runs,
        r.total_io().seeks,
        r.bytes_per_active_byte()
    );
    // MC welds metacell and node seams, so the exported/analyzed mesh is
    // watertight; SurfaceNets never welds (its vertices are unique by cell)
    if backend == oociso_march::Backend::Mc {
        let w = r.total_weld();
        // the node welds overlap one another, so the share of the wall is
        // the critical path's, not the CPU-style sum's
        let on_wall = r.weld_critical_path().as_secs_f64();
        println!(
            "weld: {} of {} vertices hashed, {} merged, {} collapsed triangles dropped in {:.1} ms ({:.1}% of extraction wall)",
            w.hashed_vertices,
            w.input_vertices,
            w.vertices_merged(),
            w.degenerate_dropped,
            on_wall * 1e3,
            100.0 * on_wall / r.total_wall.as_secs_f64().max(1e-9)
        );
    }
    let model = SimulatedTimeModel::paper();
    println!(
        "simulated on the paper's hardware: {:.3}s ({:.2} MTri/s)",
        model.query_time(r, 4, (1024, 1024)).as_secs_f64(),
        r.total_triangles() as f64
            / 1e6
            / model.query_time(r, 4, (1024, 1024)).as_secs_f64().max(1e-9)
    );
    // --decimate R: quadric edge-collapse simplify the welded mesh; the
    // OBJ export and topology report below then describe the decimated mesh
    let mut mesh = result.mesh;
    if let Some(ratio) = opts.get("decimate") {
        let ratio: f64 = ratio
            .parse()
            .map_err(|_| format!("--decimate: cannot parse `{ratio}`"))?;
        if !(0.0..=1.0).contains(&ratio) {
            return Err(format!("--decimate: ratio {ratio} outside [0, 1]"));
        }
        let t = std::time::Instant::now();
        let (decimated, stats) = oociso_march::decimate_to_ratio(&mesh, ratio);
        println!(
            "decimate {ratio}: {} -> {} vertices ({} -> {} triangles), {} collapses (tiles {}, finish_collapses {}, passes {}), max error {:.3e} (world {:.4}), {:.1} ms{}",
            stats.input_vertices,
            stats.output_vertices,
            stats.input_triangles,
            stats.output_triangles,
            stats.collapses,
            stats.tiles,
            stats.finish_collapses,
            stats.passes,
            stats.max_error,
            stats.world_error(),
            t.elapsed().as_secs_f64() * 1e3,
            if stats.reached_target {
                ""
            } else {
                " (stopped early: no legal collapse left)"
            }
        );
        mesh = decimated;
    }
    if opts.flag("topology") {
        let report = oociso_march::analyze_mesh(&mesh);
        println!(
            "topology: V={} E={} F={} components={} boundary_edges={} non_manifold_edges={} chi={} ({})",
            report.vertices,
            report.edges,
            report.faces,
            report.components,
            report.boundary_edges,
            report.non_manifold_edges,
            report.euler_characteristic(),
            if report.is_closed_manifold() {
                "closed manifold"
            } else if report.is_closed() {
                "closed"
            } else {
                "open"
            }
        );
    }
    if let Some(obj) = opts.get("obj") {
        mesh.write_obj(Path::new(obj)).map_err(err)?;
        println!(
            "exported {} triangles ({} welded vertices) -> {obj}",
            mesh.len(),
            mesh.num_vertices()
        );
    }
    Ok(())
}

/// `oociso serve`: expose a database directory as a TCP query server.
pub fn serve(opts: &Options) -> Result<(), String> {
    let db_dir = opts.require("db")?;
    let addr = opts.get("addr").unwrap_or("127.0.0.1:7077");
    let cache_mb: u64 = opts.num("cache-mb", 256)?;
    // LOD pyramid levels: the library's serving default pyramid (100%/25%/6%);
    // `--lods none` keeps the server full-resolution-only
    let lod_ratios: Vec<f64> = match opts.get("lods") {
        None => oociso_cluster::LodSpec::pyramid().ratios,
        Some("none") | Some("off") => Vec::new(),
        Some(list) => list
            .split(',')
            .map(|p| {
                p.trim()
                    .parse()
                    .map_err(|_| format!("--lods: bad ratio `{p}` in `{list}`"))
            })
            .collect::<Result<_, _>>()?,
    };
    let levels = 1 + lod_ratios.len();
    let extraction_slots: Option<u32> = opts.opt_num("slots")?;
    let max_connections: Option<u32> = opts.opt_num("max-conns")?;
    // `--warm-delta D` turns on speculative cache warming: after each
    // cache-miss extraction at isovalue v, a spare slot pre-extracts v±D
    let warm_delta: Option<f32> = opts.opt_num("warm-delta")?;
    let mut serve_opts = oociso_serve::ServeOptions {
        cache_bytes: cache_mb << 20,
        lod_ratios,
        extraction_slots,
        max_connections,
        warm_delta,
        ..Default::default()
    };
    if let Some(ms) = opts.opt_num::<u64>("read-timeout-ms")? {
        serve_opts.read_timeout = (ms > 0).then(|| std::time::Duration::from_millis(ms));
    }
    if let Some(ms) = opts.opt_num::<u64>("idle-timeout-ms")? {
        serve_opts.idle_timeout = (ms > 0).then(|| std::time::Duration::from_millis(ms));
    }
    // observability knobs: slow-query threshold (0 disables) and how many
    // finished request traces `query --trace` can fetch back
    serve_opts.slow_ms = opts.num("slow-ms", serve_opts.slow_ms)?;
    serve_opts.trace_buffer = opts.num("trace-buffer", serve_opts.trace_buffer)?;
    serve_opts.reactor_threads = opts.num("reactor-threads", serve_opts.reactor_threads)?;
    serve_opts.reactor_workers = opts.num("workers", 0)?;
    serve_opts.outbound_budget = (opts.num::<usize>("outbound-budget-mb", 8)?).max(1) << 20;
    let db = ClusterDatabase::<u8>::open(Path::new(db_dir), true).map_err(err)?;
    let nodes = db.nodes();
    let (reactor_threads, outbound_budget) =
        (serve_opts.reactor_threads, serve_opts.outbound_budget);
    let server = oociso_serve::IsoServer::bind(db, addr, serve_opts).map_err(err)?;
    // scripts pass --addr 127.0.0.1:0 and read the resolved port from here
    if let Some(port_file) = opts.get("port-file") {
        std::fs::write(port_file, server.addr().port().to_string()).map_err(err)?;
    }
    println!(
        "serving {db_dir} ({nodes} node(s)) on {} — protocol v{}, cache {cache_mb} MiB, {levels} LOD level(s)",
        server.addr(),
        oociso_serve::VERSION,
    );
    println!(
        "core: reactor ({reactor_threads} event loop(s), outbound budget {} MiB/conn)",
        outbound_budget >> 20
    );
    if extraction_slots.is_some() || max_connections.is_some() {
        println!(
            "admission: {} extraction slot(s), {} connection cap",
            extraction_slots.map_or("unbounded".into(), |n| n.to_string()),
            max_connections.map_or("none".into(), |n| n.to_string()),
        );
    }
    if let Some(delta) = warm_delta {
        println!("warming: speculative extraction of v±{delta} after each cache miss");
    }
    server.park()
}

/// `oociso query`: query a running server; mirror of `extract`/`render` over
/// the wire.
pub fn query(opts: &Options) -> Result<(), String> {
    let addr = opts.require("addr")?;
    // --stats alone is a health probe (a drained or zero-slot replica still
    // answers it); everything else needs an isovalue
    let iso: Option<f32> = opts.opt_num("iso")?;
    if iso.is_none() && !opts.flag("stats") {
        return Err("missing required option --iso (or pass --stats alone to probe)".into());
    }
    let region = match opts.get("region") {
        None => None,
        Some(spec) => {
            let parts: Vec<f32> = spec
                .split(',')
                .map(|p| {
                    p.trim()
                        .parse()
                        .map_err(|_| format!("--region: bad `{spec}`"))
                })
                .collect::<Result<_, _>>()?;
            if parts.len() != 6 {
                return Err("--region: expected x0,y0,z0,x1,y1,z1".into());
            }
            Some(oociso_serve::Region {
                lo: [parts[0], parts[1], parts[2]],
                hi: [parts[3], parts[4], parts[5]],
            })
        }
    };
    let lod: u16 = opts.num("lod", 0)?;
    // --timeout MS bounds each request round-trip (0 = wait forever);
    // --retries N re-attempts busy replies and torn connections with
    // jittered exponential backoff honoring the server's retry hint
    let mut copts = oociso_serve::ClientOptions {
        retries: opts.num("retries", 0)?,
        ..Default::default()
    };
    if let Some(ms) = opts.opt_num::<u64>("timeout")? {
        copts.request_timeout = (ms > 0).then(|| std::time::Duration::from_millis(ms));
    }
    let mut client = oociso_serve::Client::connect_with(addr, copts).map_err(err)?;
    if let Some(iso) = iso {
        query_iso(opts, &mut client, iso, region, lod)?;
    }
    if opts.flag("stats") {
        print_stats(&mut client)?;
    }
    Ok(())
}

fn query_iso(
    opts: &Options,
    client: &mut oociso_serve::Client,
    iso: f32,
    region: Option<oociso_serve::Region>,
    lod: u16,
) -> Result<(), String> {
    let t = std::time::Instant::now();
    // --trace stamps the request with a trace id (an explicit `--trace ID`,
    // or one derived from the pid) so the server retains its span tree
    let trace_id = match opts.get("trace") {
        Some(v) => {
            let id: u64 = v
                .parse()
                .map_err(|_| format!("--trace: cannot parse `{v}`"))?;
            if id == 0 {
                return Err("--trace: id 0 means untraced; pick a nonzero id".into());
            }
            id
        }
        None if opts.flag("trace") => (u64::from(std::process::id()) << 16) | 0x7ACE,
        None => 0,
    };
    let reply = client
        .query_mesh_traced(iso, region, lod, trace_id)
        .map_err(err)?;
    println!(
        "isovalue {iso} (lod {lod}): {} triangles ({} vertices), {} active metacells, {} in {:.3}s",
        reply.mesh.len(),
        reply.mesh.num_vertices(),
        reply.active_metacells,
        if reply.cache_hit {
            "cache hit"
        } else {
            "cache miss"
        },
        t.elapsed().as_secs_f64(),
    );
    if trace_id != 0 {
        let t = client.trace(trace_id).map_err(err)?;
        if t.found {
            println!(
                "trace {:#x} ({:.3} ms server-side{}):",
                t.id,
                t.total_us as f64 / 1e3,
                if t.dropped > 0 {
                    format!(", {} events dropped", t.dropped)
                } else {
                    String::new()
                }
            );
            print!("{}", oociso_serve::render_trace_events(&t.events));
        } else {
            println!("trace {trace_id:#x}: not retained by the server");
        }
    }
    if let Some(obj) = opts.get("obj") {
        reply.mesh.write_obj(Path::new(obj)).map_err(err)?;
        println!("exported -> {obj}");
    }
    if let Some(frame) = opts.get("frame") {
        let size: u32 = opts.num("size", 512)?;
        let (cols, rows) = opts.tiles("tiles", (1, 1))?;
        TileLayout::try_new(cols, rows, size as usize, size as usize)?;
        let f = client
            .query_frame(
                iso,
                oociso_serve::FrameParams {
                    width: size,
                    height: size,
                    azimuth: 0.9,
                    elevation: 0.45,
                    distance: 2.0,
                    tile_cols: cols as u16,
                    tile_rows: rows as u16,
                },
            )
            .map_err(err)?;
        f.framebuffer.write_ppm(Path::new(frame)).map_err(err)?;
        println!(
            "rendered frame ({} covered pixels, {}) -> {frame}",
            f.framebuffer.covered_pixels(),
            if f.cache_hit {
                "cache hit"
            } else {
                "cache miss"
            },
        );
    }
    Ok(())
}

/// `oociso stats`: print a running server's counters; `--metrics` dumps the
/// raw Prometheus-style exposition instead (counters, gauges, histograms).
pub fn stats(opts: &Options) -> Result<(), String> {
    let addr = opts.require("addr")?;
    let mut client = oociso_serve::Client::connect(addr).map_err(err)?;
    if opts.flag("metrics") {
        print!("{}", client.metrics().map_err(err)?);
        return Ok(());
    }
    print_stats(&mut client)
}

fn print_stats(client: &mut oociso_serve::Client) -> Result<(), String> {
    let s = client.stats().map_err(err)?;
    println!(
        "server: {} connection(s), {} request(s) ({} mesh, {} frame, {} error), {:.1} MB out",
        s.connections,
        s.requests,
        s.mesh_requests,
        s.frame_requests,
        s.errors,
        s.bytes_out as f64 / 1e6
    );
    println!(
        "cache: {} hit(s) / {} miss(es), {} eviction(s), {:.1} MB resident in {} entrie(s)",
        s.cache_hits,
        s.cache_misses,
        s.cache_evictions,
        s.cache_resident_bytes as f64 / 1e6,
        s.cache_resident_entries
    );
    let per_level: Vec<String> = s
        .lod_hits
        .iter()
        .zip(&s.lod_misses)
        .enumerate()
        .filter(|(_, (&h, &m))| h + m > 0)
        .map(|(i, (h, m))| format!("L{i} {h}/{m}"))
        .collect();
    if !per_level.is_empty() {
        println!("cache per lod (hits/misses): {}", per_level.join(", "));
    }
    println!(
        "overload: shed={} timed_out={} drained={} accept_backoffs={} active_conns={}",
        s.shed, s.timed_out, s.drained, s.accept_backoffs, s.active_connections
    );
    Ok(())
}

/// `oociso render`: extract, rasterize per node, sort-last composite, save PPM.
pub fn render(opts: &Options) -> Result<(), String> {
    let db_dir = opts.require("db")?;
    let iso: f32 = opts.num("iso", f32::NAN)?;
    if iso.is_nan() {
        return Err("missing required option --iso".into());
    }
    let out = opts.require("out")?;
    let size: usize = opts.num("size", 1024)?;
    let (cols, rows) = opts.tiles("tiles", (2, 2))?;
    let tiles = TileLayout::try_new(cols, rows, size, size)?;
    let db = ClusterDatabase::<u8>::open(Path::new(db_dir), true).map_err(err)?;
    let probe = db.extract(iso).map_err(err)?;
    if probe.mesh.is_empty() {
        return Err(format!("isovalue {iso} produces an empty surface"));
    }
    let camera = Camera::orbiting(&probe.mesh.bounds(), 0.9, 0.45, 2.0);
    let (fb, e) = db
        .extract_and_render(iso, &camera, &tiles, [0.9, 0.78, 0.5])
        .map_err(err)?;
    fb.write_ppm(Path::new(out)).map_err(err)?;
    println!(
        "rendered {} triangles over {} node(s), composite moved {:.1} MB -> {out}",
        e.report.total_triangles(),
        db.nodes(),
        e.report.composite_wire_bytes as f64 / 1e6
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse `line` (subcommand first) and run the option check `main` runs.
    fn check(line: &str) -> Result<(), String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        let opts = Options::parse(&argv[1..])?;
        let (_, _, known) = COMMANDS
            .iter()
            .find(|(name, ..)| *name == argv[0])
            .expect("a known subcommand");
        check_options(&argv[0], &opts, known)
    }

    #[test]
    fn every_documented_command_line_passes() {
        let lines = [
            "gen --out v.vol --dims 64x64x60 --step 250 --seed 7 --field ball",
            "preprocess --volume v.vol --db db --nodes 2 --metacell 9",
            "info --db db",
            "extract --db db --iso 190 --backend surfacenets --obj s.obj --topology --decimate 0.25",
            "render --db db --iso 190 --out i.ppm --size 256 --tiles 2x2",
            "serve --db db --addr 127.0.0.1:0 --cache-mb 64 --port-file p --lods 0.25,0.06 \
             --slots 2 --max-conns 8 --warm-delta 10 \
             --reactor-threads 2 --workers 4 --outbound-budget-mb 8 --read-timeout-ms 100 \
             --idle-timeout-ms 100 --slow-ms 0 --trace-buffer 16",
            "query --addr 127.0.0.1:1 --iso 190 --stats --lod 1 --obj r.obj \
             --region 0,0,0,1,1,1 --frame f.ppm --size 256 --tiles 2x2 --timeout 5000 \
             --retries 2 --trace 42",
            "stats --addr 127.0.0.1:1 --metrics",
        ];
        for line in lines {
            assert_eq!(check(line), Ok(()), "{line}");
        }
        // one line per subcommand, and every accepted name is in the usage
        for (name, _, known) in COMMANDS {
            assert!(lines.iter().any(|l| l.split(' ').next() == Some(name)));
            for key in *known {
                assert!(USAGE.contains(&format!("--{key}")), "{name} --{key}");
            }
        }
    }

    #[test]
    fn a_tile_grid_that_does_not_divide_the_image_is_refused_before_the_database_opens() {
        for (size, tiles) in [("100", "3x3"), ("64", "0x2")] {
            let argv: Vec<String> = format!(
                "--db /nonexistent/oociso-db --iso 190 --out i.ppm --size {size} --tiles {tiles}"
            )
            .split_whitespace()
            .map(String::from)
            .collect();
            let e = render(&Options::parse(&argv).unwrap()).unwrap_err();
            assert!(e.contains(&format!("into {tiles} tiles")), "{e}");
        }
    }

    #[test]
    fn serving_commands_refuse_backend_and_point_at_extract() {
        for line in [
            "serve --db db --backend surfacenets",
            "query --addr 127.0.0.1:1 --iso 190 --backend mc",
        ] {
            let e = check(line).unwrap_err();
            let command = line.split(' ').next().unwrap();
            assert!(
                e.starts_with(&format!("unknown option --backend for {command}")),
                "{e}"
            );
            assert!(e.contains("oociso extract --backend surfacenets"), "{e}");
        }
    }

    #[test]
    fn a_misspelt_option_is_refused_by_name() {
        assert_eq!(
            check("extract --db db --iso 190 --topolgy"),
            Err("unknown option --topolgy for extract".into())
        );
        assert_eq!(
            check("serve --db db --slot 2"),
            Err("unknown option --slot for serve".into())
        );
        // there is one serving core and one extraction path: the old
        // selectors are refused
        assert_eq!(
            check("serve --db db --threaded"),
            Err("unknown option --threaded for serve".into())
        );
        // a busy miss is answered with ERR_BUSY: no degraded fallback
        assert_eq!(
            check("serve --db db --degrade"),
            Err("unknown option --degrade for serve".into())
        );
        assert_eq!(
            check("extract --db db --iso 190 --no-weld"),
            Err("unknown option --no-weld for extract".into())
        );
    }
}

//! One workload in its own process: set up, prepare, measure (or, traced,
//! replay and walk the layers), verify, and report. The parent reads the
//! `@`-prefixed lines; everything else on stdout is for people.

use crate::json::Json;
use crate::layers::{self, Depth, OpCounts, Walker};
use crate::spec;
use crate::stats::{median, quantile_of, Summary};
use crate::trace::Tracer;
use crate::workloads::{
    peak_rss_mb, sweep_isovalues, DigestRow, Extractor, Job, Measured, Rng, Samples, Served, SetUp,
    Tally, Workload,
};
use oociso::serve::{Client, ServerReport};
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::time::Instant;

pub struct ChildArgs {
    pub job: Job,
    pub traced: bool,
    /// The result file, and beside it (traced) the span file.
    pub out: PathBuf,
    pub trace_out: PathBuf,
    /// Seconds the parent took to synthesise the volume.
    pub generate_s: f64,
    /// Serialized JSON object describing the run (dims, seed, toolchain, …).
    pub env: String,
}

/// Request ids: the untraced replay, the traced replay, then the walk.
const REPLAY_OFF: u64 = 1;
const REPLAY_ON: u64 = 10_000_000;
const WALK: u64 = 20_000_000;
/// An extract workload's sweep is walked this often (timings: the median).
const SWEEP_WALKS: u64 = 2;

/// A traced run's two accounting floors: the share of the end-to-end
/// operation that the layers below it must explain.
const SWEEP_FLOOR: f64 = 0.95;
const MISS_FLOOR: f64 = 0.90;

/// Everything a finished child reports.
struct Report {
    tally: Tally,
    set_up: SetUp,
    /// One-off preparation, per repetition (see `Job::prepare_reps`).
    prepare_s: Vec<f64>,
    /// Untraced: `(name, unit, samples)` of each end-to-end timing.
    timings: Samples,
    peak_rss_mb: f64,
    /// Traced: per-layer values by name.
    layers: BTreeMap<&'static str, f64>,
    accounting: Vec<Accounting>,
    digests: Vec<DigestRow>,
}

struct Accounting {
    check: &'static str,
    covered: f64,
    of: f64,
    floor: f64,
}

impl Accounting {
    fn share(&self) -> f64 {
        self.covered / self.of
    }

    fn ok(&self) -> bool {
        self.share() >= self.floor
    }
}

pub fn run(args: &ChildArgs) -> io::Result<bool> {
    let job = &args.job;
    std::fs::create_dir_all(&job.work_dir)?;
    let epoch = Instant::now();
    let set_up = SetUp::run(job)?;
    let mut tr = Tracer::new(epoch, args.traced);
    let mut report = Report {
        tally: Tally::default(),
        set_up,
        prepare_s: Vec::new(),
        timings: Vec::new(),
        peak_rss_mb: f64::NAN,
        layers: BTreeMap::new(),
        accounting: Vec::new(),
        digests: Vec::new(),
    };
    if job.workload.is_extract() {
        extract_workload(args, &mut tr, &mut report)?;
    } else {
        serve_workload(args, &mut tr, &mut report)?;
    }
    if args.traced {
        let counts = layers::walk_setup(&mut tr, &job.volume, &job.work_dir.join("index-probe"))?;
        set_up_layers(args, &tr, &counts, &mut report);
        std::fs::write(&args.trace_out, tr.to_json().pretty())?;
    } else {
        report.peak_rss_mb = peak_rss_mb();
    }
    std::fs::remove_dir_all(&job.work_dir)?;
    emit(args, &report)
}

fn extract_workload(args: &ChildArgs, tr: &mut Tracer, report: &mut Report) -> io::Result<()> {
    let job = &args.job;
    let slow_disk = job.workload == Workload::ExtractSlowDisk;
    let dir = report.set_up.dir.clone();
    let extractor = Extractor::prepare(&dir, slow_disk, job.prepare_reps(), &mut report.prepare_s)?;
    report.digests = extractor.digests();
    let mut rng = Rng::new(job.seed);
    let mut off = Tracer::new(Instant::now(), false);
    let plain = extractor.sweeps(job.sweeps, &mut rng, &mut off, REPLAY_OFF);
    if !args.traced {
        report.timings = plain.samples;
        report.tally = plain.tally;
        return Ok(());
    }
    let traced = extractor.sweeps(job.sweeps, &mut rng, tr, REPLAY_ON);
    drop(extractor);

    let mut walker = Walker::open(&dir, slow_disk, job.scrub_cache_bytes, None)?;
    let mut walked = BTreeMap::new();
    for pass in 0..SWEEP_WALKS {
        let request = WALK + pass;
        let mut counts = OpCounts::default();
        let root = tr.root("walk", request);
        for iso in sweep_isovalues() {
            walker.walk(tr, root, request, iso, Depth::Extraction, &mut counts)?;
        }
        tr.end(root);
        walked.insert(request, counts);
    }
    operation_layers(tr, &walked, &traced.ops, &mut report.layers);

    let sweep_s = median(traced.samples_of("sweep_s"));
    let layers = &mut report.layers;
    report.accounting.push(Accounting {
        check: "cluster.extract_s + cluster.merge_s >= 95% of sweep_s",
        covered: layers["cluster.extract_s"] + layers["cluster.merge_s"],
        of: sweep_s,
        floor: SWEEP_FLOOR,
    });
    layers.insert(
        "trace_overhead_pct",
        overhead_pct(&plain, &traced, "sweep_s"),
    );
    report.tally = plain.tally;
    report.tally.absorb(traced.tally);
    Ok(())
}

fn serve_workload(args: &ChildArgs, tr: &mut Tracer, report: &mut Report) -> io::Result<()> {
    let job = &args.job;
    let scrub = job.workload == Workload::ServeScrub;
    let dir = report.set_up.dir.clone();
    let (mut served, prepare_s, warm_tally) =
        Served::prepare(&dir, job.workload, job.scrub_cache_bytes)?;
    report.prepare_s.push(prepare_s);
    report.tally = warm_tally;
    let mut off = Tracer::new(Instant::now(), false);
    let replay = |served: &mut Served, tr: &mut Tracer, first_request: u64| match scrub {
        true => served.scrub(job.stops, job.seed, tr, first_request),
        false => served.hits(job.requests, job.seed, tr, first_request),
    };
    let plain = replay(&mut served, &mut off, REPLAY_OFF);
    if !args.traced {
        report.timings = plain.samples;
        report.tally.absorb(plain.tally);
        report.digests = served.digests();
        served.stop()?;
        return Ok(());
    }
    let first_traced_stop = served.next_stop();
    let traced = replay(&mut served, tr, REPLAY_ON);

    // walk what the traced replay asked for: its stops, or the warmed set
    let isovalues = match scrub {
        true => served.stops_since(first_traced_stop),
        false => served.warmed().to_vec(),
    };
    let ping = Client::connect(served.addr())?;
    let mut walker = Walker::open(&dir, false, served.cache_bytes, Some(ping))?;
    let mut walked = BTreeMap::new();
    for (i, iso) in isovalues.into_iter().enumerate() {
        let request = WALK + i as u64;
        let mut counts = OpCounts::default();
        let root = tr.root("walk", request);
        walker.walk(tr, root, request, iso, Depth::Served, &mut counts)?;
        tr.end(root);
        walked.insert(request, counts);
    }
    drop(walker);
    let server = served.stop()?;
    operation_layers(tr, &walked, &walked, &mut report.layers);
    server_layers(&server, &mut report.layers);

    let layers = &mut report.layers;
    let miss_layers_ms = 1e3
        * (layers["cluster.extract_s"]
            + layers["cluster.merge_s"]
            + layers["march.decimate_l1_s"]
            + layers["march.decimate_l2_s"])
        + layers["serve.cache_insert_us"] / 1e3
        + layers["serve.encode_full_ms"]
        + layers["serve.loopback_full_ms"]
        + layers["serve.decode_full_ms"];
    let hit_layers_ms = layers["serve.encode_full_ms"]
        + layers["serve.loopback_full_ms"]
        + layers["serve.decode_full_ms"];
    if scrub {
        let miss_ms = median(traced.samples_of("miss_ms"));
        layers.insert("serve.miss_residual_ms", miss_ms - miss_layers_ms);
        report.accounting.push(Accounting {
            check: "extract + merge + decimate + cache insert + encode + loopback + decode >= 90% of miss_ms",
            covered: miss_layers_ms,
            of: miss_ms,
            floor: MISS_FLOOR,
        });
        layers.insert(
            "serve.hit_beside_miss_p90_ms",
            quantile_of(traced.samples_of("hit_beside_miss_ms"), 0.9),
        );
        layers.insert(
            "serve.generator_lateness_ms",
            median(traced.samples_of("generator_lateness_ms")),
        );
        layers.insert(
            "trace_overhead_pct",
            overhead_pct(&plain, &traced, "miss_ms"),
        );
    } else {
        let hit_full_ms = median(traced.samples_of("hit_full_ms"));
        layers.insert("serve.hit_residual_ms", hit_full_ms - hit_layers_ms);
        layers.insert(
            "trace_overhead_pct",
            overhead_pct(&plain, &traced, "hit_full_ms"),
        );
    }
    report.tally.absorb(plain.tally);
    report.tally.absorb(traced.tally);
    report.digests = served.digests();
    Ok(())
}

/// Traced median ÷ untraced median − 1, in percent.
fn overhead_pct(plain: &Measured, traced: &Measured, name: &str) -> f64 {
    (median(traced.samples_of(name)) / median(plain.samples_of(name)) - 1.0) * 100.0
}

/// Per-operation layer metrics. A timing is the median over operations of the
/// spans of that name summed per operation (`per_call`: the median span);
/// a count is the median over operations of its per-operation sum.
/// `walked` holds the walk's counts, `composed` those of the composed
/// extraction (the replay's own on extract workloads, the walk's otherwise).
fn operation_layers(
    tr: &Tracer,
    walked: &BTreeMap<u64, OpCounts>,
    composed: &BTreeMap<u64, OpCounts>,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let per_op_s = |span: &str| zero_if_nan(median(&tr.per_request_s(span)));
    let per_call_s = |span: &str| {
        let calls: Vec<f64> = tr
            .spans()
            .iter()
            .filter(|s| s.name == span)
            .map(|s| s.duration().as_secs_f64())
            .collect();
        zero_if_nan(median(&calls))
    };
    let count = |ops: &BTreeMap<u64, OpCounts>, f: &dyn Fn(&OpCounts) -> f64| {
        zero_if_nan(median(&ops.values().map(f).collect::<Vec<f64>>()))
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    for (name, span, scale) in [
        ("exio.retrieve_s", "exio.retrieve", 1.0),
        ("march.mc_s", "march.mc", 1.0),
        ("march.weld_s", "march.weld", 1.0),
        ("march.sn_s", "march.sn", 1.0),
        ("march.decimate_l1_s", "march.decimate_l1", 1.0),
        ("march.decimate_l2_s", "march.decimate_l2", 1.0),
        ("cluster.extract_s", "cluster.extract", 1.0),
        ("cluster.merge_s", "cluster.merge", 1.0),
        ("serve.cache_insert_us", "serve.cache_insert", 1e6),
        ("serve.encode_full_ms", "serve.encode_full", 1e3),
        ("serve.encode_coarse_ms", "serve.encode_coarse", 1e3),
        ("serve.decode_full_ms", "serve.decode_full", 1e3),
        ("serve.decode_coarse_ms", "serve.decode_coarse", 1e3),
        ("serve.loopback_full_ms", "serve.loopback_full", 1e3),
    ] {
        out.insert(name, per_op_s(span) * scale);
    }
    out.insert("itree.plan_us", per_call_s("itree.plan") * 1e6);
    out.insert("serve.cache_get_us", per_call_s("serve.cache_get") * 1e6);
    out.insert("serve.ping_us", per_call_s("serve.ping") * 1e6);

    type Field = (&'static str, fn(&OpCounts) -> f64);
    let walked_fields: [Field; 15] = [
        ("itree.plan_actions", |c| c.plan_actions as f64),
        ("exio.read_calls", |c| c.read_calls as f64),
        ("exio.bytes_read", |c| c.bytes_read as f64),
        ("exio.seeks", |c| c.seeks as f64),
        ("exio.skip_bytes", |c| c.skip_bytes as f64),
        ("exio.modeled_s", |c| c.modeled_s),
        ("march.cells_visited", |c| c.cells_visited as f64),
        ("march.active_cells", |c| c.active_cells as f64),
        ("march.triangles", |c| c.triangles as f64),
        ("march.weld_vertices_merged", |c| {
            c.weld_vertices_merged as f64
        }),
        ("march.decimate_collapses", |c| c.decimate_collapses as f64),
        ("march.lod_world_error_l1", |c| c.lod_world_error[0]),
        ("march.lod_world_error_l2", |c| c.lod_world_error[1]),
        ("serve.wire_bytes_full", |c| c.wire_bytes_full as f64),
        ("serve.wire_bytes_coarse", |c| c.wire_bytes_coarse as f64),
    ];
    for (name, field) in walked_fields {
        out.insert(name, count(walked, &field));
    }
    out.insert(
        "itree.read_efficiency",
        count(walked, &|c| {
            ratio(
                c.records_accepted as f64,
                (c.records_accepted + c.records_rejected) as f64,
            )
        }),
    );
    out.insert(
        "exio.bytes_per_active_byte",
        count(walked, &|c| {
            ratio(c.bytes_read as f64, c.active_bytes as f64)
        }),
    );
    let records = count(walked, &|c| c.records_accepted as f64);
    out.insert(
        "metacell.decode_us_per_record",
        ratio(per_op_s("metacell.decode") * 1e6, records),
    );
    out.insert(
        "march.mc_mcells_per_s",
        ratio(out["march.cells_visited"] / 1e6, out["march.mc_s"]),
    );

    out.insert(
        "cluster.peak_queue_bytes",
        count(composed, &|c| c.peak_queue_bytes as f64),
    );
    out.insert(
        "cluster.metacell_imbalance",
        count(composed, &|c| layers::imbalance(&c.node_metacells)),
    );
    out.insert(
        "cluster.triangle_imbalance",
        count(composed, &|c| layers::imbalance(&c.node_triangles)),
    );
    out.insert(
        "cluster.mtri_per_s",
        count(composed, &|c| {
            ratio(c.report_triangles as f64 / 1e6, c.report_wall_s)
        }),
    );
    // > 1: what overlap and parallel workers won over the serial walk
    out.insert(
        "cluster.parallel_ratio",
        ratio(
            out["exio.retrieve_s"] + out["march.mc_s"] + out["march.weld_s"],
            out["cluster.extract_s"],
        ),
    );
}

fn server_layers(server: &ServerReport, out: &mut BTreeMap<&'static str, f64>) {
    out.insert("serve.cache_hits", server.cache_hits as f64);
    out.insert("serve.cache_misses", server.cache_misses as f64);
    out.insert("serve.cache_evictions", server.cache_evictions as f64);
    out.insert("serve.shed", server.shed as f64);
    out.insert("serve.bytes_out", server.bytes_out as f64);
}

fn set_up_layers(args: &ChildArgs, tr: &Tracer, counts: &layers::SetupCounts, report: &mut Report) {
    let out = &mut report.layers;
    out.insert("volume.generate_s", args.generate_s);
    out.insert("metacell.scan_s", tr.total_s("metacell.scan"));
    out.insert("core.preprocess_s", median(&report.set_up.preprocess_s));
    out.insert("core.open_s", median(&report.set_up.open_s));
    out.insert("itree.build_s", tr.total_s("itree.build"));
    out.insert("metacell.kept", counts.kept as f64);
    out.insert("metacell.culled", counts.culled as f64);
    out.insert("itree.index_bytes", counts.index_bytes as f64);
}

fn zero_if_nan(x: f64) -> f64 {
    if x.is_nan() {
        0.0
    } else {
        x
    }
}

/// Print the report for people and (`@` lines) for the parent, and write the
/// result file. Returns whether the run was correct and accounted for.
fn emit(args: &ChildArgs, report: &Report) -> io::Result<bool> {
    let workload = args.job.workload;
    let tally = &report.tally;
    let accounted = report.accounting.iter().all(Accounting::ok);
    // `correct` is about the program's outputs; the accounting checks time the
    // benchmark's own layer walk against the replay and are a verdict apart
    let correct = tally.failed == 0 && tally.attempted > 0;
    let setup_s = median(&report.set_up.database_s()) + median(&report.prepare_s);
    let failed_share = tally.failed as f64 / tally.attempted.max(1) as f64;

    println!(
        "== {}{} ==",
        workload.name(),
        if args.traced { " (traced)" } else { "" }
    );
    let mut fields: Vec<(String, Json)> = vec![
        ("schema".into(), Json::str("oociso-benchmark/1")),
        ("workload".into(), Json::str(workload.name())),
        ("why".into(), Json::str(workload.why())),
        ("traced".into(), Json::Bool(args.traced)),
        ("env".into(), Json::Raw(args.env.clone())),
        ("attempted".into(), Json::Int(tally.attempted as i64)),
        ("failed".into(), Json::Int(tally.failed as i64)),
        ("failed_share".into(), Json::Num(failed_share)),
        ("correct".into(), Json::Bool(correct)),
        ("accounted".into(), Json::Bool(accounted)),
        (
            "failures".into(),
            Json::Arr(tally.notes.iter().map(Json::str).collect()),
        ),
        (
            "setup".into(),
            Json::obj([
                ("preprocess_s", nums(&report.set_up.preprocess_s)),
                ("open_s", nums(&report.set_up.open_s)),
                ("prepare_s", nums(&report.prepare_s)),
                ("setup_s", Json::Num(setup_s)),
            ]),
        ),
    ];

    if !args.traced {
        let mut named: Vec<(&str, &str, f64, Option<Summary>)> =
            vec![("setup_s", "s", setup_s, None)];
        for (name, unit, samples) in &report.timings {
            let summary = Summary::of(samples);
            named.push((name, unit, summary.median, Some(summary)));
        }
        named.push(("peak_rss_mb", "MB", report.peak_rss_mb, None));
        named.push(("failed_share", "ratio", failed_share, None));
        let mut end_to_end = Vec::new();
        for (name, unit, value, summary) in &named {
            let mut entry = vec![
                ("value".to_string(), Json::Num(*value)),
                ("unit".to_string(), Json::str(*unit)),
            ];
            let mut line = format!("  {name:<24}{value:>14.4} {unit:<6}");
            if let Some(s) = summary {
                entry.extend([
                    ("n".to_string(), Json::Int(s.n as i64)),
                    ("min".to_string(), Json::Num(s.min)),
                    ("q1".to_string(), Json::Num(s.q1)),
                    ("q3".to_string(), Json::Num(s.q3)),
                ]);
                line += &format!(" n={} min={:.4} q1={:.4} q3={:.4}", s.n, s.min, s.q1, s.q3);
                if let Some((p, v)) = s.tail {
                    entry.push((format!("p{p}"), Json::Num(v)));
                    line += &format!(" p{p}={v:.4}");
                }
            }
            println!("{line}");
            end_to_end.push((name.to_string(), Json::Obj(entry)));
        }
        fields.push(("end_to_end".into(), Json::Obj(end_to_end)));
        let mut gated = Vec::new();
        for m in &spec::END_TO_END {
            let (native, factor) = spec::native_name(m.name, workload);
            let value = factor
                * named
                    .iter()
                    .find(|n| n.0 == native)
                    .map_or(f64::NAN, |n| n.2);
            println!("@e2e {} {} {} {}", m.name, native, value, m.unit);
            gated.push((
                m.name.to_string(),
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::str(m.unit)),
                    ("is", Json::str(native)),
                ]),
            ));
        }
        fields.push(("gated".into(), Json::Obj(gated)));
    } else {
        let mut per_layer = Vec::new();
        for &(name, unit, _) in spec::PER_LAYER {
            let value = report.layers.get(name).copied().unwrap_or(0.0);
            println!("  {name:<32}{value:>16.4} {unit}");
            println!("@layer {name} {value} {unit}");
            per_layer.push((
                name.to_string(),
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            ));
        }
        fields.push(("per_layer".into(), Json::Obj(per_layer)));
        let mut checks = Vec::new();
        for a in &report.accounting {
            println!(
                "  accounting: {} — {:.4} of {:.4} = {:.1}% ({})",
                a.check,
                a.covered,
                a.of,
                a.share() * 100.0,
                if a.ok() { "ok" } else { "UNEXPLAINED RESIDUAL" }
            );
            checks.push(Json::obj([
                ("check", Json::str(a.check)),
                ("covered", Json::Num(a.covered)),
                ("of", Json::Num(a.of)),
                ("residual", Json::Num(a.of - a.covered)),
                ("share", Json::Num(a.share())),
                ("floor", Json::Num(a.floor)),
                ("ok", Json::Bool(a.ok())),
            ]));
        }
        fields.push(("accounting".into(), Json::Arr(checks)));
        fields.push((
            "trace_file".into(),
            Json::str(args.trace_out.display().to_string()),
        ));
    }
    fields.push((
        "digests".into(),
        Json::Arr(
            report
                .digests
                .iter()
                .map(|row| {
                    Json::obj([
                        ("iso", Json::Num(row.iso as f64)),
                        ("lod", Json::Int(row.lod as i64)),
                        ("triangles", Json::Int(row.digest.triangles as i64)),
                        ("vertices", Json::Int(row.digest.vertices as i64)),
                        ("fnv1a", Json::Str(format!("{:016x}", row.digest.fnv))),
                    ])
                })
                .collect(),
        ),
    ));
    for note in &tally.notes {
        println!("  FAILED: {note}");
    }
    println!(
        "  attempted {} failed {} correct {correct}",
        tally.attempted, tally.failed
    );
    println!("@attempted {}", tally.attempted);
    println!("@failed {}", tally.failed);
    println!("@correct {correct}");
    println!("@accounted {accounted}");
    std::fs::write(&args.out, Json::Obj(fields).pretty())?;
    println!("@out {}", args.out.display());
    Ok(correct && accounted)
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

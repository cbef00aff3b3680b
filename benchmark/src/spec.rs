//! The benchmark's contract in one place: workload names, gated end-to-end
//! metrics with their bounds, and the per-layer metrics. `BENCHMARK.json` at
//! the repository root is this table printed (`manifest`); a test keeps the
//! two identical.

use crate::json::Json;
use crate::workloads::Workload;

/// How long one gated run measures.
pub const RUN_SECONDS: u32 = 15;

/// An end-to-end metric the driver gates. Every workload reports every one;
/// `op_ms` and `side_op_ms` are the workload's own two operations (see
/// [`native_name`]).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "op_ms",
        unit: "ms",
        bound: 0.25,
    },
    EndToEnd {
        name: "side_op_ms",
        unit: "ms",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        // `serve_hits` reads 172–195 MB by which worker threads' malloc
        // arenas the warm-up touched (70 MB with one arena): see README
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
];

/// The name a gated metric goes by on `workload`, and the factor from the
/// named metric's unit to the gated one's.
pub fn native_name(gated: &str, workload: Workload) -> (&'static str, f64) {
    use Workload::*;
    match (gated, workload) {
        ("op_ms", ExtractHot | ExtractSlowDisk) => ("sweep_s", 1e3),
        ("op_ms", ServeHits) => ("hit_full_ms", 1.0),
        ("op_ms", ServeScrub) => ("miss_ms", 1.0),
        ("side_op_ms", ExtractHot | ExtractSlowDisk) => ("query_max_ms", 1.0),
        ("side_op_ms", ServeHits) => ("hit_coarse_ms", 1.0),
        ("side_op_ms", ServeScrub) => ("hit_beside_miss_ms", 1.0),
        ("peak_rss_mb", _) => ("peak_rss_mb", 1.0),
        ("setup_s", _) => ("setup_s", 1.0),
        _ => panic!("no gated metric called {gated}"),
    }
}

/// `(name, unit, better)`. A layer that is not on a workload's path reports 0
/// there. README.md says which end-to-end metric each should move, and where.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("volume.generate_s", "s", "lower"),
    // set-up
    ("metacell.scan_s", "s", "lower"),
    ("core.preprocess_s", "s", "lower"),
    ("core.open_s", "s", "lower"),
    ("itree.build_s", "s", "lower"),
    ("metacell.kept", "count", "lower"),
    ("metacell.culled", "count", "higher"),
    ("itree.index_bytes", "bytes", "lower"),
    // read planning and retrieval
    ("itree.plan_us", "us", "lower"),
    ("itree.plan_actions", "count", "lower"),
    ("itree.read_efficiency", "ratio", "higher"),
    ("exio.retrieve_s", "s", "lower"),
    ("exio.read_calls", "count", "lower"),
    ("exio.bytes_read", "bytes", "lower"),
    ("exio.seeks", "count", "lower"),
    ("exio.skip_bytes", "bytes", "lower"),
    ("exio.bytes_per_active_byte", "ratio", "lower"),
    ("exio.modeled_s", "s", "lower"),
    // decode, kernel, weld
    ("metacell.decode_us_per_record", "us", "lower"),
    ("march.mc_s", "s", "lower"),
    ("march.mc_mcells_per_s", "Mcells/s", "higher"),
    ("march.cells_visited", "count", "lower"),
    ("march.active_cells", "count", "lower"),
    ("march.triangles", "count", "lower"),
    ("march.weld_s", "s", "lower"),
    ("march.weld_vertices_merged", "count", "higher"),
    ("march.sn_s", "s", "lower"),
    // LOD pyramid
    ("march.decimate_l1_s", "s", "lower"),
    ("march.decimate_l2_s", "s", "lower"),
    ("march.decimate_collapses", "count", "lower"),
    ("march.lod_world_error_l1", "voxels", "lower"),
    ("march.lod_world_error_l2", "voxels", "lower"),
    // the composed extraction
    ("cluster.extract_s", "s", "lower"),
    ("cluster.merge_s", "s", "lower"),
    ("cluster.parallel_ratio", "ratio", "higher"),
    ("cluster.peak_queue_bytes", "bytes", "lower"),
    ("cluster.metacell_imbalance", "ratio", "lower"),
    ("cluster.triangle_imbalance", "ratio", "lower"),
    ("cluster.mtri_per_s", "Mtri/s", "higher"),
    // serving
    ("serve.cache_insert_us", "us", "lower"),
    ("serve.cache_get_us", "us", "lower"),
    ("serve.cache_hits", "count", "higher"),
    ("serve.cache_misses", "count", "lower"),
    ("serve.cache_evictions", "count", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.bytes_out", "bytes", "lower"),
    ("serve.encode_full_ms", "ms", "lower"),
    ("serve.encode_coarse_ms", "ms", "lower"),
    ("serve.decode_full_ms", "ms", "lower"),
    ("serve.decode_coarse_ms", "ms", "lower"),
    ("serve.loopback_full_ms", "ms", "lower"),
    ("serve.ping_us", "us", "lower"),
    ("serve.wire_bytes_full", "bytes", "lower"),
    ("serve.wire_bytes_coarse", "bytes", "lower"),
    ("serve.hit_beside_miss_p90_ms", "ms", "lower"),
    ("serve.generator_lateness_ms", "ms", "lower"),
    // what the layers above leave unexplained, and what tracing costs
    ("serve.hit_residual_ms", "ms", "lower"),
    ("serve.miss_residual_ms", "ms", "lower"),
    ("trace_overhead_pct", "%", "lower"),
];

/// `BENCHMARK.json`.
pub fn manifest() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--offline",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
                "driver",
            ]),
        ),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Json::Int(RUN_SECONDS as i64)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str("lower")),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, better)| {
                        Json::obj([
                            ("name", Json::str(*name)),
                            ("unit", Json::str(*unit)),
                            ("better", Json::str(*better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_manifest_and_within_the_contract() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(root).expect("BENCHMARK.json at the repository root");
        assert_eq!(committed, manifest().pretty(), "regenerate with `manifest`");

        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            (1..=16).contains(&s.len())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        assert!(names.iter().all(|n| ok_name(n)));
        let distinct: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(distinct.len(), names.len(), "a name is used once");
        assert!(END_TO_END
            .iter()
            .all(|m| ok_unit(m.unit) && m.bound <= 0.25));
        assert!(PER_LAYER
            .iter()
            .all(|m| ok_unit(m.1) && ["lower", "higher"].contains(&m.2)));
        assert!(PER_LAYER.len() <= 128);
        assert!(Workload::ALL
            .iter()
            .all(|w| w.why().len() <= 200 && !w.why().contains('\n')));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn readme_explains_every_metric_and_workload() {
        let readme = include_str!("../README.md");
        for name in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
        {
            assert!(
                readme.contains(&format!("`{name}`")),
                "README.md lacks `{name}`"
            );
        }
        for w in Workload::ALL {
            assert!(readme.contains(&format!("`{}`", w.name())));
            for gated in ["op_ms", "side_op_ms"] {
                let (native, _) = native_name(gated, w);
                assert!(
                    readme.contains(&format!("`{native}`")),
                    "README.md lacks `{native}`"
                );
            }
        }
    }
}

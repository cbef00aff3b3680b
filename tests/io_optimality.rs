//! I/O behaviour of the compact-interval-tree query (§5's optimality claims),
//! measured end-to-end through the database.

use oociso::core::{ClusterDatabase, PreprocessOptions};
use oociso::exio::IoCostModel;
use oociso::itree::plan::STREAM_CHUNK;
use oociso::metacell::MetacellRecord;
use oociso::volume::{Dims3, RmProxy};
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("oociso_io_{}_{}", std::process::id(), name));
    p
}

/// `id(4) | vmin(1) | len(4)`: what the executor must fetch to reject a u8
/// record.
const U8_HEADER: u64 = MetacellRecord::<u8>::HEADER_LEN as u64;

#[test]
fn bytes_read_proportional_to_output() {
    // The query must read O(T/B) blocks. The run reader fetches a byte it
    // does not deliver only behind a Case 2 stop record — less than one
    // chunk plus the stop record's header each — so with no stop the bytes
    // touched *equal* the active metacells' stored (packed) record bytes.
    let vol = RmProxy::with_seed(3).volume(230, Dims3::new(48, 48, 45));
    let dir = tmpdir("prop");
    let db = ClusterDatabase::preprocess(&vol, &dir, &PreprocessOptions::default()).unwrap();
    for iso in [30.0, 90.0, 150.0, 210.0] {
        let r = db.extract(iso).unwrap();
        let n = &r.report.nodes[0];
        if n.active_metacells == 0 {
            continue;
        }
        let active_bytes = n.bytes_read; // stored bytes of emitted records
        let touched = n.io.bytes_read; // all bytes fetched from the device
        assert_eq!(touched, n.exec.bytes_read, "executor and device agree");
        assert!(touched >= active_bytes);
        assert!(
            touched <= active_bytes + n.exec.records_rejected * (STREAM_CHUNK + U8_HEADER),
            "iso {iso}: touched {touched} vs active {active_bytes}, {:?}",
            n.exec
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn read_calls_bounded_by_runs_and_chunks() {
    // One forward read stream per node-query: every device call is a full
    // chunk except the one that ends its run, whatever the number of plan
    // actions, and the runs are few — the plan's bricks mostly abut.
    let vol = RmProxy::with_seed(3).volume(230, Dims3::new(48, 48, 45));
    let dir = tmpdir("calls");
    let db = ClusterDatabase::preprocess(&vol, &dir, &PreprocessOptions::default()).unwrap();
    for iso in (10..=210).step_by(20) {
        let r = db.extract(iso as f32).unwrap();
        let n = &r.report.nodes[0];
        let actions = n.exec.bulk_actions + n.exec.prefix_actions;
        assert_eq!(n.io.read_calls, n.exec.read_calls, "iso {iso}");
        assert!(
            n.exec.read_calls <= n.exec.runs + n.exec.bytes_read / STREAM_CHUNK,
            "iso {iso}: {:?}",
            n.exec
        );
        assert!(n.exec.runs <= actions, "iso {iso}: {:?}", n.exec);
        // the head moves once per run at most, never once per call
        assert!(n.io.seeks + n.io.forward_skips <= n.exec.runs, "iso {iso}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn io_grows_monotonically_with_surface_size() {
    let vol = RmProxy::with_seed(3).volume(230, Dims3::new(48, 48, 45));
    let dir = tmpdir("mono");
    let db = ClusterDatabase::preprocess(&vol, &dir, &PreprocessOptions::default()).unwrap();
    // collect (active, touched_bytes) over the sweep; Spearman-ish check:
    // sorting by active must sort touched within tolerance
    let mut points: Vec<(u64, u64)> = Vec::new();
    for iso in (10..=210).step_by(20) {
        let r = db.extract(iso as f32).unwrap();
        let n = &r.report.nodes[0];
        points.push((n.active_metacells, n.io.bytes_read));
    }
    points.sort_unstable();
    for w in points.windows(2) {
        // more active metacells should never need drastically less I/O
        assert!(
            w[1].1 + 64 * 1024 >= w[0].1 / 2,
            "non-monotone I/O: {points:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reads_are_mostly_sequential() {
    // Case 1 bulk ranges + per-brick streaming: the seek count must be far
    // below the active metacell count (the whole point of bricked layout —
    // prior metacell schemes paid a random read per metacell).
    let vol = RmProxy::with_seed(3).volume(230, Dims3::new(48, 48, 45));
    let dir = tmpdir("seq");
    let db = ClusterDatabase::preprocess(&vol, &dir, &PreprocessOptions::default()).unwrap();
    let r = db.extract(130.0).unwrap();
    let n = &r.report.nodes[0];
    assert!(n.active_metacells > 50, "need a meaningful surface");
    assert!(
        n.io.seeks * 4 < n.active_metacells,
        "{} seeks for {} active metacells",
        n.io.seeks,
        n.active_metacells
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn modeled_time_matches_fifty_mbps_hand_calc() {
    let vol = RmProxy::with_seed(3).volume(230, Dims3::new(48, 48, 45));
    let dir = tmpdir("model");
    let db = ClusterDatabase::preprocess(&vol, &dir, &PreprocessOptions::default()).unwrap();
    let r = db.extract(130.0).unwrap();
    let n = &r.report.nodes[0];
    let model = IoCostModel::paper_disk();
    let t = model.modeled_time(&n.io).as_secs_f64();
    let hand = n.io.seeks as f64 * 0.008 + (n.io.bytes_read + n.io.skip_bytes) as f64 / 50.0e6;
    assert!((t - hand).abs() < 1e-9, "model {t} vs hand {hand}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn out_of_range_isovalue_costs_nothing() {
    // isovalue above every sample: the tree prunes the whole query — no
    // metacells read, no triangles
    let vol = RmProxy::with_seed(3).volume(230, Dims3::new(48, 48, 45));
    let dir = tmpdir("empty");
    let db = ClusterDatabase::preprocess(&vol, &dir, &PreprocessOptions::default()).unwrap();
    let r = db.extract(300.0).unwrap();
    let n = &r.report.nodes[0];
    assert_eq!(r.mesh.len(), 0);
    assert_eq!(n.io.bytes_read, 0, "out-of-range query must read nothing");
    std::fs::remove_dir_all(&dir).ok();
}

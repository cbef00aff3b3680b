//! The plan executor's single forward read stream, checked against a naive
//! oracle and against the read pattern it promises.

use oociso_exio::{BlockDevice, IoStats, MemDevice, RecordStore, Span};
use oociso_itree::compact::CompactNode;
use oociso_itree::plan::testutil::TestFormat;
use oociso_itree::plan::{execute_plan, ExecStats, QueryPlan, ReadAction, STREAM_CHUNK};
use oociso_itree::{CompactIntervalTree, RecordFormat};
use oociso_metacell::MetacellInterval;
use proptest::prelude::*;
use std::io;
use std::sync::{Arc, Mutex};

type Emitted = Vec<(u32, Vec<u8>)>;
type ReadLog = Arc<Mutex<Vec<Span>>>;

/// A [`MemDevice`] that logs the range of every read it serves.
struct RecordingDevice {
    inner: MemDevice,
    log: ReadLog,
}

impl BlockDevice for RecordingDevice {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.log.lock().unwrap().push(Span {
            offset,
            len: buf.len() as u64,
        });
        self.inner.read_at(offset, buf)
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }
}

/// The oracle: `read_span` of each whole action span, walked record by
/// record, Case 2 filtered by `vmin` — no shared buffer, no chunking.
fn naive_execute(plan: &QueryPlan, store: &RecordStore) -> Emitted {
    let mut out = Vec::new();
    for action in &plan.actions {
        let bytes = store.read_span(action.span()).unwrap();
        let mut at = 0;
        while at < bytes.len() {
            let (id, vmin) = TestFormat.parse_header(&bytes[at..]);
            if matches!(action, ReadAction::Prefix { .. }) && vmin > plan.iso_key {
                break;
            }
            let len = TestFormat.record_len(&bytes[at..]);
            out.push((id, bytes[at..at + len].to_vec()));
            at += len;
        }
    }
    out
}

/// Run the real executor over a recording copy of `bytes`.
fn recorded_execute(plan: &QueryPlan, bytes: &[u8]) -> (Emitted, ExecStats, Vec<Span>) {
    let log = ReadLog::default();
    let store = RecordStore::from_device(Box::new(RecordingDevice {
        inner: MemDevice::new(bytes.to_vec()),
        log: Arc::clone(&log),
    }));
    let mut out = Vec::new();
    let stats = execute_plan(plan, &store, &TestFormat, |id, rec| {
        out.push((id, rec.to_vec()))
    })
    .unwrap();
    let reads = log.lock().unwrap().clone();
    (out, stats, reads)
}

/// The plan's runs as `[start, end)` ranges: maximal chains of abutting
/// action spans.
fn plan_runs(plan: &QueryPlan) -> Vec<(u64, u64)> {
    let mut runs: Vec<(u64, u64)> = Vec::new();
    for (action, end) in plan.actions.iter().zip(plan.run_ends()) {
        match runs.last() {
            Some(&(_, last_end)) if last_end == end => {}
            _ => runs.push((action.span().offset, end)),
        }
    }
    runs
}

/// Everything the reader promises about one execution's read pattern.
fn check_read_pattern(plan: &QueryPlan, emitted: &Emitted, stats: &ExecStats, reads: &[Span]) {
    assert_eq!(stats.read_calls, reads.len() as u64);
    assert_eq!(stats.bytes_read, reads.iter().map(|r| r.len).sum::<u64>());
    let contiguous_runs = reads
        .iter()
        .enumerate()
        .filter(|&(i, r)| i == 0 || reads[i - 1].end() != r.offset)
        .count();
    assert_eq!(
        stats.runs, contiguous_runs as u64,
        "runs counts read sequences"
    );
    assert!(
        stats.read_calls <= stats.runs + stats.bytes_read / STREAM_CHUNK,
        "{stats:?}"
    );
    let runs = plan_runs(plan);
    for r in reads {
        assert!(r.len <= STREAM_CHUNK);
        assert!(
            runs.iter()
                .any(|&(start, end)| start <= r.offset && r.end() <= end),
            "read {r:?} leaves every planned run {runs:?}"
        );
    }
    // fetched-but-not-emitted bytes sit behind Case 2 stop records only
    let emitted_bytes: u64 = emitted.iter().map(|(_, rec)| rec.len() as u64).sum();
    let slack = stats.records_rejected * (STREAM_CHUNK + TestFormat.header_len() as u64);
    assert!(stats.bytes_read <= emitted_bytes + slack, "{stats:?}");
    assert!(stats.bytes_read <= plan.max_bytes(), "{stats:?}");
}

/// Build `stripes` trees with their stores. With `gap_seed > 0` the bricks
/// are then moved apart — pseudo-random runs of bytes no record owns are
/// inserted before some of them and the index rewritten to match — the
/// layout of a hand-built or foreign index, which no healthy build produces.
fn build_stores(
    intervals: &[MetacellInterval],
    stripes: usize,
    gap_seed: u64,
) -> Vec<(CompactIntervalTree, Vec<u8>)> {
    let mut stores: Vec<Vec<u8>> = vec![Vec::new(); stripes];
    let trees = CompactIntervalTree::build_striped(intervals, stripes, &mut |s, iv| {
        let rec = TestFormat::encode(iv);
        let span = Span {
            offset: stores[s].len() as u64,
            len: rec.len() as u64,
        };
        stores[s].extend_from_slice(&rec);
        Ok(span)
    })
    .unwrap();
    trees
        .into_iter()
        .zip(stores)
        .map(|(tree, bytes)| match gap_seed {
            0 => (tree, bytes),
            seed => spread_bricks(&tree, &bytes, seed),
        })
        .collect()
}

fn spread_bricks(
    tree: &CompactIntervalTree,
    bytes: &[u8],
    seed: u64,
) -> (CompactIntervalTree, Vec<u8>) {
    let mut nodes: Vec<CompactNode> = tree.nodes().to_vec();
    let mut bricks: Vec<(usize, usize)> = nodes
        .iter()
        .enumerate()
        .flat_map(|(n, node)| (0..node.entries.len()).map(move |e| (n, e)))
        .collect();
    bricks.sort_unstable_by_key(|&(n, e)| nodes[n].entries[e].span.offset);
    let mut moved = Vec::with_capacity(bytes.len() * 2);
    let mut state = seed;
    for (n, e) in bricks {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let draw = state >> 33;
        if draw.is_multiple_of(8) {
            moved.resize(moved.len() + 1 + (draw % 61) as usize, 0xAA);
        }
        let span = &mut nodes[n].entries[e].span;
        let brick = &bytes[span.offset as usize..span.end() as usize];
        span.offset = moved.len() as u64;
        moved.extend_from_slice(brick);
    }
    let tree = CompactIntervalTree::from_parts(
        nodes,
        tree.root(),
        tree.num_intervals(),
        tree.num_endpoints(),
    );
    (tree, moved)
}

/// Interval sets big enough that stores span several refills (≈ 11 bytes a
/// record), with few distinct endpoints so bricks are long and both query
/// cases, early stops included, occur on every path.
fn intervals_strategy() -> impl Strategy<Value = Vec<MetacellInterval>> {
    prop::collection::vec((0u32..12, 0u32..8), 1..40_000).prop_map(|pairs| {
        pairs
            .into_iter()
            .enumerate()
            .map(|(id, (lo, span))| MetacellInterval::new(id as u32, lo, lo + 1 + span))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn executor_matches_naive_oracle_in_order(
        intervals in intervals_strategy(),
        iso in 0u32..24,
        stripes in 1usize..5,
        gap_seed in 0u64..3,
    ) {
        for (tree, bytes) in build_stores(&intervals, stripes, gap_seed) {
            let plan = tree.plan(iso);
            let want = naive_execute(&plan, &RecordStore::in_memory(bytes.clone()));
            let (got, stats, reads) = recorded_execute(&plan, &bytes);
            prop_assert!(got == want, "emission diverged from the oracle at iso {}", iso);
            prop_assert_eq!(stats.records_emitted, got.len() as u64);
            check_read_pattern(&plan, &got, &stats, &reads);
        }
    }
}

#[test]
fn case_1_node_costs_ceil_len_over_chunk_reads() {
    // endpoints {0, 1, 2, 10^6}: one node, one brick, every record active at
    // iso 2 — the whole store is one Case 1 bulk range of many chunks, with
    // records straddling every refill boundary
    let intervals: Vec<_> = (0..40_000)
        .map(|i| MetacellInterval::new(i, i % 3, 1_000_000))
        .collect();
    let (tree, bytes) = build_stores(&intervals, 1, 0).pop().unwrap();
    let plan = tree.plan(2);
    assert!(matches!(plan.actions[..], [ReadAction::Bulk { .. }]));
    let len = bytes.len() as u64;
    assert!(len > 8 * STREAM_CHUNK);
    let (got, stats, reads) = recorded_execute(&plan, &bytes);
    assert_eq!(got.len(), intervals.len());
    assert_eq!(stats.read_calls, len.div_ceil(STREAM_CHUNK));
    assert_eq!(stats.runs, 1);
    assert_eq!(stats.bytes_read, len);
    check_read_pattern(&plan, &got, &stats, &reads);
}

#[test]
fn early_stop_in_a_long_brick_skips_the_inactive_tail() {
    // the root splits near vmin 5 000 and keeps two bricks: vmax 10^6 (15 000
    // records, vmins ascending from 0) then vmax 5·10^5 (10 records). At
    // iso 5 < split both are Case 2 prefixes of one run; the first stops 18
    // records in, far from its end, so the reader must jump to the second
    // brick instead of reading through.
    let mut intervals: Vec<_> = (0..30_000)
        .map(|i| MetacellInterval::new(i, i / 3, 1_000_000))
        .collect();
    intervals.extend((0..10).map(|i| MetacellInterval::new(30_000 + i, i, 500_000)));
    let (tree, bytes) = build_stores(&intervals, 1, 0).pop().unwrap();
    let plan = tree.plan(5);
    assert_eq!(plan.actions.len(), 2, "{:?}", plan.actions);
    assert_eq!(plan_runs(&plan).len(), 1, "the two bricks abut");
    let (got, stats, reads) = recorded_execute(&plan, &bytes);
    let want = naive_execute(&plan, &RecordStore::in_memory(bytes.clone()));
    assert_eq!(got, want);
    assert_eq!(got.len(), 18 + 6);
    assert_eq!(stats.runs, 2, "one jump over the tail: {reads:?}");
    assert_eq!(stats.read_calls, 2);
    assert!(stats.bytes_read < 2 * STREAM_CHUNK);
    check_read_pattern(&plan, &got, &stats, &reads);
}

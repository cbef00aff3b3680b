//! Query plans and their I/O-optimal execution.
//!
//! [`CompactIntervalTree::plan`](crate::CompactIntervalTree::plan) compiles an
//! isovalue into a [`QueryPlan`]: a list of read actions along the root→leaf
//! path, in increasing store offset. Two kinds:
//!
//! * [`ReadAction::Bulk`] (Case 1) — one contiguous range covering a prefix
//!   of a node's bricks; *every* record in the range is active ("more
//!   effective bulk data movement").
//! * [`ReadAction::Prefix`] (Case 2) — one brick scanned from its start,
//!   emitting records while `vmin ≤ λ` and stopping at the first record with
//!   `vmin > λ`. Bricks whose smallest `vmin` exceeds `λ` were already
//!   dropped at planning time, costing zero I/O.
//!
//! Execution does not read action by action. A node's bricks lie
//! consecutively on disk and a left child's bricks follow its parent's, so
//! neighbouring actions usually *abut*; [`QueryPlan::run_ends`] groups them
//! into **runs** — maximal chains of abutting spans — and [`execute_plan`]
//! streams each run through one forward-only reader: one buffer and one
//! store cursor for the whole plan, refilled in [`STREAM_CHUNK`] reads that
//! stop at the *run* end rather than the brick end. Moving to the next
//! action advances the cursor when its first byte is already buffered; the
//! buffer is dropped and the cursor repositioned only when it is not — the
//! gap before the next run, or the inactive tail of a long brick after an
//! early Case 2 stop. Records are emitted per refill, in plan order, so a
//! run covering a node's whole active set never stages in memory and
//! consumers pipeline against the remaining transfer.
//!
//! What the reader guarantees (asserted by `tests/run_reader.rs`): no read
//! covers a byte outside a planned span's run; every read is a full chunk
//! except one that ends its run, so `read_calls ≤ runs + bytes_read /
//! STREAM_CHUNK`; and bytes are fetched without being emitted only behind a
//! Case 2 stop, at most a chunk and a header per stop record.

use crate::brick::{BrickEntry, RecordFormat};
use oociso_exio::{RecordStore, Span};
use std::io;

/// Size of one refill of the run reader. Large enough to amortize per-call
/// overhead, small enough that records flow to the consumer while the rest of
/// the run is still on disk: peak memory stays O(chunk + one record) however
/// long the run, and the extraction pipeline overlaps triangulation with the
/// remaining transfer. Refills within a run are perfectly sequential, so the
/// I/O model prices a run as one positioning plus full-bandwidth transfer.
///
/// Measured on the gated slow-disk sweep (500 µs/call, 25 MB/s;
/// `docs/perf.md`, "The run reader"): 64 KiB halves the calls for 4 % more
/// bytes and leaves the sweep's critical path where it was, 128 KiB and up
/// lengthen it — so this stays one constant at 32 KiB.
pub const STREAM_CHUNK: u64 = 32 * 1024;

/// One I/O action of a query plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadAction {
    /// Case 1: a contiguous range of whole bricks; all `count` records active.
    Bulk { span: Span, count: u32 },
    /// Case 2: scan one brick from the front until `vmin > λ`.
    Prefix { entry: BrickEntry },
}

impl ReadAction {
    /// The store range the action may touch: the bulk range, or the whole
    /// brick of a prefix scan.
    pub fn span(&self) -> Span {
        match self {
            ReadAction::Bulk { span, .. } => *span,
            ReadAction::Prefix { entry } => entry.span,
        }
    }
}

/// The compiled I/O plan for one isovalue query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryPlan {
    /// The isovalue in key space.
    pub iso_key: u32,
    /// Actions in root→leaf order.
    pub actions: Vec<ReadAction>,
}

impl QueryPlan {
    /// Records guaranteed active by Case 1 actions (Case 2 contributes an
    /// unknown prefix, so this is a lower bound on the active count).
    pub fn bulk_records(&self) -> u64 {
        self.actions
            .iter()
            .map(|a| match a {
                ReadAction::Bulk { count, .. } => *count as u64,
                ReadAction::Prefix { .. } => 0,
            })
            .sum()
    }

    /// Bytes guaranteed to be read by Case 1 actions.
    pub fn bulk_bytes(&self) -> u64 {
        self.actions
            .iter()
            .map(|a| match a {
                ReadAction::Bulk { span, .. } => span.len,
                ReadAction::Prefix { .. } => 0,
            })
            .sum()
    }

    /// Upper bound on bytes any execution may touch (full spans of both cases).
    pub fn max_bytes(&self) -> u64 {
        self.actions.iter().map(|a| a.span().len).sum()
    }

    /// Per action, the store offset where its *run* ends: the end of the
    /// maximal chain of abutting action spans ([`Span::abuts`]) the action
    /// belongs to. A read begun inside the action may continue to that
    /// offset without touching a byte no action planned.
    pub fn run_ends(&self) -> Vec<u64> {
        let mut ends = vec![0u64; self.actions.len()];
        let mut next: Option<(Span, u64)> = None; // following action's span and run end
        for (i, action) in self.actions.iter().enumerate().rev() {
            let span = action.span();
            let end = match next {
                Some((after, run_end)) if span.abuts(&after) => run_end,
                _ => span.end(),
            };
            ends[i] = end;
            next = Some((span, end));
        }
        ends
    }
}

/// Execution counters of one [`execute_plan`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Active records delivered to the callback.
    pub records_emitted: u64,
    /// Bytes actually read from the store.
    pub bytes_read: u64,
    /// Records inspected but rejected (Case 2 stop records).
    pub records_rejected: u64,
    /// Case 1 bulk transfers executed.
    pub bulk_actions: u64,
    /// Case 2 prefix scans executed.
    pub prefix_actions: u64,
    /// Store reads issued (refills of the run reader).
    pub read_calls: u64,
    /// Physically contiguous read sequences: one per positioning of the
    /// reader (the plan's first read, then one per dropped buffer).
    pub runs: u64,
}

impl ExecStats {
    /// Counter-wise sum (aggregating across plans or nodes).
    pub fn merged(&self, other: &ExecStats) -> ExecStats {
        ExecStats {
            records_emitted: self.records_emitted + other.records_emitted,
            bytes_read: self.bytes_read + other.bytes_read,
            records_rejected: self.records_rejected + other.records_rejected,
            bulk_actions: self.bulk_actions + other.bulk_actions,
            prefix_actions: self.prefix_actions + other.prefix_actions,
            read_calls: self.read_calls + other.read_calls,
            runs: self.runs + other.runs,
        }
    }
}

/// The plan's one forward read stream: a reusable buffer holding the store
/// bytes `[base, base + buf.len())`, consumed up to `base + at`, refilled in
/// [`STREAM_CHUNK`] reads that never pass `run_end`.
struct RunReader<'a> {
    store: &'a RecordStore,
    buf: Vec<u8>,
    base: u64,
    at: usize,
    run_end: u64,
    /// Whether the next read continues the previous one (same run).
    streaming: bool,
    read_calls: u64,
    runs: u64,
    bytes_read: u64,
}

impl<'a> RunReader<'a> {
    fn new(store: &'a RecordStore) -> Self {
        RunReader {
            store,
            buf: Vec::with_capacity(STREAM_CHUNK as usize),
            base: 0,
            at: 0,
            run_end: 0,
            streaming: false,
            read_calls: 0,
            runs: 0,
            bytes_read: 0,
        }
    }

    /// Store offset of the cursor.
    fn pos(&self) -> u64 {
        self.base + self.at as u64
    }

    /// Store offset just past the buffered bytes.
    fn fetched_end(&self) -> u64 {
        self.base + self.buf.len() as u64
    }

    /// Move to an action starting at `start` whose run ends at `run_end`.
    /// A start at or ahead of the cursor and not past the buffered bytes is
    /// reached by advancing; anything else (a gap, a brick tail the buffer
    /// does not cover, a backward step in a hand-built plan) drops the
    /// buffer, and the next read begins a new run at `start`.
    fn seek(&mut self, start: u64, run_end: u64) {
        self.run_end = run_end;
        if (self.pos()..=self.fetched_end()).contains(&start) {
            self.at = (start - self.base) as usize;
        } else {
            self.buf.clear();
            self.base = start;
            self.at = 0;
            self.streaming = false;
        }
    }

    /// The buffered bytes at the cursor, at least `need` of them. The caller
    /// has checked that `need` bytes lie before the end of its span, hence
    /// before `run_end`; a store shorter than the index claims surfaces as
    /// the device's read error.
    fn peek(&mut self, need: usize) -> io::Result<&[u8]> {
        if self.buf.len() - self.at < need {
            // compact the consumed prefix, then read whole chunks (the last
            // one of a run clipped at its end) straight into the tail
            self.buf.drain(..self.at);
            self.base += self.at as u64;
            self.at = 0;
            while self.buf.len() < need && self.fetched_end() < self.run_end {
                let span = Span {
                    offset: self.fetched_end(),
                    len: STREAM_CHUNK.min(self.run_end - self.fetched_end()),
                };
                let old_len = self.buf.len();
                self.buf.resize(old_len + span.len as usize, 0);
                self.store.read_span_into(span, &mut self.buf[old_len..])?;
                self.read_calls += 1;
                self.runs += u64::from(!self.streaming);
                self.streaming = true;
                self.bytes_read += span.len;
            }
        }
        Ok(&self.buf[self.at..])
    }

    /// Consume `len` buffered bytes.
    fn advance(&mut self, len: usize) {
        self.at += len;
    }
}

fn corrupt(what: &str, at: u64, span: Span) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!(
            "{what} at store offset {at}: brick span {}..{} ends inside it",
            span.offset,
            span.end()
        ),
    )
}

/// Execute a plan against a record store, invoking `on_record(id, bytes)` for
/// every active record (header included) *as its chunk arrives*, in plan
/// order — callers can pipeline triangulation against the remaining I/O. All
/// actions share one forward read stream (module docs). Returns execution
/// counters.
///
/// A span that ends inside a record, a header whose length is shorter than
/// the header itself, or a bulk range holding a different number of records
/// than its index entry claims (corrupt or hand-built index or store) is
/// [`io::ErrorKind::InvalidData`]; records emitted before the fault was met
/// stay emitted.
pub fn execute_plan(
    plan: &QueryPlan,
    store: &RecordStore,
    format: &dyn RecordFormat,
    mut on_record: impl FnMut(u32, &[u8]),
) -> io::Result<ExecStats> {
    execute_plan_at(plan, store, format, |id, _, bytes| on_record(id, bytes))
}

/// [`execute_plan`], also handing every record's store offset to
/// `on_record(id, offset, bytes)` — what a consumer needs to name a record
/// it cannot decode.
pub fn execute_plan_at(
    plan: &QueryPlan,
    store: &RecordStore,
    format: &dyn RecordFormat,
    mut on_record: impl FnMut(u32, u64, &[u8]),
) -> io::Result<ExecStats> {
    let mut stats = ExecStats::default();
    let header = format.header_len();
    let mut reader = RunReader::new(store);
    for (action, run_end) in plan.actions.iter().zip(plan.run_ends()) {
        let span = action.span();
        // Case 2 stops at the first record with `vmin > iso_key` (ascending
        // vmin: nothing further can be active); Case 1 emits the whole span,
        // which must hold exactly the records its index entries counted
        let (stop_above, expected) = match action {
            ReadAction::Bulk { count, .. } => {
                stats.bulk_actions += 1;
                (None, Some(*count))
            }
            ReadAction::Prefix { .. } => {
                stats.prefix_actions += 1;
                (Some(plan.iso_key), None)
            }
        };
        reader.seek(span.offset, run_end);
        let mut emitted = 0u32;
        while reader.pos() < span.end() {
            let at = reader.pos();
            let left = span.end() - at;
            if left < header as u64 {
                return Err(corrupt("truncated record header", at, span));
            }
            let head = reader.peek(header)?;
            let (id, vmin) = format.parse_header(head);
            if stop_above.is_some_and(|iso_key| vmin > iso_key) {
                stats.records_rejected += 1;
                break;
            }
            let len = format.record_len(head);
            if len < header {
                return Err(corrupt("record length shorter than its header", at, span));
            }
            if left < len as u64 {
                return Err(corrupt("truncated record payload", at, span));
            }
            on_record(id, at, &reader.peek(len)?[..len]);
            reader.advance(len);
            stats.records_emitted += 1;
            emitted += 1;
        }
        if let Some(count) = expected.filter(|&count| count != emitted) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "bulk range {}..{} holds {emitted} records, index claims {count}",
                    span.offset,
                    span.end()
                ),
            ));
        }
    }
    stats.read_calls = reader.read_calls;
    stats.runs = reader.runs;
    stats.bytes_read = reader.bytes_read;
    Ok(stats)
}

/// Convenience: execute a plan and return the sorted active metacell IDs.
pub fn plan_active_ids(
    plan: &QueryPlan,
    store: &RecordStore,
    format: &dyn RecordFormat,
) -> io::Result<Vec<u32>> {
    let mut ids = Vec::new();
    execute_plan(plan, store, format, |id, _| ids.push(id))?;
    ids.sort_unstable();
    Ok(ids)
}

/// Test-support record format: `id(4) | vmin(4 LE key) | len(1) |
/// payload(id % 5 bytes)`, `len` the whole record's. Variable-length records
/// exercise the run reader's refill boundaries.
#[doc(hidden)]
pub mod testutil {
    use super::*;
    use oociso_metacell::MetacellInterval;

    /// Fixed-header, variable-payload test format.
    #[derive(Clone, Copy, Debug)]
    pub struct TestFormat;

    impl TestFormat {
        /// Record length for an id.
        pub fn len_for(id: u32) -> usize {
            9 + (id as usize % 5)
        }

        /// Encode an interval into a test record.
        pub fn encode(iv: &MetacellInterval) -> Vec<u8> {
            let mut v = Vec::with_capacity(Self::len_for(iv.id));
            v.extend_from_slice(&iv.id.to_le_bytes());
            v.extend_from_slice(&iv.min_key.to_le_bytes());
            v.push(Self::len_for(iv.id) as u8);
            v.resize(Self::len_for(iv.id), 0xEE);
            v
        }
    }

    impl RecordFormat for TestFormat {
        fn header_len(&self) -> usize {
            9
        }
        fn parse_header(&self, bytes: &[u8]) -> (u32, u32) {
            let id = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
            let vmin = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
            (id, vmin)
        }
        fn record_len(&self, header: &[u8]) -> usize {
            usize::from(header[8])
        }
    }

    /// Serialize records for `intervals` in the order the compact-tree builder
    /// will request them. Returns the flat store bytes and per-interval spans
    /// (indexed by build order = the builder's sink call order).
    ///
    /// Works because the builder calls the sink exactly once per interval; we
    /// simulate an append-only store by replaying the same deterministic
    /// build. Callers should feed spans back via an iterator.
    pub fn write_records(intervals: &[MetacellInterval]) -> (Vec<u8>, Vec<Span>) {
        // Dry-run the builder to learn the sink order, then lay out spans.
        let mut order: Vec<u32> = Vec::with_capacity(intervals.len());
        let mut cursor = 0u64;
        let mut spans_by_call: Vec<Span> = Vec::with_capacity(intervals.len());
        let mut bytes: Vec<u8> = Vec::new();
        crate::compact::CompactIntervalTree::build(intervals, &mut |iv| {
            order.push(iv.id);
            let rec = TestFormat::encode(iv);
            let span = Span {
                offset: cursor,
                len: rec.len() as u64,
            };
            cursor += rec.len() as u64;
            bytes.extend_from_slice(&rec);
            spans_by_call.push(span);
            Ok(span)
        })
        .expect("in-memory build cannot fail");
        (bytes, spans_by_call)
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{write_records, TestFormat};
    use super::*;
    use oociso_metacell::interval::brute_force_active;
    use oociso_metacell::MetacellInterval;

    fn mk(id: u32, lo: u32, hi: u32) -> MetacellInterval {
        MetacellInterval::new(id, lo, hi)
    }

    #[test]
    fn plan_byte_accounting() {
        let plan = QueryPlan {
            iso_key: 5,
            actions: vec![
                ReadAction::Bulk {
                    span: Span {
                        offset: 0,
                        len: 100,
                    },
                    count: 10,
                },
                ReadAction::Prefix {
                    entry: BrickEntry {
                        vmax_key: 9,
                        min_vmin_key: 1,
                        span: Span {
                            offset: 100,
                            len: 50,
                        },
                        count: 5,
                    },
                },
            ],
        };
        assert_eq!(plan.bulk_records(), 10);
        assert_eq!(plan.bulk_bytes(), 100);
        assert_eq!(plan.max_bytes(), 150);
    }

    #[test]
    fn prefix_streaming_stops_early() {
        // One brick: vmax = 100 for all, ascending vmins 0..50. Query at 20
        // must emit 21 records and reject exactly one.
        let intervals: Vec<_> = (0..50).map(|i| mk(i, i, 100)).collect();
        let (bytes, _) = write_records(&intervals);
        let store = oociso_exio::RecordStore::in_memory(bytes);
        let mut it = 0;
        // rebuild tree deterministically to get the same layout
        let (bytes2, spans) = write_records(&intervals);
        assert_eq!(store.len() as usize, bytes2.len());
        let tree = crate::compact::CompactIntervalTree::build(&intervals, &mut |_| {
            let s = spans[it];
            it += 1;
            Ok(s)
        })
        .unwrap();
        let plan = tree.plan(20);
        let mut got = Vec::new();
        let stats = execute_plan(&plan, &store, &TestFormat, |id, _| got.push(id)).unwrap();
        got.sort_unstable();
        assert_eq!(got, brute_force_active(&intervals, 20));
        assert_eq!(stats.records_emitted, 21);
        assert!(stats.records_rejected <= plan.actions.len() as u64);
        // early exit: we must NOT have read the whole brick
        assert!(
            stats.bytes_read < store.len(),
            "read {} of {}",
            stats.bytes_read,
            store.len()
        );
    }

    #[test]
    fn records_straddling_chunks_decode_correctly() {
        // big ids → payload sizes vary 0..4; thousands of records to cross
        // many 32 KB chunk boundaries
        let intervals: Vec<_> = (0..20_000).map(|i| mk(i, i % 3, 1_000_000)).collect();
        let (bytes, spans) = write_records(&intervals);
        let mut it = 0;
        let tree = crate::compact::CompactIntervalTree::build(&intervals, &mut |_| {
            let s = spans[it];
            it += 1;
            Ok(s)
        })
        .unwrap();
        let store = oociso_exio::RecordStore::in_memory(bytes);
        let got = plan_active_ids(&tree.plan(2), &store, &TestFormat).unwrap();
        assert_eq!(got, brute_force_active(&intervals, 2));
    }

    #[test]
    fn emitted_record_bytes_are_complete() {
        let intervals: Vec<_> = (0..30).map(|i| mk(i, 0, 10)).collect();
        let (bytes, spans) = write_records(&intervals);
        let mut it = 0;
        let tree = crate::compact::CompactIntervalTree::build(&intervals, &mut |_| {
            let s = spans[it];
            it += 1;
            Ok(s)
        })
        .unwrap();
        let store = oociso_exio::RecordStore::in_memory(bytes);
        execute_plan(&tree.plan(5), &store, &TestFormat, |id, rec| {
            assert_eq!(rec.len(), TestFormat::len_for(id));
            let (pid, _) = TestFormat.parse_header(rec);
            assert_eq!(pid, id);
            // payload filler intact
            assert!(rec[9..].iter().all(|&b| b == 0xEE));
        })
        .unwrap();
    }

    /// Three always-active records (lengths 9, 10, 11) back to back.
    fn three_records() -> Vec<u8> {
        (0..3)
            .flat_map(|id| TestFormat::encode(&mk(id, 0, 9)))
            .collect()
    }

    /// Execute a one-action plan over `store_bytes`, as Case 1 and as Case 2
    /// (isovalue above every vmin, so the scan runs to the span's end),
    /// returning each outcome with the ids emitted before it.
    fn run_both_cases(store_bytes: Vec<u8>, span: Span) -> Vec<(io::Result<ExecStats>, Vec<u32>)> {
        let entry = BrickEntry {
            vmax_key: 9,
            min_vmin_key: 0,
            span,
            count: 3,
        };
        let store = oociso_exio::RecordStore::in_memory(store_bytes);
        [
            ReadAction::Bulk { span, count: 3 },
            ReadAction::Prefix { entry },
        ]
        .into_iter()
        .map(|action| {
            let plan = QueryPlan {
                iso_key: 5,
                actions: vec![action],
            };
            let mut ids = Vec::new();
            let result = execute_plan(&plan, &store, &TestFormat, |id, _| ids.push(id));
            (result, ids)
        })
        .collect()
    }

    #[test]
    fn span_cut_inside_a_record_is_invalid_data_not_a_panic() {
        // the third record starts at 19: a span ending at 21 cuts its header,
        // one ending at 29 leaves the header whole and cuts its payload
        for (len, what) in [(21, "header"), (29, "payload")] {
            for (result, ids) in run_both_cases(three_records(), Span { offset: 0, len }) {
                let err = result.expect_err("a cut record must not be emitted");
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                let msg = err.to_string();
                assert!(msg.contains(what) && msg.contains("offset 19"), "{msg}");
                assert_eq!(ids, [0, 1], "records before the cut stay emitted");
            }
        }
    }

    #[test]
    fn a_length_shorter_than_the_header_is_invalid_data_not_a_hang() {
        // a zero length would leave the reader where it is forever
        let mut bytes = three_records();
        bytes[9 + 8] = 0;
        let span = Span {
            offset: 0,
            len: bytes.len() as u64,
        };
        for (result, ids) in run_both_cases(bytes, span) {
            let msg = result.expect_err("a zero-length record").to_string();
            assert!(
                msg.contains("shorter than its header") && msg.contains("offset 9"),
                "{msg}"
            );
            assert_eq!(ids, [0]);
        }
    }

    #[test]
    fn index_claiming_more_bytes_than_the_store_holds_is_err() {
        let bytes = three_records();
        let span = Span {
            offset: 0,
            len: bytes.len() as u64 + 50,
        };
        for (result, ids) in run_both_cases(bytes, span) {
            assert!(result.is_err());
            assert!(ids.is_empty(), "the failed read delivered nothing");
        }
    }

    #[test]
    fn bulk_count_mismatch_is_invalid_data() {
        let bytes = three_records();
        let span = Span {
            offset: 0,
            len: bytes.len() as u64,
        };
        let plan = QueryPlan {
            iso_key: 5,
            actions: vec![ReadAction::Bulk { span, count: 2 }],
        };
        let store = oociso_exio::RecordStore::in_memory(bytes);
        let err = execute_plan(&plan, &store, &TestFormat, |_, _| {}).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("holds 3 records"), "{err}");
    }

    #[test]
    fn run_ends_chain_abutting_spans_only() {
        let bulk = |offset, len| ReadAction::Bulk {
            span: Span { offset, len },
            count: 1,
        };
        let plan = QueryPlan {
            iso_key: 0,
            actions: vec![
                bulk(0, 10),
                bulk(10, 5),
                bulk(20, 5),
                bulk(25, 1),
                bulk(3, 2),
            ],
        };
        assert_eq!(plan.run_ends(), [15, 15, 26, 26, 5]);
    }
}

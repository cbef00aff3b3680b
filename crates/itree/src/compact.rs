//! The compact interval tree (§4 of the paper).
//!
//! A binary tree over the distinct endpoint values of the metacell intervals.
//! The root splits at the median endpoint `vm`; intervals stabbing `vm` are
//! assigned to the root and materialized as *bricks* in span space: one brick
//! per distinct `vmax`, holding that brick's metacells contiguously on disk in
//! increasing `vmin` order; a node's bricks are laid out consecutively in
//! decreasing `vmax` order. Each node keeps only one small index entry per
//! non-empty brick. Intervals entirely below `vm` recurse left, entirely
//! above recurse right.
//!
//! The same builder produces the `p`-way striped variant of §5.1: each brick's
//! metacells are dealt round-robin across `p` stores, and each stripe gets its
//! own tree whose entries point at its local brick segments. Per brick, the
//! per-stripe record counts differ by at most one — the paper's load-balance
//! guarantee, which the property tests assert.

use crate::brick::BrickEntry;
use crate::plan::{QueryPlan, ReadAction};
use oociso_exio::Span;
use oociso_metacell::MetacellInterval;
use std::io;

/// One node of the compact interval tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactNode {
    /// Splitting value (median of the subtree's distinct endpoints).
    pub split_key: u32,
    /// Brick index entries, in decreasing `vmax_key` order.
    pub entries: Vec<BrickEntry>,
    /// Left child (intervals entirely below `split_key`).
    pub left: Option<u32>,
    /// Right child (intervals entirely above `split_key`).
    pub right: Option<u32>,
}

/// The compact interval tree: index structure + query planner.
///
/// The tree holds *no* interval lists — only `O(n log n)` brick entries — and
/// is therefore small enough to pin in memory for any realistic scalar width
/// (6 KB for the paper's one-byte RM time step).
#[derive(Clone, Debug, PartialEq)]
pub struct CompactIntervalTree {
    nodes: Vec<CompactNode>,
    root: Option<u32>,
    num_intervals: u64,
    num_endpoints: usize,
}

/// Internal: bricks of one skeleton node, before spans are assigned.
struct PendingNode {
    split_key: u32,
    /// (vmax_key, interval indices sorted by (vmin, id)) in decreasing vmax order.
    bricks: Vec<(u32, Vec<usize>)>,
    left: Option<u32>,
    right: Option<u32>,
}

fn distinct_endpoints(intervals: &[MetacellInterval], idxs: &[usize]) -> Vec<u32> {
    let mut eps = Vec::with_capacity(idxs.len() * 2);
    for &i in idxs {
        eps.push(intervals[i].min_key);
        eps.push(intervals[i].max_key);
    }
    eps.sort_unstable();
    eps.dedup();
    eps
}

fn build_skeleton(intervals: &[MetacellInterval]) -> (Vec<PendingNode>, Option<u32>) {
    let mut nodes: Vec<PendingNode> = Vec::new();
    let all: Vec<usize> = (0..intervals.len()).collect();
    let root = build_rec(intervals, all, &mut nodes);
    (nodes, root)
}

fn build_rec(
    intervals: &[MetacellInterval],
    idxs: Vec<usize>,
    nodes: &mut Vec<PendingNode>,
) -> Option<u32> {
    if idxs.is_empty() {
        return None;
    }
    let eps = distinct_endpoints(intervals, &idxs);
    let split_key = eps[eps.len() / 2];

    let mut here: Vec<usize> = Vec::new();
    let mut left: Vec<usize> = Vec::new();
    let mut right: Vec<usize> = Vec::new();
    for i in idxs {
        let iv = &intervals[i];
        if iv.max_key < split_key {
            left.push(i);
        } else if iv.min_key > split_key {
            right.push(i);
        } else {
            here.push(i);
        }
    }
    debug_assert!(
        !here.is_empty(),
        "median endpoint must stab at least one interval"
    );

    // Group the node's intervals into bricks by vmax (descending), each brick
    // sorted ascending by (vmin, id) for deterministic layout.
    here.sort_unstable_by_key(|&i| {
        (
            u32::MAX - intervals[i].max_key, // vmax descending
            intervals[i].min_key,            // vmin ascending
            intervals[i].id,
        )
    });
    let mut bricks: Vec<(u32, Vec<usize>)> = Vec::new();
    for i in here {
        let vmax = intervals[i].max_key;
        match bricks.last_mut() {
            Some((bmax, list)) if *bmax == vmax => list.push(i),
            _ => bricks.push((vmax, vec![i])),
        }
    }

    let me = nodes.len() as u32;
    nodes.push(PendingNode {
        split_key,
        bricks,
        left: None,
        right: None,
    });
    let l = build_rec(intervals, left, nodes);
    let r = build_rec(intervals, right, nodes);
    let node = &mut nodes[me as usize];
    node.left = l;
    node.right = r;
    Some(me)
}

impl CompactIntervalTree {
    /// Build a single-store tree. `sink` must append the record of the given
    /// interval to the store and return its span; the builder calls it in
    /// exact on-disk layout order (per node: bricks by decreasing `vmax`,
    /// records by increasing `vmin`) and verifies spans are contiguous within
    /// each node so Case 1 can read a node's active bricks in one transfer.
    pub fn build(
        intervals: &[MetacellInterval],
        sink: &mut dyn FnMut(&MetacellInterval) -> io::Result<Span>,
    ) -> io::Result<CompactIntervalTree> {
        let mut trees = Self::build_striped(intervals, 1, &mut |_stripe, iv| sink(iv))?;
        Ok(trees.pop().expect("one stripe"))
    }

    /// Build `stripes` trees with round-robin brick striping (§5.1). `sink`
    /// appends the record for an interval to the given stripe's store and
    /// returns the span *within that store*.
    pub fn build_striped(
        intervals: &[MetacellInterval],
        stripes: usize,
        sink: &mut dyn FnMut(usize, &MetacellInterval) -> io::Result<Span>,
    ) -> io::Result<Vec<CompactIntervalTree>> {
        assert!(stripes > 0, "need at least one stripe");
        let (pending, root) = build_skeleton(intervals);
        let eps = distinct_endpoints(intervals, &(0..intervals.len()).collect::<Vec<_>>());

        let mut per_stripe_nodes: Vec<Vec<CompactNode>> = (0..stripes)
            .map(|_| Vec::with_capacity(pending.len()))
            .collect();
        let mut per_stripe_counts = vec![0u64; stripes];

        for pn in &pending {
            let mut stripe_entries: Vec<Vec<BrickEntry>> = vec![Vec::new(); stripes];
            for (vmax_key, members) in &pn.bricks {
                // Deal this brick's records round-robin across stripes, in
                // ascending vmin order, appending to each stripe's store.
                let mut local: Vec<Option<BrickEntry>> = vec![None; stripes];
                for (pos, &ii) in members.iter().enumerate() {
                    let iv = &intervals[ii];
                    let stripe = pos % stripes;
                    let span = sink(stripe, iv)?;
                    per_stripe_counts[stripe] += 1;
                    match &mut local[stripe] {
                        None => {
                            local[stripe] = Some(BrickEntry {
                                vmax_key: *vmax_key,
                                min_vmin_key: iv.min_key,
                                span,
                                count: 1,
                            })
                        }
                        Some(e) => {
                            assert!(
                                e.span.abuts(&span),
                                "stripe store must receive brick records contiguously"
                            );
                            e.span = e.span.join(&span);
                            e.count += 1;
                        }
                    }
                }
                for (s, entry) in local.into_iter().enumerate() {
                    if let Some(e) = entry {
                        stripe_entries[s].push(e);
                    }
                }
            }
            for (s, entries) in stripe_entries.into_iter().enumerate() {
                // Within a node, each stripe's bricks must be contiguous so a
                // Case 1 read is one bulk transfer.
                for w in entries.windows(2) {
                    debug_assert!(w[0].span.abuts(&w[1].span));
                    debug_assert!(w[0].vmax_key > w[1].vmax_key);
                }
                per_stripe_nodes[s].push(CompactNode {
                    split_key: pn.split_key,
                    entries,
                    left: pn.left,
                    right: pn.right,
                });
            }
        }

        Ok(per_stripe_nodes
            .into_iter()
            .zip(per_stripe_counts)
            .map(|(nodes, count)| CompactIntervalTree {
                nodes,
                root,
                num_intervals: count,
                num_endpoints: eps.len(),
            })
            .collect())
    }

    /// Plan the I/O for isovalue key `iso_key`: walk the root→leaf path,
    /// emitting a Case 1 bulk action or Case 2 prefix actions per node (§5).
    /// A node's bricks are laid out before its left subtree's and those
    /// before its right subtree's, so the actions come out in increasing
    /// store offset and neighbours mostly abut — across bricks, cases and
    /// tree levels; [`QueryPlan::run_ends`] chains them into the runs the
    /// executor reads as one stream each.
    pub fn plan(&self, iso_key: u32) -> QueryPlan {
        let mut actions = Vec::new();
        let mut cursor = self.root;
        while let Some(i) = cursor {
            let node = &self.nodes[i as usize];
            if iso_key >= node.split_key {
                // Case 1: every interval here has vmin ≤ split ≤ iso, so a
                // record is active iff its brick's vmax ≥ iso. Bricks are laid
                // out in decreasing vmax: the active set is a contiguous
                // prefix, normally read with one bulk transfer. The builder
                // lays a node's bricks out contiguously; if an index ever
                // carries a gap (hand-built or corrupted), the coalescer
                // flushes and starts a new bulk action instead of joining
                // non-abutting spans into a fabricated range.
                let mut bulk: Option<(Span, u32)> = None;
                for e in &node.entries {
                    if e.vmax_key < iso_key {
                        break;
                    }
                    bulk = Some(match bulk {
                        None => (e.span, e.count),
                        Some((s, count)) => match s.try_join(&e.span) {
                            Some(joined) => (joined, count + e.count),
                            None => {
                                actions.push(ReadAction::Bulk { span: s, count });
                                (e.span, e.count)
                            }
                        },
                    });
                }
                if let Some((span, count)) = bulk {
                    actions.push(ReadAction::Bulk { span, count });
                }
                cursor = node.right;
            } else {
                // Case 2: every brick's vmax ≥ split > iso, so a record is
                // active iff vmin ≤ iso: an ascending-vmin prefix of each
                // brick. Bricks whose smallest vmin exceeds iso cost no I/O.
                for e in &node.entries {
                    if e.min_vmin_key <= iso_key {
                        actions.push(ReadAction::Prefix { entry: *e });
                    }
                }
                cursor = node.left;
            }
        }
        QueryPlan { iso_key, actions }
    }

    /// Number of tree nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Total brick index entries across all nodes.
    pub fn num_entries(&self) -> usize {
        self.nodes.iter().map(|n| n.entries.len()).sum()
    }

    /// Number of intervals (metacells) indexed by this tree/stripe.
    pub fn num_intervals(&self) -> u64 {
        self.num_intervals
    }

    /// Number of distinct endpoint values `n` of the *global* interval set.
    pub fn num_endpoints(&self) -> usize {
        self.num_endpoints
    }

    /// Height of the tree (0 for an empty tree).
    pub fn height(&self) -> usize {
        fn h(nodes: &[CompactNode], at: Option<u32>) -> usize {
            match at {
                None => 0,
                Some(i) => {
                    let n = &nodes[i as usize];
                    1 + h(nodes, n.left).max(h(nodes, n.right))
                }
            }
        }
        h(&self.nodes, self.root)
    }

    /// Nodes slice (read-only; used by persistence and size reports).
    pub fn nodes(&self) -> &[CompactNode] {
        &self.nodes
    }

    /// Root node index.
    pub fn root(&self) -> Option<u32> {
        self.root
    }

    /// Rebuild from raw parts (persistence).
    pub fn from_parts(
        nodes: Vec<CompactNode>,
        root: Option<u32>,
        num_intervals: u64,
        num_endpoints: usize,
    ) -> Self {
        CompactIntervalTree {
            nodes,
            root,
            num_intervals,
            num_endpoints,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::testutil::{write_records, TestFormat};
    use crate::plan::{execute_plan, plan_active_ids};
    use oociso_exio::RecordStore;
    use oociso_metacell::interval::brute_force_active;

    fn mk(id: u32, lo: u32, hi: u32) -> MetacellInterval {
        MetacellInterval::new(id, lo, hi)
    }

    fn sample_intervals() -> Vec<MetacellInterval> {
        vec![
            mk(0, 0, 10),
            mk(1, 2, 4),
            mk(2, 3, 9),
            mk(3, 5, 6),
            mk(4, 5, 12),
            mk(5, 7, 8),
            mk(6, 11, 14),
            mk(7, 0, 3),
            mk(8, 9, 9),
        ]
    }

    #[test]
    fn plan_splits_bulk_at_non_abutting_entries() {
        // Hand-build a tree whose node holds two bricks with a gap between
        // their spans (a layout no healthy build produces, but a corrupt or
        // foreign index could). The planner must emit two bulk actions rather
        // than join the spans across the gap; execution then reads exactly the
        // real records.
        let rec = |id: u32, vmin: u32| TestFormat::encode(&mk(id, vmin, 50));
        let (r0, r1) = (rec(10, 0), rec(11, 1));
        let gap = vec![0xAAu8; 16]; // bytes no record owns
        let mut store_bytes = r0.clone();
        store_bytes.extend_from_slice(&gap);
        let off1 = store_bytes.len() as u64;
        store_bytes.extend_from_slice(&r1);
        let e = |vmax_key, offset, len: usize| BrickEntry {
            vmax_key,
            min_vmin_key: 0,
            span: Span {
                offset,
                len: len as u64,
            },
            count: 1,
        };
        let tree = CompactIntervalTree {
            nodes: vec![CompactNode {
                split_key: 5,
                entries: vec![e(50, 0, r0.len()), e(40, off1, r1.len())],
                left: None,
                right: None,
            }],
            root: Some(0),
            num_intervals: 2,
            num_endpoints: 3,
        };
        let plan = tree.plan(10);
        let bulks: Vec<_> = plan
            .actions
            .iter()
            .filter_map(|a| match a {
                ReadAction::Bulk { span, count } => Some((*span, *count)),
                _ => None,
            })
            .collect();
        assert_eq!(
            bulks.len(),
            2,
            "gap must split the bulk: {:?}",
            plan.actions
        );
        assert_eq!(bulks[0].0.end(), r0.len() as u64);
        assert_eq!(bulks[1].0.offset, off1);
        // ... and the gap ends the first run: no read may be carried across it
        assert_eq!(plan.run_ends(), [r0.len() as u64, store_bytes.len() as u64]);
        let store = RecordStore::in_memory(store_bytes);
        let mut ids = Vec::new();
        let stats = execute_plan(&plan, &store, &TestFormat, |id, _| ids.push(id)).unwrap();
        assert_eq!(ids, vec![10, 11]);
        assert_eq!((stats.runs, stats.read_calls), (2, 2));
        assert_eq!(stats.bytes_read, (r0.len() + r1.len()) as u64);
    }

    #[test]
    fn empty_input_gives_empty_tree() {
        let tree = CompactIntervalTree::build(&[], &mut |_| unreachable!()).unwrap();
        assert_eq!(tree.num_nodes(), 0);
        assert!(tree.plan(5).actions.is_empty());
        assert_eq!(tree.height(), 0);
    }

    #[test]
    fn structural_invariants() {
        let intervals = sample_intervals();
        let (store_bytes, spans) = write_records(&intervals);
        let mut it = spans.iter();
        let tree =
            CompactIntervalTree::build(&intervals, &mut |_iv| Ok(*it.next().unwrap())).unwrap();
        let _ = store_bytes;
        assert_eq!(tree.num_intervals(), intervals.len() as u64);
        for node in tree.nodes() {
            for w in node.entries.windows(2) {
                assert!(
                    w[0].vmax_key > w[1].vmax_key,
                    "entries must be desc by vmax"
                );
                assert!(w[0].span.abuts(&w[1].span), "node bricks contiguous");
            }
            for e in &node.entries {
                assert!(e.count > 0);
                assert!(e.min_vmin_key <= e.vmax_key);
            }
        }
        // every interval appears in exactly one brick
        let total: u32 = tree
            .nodes()
            .iter()
            .flat_map(|n| n.entries.iter().map(|e| e.count))
            .sum();
        assert_eq!(total, intervals.len() as u32);
    }

    #[test]
    fn queries_match_brute_force() {
        let intervals = sample_intervals();
        let fmt = TestFormat;
        let (bytes, spans) = write_records(&intervals);
        let mut it = spans.iter();
        let tree =
            CompactIntervalTree::build(&intervals, &mut |_| Ok(*it.next().unwrap())).unwrap();
        let store = RecordStore::in_memory(bytes);
        for q in 0..16u32 {
            let got = plan_active_ids(&tree.plan(q), &store, &fmt).unwrap();
            let want = brute_force_active(&intervals, q);
            assert_eq!(got, want, "isovalue {q}");
        }
    }

    #[test]
    fn case1_is_single_bulk_read_per_node() {
        // all intervals share vmin=0, distinct vmax: one node, many bricks;
        // a high isovalue triggers Case 1 with one Bulk action.
        let intervals: Vec<_> = (0..10).map(|i| mk(i, 0, 10 + i)).collect();
        let (bytes, spans) = write_records(&intervals);
        let mut it = spans.iter();
        let tree =
            CompactIntervalTree::build(&intervals, &mut |_| Ok(*it.next().unwrap())).unwrap();
        let plan = tree.plan(15);
        let bulks = plan
            .actions
            .iter()
            .filter(|a| matches!(a, ReadAction::Bulk { .. }))
            .count();
        assert!(bulks >= 1);
        // executing gives exactly the brute-force actives
        let store = RecordStore::in_memory(bytes);
        let got = plan_active_ids(&plan, &store, &TestFormat).unwrap();
        assert_eq!(got, brute_force_active(&intervals, 15));
        // Case 1 reads are sequential: at most one seek per Bulk action
        let snap = store.device().io_snapshot();
        assert!(snap.seeks as usize <= bulks + plan.actions.len());
    }

    #[test]
    fn striping_balance_within_one() {
        let intervals: Vec<_> = (0..97).map(|i| mk(i, i % 13, i % 13 + 1 + i % 7)).collect();
        for p in [2usize, 3, 4, 8] {
            let mut cursors = vec![0u64; p];
            let trees = CompactIntervalTree::build_striped(&intervals, p, &mut |s, iv| {
                let len = TestFormat::len_for(iv.id) as u64;
                let span = Span {
                    offset: cursors[s],
                    len,
                };
                cursors[s] += len;
                Ok(span)
            })
            .unwrap();
            assert_eq!(trees.len(), p);
            // Per global brick, stripe counts differ by ≤ 1. Reconstruct via
            // per-(node, vmax) entry counts across stripes.
            let nodes = trees[0].num_nodes();
            for ni in 0..nodes {
                use std::collections::HashMap;
                let mut per_vmax: HashMap<u32, Vec<u32>> = HashMap::new();
                for t in &trees {
                    for e in &t.nodes()[ni].entries {
                        per_vmax.entry(e.vmax_key).or_default().push(e.count);
                    }
                }
                for (vmax, counts) in per_vmax {
                    let hi = *counts.iter().max().unwrap();
                    let lo = if counts.len() == p {
                        *counts.iter().min().unwrap()
                    } else {
                        0 // some stripes got zero records (entry omitted)
                    };
                    assert!(
                        hi - lo <= 1,
                        "node {ni} brick vmax={vmax}: counts {counts:?}"
                    );
                }
            }
            // total records conserved
            let total: u64 = trees.iter().map(|t| t.num_intervals()).sum();
            assert_eq!(total, intervals.len() as u64);
        }
    }

    #[test]
    fn striped_union_matches_serial_query() {
        let intervals: Vec<_> = (0..60)
            .map(|i| mk(i, (i * 7) % 20, (i * 7) % 20 + 1 + (i % 9)))
            .collect();
        // serial reference
        let (bytes, spans) = write_records(&intervals);
        let mut it = spans.iter();
        let serial =
            CompactIntervalTree::build(&intervals, &mut |_| Ok(*it.next().unwrap())).unwrap();
        let serial_store = RecordStore::in_memory(bytes);

        // striped build with per-stripe in-memory stores
        let p = 3;
        let mut stores_bytes: Vec<Vec<u8>> = vec![Vec::new(); p];
        let trees = CompactIntervalTree::build_striped(&intervals, p, &mut |s, iv| {
            let rec = TestFormat::encode(iv);
            let span = Span {
                offset: stores_bytes[s].len() as u64,
                len: rec.len() as u64,
            };
            stores_bytes[s].extend_from_slice(&rec);
            Ok(span)
        })
        .unwrap();
        let stores: Vec<RecordStore> = stores_bytes
            .into_iter()
            .map(RecordStore::in_memory)
            .collect();

        for q in 0..32u32 {
            let want = plan_active_ids(&serial.plan(q), &serial_store, &TestFormat).unwrap();
            let mut got: Vec<u32> = Vec::new();
            for (t, s) in trees.iter().zip(&stores) {
                got.extend(plan_active_ids(&t.plan(q), s, &TestFormat).unwrap());
            }
            got.sort_unstable();
            assert_eq!(got, want, "isovalue {q}");
            assert_eq!(want, brute_force_active(&intervals, q));
        }
    }

    #[test]
    fn height_is_logarithmic() {
        let intervals: Vec<_> = (0..512).map(|i| mk(i, i % 64, i % 64 + 3)).collect();
        let mut cursor = 0u64;
        let tree = CompactIntervalTree::build(&intervals, &mut |iv| {
            let len = TestFormat::len_for(iv.id) as u64;
            let s = Span {
                offset: cursor,
                len,
            };
            cursor += len;
            Ok(s)
        })
        .unwrap();
        // 67 distinct endpoints → height ≤ ~log2(67)+2
        assert!(tree.height() <= 9, "height {}", tree.height());
        assert!(tree.num_endpoints() <= 67 + 3);
    }

    #[test]
    fn executor_counts_match_plan() {
        let intervals = sample_intervals();
        let (bytes, spans) = write_records(&intervals);
        let mut it = spans.iter();
        let tree =
            CompactIntervalTree::build(&intervals, &mut |_| Ok(*it.next().unwrap())).unwrap();
        let store = RecordStore::in_memory(bytes);
        let plan = tree.plan(6);
        let mut seen = 0u64;
        let stats = execute_plan(&plan, &store, &TestFormat, |_id, _bytes| {
            seen += 1;
        })
        .unwrap();
        assert_eq!(stats.records_emitted, seen);
        assert_eq!(seen, brute_force_active(&intervals, 6).len() as u64);
    }
}

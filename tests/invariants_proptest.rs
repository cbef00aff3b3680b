//! Property-based invariants across the indexing and striping stack.

use oociso::exio::{RecordStore, Span};
use oociso::itree::plan::testutil::TestFormat;
use oociso::itree::plan::{execute_plan, plan_active_ids};
use oociso::itree::{CompactIntervalTree, StandardIntervalTree};
use oociso::metacell::interval::brute_force_active;
use oociso::metacell::MetacellInterval;
use proptest::prelude::*;

/// Random interval sets: ids dense, endpoints in a compact range so bricks
/// and node reuse actually occur.
fn intervals_strategy(max_len: usize) -> impl Strategy<Value = Vec<MetacellInterval>> {
    prop::collection::vec((0u32..200, 0u32..40), 1..max_len).prop_map(|pairs| {
        pairs
            .into_iter()
            .enumerate()
            .map(|(id, (lo, span))| MetacellInterval::new(id as u32, lo, lo + 1 + span))
            .collect()
    })
}

/// Build a compact tree plus an in-memory store with the test record format.
fn build_with_store(intervals: &[MetacellInterval]) -> (CompactIntervalTree, RecordStore) {
    let mut bytes: Vec<u8> = Vec::new();
    let tree = CompactIntervalTree::build(intervals, &mut |iv| {
        let rec = TestFormat::encode(iv);
        let span = Span {
            offset: bytes.len() as u64,
            len: rec.len() as u64,
        };
        bytes.extend_from_slice(&rec);
        Ok(span)
    })
    .unwrap();
    (tree, RecordStore::in_memory(bytes))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compact_tree_equals_brute_force(intervals in intervals_strategy(300), iso in 0u32..260) {
        let (tree, store) = build_with_store(&intervals);
        let got = plan_active_ids(&tree.plan(iso), &store, &TestFormat).unwrap();
        prop_assert_eq!(got, brute_force_active(&intervals, iso));
    }

    #[test]
    fn standard_tree_equals_brute_force(intervals in intervals_strategy(300), iso in 0u32..260) {
        let tree = StandardIntervalTree::build(&intervals);
        prop_assert_eq!(tree.stab(iso), brute_force_active(&intervals, iso));
    }

    #[test]
    fn striped_union_equals_serial_and_balances(
        intervals in intervals_strategy(200),
        p in 2usize..6,
        iso in 0u32..260,
    ) {
        // build p striped stores
        let mut stores_bytes: Vec<Vec<u8>> = vec![Vec::new(); p];
        let trees = CompactIntervalTree::build_striped(&intervals, p, &mut |s, iv| {
            let rec = TestFormat::encode(iv);
            let span = Span { offset: stores_bytes[s].len() as u64, len: rec.len() as u64 };
            stores_bytes[s].extend_from_slice(&rec);
            Ok(span)
        }).unwrap();
        let stores: Vec<RecordStore> = stores_bytes.into_iter().map(RecordStore::in_memory).collect();

        let mut union: Vec<u32> = Vec::new();
        let mut per_node: Vec<u64> = Vec::new();
        for (t, s) in trees.iter().zip(&stores) {
            let ids = plan_active_ids(&t.plan(iso), s, &TestFormat).unwrap();
            per_node.push(ids.len() as u64);
            union.extend(ids);
        }
        union.sort_unstable();
        let want = brute_force_active(&intervals, iso);
        prop_assert_eq!(&union, &want, "union of stripes must equal serial");

        // balance: aggregate spread bounded by the number of active bricks
        // (per-brick counts differ by ≤ 1)
        let active_bricks = {
            // brick = (node, vmax); upper-bound by counting distinct vmax
            // among active intervals times tree height
            let mut vmaxes: Vec<u32> = intervals.iter()
                .filter(|iv| iv.contains(iso)).map(|iv| iv.max_key).collect();
            vmaxes.sort_unstable();
            vmaxes.dedup();
            vmaxes.len() as u64 * trees[0].height().max(1) as u64
        };
        let spread = per_node.iter().max().unwrap() - per_node.iter().min().unwrap();
        prop_assert!(spread <= active_bricks + 1,
            "spread {} vs active-brick bound {} (counts {:?})", spread, active_bricks, per_node);
    }

    #[test]
    fn bulk_actions_emit_exactly_count(intervals in intervals_strategy(150), iso in 0u32..260) {
        let (tree, store) = build_with_store(&intervals);
        let plan = tree.plan(iso);
        let mut emitted = 0u64;
        let stats = execute_plan(&plan, &store, &TestFormat, |_, _| emitted += 1).unwrap();
        prop_assert_eq!(stats.records_emitted, emitted);
        prop_assert!(emitted >= plan.bulk_records(),
            "bulk records are a lower bound on emissions");
        // every byte read lies inside a planned span
        prop_assert!(stats.bytes_read <= plan.max_bytes());
    }

    #[test]
    fn persistence_is_lossless(intervals in intervals_strategy(150)) {
        let (tree, _) = build_with_store(&intervals);
        let mut path = std::env::temp_dir();
        path.push(format!("oociso_prop_{}_{}.idx", std::process::id(),
            intervals.len()));
        oociso::itree::persist::save(&tree, &path).unwrap();
        let back = oociso::itree::persist::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(tree, back);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// End-to-end: random small u8 volumes through the full database must
    /// match direct marching cubes triangle counts for random isovalues.
    #[test]
    fn database_matches_direct_mc_on_random_volumes(
        seed in 0u64..1000,
        iso in 20.0f32..235.0,
        p in 1usize..4,
    ) {
        use oociso::core::{ClusterDatabase, PreprocessOptions};
        use oociso::march::{marching_cubes, IndexedMesh, Vec3};
        use oociso::volume::{Dims3, Volume};
        use oociso::volume::noise;

        let dims = Dims3::new(19, 17, 15);
        let vol = Volume::<u8>::generate(dims, |x, y, z| {
            (noise::fbm(seed, x as f32 * 0.23, y as f32 * 0.23, z as f32 * 0.23, 3) * 255.0) as u8
        });
        let mut truth = IndexedMesh::new();
        marching_cubes(&vol, iso, Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0), &mut truth);

        let mut dir = std::env::temp_dir();
        dir.push(format!("oociso_prop_db_{}_{}_{}", std::process::id(), seed, p));
        let db = ClusterDatabase::preprocess(&vol, &dir,
            &PreprocessOptions { nodes: p, ..Default::default() }).unwrap();
        let got = db.extract(iso).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(got.mesh.len(), truth.len());
    }
}

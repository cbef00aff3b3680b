//! Property tests for metacell layout, records and scans.

use oociso_metacell::{scan_volume, MetacellLayout, MetacellRecord};
use oociso_volume::{Dims3, ScalarValue, Volume};
use proptest::prelude::*;

fn dims_strategy() -> impl Strategy<Value = Dims3> {
    (2usize..28, 2usize..28, 2usize..20).prop_map(|(x, y, z)| Dims3::new(x, y, z))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn layout_covers_every_vertex_box(dims in dims_strategy(), k in 2usize..10) {
        let layout = MetacellLayout::new(dims, k);
        // each metacell's vertex box is non-empty and within bounds; the
        // union of cell ownership covers all cells exactly once
        let mut cell_owner = vec![0u32; dims.num_cells()];
        let cell_dims = Dims3::new(
            (dims.nx - 1).max(1), (dims.ny - 1).max(1), (dims.nz - 1).max(1));
        for id in layout.ids() {
            let ((x0, y0, z0), (x1, y1, z1)) = layout.vertex_box(id);
            prop_assert!(x0 < x1 && y0 < y1 && z0 < z1);
            prop_assert!(x1 <= dims.nx && y1 <= dims.ny && z1 <= dims.nz);
            for cz in z0..z1 - 1 {
                for cy in y0..y1 - 1 {
                    for cx in x0..x1 - 1 {
                        cell_owner[cell_dims.index(cx, cy, cz)] += 1;
                    }
                }
            }
        }
        prop_assert!(cell_owner.iter().all(|&c| c == 1));
    }

    #[test]
    fn record_roundtrip_random_payload(
        dims in dims_strategy(),
        k in 2usize..10,
        seed in any::<u64>(),
    ) {
        let vol = Volume::<u8>::generate(dims, |x, y, z| {
            (oociso_volume::noise::splitmix64(seed ^ ((x * 73 + y * 179 + z * 283) as u64)) & 0xff) as u8
        });
        let layout = MetacellLayout::new(dims, k);
        for id in layout.ids().step_by(3) {
            let rec = MetacellRecord::from_volume(&vol, &layout, id);
            let bytes = rec.encode();
            // the raw record plus the length word bounds every stored one
            prop_assert!(bytes.len() <= layout.record_len(id, 1) + 4);
            let (back, used) = MetacellRecord::<u8>::decode(&bytes, &layout);
            prop_assert_eq!(used, bytes.len());
            prop_assert_eq!(&back, &rec);
            // vmin in header really is the payload minimum
            prop_assert_eq!(back.vmin, *rec.scalars.iter().min().unwrap());
        }
    }

    #[test]
    fn scan_intervals_bound_payloads(dims in dims_strategy(), seed in any::<u64>()) {
        let vol = Volume::<u8>::generate(dims, |x, y, z| {
            ((x * 31 + y * 17 + z * 11) as u64 ^ seed) as u8
        });
        let layout = MetacellLayout::new(dims, 5);
        let (kept, stats) = scan_volume(&vol, &layout);
        prop_assert_eq!(stats.kept_metacells + stats.culled_metacells, stats.total_metacells);
        for b in &kept {
            let lo = b.record.scalars.iter().map(|s| s.key()).min().unwrap();
            let hi = b.record.scalars.iter().map(|s| s.key()).max().unwrap();
            prop_assert_eq!(b.interval.min_key, lo);
            prop_assert_eq!(b.interval.max_key, hi);
            prop_assert!(lo < hi, "constant metacells must be culled");
        }
    }
}

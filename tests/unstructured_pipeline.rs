//! The unstructured-grid path (§4: "Our algorithm can handle both structured
//! and unstructured grids"): tet clusters play the metacell role, the compact
//! interval tree indexes their intervals, and queries retrieve + triangulate
//! exactly the clusters a brute-force scan would.

use oociso::exio::{RecordStore, Span};
use oociso::itree::{CompactIntervalTree, RecordFormat};
use oociso::march::unstructured::{extract_cluster, extract_mesh};
use oociso::march::IndexedMesh;
use oociso::metacell::MetacellInterval;
use oociso::volume::field::{FieldExt, SphereField};
use oociso::volume::tetmesh::{TetCluster, TetMesh};
use oociso::volume::{Dims3, ScalarValue, Volume};

/// Record format for serialized tet clusters: variable-length records whose
/// length is recovered from the header (vertex/tet counts).
struct ClusterFormat;

impl RecordFormat for ClusterFormat {
    fn header_len(&self) -> usize {
        12
    }
    fn parse_header(&self, bytes: &[u8]) -> (u32, u32) {
        let id = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
        (id, 0) // vmin unused: Case-2 streaming is exercised by the metacell path
    }
    fn record_len(&self, header: &[u8]) -> usize {
        // id, vertex count, tet count; 16 bytes a vertex and a tet
        let count = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().unwrap());
        12 + 16 * (count(4) + count(8)) as usize
    }
}

fn build_indexed_clusters(
    mesh: &TetMesh,
    tets_per_cluster: usize,
) -> (CompactIntervalTree, RecordStore, ClusterFormat, usize) {
    let clusters = mesh.clusters(tets_per_cluster);
    let mut intervals = Vec::new();
    let mut culled = 0usize;
    for c in &clusters {
        let (lo, hi) = c.value_interval().unwrap();
        if lo == hi {
            culled += 1;
        } else {
            intervals.push(MetacellInterval::new(c.id, lo, hi));
        }
    }
    let mut bytes: Vec<u8> = Vec::new();
    let tree = CompactIntervalTree::build(&intervals, &mut |iv| {
        let rec = clusters[iv.id as usize].encode();
        let span = Span {
            offset: bytes.len() as u64,
            len: rec.len() as u64,
        };
        bytes.extend_from_slice(&rec);
        Ok(span)
    })
    .unwrap();
    (tree, RecordStore::in_memory(bytes), ClusterFormat, culled)
}

#[test]
fn indexed_unstructured_extraction_matches_direct() {
    let f = SphereField {
        center: [0.5, 0.5, 0.5],
        radius: 0.25,
        level: 120.0,
        slope: 400.0,
    };
    let vol: Volume<u8> = f.sample(Dims3::cube(16));
    let mesh = TetMesh::from_volume(&vol);
    let (tree, store, format, culled) = build_indexed_clusters(&mesh, 36);
    assert!(culled > 0, "far-field clusters should be culled");

    for iso in [80.0f32, 120.0, 160.0] {
        let mut direct = IndexedMesh::new();
        extract_mesh(&mesh, iso, &mut direct);

        let mut indexed = IndexedMesh::new();
        let plan = tree.plan(f32::query_key(iso));
        oociso::itree::execute_plan(&plan, &store, &format, |_id, rec| {
            let (cluster, used) = TetCluster::decode(rec);
            assert_eq!(used, rec.len());
            extract_cluster(&cluster, iso, &mut indexed);
        })
        .unwrap();

        assert_eq!(indexed.len(), direct.len(), "iso {iso}");
        assert!((indexed.area() - direct.area()).abs() <= 1e-6 * direct.area().max(1.0));
    }
}

#[test]
fn unstructured_query_reads_less_than_full_mesh() {
    let vol: Volume<u8> = SphereField::centered(0.22, 120.0).sample(Dims3::cube(20));
    let mesh = TetMesh::from_volume(&vol);
    let (tree, store, format, _) = build_indexed_clusters(&mesh, 36);
    let plan = tree.plan(f32::query_key(120.0));
    let mut records = 0u64;
    let stats = oociso::itree::execute_plan(&plan, &store, &format, |_, _| records += 1).unwrap();
    assert!(records > 0);
    // a small sphere inside a big volume: the query must not read the store
    // wholesale
    assert!(
        stats.bytes_read * 2 < store.len(),
        "read {} of {}",
        stats.bytes_read,
        store.len()
    );
}

#[test]
fn unstructured_surface_is_closed() {
    let vol: Volume<f32> = SphereField::centered(0.3, 120.0).sample(Dims3::cube(16));
    let mesh = TetMesh::from_volume(&vol);
    let mut surface = IndexedMesh::new();
    extract_mesh(&mesh, 120.0, &mut surface);
    let report = oociso::march::analyze_mesh(&surface);
    assert!(report.is_closed(), "{report:?}");
    assert_eq!(report.components, 1);
    assert_eq!(report.euler_characteristic(), 2);
}

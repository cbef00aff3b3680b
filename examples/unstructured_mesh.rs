//! The unstructured-grid path: index a tetrahedral mesh's clusters with the
//! compact interval tree, extract an isosurface, verify its topology, and
//! export it as OBJ.
//!
//! Run: `cargo run --release --example unstructured_mesh`

use oociso::exio::{RecordStore, Span};
use oociso::itree::{CompactIntervalTree, RecordFormat};
use oociso::march::unstructured::extract_cluster;
use oociso::march::{analyze_mesh, IndexedMesh};
use oociso::metacell::MetacellInterval;
use oociso::volume::tetmesh::{TetCluster, TetMesh};
use oociso::volume::{Dims3, RmProxy, ScalarValue};

/// Tet-cluster records: `id | vertex count | tet count`, then 16 bytes a
/// vertex and a tet — the header says how long the record is.
struct ClusterFormat;

impl RecordFormat for ClusterFormat {
    fn header_len(&self) -> usize {
        12
    }
    fn parse_header(&self, bytes: &[u8]) -> (u32, u32) {
        (u32::from_le_bytes(bytes[0..4].try_into().unwrap()), 0)
    }
    fn record_len(&self, header: &[u8]) -> usize {
        let count = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().unwrap());
        12 + 16 * (count(4) + count(8)) as usize
    }
}

fn main() -> std::io::Result<()> {
    // tetrahedralize an RM proxy step — in practice this would be a native
    // unstructured simulation mesh
    let vol = RmProxy::with_seed(1).volume(220, Dims3::new(48, 48, 45));
    let mesh = TetMesh::from_volume(&vol);
    println!(
        "tet mesh: {} vertices, {} tets",
        mesh.num_vertices(),
        mesh.num_tets()
    );

    // clusters = unstructured metacells
    let clusters = mesh.clusters(64);
    let mut intervals = Vec::new();
    let mut culled = 0;
    for c in &clusters {
        let (lo, hi) = c.value_interval().unwrap();
        if lo == hi {
            culled += 1;
        } else {
            intervals.push(MetacellInterval::new(c.id, lo, hi));
        }
    }
    println!(
        "{} clusters ({culled} constant, culled); indexing {} intervals",
        clusters.len(),
        intervals.len()
    );

    let mut bytes = Vec::new();
    let tree = CompactIntervalTree::build(&intervals, &mut |iv| {
        let rec = clusters[iv.id as usize].encode();
        let span = Span {
            offset: bytes.len() as u64,
            len: rec.len() as u64,
        };
        bytes.extend_from_slice(&rec);
        Ok(span)
    })?;
    let store = RecordStore::in_memory(bytes);
    println!(
        "compact interval tree: {} nodes, {} entries over {} distinct endpoints",
        tree.num_nodes(),
        tree.num_entries(),
        tree.num_endpoints()
    );

    let iso = 150.0;
    let mut surface = IndexedMesh::new();
    let plan = tree.plan(f32::query_key(iso));
    let stats = oociso::itree::execute_plan(&plan, &store, &ClusterFormat, |_, rec| {
        let (cluster, _) = TetCluster::decode(rec);
        extract_cluster(&cluster, iso, &mut surface);
    })?;
    println!(
        "isovalue {iso}: {} active clusters, {} triangles ({:.1} MB of {:.1} MB read)",
        stats.records_emitted,
        surface.len(),
        stats.bytes_read as f64 / 1e6,
        store.len() as f64 / 1e6
    );

    let report = analyze_mesh(&surface);
    println!(
        "topology: {} vertices, {} edges, {} faces, {} components, closed = {}",
        report.vertices,
        report.edges,
        report.faces,
        report.components,
        report.is_closed()
    );

    let out = std::env::temp_dir().join("oociso-unstructured.obj");
    surface.write_obj(&out)?;
    println!("exported -> {}", out.display());
    Ok(())
}

//! **Ablation C** — metacell size sweep: 5³ vs the paper's 9³ vs 17³ vertices.
//!
//! §4 fixes metacells at "a small multiple of the disk block size" (9×9×9 u8 →
//! 734 B). Smaller metacells cull more aggressively but multiply record count
//! and per-record overhead; larger ones read more inactive cells per active
//! metacell. This sweep quantifies the trade-off that motivates the paper's
//! choice.
//!
//! Run: `cargo run --release -p oociso-bench --bin ablation_metacell`

use oociso_bench::data_dir;
use oociso_bench::{bench_dims, bench_step, rm_volume, secs, TextTable};
use oociso_cluster::{Cluster, PreprocessOptions, SimulatedTimeModel};

fn main() {
    let dims = bench_dims();
    let step = bench_step();
    let vol = rm_volume(step, dims);
    let model = SimulatedTimeModel::paper();
    println!(
        "Ablation C: metacell size sweep on RM proxy step {step} at {}x{}x{}\n",
        dims.nx, dims.ny, dims.nz
    );

    let mut table = TextTable::new(&[
        "k",
        "record B",
        "metacells",
        "culled %",
        "stored MB",
        "AMC @110",
        "bytes read @110 (MB)",
        "sim io @110 (s)",
        "triangles @110",
    ]);
    for k in [5usize, 9, 17] {
        let dir = data_dir().join(format!("ablation-k{k}"));
        std::fs::remove_dir_all(&dir).ok();
        let opts = PreprocessOptions {
            metacell_k: k,
            nodes: 1,
            mmap: true,
        };
        let (cluster, stats) = Cluster::build(&vol, &dir, &opts).expect("build");
        let e = cluster.extract(110.0).expect("extract");
        let n = &e.report.nodes[0];
        table.row(vec![
            k.to_string(),
            (4 + 1 + k * k * k).to_string(),
            stats.kept_metacells.to_string(),
            format!("{:.1}", stats.culled_fraction() * 100.0),
            format!("{:.1}", stats.kept_bytes as f64 / 1e6),
            n.active_metacells.to_string(),
            format!("{:.1}", n.bytes_read as f64 / 1e6),
            secs(model.node_io_time(n)),
            n.triangles.to_string(),
        ]);
        std::fs::remove_dir_all(&dir).ok();
    }
    table.print();
    println!("\nthe paper's k=9 (734 B records, a small multiple of a disk block) balances");
    println!("culling effectiveness against per-record overhead and read amplification.");
}

//! **Table 8** — the time-varying case: time steps 180–195 at isovalue 70 on
//! four nodes. Each row: active metacells, triangles, simulated execution
//! time, and overall MTri/s, plus the total in-memory index size across all
//! steps (the paper: 1.6 MB for all 270 steps of the full dataset).
//!
//! Run: `cargo run --release -p oociso-bench --bin table8`
//! The per-step grid is `OOCISO_DIMS` halved per axis (the `256x256x240`
//! default gives `128x128x120`): smaller than the single-step tables because
//! 16 full steps are preprocessed.

use oociso_bench::{bench_dims, bench_seed, data_dir, secs, TextTable};
use oociso_cluster::SimulatedTimeModel;
use oociso_core::{PreprocessOptions, TimeVaryingDatabase};
use oociso_volume::{Dims3, RmProxy};

const STEPS: std::ops::RangeInclusive<u32> = 180..=195;
const ISO: f32 = 70.0;
const NODES: usize = 4;

/// The per-step grid: the single-step tables' grid halved per axis.
fn tv_dims() -> Dims3 {
    let d = bench_dims();
    Dims3::new(d.nx / 2, d.ny / 2, d.nz / 2)
}

fn main() {
    let dims = tv_dims();
    let root = data_dir().join(format!(
        "rm-tv-s{}-{}x{}x{}-p{NODES}",
        bench_seed(),
        dims.nx,
        dims.ny,
        dims.nz
    ));
    let proxy = RmProxy::with_seed(bench_seed());
    let first_step = *STEPS.start() as usize;

    let db = match TimeVaryingDatabase::<u8>::open(&root, true) {
        Ok(db) if db.num_steps() == STEPS.count() => db,
        _ => {
            eprintln!("[build] preprocessing {} time steps…", STEPS.count());
            TimeVaryingDatabase::preprocess_series(
                &root,
                STEPS.count(),
                &PreprocessOptions {
                    nodes: NODES,
                    mmap: true,
                    ..Default::default()
                },
                |s| proxy.volume(first_step as u32 + s as u32, dims),
            )
            .expect("preprocess series")
        }
    };

    println!(
        "Table 8: time-varying case, steps {}..={} at isovalue {ISO}, {NODES} nodes, {}x{}x{} per step\n",
        STEPS.start(),
        STEPS.end(),
        dims.nx,
        dims.ny,
        dims.nz
    );
    let model = SimulatedTimeModel::paper();
    let mut table = TextTable::new(&[
        "step",
        "active metacells",
        "triangles",
        "time (sim s)",
        "MTri/s (sim)",
    ]);
    for (i, step) in STEPS.enumerate() {
        let res = db.extract(i, ISO).expect("extract");
        let sim = model.query_time(&res.report, 4, (1024, 1024));
        let tris = res.report.total_triangles();
        table.row(vec![
            step.to_string(),
            res.report.total_active_metacells().to_string(),
            tris.to_string(),
            secs(sim),
            format!("{:.2}", tris as f64 / 1e6 / sim.as_secs_f64().max(1e-12)),
        ]);
    }
    table.print();
    println!(
        "\ntotal in-memory index across {} steps x {NODES} nodes: {:.1} KB",
        db.num_steps(),
        db.index_bytes() as f64 / 1024.0
    );
    println!("paper's reference: 1.6 MB of index for 270 full-resolution steps;");
    println!("the whole index set stays in memory while data pages from disk.");
}

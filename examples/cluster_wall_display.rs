//! The paper's full parallel pipeline — and the regenerator for **Figure 4**
//! (isosurface at isovalue 190, time step 250, 256×256×240 down-sampled grid).
//!
//! Four simulated cluster nodes each hold a stripe of every brick on their
//! own store, extract and rasterize locally, then sort-last composite onto a
//! 2×2 tiled display wall. The shuffle's bytes are priced at the paper's
//! 10 Gbps interconnect by [`SimulatedTimeModel::composite_time`].
//!
//! Run: `cargo run --release --example cluster_wall_display`
//! (set OOCISO_FULL=1 for the paper's full 256×256×240 demo grid)

use oociso::core::{ClusterDatabase, PreprocessOptions, SimulatedTimeModel};
use oociso::render::{Camera, TileLayout};
use oociso::volume::{Dims3, RmProxy};

fn main() -> std::io::Result<()> {
    let full = std::env::var("OOCISO_FULL").is_ok();
    let dims = if full {
        Dims3::new(256, 256, 240) // the paper's Figure 4 grid
    } else {
        Dims3::new(128, 128, 120)
    };
    let (step, iso, nodes) = (250u32, 190.0f32, 4usize);

    println!(
        "generating RM proxy step {step} at {}x{}x{}…",
        dims.nx, dims.ny, dims.nz
    );
    let vol = RmProxy::with_seed(1).volume(step, dims);
    let dir = std::env::temp_dir().join("oociso-wall");
    let db = ClusterDatabase::preprocess(
        &vol,
        &dir,
        &PreprocessOptions {
            nodes,
            mmap: true,
            ..Default::default()
        },
    )?;

    // the paper's four-way tiled wall
    let wall = TileLayout::paper_wall(1024, 1024);
    let probe = db.extract(iso)?;
    let camera = Camera::orbiting(&probe.mesh.bounds(), 0.9, 0.45, 1.9);
    let (image, extraction) = db.extract_and_render(iso, &camera, &wall, [0.9, 0.78, 0.5])?;

    let out = std::env::temp_dir().join("oociso-figure4-wall.ppm");
    image.write_ppm(&out)?;
    println!("\nFigure 4 reproduction -> {}", out.display());

    let model = SimulatedTimeModel::paper();
    println!("\nper-node breakdown (isovalue {iso}):");
    println!(
        "{:>5} {:>9} {:>11} {:>14} {:>13} {:>12}",
        "node", "AMC", "triangles", "io sim (ms)", "tri sim (ms)", "render (ms)"
    );
    for n in &extraction.report.nodes {
        println!(
            "{:>5} {:>9} {:>11} {:>14.1} {:>13.1} {:>12.1}",
            n.node,
            n.active_metacells,
            n.triangles,
            model.node_io_time(n).as_secs_f64() * 1e3,
            model.node_triangulation_time(n).as_secs_f64() * 1e3,
            n.rendering.as_secs_f64() * 1e3,
        );
    }
    println!(
        "\ncomposite moved {:.1} MB, modeled at {:.1} ms over 10 Gbps InfiniBand —",
        extraction.report.composite_wire_bytes as f64 / 1e6,
        model
            .composite_time(nodes, wall.num_tiles(), (wall.width, wall.height))
            .as_secs_f64()
            * 1e3,
    );
    println!("orders of magnitude below the extraction time, as the paper observes.");
    Ok(())
}

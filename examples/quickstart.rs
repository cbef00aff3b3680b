//! Quickstart: preprocess a Richtmyer–Meshkov proxy time step, extract an
//! isosurface out-of-core, and render it to a PPM image.
//!
//! Run: `cargo run --release --example quickstart`

use oociso::core::{ClusterDatabase, PreprocessOptions};
use oociso::render::{Camera, TileLayout};
use oociso::volume::{Dims3, RmProxy};

fn main() -> std::io::Result<()> {
    // 1. A dataset: one time step of the RM instability proxy. The paper's
    //    demo renders the down-sampled 256×256×240 grid; we default to a
    //    quarter of that so the example runs in seconds.
    let dims = Dims3::new(128, 128, 120);
    let step = 250;
    println!(
        "generating RM proxy step {step} at {}x{}x{}…",
        dims.nx, dims.ny, dims.nz
    );
    let volume = RmProxy::with_seed(1).volume(step, dims);

    // 2. Preprocess into an on-disk database: 9×9×9 metacells, constant
    //    metacells culled, bricks laid out by the compact interval tree.
    let dir = std::env::temp_dir().join("oociso-quickstart");
    let db = ClusterDatabase::preprocess(&volume, &dir, &PreprocessOptions::default())?;
    let stats = db.preprocess_stats().unwrap();
    println!(
        "preprocessed: {} metacells kept, {} culled ({:.0}% of raw size), index {} bytes",
        stats.kept_metacells,
        stats.culled_metacells,
        stats.size_ratio() * 100.0,
        db.index_bytes()
    );

    // 3. Extract an isosurface. Only active metacells are read from disk —
    //    the report shows exactly how much I/O the query cost.
    let iso = 190.0;
    let surface = db.extract(iso)?;
    let node = &surface.report.nodes[0];
    println!(
        "isovalue {iso}: {} active metacells, {} triangles ({:.1} MB read, {} seeks)",
        node.active_metacells,
        surface.mesh.len(),
        node.bytes_read as f64 / 1e6,
        node.io.seeks,
    );

    // 4. Render to an image: one 800×800 tile.
    let camera = Camera::orbiting(&surface.mesh.bounds(), 0.65, 0.35, 2.2);
    let tiles = TileLayout::new(1, 1, 800, 800);
    let (fb, _) = db.extract_and_render(iso, &camera, &tiles, [0.85, 0.75, 0.55])?;
    let out = std::env::temp_dir().join("oociso-quickstart.ppm");
    fb.write_ppm(&out)?;
    println!(
        "rendered {} covered pixels -> {}",
        fb.covered_pixels(),
        out.display()
    );
    Ok(())
}

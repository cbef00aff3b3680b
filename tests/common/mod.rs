//! Shared fixtures for the workspace integration tests: the synthetic field
//! zoo (one canonical parameterization per field, deduplicated from the
//! per-file copies), ground-truth extraction, and temp-dir plumbing.
//!
//! Each integration test binary pulls this in with `mod common;` — keep
//! everything `pub` and allow dead code, since no single binary uses all of
//! it.
#![allow(dead_code)]

use oociso::march::{marching_cubes, marching_cubes_indexed, IndexedMesh, SlabScratch, Vec3};
use oociso::metacell::MetacellLayout;
use oociso::volume::field::{
    AnalyticField, FieldExt, GyroidField, NoiseField, SphereField, TorusField,
};
use oociso::volume::{Dims3, Volume};
use std::path::PathBuf;

/// Per-test scratch directory (unique per process + name).
pub fn tmpdir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("oociso_t_{}_{}", std::process::id(), name));
    p
}

/// Ground truth: direct in-memory marching cubes over the whole volume, the
/// reference kernel's triangle stream (unwelded: three vertices a triangle).
pub fn truth(vol: &Volume<u8>, iso: f32) -> IndexedMesh {
    let mut mesh = IndexedMesh::new();
    marching_cubes(vol, iso, Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0), &mut mesh);
    mesh
}

/// An unwelded surface: every 9³-vertex metacell of `vol` extracted on its
/// own by the slab kernel, and the block meshes concatenated with
/// [`IndexedMesh::merge`] and no welder. Vertices are shared only within a
/// block, so index connectivity is open along every metacell seam.
pub fn unwelded_blocks(vol: &Volume<u8>, iso: f32) -> IndexedMesh {
    let layout = MetacellLayout::new(vol.dims(), 9);
    let mut scratch = SlabScratch::new();
    let mut out = IndexedMesh::new();
    for id in layout.ids() {
        let (lo, hi) = layout.vertex_box(id);
        let origin = Vec3::new(lo.0 as f32, lo.1 as f32, lo.2 as f32);
        let mut block = IndexedMesh::new();
        let one = Vec3::new(1.0, 1.0, 1.0);
        let block_vol = vol.extract_box(lo, hi);
        marching_cubes_indexed(
            &block_vol,
            iso,
            origin,
            one,
            &mut block,
            &mut Vec::new(),
            &mut scratch,
        );
        out.merge(block);
    }
    out
}

/// The zoo sphere: radius 0.31 of the unit cube, level 128.
pub fn sphere_vol(dims: Dims3) -> Volume<u8> {
    SphereField::centered(0.31, 128.0).sample(dims)
}

/// A sphere with an explicit radius (the watertight proptests vary it).
pub fn sphere_vol_r(radius: f32, dims: Dims3) -> Volume<u8> {
    SphereField::centered(radius, 128.0).sample(dims)
}

/// The zoo torus: major 0.3, minor 0.12, slope 300.
pub fn torus_vol(dims: Dims3) -> Volume<u8> {
    TorusField {
        major: 0.3,
        minor: 0.12,
        level: 128.0,
        slope: 300.0,
    }
    .sample(dims)
}

/// The zoo gyroid: 2.5 cells, amplitude 70 (open — exits every face).
pub fn gyroid_vol(dims: Dims3) -> Volume<u8> {
    GyroidField {
        cells: 2.5,
        level: 128.0,
        amplitude: 70.0,
    }
    .sample(dims)
}

/// The zoo fBm noise field: seed 9, frequency 4, 3 octaves, range 40–215.
pub fn noise_vol(dims: Dims3) -> Volume<u8> {
    NoiseField {
        seed: 9,
        frequency: 4.0,
        octaves: 3,
        lo: 40.0,
        hi: 215.0,
    }
    .sample(dims)
}

/// A gyroid clipped inside a ball so its isosurface closes strictly inside
/// the volume (the raw gyroid exits through every volume face).
#[derive(Clone, Copy)]
pub struct ClippedGyroid {
    gyroid: GyroidField,
    clip: SphereField,
}

impl ClippedGyroid {
    pub fn new() -> Self {
        ClippedGyroid {
            gyroid: GyroidField {
                cells: 2.0,
                level: 128.0,
                amplitude: 80.0,
            },
            clip: SphereField {
                center: [0.5, 0.5, 0.5],
                radius: 0.36,
                level: 128.0,
                slope: 600.0,
            },
        }
    }
}

impl Default for ClippedGyroid {
    fn default() -> Self {
        Self::new()
    }
}

impl AnalyticField for ClippedGyroid {
    fn eval(&self, x: f32, y: f32, z: f32) -> f32 {
        self.gyroid.eval(x, y, z).min(self.clip.eval(x, y, z))
    }
}

/// A clipped-gyroid volume (closed, high genus — the hard closed case).
pub fn clipped_gyroid_vol(dims: Dims3) -> Volume<u8> {
    ClippedGyroid::new().sample(dims)
}

/// The canonical four-field zoo (sphere/torus/gyroid/noise) at the dims the
/// equivalence suites always used — smooth closed, genus-1 closed, open
/// periodic, and rough open fields in one sweep.
pub fn zoo() -> Vec<(&'static str, Volume<u8>)> {
    vec![
        ("sphere", sphere_vol(Dims3::new(30, 28, 26))),
        ("torus", torus_vol(Dims3::new(31, 31, 23))),
        ("gyroid", gyroid_vol(Dims3::cube(28))),
        ("noise", noise_vol(Dims3::cube(26))),
    ]
}

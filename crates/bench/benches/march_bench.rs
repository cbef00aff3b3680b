//! Criterion: triangle generation — the slab-sliding indexed kernel vs the
//! naive reference Marching Cubes vs Marching Tetrahedra vs SurfaceNets.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use oociso_march::{
    marching_cubes, marching_cubes_indexed, marching_tetrahedra, surface_nets, IndexedMesh,
    SlabScratch, TriangleSoup, Vec3, SN_SMOOTH_PASSES,
};
use oociso_volume::field::{FieldExt, GyroidField, SphereField};
use oociso_volume::{Dims3, Volume};

fn bench_extractors(c: &mut Criterion) {
    let sphere: Volume<u8> = SphereField::centered(0.35, 128.0).sample(Dims3::cube(48));
    let gyroid: Volume<u8> = GyroidField {
        cells: 4.0,
        level: 128.0,
        amplitude: 80.0,
    }
    .sample(Dims3::cube(48));

    let mut group = c.benchmark_group("triangulation");
    let cells = 47u64 * 47 * 47;
    group.throughput(Throughput::Elements(cells));
    for (name, vol) in [("sphere", &sphere), ("gyroid", &gyroid)] {
        // naive reference kernel (bounds-checked gathers, unindexed soup)
        group.bench_function(format!("mc_naive_{name}"), |b| {
            b.iter(|| {
                let mut soup = TriangleSoup::new();
                marching_cubes(vol, 128.0, Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0), &mut soup);
                soup
            })
        });
        // slab-sliding kernel, indexed output, reused scratch
        let mut scratch = SlabScratch::new();
        group.bench_function(format!("mc_slab_{name}"), |b| {
            b.iter(|| {
                let mut mesh = IndexedMesh::new();
                marching_cubes_indexed(
                    vol,
                    128.0,
                    Vec3::ZERO,
                    Vec3::new(1.0, 1.0, 1.0),
                    &mut mesh,
                    &mut Vec::new(),
                    &mut scratch,
                );
                mesh
            })
        });
        group.bench_function(format!("mt_{name}"), |b| {
            b.iter(|| {
                let mut soup = TriangleSoup::new();
                marching_tetrahedra(vol, 128.0, Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0), &mut soup);
                soup
            })
        });
        // SurfaceNets: one vertex per active cell, quads on crossing edges,
        // smoothing passes included (the same path the pipeline runs)
        group.bench_function(format!("sn_{name}"), |b| {
            b.iter(|| {
                let mut mesh = IndexedMesh::new();
                surface_nets(
                    vol,
                    128.0,
                    Vec3::ZERO,
                    Vec3::new(1.0, 1.0, 1.0),
                    SN_SMOOTH_PASSES,
                    &mut mesh,
                );
                mesh
            })
        });
        // primitive budgets for the matrix in docs/BENCH_march.json: SN
        // matches MC's triangle count but halves the primitive count (quads)
        let mut mc_mesh = IndexedMesh::new();
        marching_cubes_indexed(
            vol,
            128.0,
            Vec3::ZERO,
            Vec3::new(1.0, 1.0, 1.0),
            &mut mc_mesh,
            &mut Vec::new(),
            &mut SlabScratch::new(),
        );
        let mut sn_mesh = IndexedMesh::new();
        surface_nets(
            vol,
            128.0,
            Vec3::ZERO,
            Vec3::new(1.0, 1.0, 1.0),
            SN_SMOOTH_PASSES,
            &mut sn_mesh,
        );
        eprintln!(
            "[counts] {name}: mc {} tris / {} verts, sn {} tris ({} quads) / {} verts",
            mc_mesh.len(),
            mc_mesh.num_vertices(),
            sn_mesh.len(),
            sn_mesh.len() / 2,
            sn_mesh.num_vertices()
        );
    }
    group.finish();
}

fn bench_metacell_unit(c: &mut Criterion) {
    // one 9×9×9 metacell — the per-record unit of the pipeline
    let cell: Volume<u8> = SphereField::centered(0.4, 128.0).sample(Dims3::cube(9));
    c.bench_function("mc_one_metacell_naive", |b| {
        b.iter(|| {
            let mut soup = TriangleSoup::new();
            marching_cubes(
                &cell,
                128.0,
                Vec3::ZERO,
                Vec3::new(1.0, 1.0, 1.0),
                &mut soup,
            );
            soup
        })
    });
    let mut scratch = SlabScratch::new();
    c.bench_function("mc_one_metacell_slab", |b| {
        b.iter(|| {
            let mut mesh = IndexedMesh::new();
            marching_cubes_indexed(
                &cell,
                128.0,
                Vec3::ZERO,
                Vec3::new(1.0, 1.0, 1.0),
                &mut mesh,
                &mut Vec::new(),
                &mut scratch,
            );
            mesh
        })
    });
}

criterion_group!(benches, bench_extractors, bench_metacell_unit);
criterion_main!(benches);

//! Rendering-path integration: sort-last compositing across simulated nodes
//! must be pixel-equivalent to rendering everything on one node.

use oociso::core::{ClusterDatabase, PreprocessOptions, SimulatedTimeModel};
use oociso::render::{rasterize_mesh, Camera, Framebuffer, TileLayout};
use oociso::serve::protocol::{read_frame, write_frame, FrameIn};
use oociso::serve::Message;
use oociso::volume::field::{AnalyticField, FieldExt, SphereField, TorusField};
use oociso::volume::Dims3;

mod common;

use common::tmpdir;

#[test]
fn cluster_composite_equals_single_node_render() {
    let vol = SphereField::centered(0.32, 128.0).sample::<u8>(Dims3::cube(33));
    let dir = tmpdir("eq");
    let db = ClusterDatabase::preprocess(
        &vol,
        &dir,
        &PreprocessOptions {
            nodes: 4,
            ..Default::default()
        },
    )
    .unwrap();
    let probe = db.extract(128.0).unwrap();
    let camera = Camera::orbiting(&probe.mesh.bounds(), 0.5, 0.6, 2.4);
    let tiles = TileLayout::paper_wall(160, 160);
    let (wall, _) = db
        .extract_and_render(128.0, &camera, &tiles, [0.7, 0.8, 0.9])
        .unwrap();

    let mut single = Framebuffer::new(160, 160);
    rasterize_mesh(&probe.mesh, &camera, [0.7, 0.8, 0.9], &mut single);

    let mut diff = 0usize;
    for y in 0..160 {
        for x in 0..160 {
            if wall.color_at(x, y) != single.color_at(x, y) {
                diff += 1;
            }
        }
    }
    // tolerate a handful of equal-depth tie-break pixels along stripe seams
    assert!(diff < 60, "{diff} differing pixels of 25600");
    assert!(wall.covered_pixels() > 500);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn composite_bit_identical_across_simulated_and_tcp_transports() {
    // one composite, one cost model: the wall `extract_and_render` builds is
    // the composite of the per-node buffers, it survives the socket's frame
    // codec bit for bit, and the model prices exactly the bytes it moved
    let vol = SphereField::centered(0.32, 128.0).sample::<u8>(Dims3::cube(33));
    let dir = tmpdir("transports");
    let nodes = 4;
    let db = ClusterDatabase::preprocess(
        &vol,
        &dir,
        &PreprocessOptions {
            nodes,
            ..Default::default()
        },
    )
    .unwrap();
    let probe = db.extract(128.0).unwrap();
    let camera = Camera::orbiting(&probe.mesh.bounds(), 0.5, 0.6, 2.4);
    let tiles = TileLayout::paper_wall(96, 96);
    let color = [0.7, 0.8, 0.9];

    // (a) the pipeline's wall is the composite of the per-node buffers
    let buffers: Vec<Framebuffer> = db
        .cluster()
        .extract(128.0)
        .unwrap()
        .node_meshes()
        .map(|mesh| {
            let mut fb = Framebuffer::new(96, 96);
            rasterize_mesh(mesh, &camera, color, &mut fb);
            fb
        })
        .collect();
    assert_eq!(buffers.len(), nodes);
    let (reference, wire_ref) = tiles.composite(&buffers);
    let (wall, e) = db
        .extract_and_render(128.0, &camera, &tiles, color)
        .unwrap();
    assert_eq!(wall, reference, "extract_and_render changed pixels");
    assert!(
        reference.covered_pixels() > 300,
        "scene too empty to prove much"
    );

    // (b) the wall, sharded into regions and sent as one frame response,
    // merges back into the same wall: pixels and depths travel bit-exactly
    let mut socket = Vec::new();
    write_frame(
        &mut socket,
        &Message::FrameResponse {
            cache_hit: false,
            width: 96,
            height: 96,
            regions: tiles.shard(&wall),
            trace_id: 0,
        },
    )
    .unwrap();
    let regions = match read_frame(&mut &socket[..]).unwrap() {
        Some(FrameIn::Ok {
            msg: Message::FrameResponse { regions, .. },
            ..
        }) => regions,
        _ => panic!("frame response did not survive the codec"),
    };
    let mut received = Framebuffer::new(96, 96);
    for region in &regions {
        region.merge_into(&mut received, (0, 0));
    }
    assert_eq!(received, wall, "the wire changed pixels");

    // (c) every node ships its region of every tile but its own
    let region_bytes = regions[0].wire_bytes();
    let remote_routes = (nodes * (tiles.num_tiles() - 1)) as u64;
    assert_eq!(e.report.composite_wire_bytes, remote_routes * region_bytes);
    assert_eq!(wire_ref, e.report.composite_wire_bytes);

    // (d) the cost model prices exactly those bytes, one message per route
    let model = SimulatedTimeModel::paper();
    assert_eq!(
        model.composite_time(nodes, tiles.num_tiles(), (96, 96)),
        model
            .net
            .transfer_time(remote_routes, e.report.composite_wire_bytes)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn occlusion_resolved_across_nodes() {
    // a torus around a sphere: fragments from different nodes overlap in
    // screen space; the composite must resolve them by depth, not by node
    // order — verify by compositing node buffers in reverse order
    let f = |x: f32, y: f32, z: f32| {
        let s = SphereField::centered(0.18, 128.0);
        let t = TorusField {
            major: 0.33,
            minor: 0.08,
            level: 128.0,
            slope: 400.0,
        };
        s.eval(x, y, z).max(t.eval(x, y, z))
    };
    let vol = f.sample::<u8>(Dims3::cube(41));
    let dir = tmpdir("occl");
    let db = ClusterDatabase::preprocess(
        &vol,
        &dir,
        &PreprocessOptions {
            nodes: 3,
            ..Default::default()
        },
    )
    .unwrap();
    let e = db.cluster().extract(128.0).unwrap();
    let bounds = e
        .node_meshes()
        .filter(|m| !m.is_empty()) // an empty node's Aabb::empty() corners are ±INF
        .map(|m| m.bounds())
        .fold(oociso::march::Aabb::empty(), |mut acc, b| {
            acc.grow(b.lo);
            acc.grow(b.hi);
            acc
        });
    let camera = Camera::orbiting(&bounds, 0.2, 0.15, 2.2);
    let render_one = |mesh| {
        let mut fb = Framebuffer::new(128, 128);
        rasterize_mesh(mesh, &camera, [1.0, 1.0, 1.0], &mut fb);
        fb
    };
    let buffers: Vec<Framebuffer> = e.node_meshes().map(render_one).collect();
    let layout = TileLayout::new(1, 1, 128, 128);
    let (forward, _) = layout.composite(&buffers);
    let reversed: Vec<Framebuffer> = buffers.iter().rev().cloned().collect();
    let (backward, _) = layout.composite(&reversed);
    let mut diff = 0;
    for y in 0..128 {
        for x in 0..128 {
            if forward.color_at(x, y) != backward.color_at(x, y) {
                diff += 1;
            }
        }
    }
    assert!(
        diff < 30,
        "composite must be order-independent: {diff} pixels"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn figure4_style_render_has_structure() {
    // an RM-proxy render like Figure 4: the image must show a real surface
    // (covered pixels with varying shading), not an empty or flat frame
    use oociso::volume::RmProxy;
    let vol = RmProxy::with_seed(1).volume(250, Dims3::new(64, 64, 60));
    let dir = tmpdir("fig4");
    let db = ClusterDatabase::preprocess(
        &vol,
        &dir,
        &PreprocessOptions {
            nodes: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let probe = db.extract(190.0).unwrap();
    assert!(probe.mesh.len() > 1000, "RM surface should be rich");
    let camera = Camera::orbiting(&probe.mesh.bounds(), 0.9, 0.45, 2.0);
    let tiles = TileLayout::paper_wall(128, 128);
    let (img, _) = db
        .extract_and_render(190.0, &camera, &tiles, [0.9, 0.78, 0.5])
        .unwrap();
    let covered = img.covered_pixels();
    assert!(covered > 1000, "only {covered} covered pixels");
    // shading variation: collect distinct red intensities
    let mut reds = std::collections::HashSet::new();
    for y in 0..128 {
        for x in 0..128 {
            let c = img.color_at(x, y);
            if c[3] != 0 {
                reds.insert(c[0]);
            }
        }
    }
    assert!(reds.len() > 10, "flat shading variation: {}", reds.len());
    std::fs::remove_dir_all(&dir).ok();
}

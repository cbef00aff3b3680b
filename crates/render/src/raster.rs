//! Barycentric triangle rasterization with z-buffering.

use crate::camera::{ndc_to_screen, Camera};
use crate::framebuffer::Framebuffer;
use oociso_march::{IndexedMesh, Triangle, Vec3};

/// Counters from a rasterization pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RasterStats {
    /// Triangles submitted.
    pub triangles_in: u64,
    /// Triangles surviving near-plane / degeneracy rejection.
    pub triangles_rasterized: u64,
    /// Fragments passing the depth test.
    pub fragments_shaded: u64,
}

/// Rasterize a mesh into `fb` with two-sided Lambert shading, triangle by
/// triangle in mesh order, each materialized from the shared vertex buffer
/// on the fly.
///
/// Triangles with any vertex behind the near plane are rejected rather than
/// clipped — the viz cameras of the examples and benches always keep the
/// volume fully in front of the camera, matching the paper's setup where the
/// dataset sits on a display wall well inside the frustum.
pub fn rasterize_mesh(
    mesh: &IndexedMesh,
    camera: &Camera,
    base_color: [f32; 3],
    fb: &mut Framebuffer,
) -> RasterStats {
    let aspect = fb.width() as f32 / fb.height() as f32;
    let vp = camera.view_projection(aspect);
    let light = (camera.eye - camera.target).normalized(); // headlight
    let mut stats = RasterStats::default();
    for tri in mesh.triangles() {
        stats.triangles_in += 1;
        stats.fragments_shaded += rasterize_one(&tri, &vp, light, base_color, fb, &mut stats);
    }
    stats
}

fn rasterize_one(
    tri: &Triangle,
    vp: &crate::math::Mat4,
    light: Vec3,
    base_color: [f32; 3],
    fb: &mut Framebuffer,
    stats: &mut RasterStats,
) -> u64 {
    // project
    let mut sx = [0.0f32; 3];
    let mut sy = [0.0f32; 3];
    let mut sz = [0.0f32; 3];
    for i in 0..3 {
        let h = vp.transform(tri.v[i]);
        if h[3] <= 1e-6 {
            return 0; // behind the camera: reject
        }
        let inv_w = 1.0 / h[3];
        let (x, y) = ndc_to_screen(h[0] * inv_w, h[1] * inv_w, fb.width(), fb.height());
        sx[i] = x;
        sy[i] = y;
        sz[i] = h[2] * inv_w; // NDC depth: screen-affine for planar triangles
    }
    // signed double area in screen space
    let area = (sx[1] - sx[0]) * (sy[2] - sy[0]) - (sy[1] - sy[0]) * (sx[2] - sx[0]);
    if area.abs() < 1e-9 {
        return 0;
    }
    stats.triangles_rasterized += 1;

    // two-sided Lambert shade, computed once per triangle (flat shading)
    let n = tri.normal();
    let lambert = n.dot(light).abs();
    let shade = 0.25 + 0.75 * lambert;
    let rgba = [
        (base_color[0] * shade * 255.0).clamp(0.0, 255.0) as u8,
        (base_color[1] * shade * 255.0).clamp(0.0, 255.0) as u8,
        (base_color[2] * shade * 255.0).clamp(0.0, 255.0) as u8,
        255,
    ];

    // bounding box clamped to the viewport
    let min_x = sx
        .iter()
        .fold(f32::INFINITY, |a, &b| a.min(b))
        .floor()
        .max(0.0) as usize;
    let max_x = (sx.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b)).ceil() as i64)
        .clamp(0, fb.width() as i64 - 1) as usize;
    let min_y = sy
        .iter()
        .fold(f32::INFINITY, |a, &b| a.min(b))
        .floor()
        .max(0.0) as usize;
    let max_y = (sy.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b)).ceil() as i64)
        .clamp(0, fb.height() as i64 - 1) as usize;
    if min_x > max_x || min_y > max_y {
        return 0;
    }

    let inv_area = 1.0 / area;
    let mut shaded = 0u64;
    for py in min_y..=max_y {
        for px in min_x..=max_x {
            let (cx, cy) = (px as f32 + 0.5, py as f32 + 0.5);
            // barycentric via edge functions (sign-normalized by inv_area)
            let w0 = ((sx[1] - cx) * (sy[2] - cy) - (sy[1] - cy) * (sx[2] - cx)) * inv_area;
            let w1 = ((sx[2] - cx) * (sy[0] - cy) - (sy[2] - cy) * (sx[0] - cx)) * inv_area;
            let w2 = 1.0 - w0 - w1;
            // small inclusive tolerance: pixels whose centers lie exactly on
            // a shared edge must be covered by at least one of the triangles
            // despite floating-point cancellation (z-buffering makes the
            // occasional double cover harmless)
            const EPS: f32 = -1e-5;
            if w0 < EPS || w1 < EPS || w2 < EPS {
                continue;
            }
            let depth = w0 * sz[0] + w1 * sz[1] + w2 * sz[2];
            let before = fb.depth_at(px, py);
            fb.shade(px, py, depth, rgba);
            if fb.depth_at(px, py) < before {
                shaded += 1;
            }
        }
    }
    shaded
}

#[cfg(test)]
mod tests {
    use super::*;
    use oociso_march::Aabb;

    /// `quad_mesh`'s two triangles, each with three vertices of its own.
    fn quad_unwelded(z: f32, half: f32) -> IndexedMesh {
        let welded = quad_mesh(z, half);
        let mut m = IndexedMesh::new();
        for t in welded.triangles() {
            let [a, b, c] = t.v.map(|p| m.push_vertex(p));
            m.push_triangle(a, b, c);
        }
        m
    }

    fn quad_mesh(z: f32, half: f32) -> IndexedMesh {
        let mut m = IndexedMesh::new();
        let a = m.push_vertex(Vec3::new(-half, -half, z));
        let b = m.push_vertex(Vec3::new(half, -half, z));
        let c = m.push_vertex(Vec3::new(half, half, z));
        let d = m.push_vertex(Vec3::new(-half, half, z));
        m.push_triangle(a, b, c);
        m.push_triangle(a, c, d);
        m
    }

    fn front_camera() -> Camera {
        let mut b = Aabb::empty();
        b.grow(Vec3::new(-1.0, -1.0, -1.0));
        b.grow(Vec3::new(1.0, 1.0, 1.0));
        Camera {
            eye: Vec3::new(0.0, 0.0, 5.0),
            target: Vec3::ZERO,
            up: Vec3::new(0.0, 1.0, 0.0),
            fov_y: 60f32.to_radians(),
            near: 0.1,
            far: 100.0,
        }
    }

    #[test]
    fn quad_covers_center() {
        let mut fb = Framebuffer::new(64, 64);
        let stats = rasterize_mesh(
            &quad_mesh(0.0, 1.0),
            &front_camera(),
            [1.0, 0.0, 0.0],
            &mut fb,
        );
        assert_eq!(stats.triangles_in, 2);
        assert_eq!(stats.triangles_rasterized, 2);
        assert!(stats.fragments_shaded > 100);
        let c = fb.color_at(32, 32);
        assert!(c[0] > 0 && c[1] == 0 && c[2] == 0);
        assert!(fb.depth_at(32, 32).is_finite());
        // corners of the viewport are outside the quad
        assert_eq!(fb.color_at(0, 0), [0, 0, 0, 0]);
    }

    #[test]
    fn mesh_and_soup_rasterize_identically() {
        // how a mesh shares its vertices never changes a pixel
        let cam = front_camera();
        let unwelded = quad_unwelded(0.3, 1.1);
        let (welded, _) = unwelded.welded();
        assert_eq!((unwelded.num_vertices(), welded.num_vertices()), (6, 4));
        let mut fb_unwelded = Framebuffer::new(64, 64);
        let s_unwelded = rasterize_mesh(&unwelded, &cam, [0.9, 0.4, 0.2], &mut fb_unwelded);
        let mut fb_welded = Framebuffer::new(64, 64);
        let s_welded = rasterize_mesh(&welded, &cam, [0.9, 0.4, 0.2], &mut fb_welded);
        assert_eq!(s_unwelded, s_welded);
        for y in 0..64 {
            for x in 0..64 {
                assert_eq!(fb_unwelded.color_at(x, y), fb_welded.color_at(x, y));
                assert_eq!(fb_unwelded.depth_at(x, y), fb_welded.depth_at(x, y));
            }
        }
    }

    #[test]
    fn nearer_surface_wins() {
        let mut fb = Framebuffer::new(32, 32);
        let cam = front_camera();
        rasterize_mesh(&quad_mesh(0.0, 1.0), &cam, [1.0, 0.0, 0.0], &mut fb);
        // nearer quad (z = 1 is closer to the camera at z = 5)
        rasterize_mesh(&quad_mesh(1.0, 1.0), &cam, [0.0, 1.0, 0.0], &mut fb);
        let c = fb.color_at(16, 16);
        assert!(c[1] > 0 && c[0] == 0, "near quad must win: {c:?}");
        // drawing the far quad again must not overwrite
        rasterize_mesh(&quad_mesh(0.0, 1.0), &cam, [1.0, 0.0, 0.0], &mut fb);
        let c = fb.color_at(16, 16);
        assert!(c[1] > 0 && c[0] == 0, "z-test must reject far quad: {c:?}");
    }

    #[test]
    fn behind_camera_rejected() {
        let mut fb = Framebuffer::new(16, 16);
        let stats = rasterize_mesh(
            &quad_mesh(10.0, 1.0),
            &front_camera(),
            [1.0, 1.0, 1.0],
            &mut fb,
        );
        assert_eq!(stats.triangles_rasterized, 0);
        assert_eq!(fb.covered_pixels(), 0);
    }

    #[test]
    fn adjacent_triangles_leave_no_cracks() {
        // the shared diagonal of the quad must not produce uncovered pixels
        let mut fb = Framebuffer::new(128, 128);
        rasterize_mesh(
            &quad_mesh(0.0, 1.2),
            &front_camera(),
            [1.0, 1.0, 1.0],
            &mut fb,
        );
        // the quad (half = 1.2 at distance 5, fov 60°) covers screen pixels
        // ≈ [37, 91]²; its triangle seam runs along the anti-diagonal of that
        // square. Sample well inside: every pixel must be covered.
        let mut holes = 0;
        for i in 42..86 {
            if fb.color_at(i, i) == [0, 0, 0, 0] {
                holes += 1;
            }
            if fb.color_at(i, 127 - i) == [0, 0, 0, 0] {
                holes += 1; // anti-diagonal: crosses the shared seam
            }
        }
        assert_eq!(holes, 0, "{holes} holes inside the quad");
    }

    #[test]
    fn shading_modulates_by_angle() {
        // a triangle tilted away from the light is darker than a facing one
        let cam = front_camera();
        let mut fb1 = Framebuffer::new(32, 32);
        rasterize_mesh(&quad_mesh(0.0, 1.0), &cam, [1.0, 1.0, 1.0], &mut fb1);
        let facing = fb1.color_at(16, 16)[0];

        let mut tilted = IndexedMesh::new();
        let a = tilted.push_vertex(Vec3::new(-1.0, -1.0, -0.9));
        let b = tilted.push_vertex(Vec3::new(1.0, -1.0, 0.9));
        let c = tilted.push_vertex(Vec3::new(1.0, 1.0, 0.9));
        let d = tilted.push_vertex(Vec3::new(-1.0, 1.0, -0.9));
        tilted.push_triangle(a, b, c);
        tilted.push_triangle(a, c, d);
        let mut fb2 = Framebuffer::new(32, 32);
        rasterize_mesh(&tilted, &cam, [1.0, 1.0, 1.0], &mut fb2);
        let slanted = fb2.color_at(16, 16)[0];
        assert!(
            facing > slanted,
            "facing {facing} should be brighter than slanted {slanted}"
        );
    }
}

//! Sort-last compositing and the tiled display shuffle.
//!
//! The paper uses the sort-last method [30]: every node renders its own
//! triangles locally, then framebuffer regions (color + z) are forwarded to
//! the rendering server owning each display tile, which merges them by depth.
//! [`z_merge`] is the merge operator (associative and commutative for
//! distinct depths — the property the tests verify, since it is what makes
//! the composite order-independent and hence parallelizable), and
//! [`TileLayout`] carves framebuffers into per-server regions.

use crate::framebuffer::Framebuffer;

/// Merge `src` into `dst`, keeping the nearer fragment per pixel.
pub fn z_merge(dst: &mut Framebuffer, src: &Framebuffer) {
    assert_eq!(dst.width(), src.width());
    assert_eq!(dst.height(), src.height());
    let (dc, dd) = dst.planes_mut();
    let sc = src.color_plane();
    let sd = src.depth_plane();
    for i in 0..sd.len() {
        if sd[i] < dd[i] {
            dd[i] = sd[i];
            dc[i] = sc[i];
        }
    }
}

/// A rectangular framebuffer region with its pixels (color + depth), as sent
/// across the interconnect during the shuffle.
#[derive(Clone, Debug, PartialEq)]
pub struct FrameRegion {
    /// Pixel origin `(x, y)` in the full display.
    pub origin: (usize, usize),
    /// Region size `(w, h)`.
    pub size: (usize, usize),
    /// Row-major color samples.
    pub color: Vec<[u8; 4]>,
    /// Row-major depth samples.
    pub depth: Vec<f32>,
}

impl FrameRegion {
    /// Extract a region from a framebuffer.
    pub fn extract(fb: &Framebuffer, origin: (usize, usize), size: (usize, usize)) -> Self {
        assert!(origin.0 + size.0 <= fb.width() && origin.1 + size.1 <= fb.height());
        let mut color = Vec::with_capacity(size.0 * size.1);
        let mut depth = Vec::with_capacity(size.0 * size.1);
        for y in origin.1..origin.1 + size.1 {
            for x in origin.0..origin.0 + size.0 {
                color.push(fb.color_at(x, y));
                depth.push(fb.depth_at(x, y));
            }
        }
        FrameRegion {
            origin,
            size,
            color,
            depth,
        }
    }

    /// Bytes this region occupies on the wire (RGBA8 + f32 z per pixel).
    pub fn wire_bytes(&self) -> u64 {
        (self.size.0 * self.size.1) as u64 * Framebuffer::BYTES_PER_PIXEL
    }

    /// Depth-merge this region into a tile-local framebuffer whose pixel
    /// `(0, 0)` corresponds to display pixel `tile_origin`.
    pub fn merge_into(&self, tile: &mut Framebuffer, tile_origin: (usize, usize)) {
        for ry in 0..self.size.1 {
            for rx in 0..self.size.0 {
                let d = self.depth[ry * self.size.0 + rx];
                if !d.is_finite() {
                    continue;
                }
                let gx = self.origin.0 + rx;
                let gy = self.origin.1 + ry;
                let tx = gx - tile_origin.0;
                let ty = gy - tile_origin.1;
                tile.shade(tx, ty, d, self.color[ry * self.size.0 + rx]);
            }
        }
    }
}

/// Partition of the display wall into `cols × rows` tiles, one per rendering
/// server (the paper's wall uses 2×2 = four projectors).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileLayout {
    pub cols: usize,
    pub rows: usize,
    pub width: usize,
    pub height: usize,
}

impl TileLayout {
    /// Layout for a `width × height` display split into `cols × rows` tiles.
    /// Panics where [`TileLayout::try_new`] errs; for grids the caller built.
    pub fn new(cols: usize, rows: usize, width: usize, height: usize) -> Self {
        Self::try_new(cols, rows, width, height).expect("invalid tile layout")
    }

    /// [`TileLayout::new`] for a grid from outside the program: the display
    /// must be non-empty and every tile the same whole number of pixels.
    pub fn try_new(cols: usize, rows: usize, width: usize, height: usize) -> Result<Self, String> {
        if width == 0
            || height == 0
            || cols == 0
            || rows == 0
            || !width.is_multiple_of(cols)
            || !height.is_multiple_of(rows)
        {
            return Err(format!(
                "a {width}x{height} display does not divide into {cols}x{rows} tiles"
            ));
        }
        Ok(TileLayout {
            cols,
            rows,
            width,
            height,
        })
    }

    /// The paper's four-way tiled wall.
    pub fn paper_wall(width: usize, height: usize) -> Self {
        Self::new(2, 2, width, height)
    }

    /// Number of tiles (display servers).
    pub fn num_tiles(&self) -> usize {
        self.cols * self.rows
    }

    /// Pixel origin of tile `t`.
    pub fn tile_origin(&self, t: usize) -> (usize, usize) {
        let tw = self.width / self.cols;
        let th = self.height / self.rows;
        ((t % self.cols) * tw, (t / self.cols) * th)
    }

    /// Pixel size of every tile.
    pub fn tile_size(&self) -> (usize, usize) {
        (self.width / self.cols, self.height / self.rows)
    }

    /// Carve a node's full framebuffer into per-tile regions for the shuffle.
    pub fn shard(&self, fb: &Framebuffer) -> Vec<FrameRegion> {
        assert_eq!(fb.width(), self.width);
        assert_eq!(fb.height(), self.height);
        (0..self.num_tiles())
            .map(|t| FrameRegion::extract(fb, self.tile_origin(t), self.tile_size()))
            .collect()
    }

    /// Full sort-last composite: shard every node framebuffer, route regions
    /// to their tiles, depth-merge per tile, and reassemble the final image.
    /// Returns the composited display plus the bytes that crossed the
    /// interconnect: a region bound for the tile its own node owns never
    /// does.
    pub fn composite(&self, node_buffers: &[Framebuffer]) -> (Framebuffer, u64) {
        let (tw, th) = self.tile_size();
        let mut tiles: Vec<Framebuffer> = (0..self.num_tiles())
            .map(|_| Framebuffer::new(tw, th))
            .collect();
        let mut wire_bytes = 0u64;
        for (node, fb) in node_buffers.iter().enumerate() {
            for (t, region) in self.shard(fb).into_iter().enumerate() {
                // a region destined for a tile the node itself owns would not
                // cross the network; the paper's compositing nodes are a
                // subset of the render nodes, so charge only remote routes
                if t != node % self.num_tiles() {
                    wire_bytes += region.wire_bytes();
                }
                region.merge_into(&mut tiles[t], self.tile_origin(t));
            }
        }
        // assemble the wall image
        let mut out = Framebuffer::new(self.width, self.height);
        for (t, tile) in tiles.iter().enumerate() {
            let (ox, oy) = self.tile_origin(t);
            for y in 0..th {
                for x in 0..tw {
                    let d = tile.depth_at(x, y);
                    if d.is_finite() {
                        out.shade(ox + x, oy + y, d, tile.color_at(x, y));
                    }
                }
            }
        }
        (out, wire_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fb_with(pixels: &[(usize, usize, f32, [u8; 4])], w: usize, h: usize) -> Framebuffer {
        let mut fb = Framebuffer::new(w, h);
        for &(x, y, d, c) in pixels {
            fb.shade(x, y, d, c);
        }
        fb
    }

    #[test]
    fn z_merge_keeps_nearest() {
        let mut a = fb_with(&[(0, 0, 0.5, [1, 0, 0, 255])], 2, 2);
        let b = fb_with(
            &[(0, 0, 0.3, [0, 1, 0, 255]), (1, 1, 0.9, [0, 0, 1, 255])],
            2,
            2,
        );
        z_merge(&mut a, &b);
        assert_eq!(a.color_at(0, 0), [0, 1, 0, 255]);
        assert_eq!(a.color_at(1, 1), [0, 0, 1, 255]);
    }

    #[test]
    fn z_merge_commutative_for_distinct_depths() {
        let a = fb_with(
            &[(0, 0, 0.5, [1, 0, 0, 255]), (1, 0, 0.2, [9, 9, 9, 255])],
            2,
            1,
        );
        let b = fb_with(
            &[(0, 0, 0.3, [0, 1, 0, 255]), (1, 0, 0.7, [7, 7, 7, 255])],
            2,
            1,
        );
        let mut ab = a.clone();
        z_merge(&mut ab, &b);
        let mut ba = b.clone();
        z_merge(&mut ba, &a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn z_merge_associative() {
        let a = fb_with(&[(0, 0, 0.5, [1, 0, 0, 255])], 1, 1);
        let b = fb_with(&[(0, 0, 0.3, [2, 0, 0, 255])], 1, 1);
        let c = fb_with(&[(0, 0, 0.4, [3, 0, 0, 255])], 1, 1);
        let mut ab_c = a.clone();
        z_merge(&mut ab_c, &b);
        z_merge(&mut ab_c, &c);
        let mut bc = b.clone();
        z_merge(&mut bc, &c);
        let mut a_bc = a.clone();
        z_merge(&mut a_bc, &bc);
        assert_eq!(ab_c, a_bc);
    }

    #[test]
    fn tile_layout_origins() {
        let l = TileLayout::paper_wall(200, 100);
        assert_eq!(l.num_tiles(), 4);
        assert_eq!(l.tile_size(), (100, 50));
        assert_eq!(l.tile_origin(0), (0, 0));
        assert_eq!(l.tile_origin(1), (100, 0));
        assert_eq!(l.tile_origin(2), (0, 50));
        assert_eq!(l.tile_origin(3), (100, 50));
        assert_eq!(TileLayout::try_new(2, 2, 200, 100), Ok(l));
        for (cols, rows, w, h) in [(3, 3, 100, 100), (0, 2, 64, 64), (1, 1, 0, 64)] {
            assert!(TileLayout::try_new(cols, rows, w, h).is_err());
        }
    }

    #[test]
    fn composite_equals_single_merge() {
        // compositing through tiles must equal a flat z_merge of all buffers
        let w = 8;
        let h = 8;
        let a = fb_with(
            &[(1, 1, 0.5, [1, 0, 0, 255]), (6, 6, 0.2, [2, 0, 0, 255])],
            w,
            h,
        );
        let b = fb_with(
            &[(1, 1, 0.3, [0, 1, 0, 255]), (5, 2, 0.8, [0, 2, 0, 255])],
            w,
            h,
        );
        let layout = TileLayout::new(2, 2, w, h);
        let (wall, wire) = layout.composite(&[a.clone(), b.clone()]);
        let mut flat = a;
        z_merge(&mut flat, &b);
        for y in 0..h {
            for x in 0..w {
                assert_eq!(wall.color_at(x, y), flat.color_at(x, y), "({x},{y})");
            }
        }
        assert!(wire > 0);
    }

    #[test]
    fn wire_bytes_independent_of_triangle_count() {
        // the shuffle moves framebuffer regions: its size depends only on the
        // resolution and node count — the paper's argument for why the final
        // phase is cheap relative to hundreds of millions of triangles.
        let layout = TileLayout::new(2, 2, 16, 16);
        let empty = Framebuffer::new(16, 16);
        let (_, wire1) = layout.composite(&[empty.clone(), empty.clone()]);
        let busy = fb_with(
            &(0..256)
                .map(|i| (i % 16, i / 16, 0.1, [255, 255, 255, 255]))
                .collect::<Vec<_>>(),
            16,
            16,
        );
        let (_, wire2) = layout.composite(&[busy.clone(), busy]);
        assert_eq!(wire1, wire2);
    }

    #[test]
    fn region_extract_merge_roundtrip() {
        let fb = fb_with(&[(2, 1, 0.4, [5, 6, 7, 255])], 4, 4);
        let region = FrameRegion::extract(&fb, (2, 0), (2, 2));
        assert_eq!(region.wire_bytes(), 4 * 8);
        let mut tile = Framebuffer::new(2, 2);
        region.merge_into(&mut tile, (2, 0));
        assert_eq!(tile.color_at(0, 1), [5, 6, 7, 255]);
    }
}

//! Metacell coordinate math.

use oociso_volume::Dims3;

/// Partition of a volume into metacells of `k×k×k` vertices.
///
/// Metacell `(i, j, l)` owns cells `[(k-1)·i, (k-1)·(i+1)) × …` and carries the
/// vertex box `[(k-1)·i, min((k-1)·(i+1)+1, n)) × …`: neighbouring metacells
/// share one vertex layer, so every cell's 8 corners live inside exactly one
/// metacell. Metacells at the high ends of the axes may be smaller. The paper
/// uses `k = 9` (9×9×9 vertices = 8×8×8 cells).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetacellLayout {
    volume_dims: Dims3,
    k: usize,
    grid: Dims3,
}

impl MetacellLayout {
    /// Partition `volume_dims` with metacells of `k` vertices per axis (`k ≥ 2`).
    pub fn new(volume_dims: Dims3, k: usize) -> Self {
        assert!(k >= 2, "metacells need at least 2 vertices per axis");
        assert!(
            volume_dims.nx >= 2 && volume_dims.ny >= 2 && volume_dims.nz >= 2,
            "volume must contain at least one cell"
        );
        let span = k - 1; // cells per metacell per axis
        let grid = Dims3::new(
            (volume_dims.nx - 1).div_ceil(span),
            (volume_dims.ny - 1).div_ceil(span),
            (volume_dims.nz - 1).div_ceil(span),
        );
        MetacellLayout {
            volume_dims,
            k,
            grid,
        }
    }

    /// The paper's layout: 9×9×9-vertex metacells.
    pub fn paper(volume_dims: Dims3) -> Self {
        Self::new(volume_dims, 9)
    }

    /// Vertices per axis per (full) metacell.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Dimensions of the underlying volume (vertices).
    pub fn volume_dims(&self) -> Dims3 {
        self.volume_dims
    }

    /// Metacell grid dimensions.
    pub fn grid(&self) -> Dims3 {
        self.grid
    }

    /// Total number of metacells.
    pub fn num_metacells(&self) -> usize {
        self.grid.num_vertices()
    }

    /// Metacell grid coordinates of a linear ID.
    #[inline]
    pub fn coords(&self, id: u32) -> (usize, usize, usize) {
        self.grid.coords(id as usize)
    }

    /// Linear ID of metacell grid coordinates.
    #[inline]
    pub fn id(&self, mx: usize, my: usize, mz: usize) -> u32 {
        self.grid.index(mx, my, mz) as u32
    }

    /// Vertex box `[(x0,y0,z0), (x1,y1,z1))` of a metacell (exclusive end,
    /// clamped to the volume).
    pub fn vertex_box(&self, id: u32) -> ((usize, usize, usize), (usize, usize, usize)) {
        let (mx, my, mz) = self.coords(id);
        let span = self.k - 1;
        let x0 = mx * span;
        let y0 = my * span;
        let z0 = mz * span;
        let x1 = (x0 + self.k).min(self.volume_dims.nx);
        let y1 = (y0 + self.k).min(self.volume_dims.ny);
        let z1 = (z0 + self.k).min(self.volume_dims.nz);
        ((x0, y0, z0), (x1, y1, z1))
    }

    /// Dimensions (vertices) of one metacell after edge clamping.
    pub fn cell_dims(&self, id: u32) -> Dims3 {
        let ((x0, y0, z0), (x1, y1, z1)) = self.vertex_box(id);
        Dims3::new(x1 - x0, y1 - y0, z1 - z0)
    }

    /// Number of vertices in one metacell.
    pub fn num_vertices(&self, id: u32) -> usize {
        self.cell_dims(id).num_vertices()
    }

    /// Number of cells owned by one metacell.
    pub fn num_cells(&self, id: u32) -> usize {
        self.cell_dims(id).num_cells()
    }

    /// The paper's record length for a metacell with `scalar_bytes`-wide
    /// samples: 4-byte ID + one `vmin` sample + the raw samples. The store
    /// holds packed records (`record` module), so this is their raw upper
    /// bound and Table 1's per-record figure, not the bytes on disk.
    pub fn record_len(&self, id: u32, scalar_bytes: usize) -> usize {
        4 + scalar_bytes + self.num_vertices(id) * scalar_bytes
    }

    /// Record length of a *full* (non-clamped) metacell. For the paper's
    /// parameters (`k = 9`, u8) this is the famous 734 bytes.
    pub fn full_record_len(&self, scalar_bytes: usize) -> usize {
        4 + scalar_bytes + self.k * self.k * self.k * scalar_bytes
    }

    /// Iterate over all metacell IDs.
    pub fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        0..self.num_metacells() as u32
    }

    /// ID of the metacell owning cell `(cx, cy, cz)`.
    pub fn metacell_of_cell(&self, cx: usize, cy: usize, cz: usize) -> u32 {
        let span = self.k - 1;
        self.id(
            (cx / span).min(self.grid.nx - 1),
            (cy / span).min(self.grid.ny - 1),
            (cz / span).min(self.grid.nz - 1),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dimensions() {
        // full RM grid: 2048×2048×1920 vertices → 256×256×240 metacells
        let l = MetacellLayout::paper(Dims3::new(2048, 2048, 1920));
        assert_eq!(l.grid(), Dims3::new(256, 256, 240));
        assert_eq!(l.full_record_len(1), 734); // the paper's record size
    }

    #[test]
    fn demo_dimensions() {
        let l = MetacellLayout::paper(Dims3::new(256, 256, 240));
        assert_eq!(l.grid(), Dims3::new(32, 32, 30));
    }

    #[test]
    fn exact_partition_no_clamping() {
        // 17 vertices = 16 cells = two full 9-vertex metacells sharing layer 8
        let l = MetacellLayout::new(Dims3::new(17, 17, 17), 9);
        assert_eq!(l.grid(), Dims3::cube(2));
        for id in l.ids() {
            assert_eq!(l.cell_dims(id), Dims3::cube(9));
        }
        let ((x0, ..), (x1, ..)) = l.vertex_box(l.id(1, 0, 0));
        assert_eq!((x0, x1), (8, 17));
    }

    #[test]
    fn edge_clamping() {
        // 12 vertices = 11 cells → one full metacell (9 verts) + one with 4
        let l = MetacellLayout::new(Dims3::new(12, 9, 9), 9);
        assert_eq!(l.grid(), Dims3::new(2, 1, 1));
        assert_eq!(l.cell_dims(l.id(0, 0, 0)), Dims3::new(9, 9, 9));
        assert_eq!(l.cell_dims(l.id(1, 0, 0)), Dims3::new(4, 9, 9));
    }

    #[test]
    fn every_cell_owned_exactly_once() {
        let dims = Dims3::new(21, 13, 10);
        let l = MetacellLayout::new(dims, 5);
        let mut owned = vec![0u32; dims.num_cells()];
        let cell_dims = Dims3::new(dims.nx - 1, dims.ny - 1, dims.nz - 1);
        for id in l.ids() {
            let ((x0, y0, z0), (x1, y1, z1)) = l.vertex_box(id);
            // cells of this metacell: [x0, x1-1) × …
            for cz in z0..z1 - 1 {
                for cy in y0..y1 - 1 {
                    for cx in x0..x1 - 1 {
                        owned[cell_dims.index(cx, cy, cz)] += 1;
                        assert_eq!(l.metacell_of_cell(cx, cy, cz), id);
                    }
                }
            }
        }
        assert!(owned.iter().all(|&c| c == 1), "cells must partition");
    }

    #[test]
    fn record_len_accounts_for_clamping() {
        let l = MetacellLayout::new(Dims3::new(12, 9, 9), 9);
        assert_eq!(l.record_len(l.id(0, 0, 0), 1), 734);
        assert_eq!(l.record_len(l.id(1, 0, 0), 1), 4 + 1 + 4 * 9 * 9);
        // u16 doubles payload and vmin
        assert_eq!(l.record_len(l.id(0, 0, 0), 2), 4 + 2 + 729 * 2);
    }

    #[test]
    fn id_coord_roundtrip() {
        let l = MetacellLayout::new(Dims3::new(33, 25, 17), 9);
        for id in l.ids() {
            let (x, y, z) = l.coords(id);
            assert_eq!(l.id(x, y, z), id);
        }
    }

    #[test]
    #[should_panic]
    fn k1_rejected() {
        let _ = MetacellLayout::new(Dims3::cube(8), 1);
    }
}

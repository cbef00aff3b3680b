//! Structured grids of scalar samples.

use crate::scalar::ScalarValue;

/// Dimensions of a structured grid, in *vertices* (samples) per axis.
///
/// A grid of `nx × ny × nz` vertices contains `(nx-1) × (ny-1) × (nz-1)`
/// hexahedral cells. The Richtmyer–Meshkov dataset of the paper is
/// `2048 × 2048 × 1920` vertices per time step; its down-sampled demo version
/// (and our default reproduction size) is `256 × 256 × 240`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Dims3 {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
}

impl Dims3 {
    /// Create dimensions; every axis must hold at least one sample.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "dims must be positive");
        Dims3 { nx, ny, nz }
    }

    /// Cubic dimensions `n × n × n`.
    pub fn cube(n: usize) -> Self {
        Self::new(n, n, n)
    }

    /// Total number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Total number of cells (zero along degenerate axes).
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.nx.saturating_sub(1) * self.ny.saturating_sub(1) * self.nz.saturating_sub(1)
    }

    /// Linear index of vertex `(x, y, z)`; x fastest, z slowest (paper's raw layout).
    #[inline]
    pub fn index(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.nx && y < self.ny && z < self.nz);
        (z * self.ny + y) * self.nx + x
    }

    /// Inverse of [`Dims3::index`].
    #[inline]
    pub fn coords(&self, idx: usize) -> (usize, usize, usize) {
        let x = idx % self.nx;
        let y = (idx / self.nx) % self.ny;
        let z = idx / (self.nx * self.ny);
        (x, y, z)
    }

    /// Whether `(x, y, z)` addresses a valid vertex.
    #[inline]
    pub fn contains(&self, x: usize, y: usize, z: usize) -> bool {
        x < self.nx && y < self.ny && z < self.nz
    }

    /// Size in bytes of a raw dump with scalar type `S`.
    pub fn raw_bytes<S: ScalarValue>(&self) -> usize {
        self.num_vertices() * S::BYTES
    }
}

/// An in-memory structured grid of scalar samples.
///
/// `Volume` is the unit the synthetic generators produce and the preprocessing
/// stage consumes (slab by slab for out-of-core operation, see
/// [`crate::io::RawVolumeReader`]).
#[derive(Clone, Debug)]
pub struct Volume<S: ScalarValue> {
    dims: Dims3,
    data: Vec<S>,
}

impl<S: ScalarValue> Volume<S> {
    /// Build a volume from raw samples; `data.len()` must equal the vertex count.
    pub fn from_vec(dims: Dims3, data: Vec<S>) -> Self {
        assert_eq!(
            data.len(),
            dims.num_vertices(),
            "sample count must match dims"
        );
        Volume { dims, data }
    }

    /// A volume filled with a constant value.
    pub fn filled(dims: Dims3, value: S) -> Self {
        Volume {
            dims,
            data: vec![value; dims.num_vertices()],
        }
    }

    /// Sample the closure at every vertex (x fastest).
    pub fn generate(dims: Dims3, mut f: impl FnMut(usize, usize, usize) -> S) -> Self {
        let mut data = Vec::with_capacity(dims.num_vertices());
        for z in 0..dims.nz {
            for y in 0..dims.ny {
                for x in 0..dims.nx {
                    data.push(f(x, y, z));
                }
            }
        }
        Volume { dims, data }
    }

    /// Grid dimensions.
    #[inline]
    pub fn dims(&self) -> Dims3 {
        self.dims
    }

    /// Borrow the underlying samples (x fastest, z slowest).
    #[inline]
    pub fn data(&self) -> &[S] {
        &self.data
    }

    /// Consume into the raw sample vector.
    pub fn into_vec(self) -> Vec<S> {
        self.data
    }

    /// Sample at `(x, y, z)`.
    #[inline]
    pub fn get(&self, x: usize, y: usize, z: usize) -> S {
        self.data[self.dims.index(x, y, z)]
    }

    /// Overwrite the sample at `(x, y, z)`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: S) {
        let i = self.dims.index(x, y, z);
        self.data[i] = v;
    }

    /// Minimum and maximum sample of the whole volume.
    pub fn min_max(&self) -> (S, S) {
        let mut lo = self.data[0];
        let mut hi = self.data[0];
        for &v in &self.data[1..] {
            lo = lo.min_s(v);
            hi = hi.max_s(v);
        }
        (lo, hi)
    }

    /// Copy the axis-aligned box of vertices `[x0, x1) × [y0, y1) × [z0, z1)`
    /// into a new dense volume. Used to cut metacell payloads.
    pub fn extract_box(
        &self,
        (x0, y0, z0): (usize, usize, usize),
        (x1, y1, z1): (usize, usize, usize),
    ) -> Volume<S> {
        assert!(x0 < x1 && y0 < y1 && z0 < z1, "box must be non-empty");
        assert!(x1 <= self.dims.nx && y1 <= self.dims.ny && z1 <= self.dims.nz);
        let sub = Dims3::new(x1 - x0, y1 - y0, z1 - z0);
        let mut data = Vec::with_capacity(sub.num_vertices());
        for z in z0..z1 {
            for y in y0..y1 {
                let base = self.dims.index(x0, y, z);
                data.extend_from_slice(&self.data[base..base + (x1 - x0)]);
            }
        }
        Volume { dims: sub, data }
    }

    /// Trilinear interpolation at continuous coordinates (vertex units).
    /// Coordinates are clamped to the grid.
    pub fn sample_trilinear(&self, x: f32, y: f32, z: f32) -> f32 {
        let cx = x.clamp(0.0, (self.dims.nx - 1) as f32);
        let cy = y.clamp(0.0, (self.dims.ny - 1) as f32);
        let cz = z.clamp(0.0, (self.dims.nz - 1) as f32);
        let (x0, y0, z0) = (
            cx.floor() as usize,
            cy.floor() as usize,
            cz.floor() as usize,
        );
        let x1 = (x0 + 1).min(self.dims.nx - 1);
        let y1 = (y0 + 1).min(self.dims.ny - 1);
        let z1 = (z0 + 1).min(self.dims.nz - 1);
        let (fx, fy, fz) = (cx - x0 as f32, cy - y0 as f32, cz - z0 as f32);
        let v = |x: usize, y: usize, z: usize| self.get(x, y, z).to_f32();
        let lerp = |a: f32, b: f32, t: f32| a + (b - a) * t;
        let c00 = lerp(v(x0, y0, z0), v(x1, y0, z0), fx);
        let c10 = lerp(v(x0, y1, z0), v(x1, y1, z0), fx);
        let c01 = lerp(v(x0, y0, z1), v(x1, y0, z1), fx);
        let c11 = lerp(v(x0, y1, z1), v(x1, y1, z1), fx);
        lerp(lerp(c00, c10, fy), lerp(c01, c11, fy), fz)
    }

    /// Down-sample by integer `factor` along each axis (point sampling).
    pub fn downsample(&self, factor: usize) -> Volume<S> {
        assert!(factor >= 1);
        let nd = Dims3::new(
            self.dims.nx.div_ceil(factor),
            self.dims.ny.div_ceil(factor),
            self.dims.nz.div_ceil(factor),
        );
        Volume::generate(nd, |x, y, z| {
            self.get(
                (x * factor).min(self.dims.nx - 1),
                (y * factor).min(self.dims.ny - 1),
                (z * factor).min(self.dims.nz - 1),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_counts() {
        let d = Dims3::new(4, 3, 2);
        assert_eq!(d.num_vertices(), 24);
        assert_eq!(d.num_cells(), (3 * 2));
        assert_eq!(Dims3::cube(5).num_cells(), 64);
    }

    #[test]
    fn dims_index_roundtrip() {
        let d = Dims3::new(7, 5, 3);
        for z in 0..3 {
            for y in 0..5 {
                for x in 0..7 {
                    assert_eq!(d.coords(d.index(x, y, z)), (x, y, z));
                }
            }
        }
    }

    #[test]
    fn raw_bytes_by_type() {
        let d = Dims3::cube(8);
        assert_eq!(d.raw_bytes::<u8>(), 512);
        assert_eq!(d.raw_bytes::<u16>(), 1024);
        assert_eq!(d.raw_bytes::<f32>(), 2048);
    }

    #[test]
    fn generate_and_get() {
        let v = Volume::<u8>::generate(Dims3::new(3, 3, 3), |x, y, z| (x + 10 * y + 100 * z) as u8);
        assert_eq!(v.get(2, 1, 0), 12);
        assert_eq!(v.get(0, 0, 2), 200);
    }

    #[test]
    fn min_max() {
        let v = Volume::<u16>::generate(Dims3::cube(4), |x, y, z| (x * y * z) as u16 + 3);
        assert_eq!(v.min_max(), (3, 30));
    }

    #[test]
    fn extract_box_matches() {
        let v = Volume::<u8>::generate(Dims3::new(8, 8, 8), |x, y, z| (x ^ y ^ z) as u8);
        let b = v.extract_box((2, 3, 4), (6, 7, 8));
        assert_eq!(b.dims(), Dims3::new(4, 4, 4));
        for z in 0..4 {
            for y in 0..4 {
                for x in 0..4 {
                    assert_eq!(b.get(x, y, z), v.get(x + 2, y + 3, z + 4));
                }
            }
        }
    }

    #[test]
    fn trilinear_at_vertices_and_centers() {
        let v = Volume::<u8>::generate(Dims3::cube(3), |x, _, _| (x * 10) as u8);
        assert_eq!(v.sample_trilinear(1.0, 1.0, 1.0), 10.0);
        assert_eq!(v.sample_trilinear(0.5, 0.0, 0.0), 5.0);
        // clamping outside the grid
        assert_eq!(v.sample_trilinear(-5.0, 0.0, 0.0), 0.0);
        assert_eq!(v.sample_trilinear(99.0, 0.0, 0.0), 20.0);
    }

    #[test]
    fn downsample_dims() {
        let v = Volume::<u8>::filled(Dims3::new(9, 9, 5), 7);
        let d = v.downsample(2);
        assert_eq!(d.dims(), Dims3::new(5, 5, 3));
        assert!(d.data().iter().all(|&s| s == 7));
    }

    #[test]
    #[should_panic]
    fn from_vec_wrong_len_panics() {
        let _ = Volume::<u8>::from_vec(Dims3::cube(2), vec![0; 7]);
    }
}

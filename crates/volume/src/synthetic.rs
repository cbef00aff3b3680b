//! Procedural Richtmyer–Meshkov instability proxy.
//!
//! The paper evaluates on the LLNL ASCI Richtmyer–Meshkov simulation: two
//! gases separated by a membrane, perturbed by superposed long/short
//! wavelength disturbances and a shock, developing bubbles and spikes that
//! merge and break up over 270 time steps (2048×2048×1920 one-byte voxels per
//! step, 2.1 TB total). That dataset is not redistributable at this scale, so
//! this module builds the closest synthetic equivalent:
//!
//! * a **mixing layer** between a low-density (≈0) and a high-density (≈255)
//!   gas, centered mid-domain;
//! * an interface displaced by a **multi-mode perturbation** whose amplitude
//!   grows with time (linear growth then saturation, the qualitative RM
//!   growth law);
//! * **bubble/spike asymmetry**: upward-moving bubbles broaden, spikes
//!   sharpen, via an asymmetric nonlinearity on the perturbation;
//! * **turbulent fine structure** from fractal value noise whose amplitude
//!   and frequency grow with time (transition toward a turbulent state);
//! * one-byte quantization and a `z`-shortened grid (x:y:z = 16:16:15, the
//!   2048:2048:1920 aspect), defaulting to 256×256×240 — the very size the
//!   paper itself uses for its down-sampled rendering demo (Figure 4).
//!
//! The proxy preserves what the evaluation depends on: a wide spread of
//! `(vmin, vmax)` metacell intervals, ~50% of metacells constant (far from the
//! mixing layer) so constant-metacell culling matters, monotone growth of
//! active cells with time, and isovalue-dependent surface sizes across the
//! 10…210 sweep.

use crate::grid::{Dims3, Volume};
use crate::noise;
use rayon::prelude::*;

/// Parameters of the Richtmyer–Meshkov proxy field.
#[derive(Clone, Copy, Debug)]
pub struct RmProxyParams {
    /// Random seed controlling mode phases and turbulence.
    pub seed: u64,
    /// Number of interface perturbation modes.
    pub modes: u32,
    /// Total number of simulated time steps (paper: 270).
    pub total_steps: u32,
    /// Mixing-layer half-thickness at t=0 (unit-cube units).
    pub base_thickness: f32,
    /// Perturbation amplitude at saturation (unit-cube units).
    pub max_amplitude: f32,
    /// Turbulence strength at the final step, in scalar units (0..255).
    pub turbulence: f32,
}

impl Default for RmProxyParams {
    fn default() -> Self {
        RmProxyParams {
            seed: 0x524D_2006, // "RM", 2006
            modes: 24,
            total_steps: 270,
            base_thickness: 0.02,
            max_amplitude: 0.18,
            turbulence: 90.0,
        }
    }
}

/// The Richtmyer–Meshkov proxy generator. Create once, then sample any time
/// step at any resolution; fields are deterministic in `(seed, step)`.
#[derive(Clone, Copy, Debug)]
pub struct RmProxy {
    params: RmProxyParams,
}

impl RmProxy {
    /// Proxy with the given parameters.
    pub fn new(params: RmProxyParams) -> Self {
        RmProxy { params }
    }

    /// Proxy with default parameters and the given seed.
    pub fn with_seed(seed: u64) -> Self {
        RmProxy {
            params: RmProxyParams {
                seed,
                ..Default::default()
            },
        }
    }

    /// Generator parameters.
    pub fn params(&self) -> &RmProxyParams {
        &self.params
    }

    /// Normalized time in `[0, 1]` for a step index.
    fn tau(&self, step: u32) -> f32 {
        (step.min(self.params.total_steps) as f32) / self.params.total_steps as f32
    }

    /// Instability amplitude at normalized time `tau`: linear growth that
    /// saturates smoothly (qualitative RM growth law `a(t) ~ a0 + v0 t` then
    /// nonlinear saturation).
    fn amplitude(&self, tau: f32) -> f32 {
        self.params.max_amplitude * (1.0 - (-2.5 * tau).exp())
    }

    /// Evaluate the continuous proxy field at `(x, y, z) ∈ [0,1]³` for `step`.
    /// Output in `[0, 255]`.
    pub fn eval(&self, step: u32, x: f32, y: f32, z: f32) -> f32 {
        let p = &self.params;
        let tau = self.tau(step);
        let amp = self.amplitude(tau);

        // Interface displacement: multi-mode perturbation with bubble/spike
        // asymmetry (positive displacements broadened, negative sharpened).
        let raw = noise::multimode_perturbation(p.seed, x, y, p.modes);
        let asym = if raw >= 0.0 {
            raw.powf(0.8)
        } else {
            -(-raw).powf(1.6)
        };
        // Secondary shorter-wavelength modes appear as the instability grows.
        let raw2 = noise::multimode_perturbation(p.seed ^ 0xBEEF, x * 2.7, y * 2.7, p.modes);
        let interface = 0.5 + amp * (asym + 0.45 * tau * raw2);

        // Mixing-layer profile: smooth ramp from light gas (low values) below
        // to heavy gas (high values) above; thickness grows with time.
        let thick = p.base_thickness + 0.35 * amp;
        let s = ((z - interface) / thick).clamp(-1.0, 1.0);
        let profile = 0.5 + 0.5 * (s * std::f32::consts::FRAC_PI_2).sin();

        // Turbulent fine structure confined to the mixing region, growing in
        // both amplitude and frequency with time. The heavy-gas (high-value)
        // side is more turbulent than the light side — spikes of heavy gas
        // fragment while bubbles stay smooth — which is what makes the
        // paper's high isovalues produce markedly larger surfaces
        // (100M triangles at λ=10 up to 650M at λ=210).
        let mix_weight = (1.0 - s * s).max(0.0); // peaks at the interface
        let up = (s + 1.0) * 0.5; // 0 at light edge → 1 at heavy edge
        let side_skew = 0.05 + 0.95 * up * up; // strongly heavy-side biased
        let freq = 6.0 + 26.0 * tau;
        let turb = (noise::fbm(
            p.seed ^ 0x7452_4221,
            x * freq,
            y * freq,
            z * freq * (16.0 / 15.0),
            4,
        ) - 0.5)
            * 2.0;
        let turb_term = p.turbulence * tau.sqrt() * mix_weight * side_skew * turb;

        let base = (255.0 * profile + turb_term).clamp(0.0, 255.0);

        // Entrained light-gas bubbles inside the heavy fluid. A bubble whose
        // core dips to value m contributes isosurface area for *every*
        // isovalue above m, so the level-set area grows monotonically with
        // the isovalue — the mechanism behind the paper's 100M (λ=10) to
        // 650M (λ=210) triangle growth. Entrainment increases with time.
        base.min(self.bubble_field(x, y, z, tau, interface))
    }

    /// Lattice-hashed bubble field: the domain is cut into cells; each cell
    /// holds at most one spherical bubble (radius ≤ half a cell) of light gas
    /// with a hash-derived core value. Returns the bubble-imposed ceiling at
    /// the query point (`255` where no bubble reaches).
    fn bubble_field(&self, x: f32, y: f32, z: f32, tau: f32, interface: f32) -> f32 {
        const CELLS: f32 = 12.0;
        let p = &self.params;
        let (cx, cy, cz) = (
            (x * CELLS).floor() as i64,
            (y * CELLS).floor() as i64,
            (z * CELLS).floor() as i64,
        );
        let mut value = 255.0f32;
        for dz in -1..=1i64 {
            for dy in -1..=1i64 {
                for dx in -1..=1i64 {
                    let (ix, iy, iz) = (cx + dx, cy + dy, cz + dz);
                    let h = noise::splitmix64(
                        p.seed
                            ^ (ix as u64).wrapping_mul(0x9e37_79b9)
                            ^ (iy as u64).wrapping_mul(0x85eb_ca6b)
                            ^ (iz as u64).wrapping_mul(0xc2b2_ae35),
                    );
                    // bubble exists with probability growing over time
                    let exists = (h & 0xff) as f32 / 255.0;
                    if exists > 0.15 + 0.55 * tau {
                        continue;
                    }
                    // center within the cell, radius ≤ half a cell
                    let ox = ((h >> 8) & 0xff) as f32 / 255.0;
                    let oy = ((h >> 16) & 0xff) as f32 / 255.0;
                    let oz = ((h >> 24) & 0xff) as f32 / 255.0;
                    let bx = (ix as f32 + ox) / CELLS;
                    let by = (iy as f32 + oy) / CELLS;
                    let bz = (iz as f32 + oz) / CELLS;
                    // bubbles live in the heavy fluid above the interface
                    if bz < interface + 0.02 {
                        continue;
                    }
                    let r = (0.25 + 0.25 * (((h >> 32) & 0xff) as f32 / 255.0)) / CELLS;
                    let core = 10.0 + 200.0 * (((h >> 40) & 0xff) as f32 / 255.0);
                    let d2 = (x - bx) * (x - bx) + (y - by) * (y - by) + (z - bz) * (z - bz);
                    if d2 >= r * r {
                        continue;
                    }
                    let t = (d2.sqrt() / r).clamp(0.0, 1.0);
                    // smooth dip from 255 at the rim to `core` at the center
                    let dip = core + (255.0 - core) * (t * t * (3.0 - 2.0 * t));
                    value = value.min(dip);
                }
            }
        }
        value
    }

    /// Sample one time step onto a one-byte volume (the dataset's native
    /// precision), parallelized over z-slabs with rayon.
    pub fn volume(&self, step: u32, dims: Dims3) -> Volume<u8> {
        let sx = 1.0 / (dims.nx.max(2) - 1) as f32;
        let sy = 1.0 / (dims.ny.max(2) - 1) as f32;
        let sz = 1.0 / (dims.nz.max(2) - 1) as f32;
        let slab = dims.nx * dims.ny;
        let mut data = vec![0u8; dims.num_vertices()];
        data.par_chunks_mut(slab).enumerate().for_each(|(z, out)| {
            let zf = z as f32 * sz;
            for y in 0..dims.ny {
                let yf = y as f32 * sy;
                let row = &mut out[y * dims.nx..(y + 1) * dims.nx];
                for (x, v) in row.iter_mut().enumerate() {
                    *v = self.eval(step, x as f32 * sx, yf, zf).round() as u8;
                }
            }
        });
        Volume::from_vec(dims, data)
    }

    /// The default reproduction grid: 256×256×240 (paper's down-sampled demo
    /// size; the full dataset is 2048×2048×1920). `scale` multiplies every
    /// axis: `scale=1` → 256×256×240, `scale=2` → 512×512×480, …
    pub fn demo_dims(scale: usize) -> Dims3 {
        assert!(scale >= 1);
        Dims3::new(256 * scale, 256 * scale, 240 * scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed_and_step() {
        let a = RmProxy::with_seed(1).volume(100, Dims3::new(16, 16, 15));
        let b = RmProxy::with_seed(1).volume(100, Dims3::new(16, 16, 15));
        let c = RmProxy::with_seed(2).volume(100, Dims3::new(16, 16, 15));
        assert_eq!(a.data(), b.data());
        assert_ne!(a.data(), c.data());
    }

    #[test]
    fn field_in_byte_range_and_stratified() {
        let p = RmProxy::with_seed(3);
        let v = p.volume(200, Dims3::new(32, 32, 30));
        let (lo, hi) = v.min_max();
        assert!(lo < 30, "bottom should be light gas, lo={lo}");
        assert!(hi > 225, "top should be heavy gas, hi={hi}");
        // bottom slab mostly low, top slab mostly high
        let bottom_mean: f64 = (0..32 * 32).map(|i| v.data()[i] as f64).sum::<f64>() / 1024.0;
        let n = v.data().len();
        let top_mean: f64 = (n - 32 * 32..n).map(|i| v.data()[i] as f64).sum::<f64>() / 1024.0;
        assert!(bottom_mean < 40.0, "bottom mean {bottom_mean}");
        assert!(top_mean > 215.0, "top mean {top_mean}");
    }

    #[test]
    fn mixing_grows_with_time() {
        // Count "mixed" voxels (not saturated at either end); must grow
        // substantially from early to late steps.
        let p = RmProxy::with_seed(7);
        let dims = Dims3::new(48, 48, 45);
        let count_mixed = |step| {
            p.volume(step, dims)
                .data()
                .iter()
                .filter(|&&v| v > 20 && v < 235)
                .count()
        };
        let early = count_mixed(10);
        let late = count_mixed(250);
        assert!(
            late > early * 2,
            "mixing layer should grow: early={early} late={late}"
        );
    }

    #[test]
    fn amplitude_saturates() {
        let p = RmProxy::with_seed(1);
        let a1 = p.amplitude(0.1);
        let a5 = p.amplitude(0.5);
        let a10 = p.amplitude(1.0);
        assert!(a1 < a5 && a5 < a10);
        assert!(a10 <= p.params.max_amplitude);
        // saturation: late growth slower than early growth
        assert!(a10 - a5 < a5 - a1);
    }

    #[test]
    fn demo_dims_aspect() {
        let d = RmProxy::demo_dims(1);
        assert_eq!((d.nx, d.ny, d.nz), (256, 256, 240));
        let d2 = RmProxy::demo_dims(2);
        assert_eq!((d2.nx, d2.ny, d2.nz), (512, 512, 480));
    }
}

//! Minimal geometry types for isosurface meshes.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// A 3-component `f32` vector. `#[repr(C)]`: three `f32`s in field
/// order with no padding, so a `&[Vec3]` is a `&[f32]` of thrice the length
/// (the serve layer writes cached positions to the wire in place).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(C)]
pub struct Vec3 {
    pub x: f32,
    pub y: f32,
    pub z: f32,
}

impl Vec3 {
    /// Construct from components.
    pub const fn new(x: f32, y: f32, z: f32) -> Self {
        Vec3 { x, y, z }
    }

    /// The zero vector.
    pub const ZERO: Vec3 = Vec3::new(0.0, 0.0, 0.0);

    /// Dot product.
    #[inline]
    pub fn dot(self, o: Vec3) -> f32 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, o: Vec3) -> Vec3 {
        Vec3::new(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }

    /// Euclidean length.
    #[inline]
    pub fn length(self) -> f32 {
        self.dot(self).sqrt()
    }

    /// Unit vector (zero stays zero).
    pub fn normalized(self) -> Vec3 {
        let l = self.length();
        if l > 0.0 {
            self / l
        } else {
            Vec3::ZERO
        }
    }

    /// Component-wise minimum.
    pub fn min(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x.min(o.x), self.y.min(o.y), self.z.min(o.z))
    }

    /// Component-wise maximum.
    pub fn max(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x.max(o.x), self.y.max(o.y), self.z.max(o.z))
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}
impl AddAssign for Vec3 {
    fn add_assign(&mut self, o: Vec3) {
        *self = *self + o;
    }
}
impl Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}
impl Mul<f32> for Vec3 {
    type Output = Vec3;
    fn mul(self, s: f32) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}
impl Div<f32> for Vec3 {
    type Output = Vec3;
    fn div(self, s: f32) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}
impl Neg for Vec3 {
    type Output = Vec3;
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

/// One isosurface triangle.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Triangle {
    /// The three vertices, wound so [`Triangle::normal`] points toward the
    /// `≥ isovalue` side of the field.
    pub v: [Vec3; 3],
}

impl Triangle {
    /// Unnormalized face normal (`(v1-v0) × (v2-v0)`).
    #[inline]
    pub fn raw_normal(&self) -> Vec3 {
        (self.v[1] - self.v[0]).cross(self.v[2] - self.v[0])
    }

    /// Unit face normal.
    pub fn normal(&self) -> Vec3 {
        self.raw_normal().normalized()
    }

    /// Triangle area.
    pub fn area(&self) -> f32 {
        self.raw_normal().length() * 0.5
    }

    /// Centroid.
    pub fn centroid(&self) -> Vec3 {
        (self.v[0] + self.v[1] + self.v[2]) / 3.0
    }

    /// Whether the triangle has (near-)zero area.
    pub fn is_degenerate(&self) -> bool {
        self.area() < 1e-12
    }
}

/// Axis-aligned bounding box.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Aabb {
    pub lo: Vec3,
    pub hi: Vec3,
}

impl Aabb {
    /// The empty box (inverted bounds).
    pub fn empty() -> Self {
        Aabb {
            lo: Vec3::new(f32::INFINITY, f32::INFINITY, f32::INFINITY),
            hi: Vec3::new(f32::NEG_INFINITY, f32::NEG_INFINITY, f32::NEG_INFINITY),
        }
    }

    /// Expand to include a point.
    pub fn grow(&mut self, p: Vec3) {
        self.lo = self.lo.min(p);
        self.hi = self.hi.max(p);
    }

    /// Box center.
    pub fn center(&self) -> Vec3 {
        (self.lo + self.hi) * 0.5
    }

    /// Diagonal vector.
    pub fn extent(&self) -> Vec3 {
        self.hi - self.lo
    }
}

/// Quantized vertex key used by [`weld_key`]: 2^20 steps per unit, exact for
/// grid-scale isosurface coordinates.
pub type CanonVertex = (i64, i64, i64);

/// Quantization factor behind [`weld_key`] (2^20 per unit).
const WELD_SCALE: f32 = 1_048_576.0;

/// The workspace's single vertex quantization rule: used by welding
/// ([`crate::weld::MeshWelder`]), by topology analysis and by
/// [`crate::IndexedMesh::canonical_triangles`], so "same welded vertex" and
/// "same canonical triangle" can never diverge.
#[inline]
pub fn weld_key(v: Vec3) -> CanonVertex {
    (
        (v.x * WELD_SCALE).round() as i64,
        (v.y * WELD_SCALE).round() as i64,
        (v.z * WELD_SCALE).round() as i64,
    )
}

/// `weld_key(a) == weld_key(b)` for finite points, answered without
/// quantizing (three `roundf` calls a point) for the common case of points
/// that are nowhere near each other: a coordinate's rounding can agree only
/// for values less than one quantum apart, so equal keys are less than √3
/// quanta apart (the test allows 2 for the subtraction's slack).
#[inline]
pub(crate) fn same_weld_key(a: Vec3, b: Vec3) -> bool {
    let d = (a - b) * WELD_SCALE;
    d.dot(d) < 4.0 && weld_key(a) == weld_key(b)
}

/// Partition a canonical multiset into `(kept, collapsed)`: `collapsed`
/// counts the triangles whose quantized corners are not all distinct (keys
/// are sorted, so duplicates are adjacent). This is, by construction, the
/// set the welder ([`crate::weld::MeshWelder`]) drops — equivalence tests
/// compare a welded extraction against `kept` and its drop counter against
/// `collapsed` instead of re-deriving the predicate.
pub fn split_collapsed(canon: Vec<[CanonVertex; 3]>) -> (Vec<[CanonVertex; 3]>, usize) {
    let total = canon.len();
    let kept: Vec<[CanonVertex; 3]> = canon
        .into_iter()
        .filter(|ks| ks[0] != ks[1] && ks[1] != ks[2])
        .collect();
    let collapsed = total - kept.len();
    (kept, collapsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexedMesh;

    #[test]
    fn vector_algebra() {
        let a = Vec3::new(1.0, 0.0, 0.0);
        let b = Vec3::new(0.0, 1.0, 0.0);
        assert_eq!(a.cross(b), Vec3::new(0.0, 0.0, 1.0));
        assert_eq!(a.dot(b), 0.0);
        assert_eq!((a + b).length(), 2.0f32.sqrt());
        assert_eq!((a * 3.0).x, 3.0);
        assert_eq!((-a).x, -1.0);
    }

    #[test]
    fn same_weld_key_is_key_equality() {
        let p = Vec3::new(3.0, -7.25, 100.0);
        let q = 1.0 / WELD_SCALE;
        for (dx, dy, dz) in [
            (0.0, 0.0, 0.0),
            (0.4 * q, 0.0, 0.0),
            (0.6 * q, 0.0, 0.0),
            (0.0, -0.4 * q, 0.4 * q),
            (0.0, 1.4 * q, 0.0),
            (0.0, 0.0, 1.9 * q),
            (2.1 * q, 0.0, 0.0),
            (0.3, 0.0, 0.0),
            (0.0, 0.0, -1.0),
        ] {
            let r = Vec3::new(p.x + dx, p.y + dy, p.z + dz);
            assert_eq!(same_weld_key(p, r), weld_key(p) == weld_key(r), "{r:?}");
            assert_eq!(same_weld_key(r, p), weld_key(p) == weld_key(r), "{r:?}");
        }
    }

    #[test]
    fn normalize_zero_safe() {
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
        let n = Vec3::new(0.0, 0.0, 5.0).normalized();
        assert!((n.z - 1.0).abs() < 1e-6);
    }

    #[test]
    fn triangle_area_and_normal() {
        let t = Triangle {
            v: [
                Vec3::new(0.0, 0.0, 0.0),
                Vec3::new(1.0, 0.0, 0.0),
                Vec3::new(0.0, 1.0, 0.0),
            ],
        };
        assert!((t.area() - 0.5).abs() < 1e-6);
        assert_eq!(t.normal(), Vec3::new(0.0, 0.0, 1.0));
        assert!(!t.is_degenerate());
        let d = Triangle {
            v: [Vec3::ZERO, Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0)],
        };
        assert!(d.is_degenerate());
    }

    #[test]
    fn soup_accounting() {
        let mut s = IndexedMesh::new();
        assert!(s.is_empty());
        s.push_fresh_triangle(Triangle {
            v: [
                Vec3::ZERO,
                Vec3::new(2.0, 0.0, 0.0),
                Vec3::new(0.0, 2.0, 0.0),
            ],
        });
        assert_eq!(s.len(), 1);
        assert!((s.area() - 2.0).abs() < 1e-6);
        let b = s.bounds();
        assert_eq!(b.lo, Vec3::ZERO);
        assert_eq!(b.hi, Vec3::new(2.0, 2.0, 0.0));
        let mut s2 = IndexedMesh::new();
        s2.merge(s.clone()); // s stays usable
        s2.merge(s);
        assert_eq!(s2.len(), 2);
        assert_eq!(s2.triangle(0), s2.triangle(1));
    }

    #[test]
    fn obj_export_well_formed() {
        let mut s = IndexedMesh::new();
        s.push_fresh_triangle(Triangle {
            v: [
                Vec3::ZERO,
                Vec3::new(1.0, 0.0, 0.0),
                Vec3::new(0.0, 1.0, 0.0),
            ],
        });
        s.push_fresh_triangle(Triangle {
            v: [
                Vec3::new(1.0, 0.0, 0.0),
                Vec3::new(1.0, 1.0, 0.0),
                Vec3::new(0.0, 1.0, 0.0),
            ],
        });
        let mut p = std::env::temp_dir();
        p.push(format!("oociso_mesh_{}.obj", std::process::id()));
        s.write_obj(&p).unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        assert_eq!(text.lines().filter(|l| l.starts_with("v ")).count(), 6);
        assert_eq!(text.lines().filter(|l| l.starts_with("f ")).count(), 2);
        assert!(text.contains("f 4 5 6"));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn aabb_grow() {
        let mut b = Aabb::empty();
        b.grow(Vec3::new(1.0, 2.0, 3.0));
        b.grow(Vec3::new(-1.0, 0.0, 5.0));
        assert_eq!(b.lo, Vec3::new(-1.0, 0.0, 3.0));
        assert_eq!(b.hi, Vec3::new(1.0, 2.0, 5.0));
        assert_eq!(b.center(), Vec3::new(0.0, 1.0, 4.0));
    }
}

//! The packed payload: a lossless 3-D Lorenzo residual, zigzagged, packed at
//! one bit width per x-row.
//!
//! Every sample is taken as the `8·S::BYTES`-bit little-endian integer of its
//! bytes — the exact bit pattern, so `f32` `-0.0`, subnormals and NaN
//! payloads survive — and predicted from its seven already-seen neighbours:
//!
//! ```text
//! r(x,y,z) = v(x,y,z) − v(x−1,y,z) − v(x,y−1,z) − v(x,y,z−1)
//!          + v(x−1,y−1,z) + v(x−1,y,z−1) + v(x,y−1,z−1) − v(x−1,y−1,z−1)
//! ```
//!
//! in wrapping arithmetic, with samples outside the block read as 0. That is
//! one backward difference along each axis, so the decoder inverts it with
//! three separable prefix sums (x, then y, then z). Residuals are zigzagged
//! (`0, −1, 1, −2, … → 0, 1, 2, 3, …`) and each x-row is stored at the width
//! of its largest one:
//!
//! ```text
//! [ widths: one per x-row, rows in (y, z) order — a nibble each for 1-byte
//!   scalars (row 2i low, row 2i+1 high), a byte each otherwise ]
//! [ bits: the rows' residuals back to back, LSB-first, zero-padded to a byte ]
//! ```
//!
//! A row of zero width stores no bits: a row that continues its neighbours'
//! linear trend costs half a byte.

use oociso_volume::{Dims3, ScalarValue};

/// The sample's bit pattern, zero-extended.
#[inline(always)]
fn word<S: ScalarValue>(s: S) -> u32 {
    let mut bytes = [0u8; 4];
    s.write_le(&mut bytes);
    u32::from_le_bytes(bytes)
}

/// The sample whose bit pattern is the low `8·S::BYTES` bits of `w`.
#[inline(always)]
fn scalar<S: ScalarValue>(w: u32) -> S {
    S::read_le(&w.to_le_bytes())
}

/// Zigzag the low `bits` bits of `r`, read as a signed integer.
#[inline(always)]
fn zigzag(r: u32, bits: u32) -> u32 {
    let shift = 32 - bits;
    let s = ((r << shift) as i32) >> shift;
    ((s << 1) ^ (s >> 31)) as u32
}

/// Inverse of [`zigzag`], correct in the low `bits` bits (the rest are the
/// sign extension, which the truncation to a sample drops).
#[inline(always)]
fn unzigzag(z: u32) -> u32 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// Bytes of the width table for `rows` x-rows.
fn widths_len<S: ScalarValue>(rows: usize) -> usize {
    if S::BYTES == 1 {
        rows.div_ceil(2)
    } else {
        rows
    }
}

/// Width of x-row `row`, as stored.
#[inline(always)]
fn width_of<S: ScalarValue>(widths: &[u8], row: usize) -> u32 {
    if S::BYTES == 1 {
        u32::from((widths[row / 2] >> (4 * (row % 2))) & 0xf)
    } else {
        u32::from(widths[row])
    }
}

/// `dst[i] = cur[i] − prev[i]`, wrapping.
#[inline(always)]
fn diff(dst: &mut [u32], cur: &[u32], prev: &[u32]) {
    for ((d, &c), &p) in dst.iter_mut().zip(cur).zip(prev) {
        *d = c.wrapping_sub(p);
    }
}

/// Append the packed payload of `scalars` (a `dims` block, x fastest) to
/// `out` and return `true` — or append nothing and return `false` when the
/// packed form would not be smaller than the raw one.
pub(super) fn pack<S: ScalarValue>(scalars: &[S], dims: Dims3, out: &mut Vec<u8>) -> bool {
    let bits = 8 * S::BYTES as u32;
    let (nx, plane, n) = (dims.nx, dims.nx * dims.ny, scalars.len());
    debug_assert_eq!(n, dims.num_vertices());
    // one backward difference per axis, each a straight pass over the whole
    // block from one buffer into the other (so it vectorizes), the first
    // layer / row / sample of each one copied, not differenced
    let mut a: Vec<u32> = scalars.iter().map(|&s| word(s)).collect();
    let mut b = a.clone();
    diff(&mut b[plane..], &a[plane..], &a[..n - plane]); // z
    for (dst, src) in a.chunks_exact_mut(plane).zip(b.chunks_exact(plane)) {
        dst[..nx].copy_from_slice(&src[..nx]);
        diff(&mut dst[nx..], &src[nx..], &src[..plane - nx]); // y
    }
    b[0] = a[0];
    diff(&mut b[1..], &a[1..], &a[..n - 1]); // x, then the rows' first samples
    for (dst, src) in b.chunks_exact_mut(nx).zip(a.chunks_exact(nx)) {
        dst[0] = src[0];
    }
    let mut r = b;
    for v in r.iter_mut() {
        *v = zigzag(*v, bits);
    }

    // the width table straight into `out`, taken back if raw is smaller
    let start = out.len();
    let table = widths_len::<S>(n / nx);
    out.resize(start + table, 0);
    let mut total_bits = 0usize;
    for (row, zs) in r.chunks_exact(nx).enumerate() {
        let width = 32 - zs.iter().fold(0, |m, &z| m | z).leading_zeros();
        if S::BYTES == 1 {
            out[start + row / 2] |= (width as u8) << (4 * (row % 2));
        } else {
            out[start + row] = width as u8;
        }
        total_bits += width as usize * nx;
    }
    let packed_len = total_bits.div_ceil(8);
    if table + packed_len >= n * S::BYTES {
        out.truncate(start);
        return false;
    }

    // the bit stream: whole bytes leave the accumulator after every row (a
    // row of at most 56 bits is assembled first) or every sample of a wider
    // row, through one unconditional 8-byte store into 8 bytes of slack that
    // are cut off at the end — no branch on the stream position
    out.resize(start + table + packed_len + 8, 0);
    let (widths, dst) = out[start..].split_at_mut(table);
    let (mut acc, mut held, mut at) = (0u64, 0u32, 0usize);
    let mut flush = |acc: &mut u64, held: &mut u32| {
        dst[at..at + 8].copy_from_slice(&acc.to_le_bytes());
        // `held` ≤ 63 here, so at most 7 whole bytes leave
        let bytes = *held / 8;
        at += bytes as usize;
        *acc >>= bytes * 8;
        *held %= 8;
    };
    for (row, zs) in r.chunks_exact(nx).enumerate() {
        let width = width_of::<S>(widths, row);
        if width as usize * nx <= 56 {
            let mut packed = 0u64;
            for (i, &z) in zs.iter().enumerate() {
                packed |= u64::from(z) << (i as u32 * width);
            }
            acc |= packed << held;
            held += width * nx as u32;
            flush(&mut acc, &mut held);
        } else {
            for &z in zs {
                acc |= u64::from(z) << held;
                held += width;
                flush(&mut acc, &mut held);
            }
        }
    }
    flush(&mut acc, &mut held);
    out.truncate(start + table + packed_len);
    true
}

/// Eight bytes of `bits` from `at`, zero past its end.
#[inline(always)]
fn load(bits: &[u8], at: usize) -> u64 {
    match bits.get(at..at + 8) {
        Some(word) => u64::from_le_bytes(word.try_into().expect("eight bytes")),
        None => {
            let mut word = [0u8; 8];
            let tail = &bits[at.min(bits.len())..];
            word[..tail.len()].copy_from_slice(tail);
            u64::from_le_bytes(word)
        }
    }
}

/// Decode a packed payload of a `dims` block into `out` (cleared first).
/// The payload's length must be exactly what its width table says; the
/// error names what disagreed. `out` never grows past `dims.num_vertices()`.
pub(super) fn unpack<S: ScalarValue>(
    payload: &[u8],
    dims: Dims3,
    out: &mut Vec<S>,
) -> Result<(), String> {
    let bits = 8 * S::BYTES as u32;
    let (nx, plane, n) = (dims.nx, dims.nx * dims.ny, dims.num_vertices());
    let rows = n / nx;
    let table = widths_len::<S>(rows);
    let Some(widths) = payload.get(..table) else {
        return Err(format!(
            "width table of {table} bytes cut at {}",
            payload.len()
        ));
    };
    let mut total_bits = 0usize;
    for row in 0..rows {
        let width = width_of::<S>(widths, row);
        if width > bits {
            return Err(format!("row {row} claims width {width} > {bits} bits"));
        }
        total_bits += width as usize * nx;
    }
    let packed = &payload[table..];
    if packed.len() != total_bits.div_ceil(8) {
        return Err(format!(
            "{} packed bytes where the width table needs {}",
            packed.len(),
            total_bits.div_ceil(8)
        ));
    }

    out.clear();
    out.reserve_exact(n);
    out.resize(n, scalar(0));
    // the x sum of each row as it is unpacked, then the y and z sums
    let mut at = 0usize; // bit position in `packed`
    for (row, dst) in out.chunks_exact_mut(nx).enumerate() {
        let width = width_of::<S>(widths, row);
        if width == 0 {
            continue; // all-zero residuals: the row stays 0 until the y/z sums
        }
        let mask = (1u64 << width) - 1;
        let row_bits = width as usize * nx;
        let mut v = 0u32;
        if row_bits + 7 <= 64 {
            // the whole row sits in one load (u8 rows up to 6 bits wide)
            let mut bits = load(packed, at / 8) >> (at % 8);
            for d in dst {
                v = v.wrapping_add(unzigzag((bits & mask) as u32));
                bits >>= width;
                *d = scalar(v);
            }
        } else {
            let mut bit = at;
            for d in dst {
                let z = (load(packed, bit / 8) >> (bit % 8)) & mask;
                bit += width as usize;
                v = v.wrapping_add(unzigzag(z as u32));
                *d = scalar(v);
            }
        }
        at += row_bits;
    }
    for layer in out.chunks_exact_mut(plane) {
        for y in 1..dims.ny {
            let (prev, cur) = layer[(y - 1) * nx..(y + 1) * nx].split_at_mut(nx);
            for (c, &p) in cur.iter_mut().zip(prev.iter()) {
                *c = scalar(word(*c).wrapping_add(word(p)));
            }
        }
    }
    for z in 1..dims.nz {
        let (prev, cur) = out[(z - 1) * plane..(z + 1) * plane].split_at_mut(plane);
        for (c, &p) in cur.iter_mut().zip(prev.iter()) {
            *c = scalar(word(*c).wrapping_add(word(p)));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_is_a_bijection_on_every_width() {
        for bits in [8u32, 16, 32] {
            let top = if bits == 32 {
                u32::MAX
            } else {
                (1 << bits) - 1
            };
            for r in [0u32, 1, 2, top, top - 1, top / 2, top / 2 + 1] {
                let z = zigzag(r, bits);
                assert!(z <= top, "bits {bits}: {r:#x} zigzags to {z:#x}");
                assert_eq!(unzigzag(z) & top, r, "bits {bits}");
            }
        }
        assert_eq!(zigzag(0xff, 8), 1); // −1
        assert_eq!(zigzag(0x80, 8), 0xff); // −128
        assert_eq!(zigzag(0x7f, 8), 0xfe); // 127
    }

    #[test]
    fn a_linear_ramp_leaves_residuals_only_on_the_block_faces() {
        // v = x + 2y + 3z is predicted exactly wherever all seven neighbours
        // exist; the zero padding leaves r = 1 along the row (y, z) = (0, 0)
        // (width 2), and r = 2 or 3 at x = 0 on the other rows of the y = 0
        // and z = 0 faces (width 3): 9·2 + 16·9·3 = 450 bits after 41 bytes
        // of widths, the 64 interior rows cost no bits at all
        let dims = Dims3::cube(9);
        let scalars: Vec<u8> = (0..729)
            .map(|i| (i % 9 + 2 * (i / 9 % 9) + 3 * (i / 81)) as u8)
            .collect();
        let mut packed = Vec::new();
        assert!(pack(&scalars, dims, &mut packed));
        assert_eq!(packed.len(), 41 + 450usize.div_ceil(8));
        let mut back = Vec::new();
        unpack::<u8>(&packed, dims, &mut back).unwrap();
        assert_eq!(back, scalars);
    }
}

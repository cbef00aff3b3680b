//! On-disk metacell records.
//!
//! Record layout:
//!
//! ```text
//! [ id: u32 LE ][ vmin: S ][ len: u32 LE ][ payload: len & 0x7fff_ffff bytes ]
//! ```
//!
//! The header keeps the paper's two fields (section 7) and adds the payload
//! length. Case 2 of the query streams a brick front-to-back and stops at
//! the first record with `vmin > λ` on the header alone, and `len` lets the
//! reader step to the next record without decoding this one. `vmax` is
//! *not* stored — the brick it lives in encodes it.
//!
//! The payload holds the vertex scalars of the metacell's vertex box
//! ([`MetacellLayout::vertex_box`]), x fastest, in one of two modes:
//!
//! * **packed** (`len`'s top bit clear): a lossless 3-D Lorenzo residual of
//!   the scalars' bit patterns, zigzagged and packed at one bit width per
//!   x-row (the `codec` module's docs give the byte layout);
//! * **raw** (top bit set): the scalars themselves, `S` little-endian each —
//!   taken only when packing would not be smaller, as on white noise.
//!
//! The mode follows from the data; nothing selects it. A paper record (9³
//! one-byte scalars) is 734 bytes raw — [`MetacellLayout::record_len`], the
//! raw upper bound the length word adds 4 bytes to. On smooth fields such
//! as the Richtmyer–Meshkov proxy the packed form is about a third of that.

mod codec;

use crate::layout::MetacellLayout;
use oociso_volume::{Dims3, ScalarValue, Volume};
use std::io;

/// Top bit of the header's `len` word: the payload is raw scalars.
const RAW: u32 = 1 << 31;

/// A decoded metacell record.
#[derive(Clone, Debug, PartialEq)]
pub struct MetacellRecord<S: ScalarValue> {
    /// Metacell ID (linear index in the metacell grid).
    pub id: u32,
    /// Minimum scalar over the payload (redundant with the payload; kept in
    /// the header for streaming early-exit).
    pub vmin: S,
    /// Dimensions (vertices) of the block, [`MetacellLayout::cell_dims`].
    pub dims: Dims3,
    /// Vertex scalars, x fastest, matching [`MetacellLayout::vertex_box`].
    pub scalars: Vec<S>,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl<S: ScalarValue> MetacellRecord<S> {
    /// Bytes of the header: `id`, `vmin`, `len`.
    pub const HEADER_LEN: usize = 4 + S::BYTES + 4;

    /// Cut the record for metacell `id` out of a volume.
    pub fn from_volume(vol: &Volume<S>, layout: &MetacellLayout, id: u32) -> Self {
        let (lo, hi) = layout.vertex_box(id);
        let sub = vol.extract_box(lo, hi);
        let mut vmin = sub.data()[0];
        for &s in &sub.data()[1..] {
            vmin = vmin.min_s(s);
        }
        MetacellRecord {
            id,
            vmin,
            dims: sub.dims(),
            scalars: sub.into_vec(),
        }
    }

    /// Maximum scalar over the payload.
    pub fn vmax(&self) -> S {
        let mut m = self.scalars[0];
        for &s in &self.scalars[1..] {
            m = m.max_s(s);
        }
        m
    }

    /// Whether every vertex holds the same value (such records are culled).
    pub fn is_constant(&self) -> bool {
        self.vmin.key() == self.vmax().key()
    }

    /// The paper's record length: ID, `vmin` and the raw scalars — what
    /// Table 1's kept bytes count, and [`MetacellLayout::record_len`].
    pub fn raw_len(&self) -> usize {
        4 + S::BYTES + self.scalars.len() * S::BYTES
    }

    /// Serialize to the on-disk format: packed, or raw when packing would
    /// not be smaller (module docs).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::HEADER_LEN + self.scalars.len() * S::BYTES);
        out.extend_from_slice(&self.id.to_le_bytes());
        out.resize(4 + S::BYTES, 0);
        self.vmin.write_le(&mut out[4..]);
        out.extend_from_slice(&[0; 4]);
        let mode = if codec::pack(&self.scalars, self.dims, &mut out) {
            0
        } else {
            for &s in &self.scalars {
                let at = out.len();
                out.resize(at + S::BYTES, 0);
                s.write_le(&mut out[at..]);
            }
            RAW
        };
        let len = u32::try_from(out.len() - Self::HEADER_LEN)
            .ok()
            .filter(|&len| len < RAW)
            .expect("a metacell payload fits the 31-bit length field");
        out[4 + S::BYTES..Self::HEADER_LEN].copy_from_slice(&(len | mode).to_le_bytes());
        out
    }

    /// Deserialize one record; the layout gives the block's dimensions from
    /// the decoded ID. Returns the record and the number of bytes consumed.
    /// Panics on a corrupt record — [`MetacellRecord::try_decode_scalars_into`]
    /// is the fallible form.
    pub fn decode(bytes: &[u8], layout: &MetacellLayout) -> (Self, usize) {
        let mut scalars = Vec::new();
        let (id, vmin, used) = Self::decode_scalars_into(bytes, layout, &mut scalars);
        let dims = layout.cell_dims(id);
        (
            MetacellRecord {
                id,
                vmin,
                dims,
                scalars,
            },
            used,
        )
    }

    /// Decode one record's payload into a caller-owned scalar buffer
    /// (cleared and refilled), returning `(id, vmin, bytes_consumed)`.
    ///
    /// This is the zero-allocation twin of [`MetacellRecord::decode`] for hot
    /// extraction loops: a worker decodes every record of its batch into the
    /// same buffer, hands the scalars to the kernel, and takes them back —
    /// no per-record `Vec` ever hits the allocator. Panics on a corrupt
    /// record; [`MetacellRecord::try_decode_scalars_into`] is the fallible
    /// form.
    pub fn decode_scalars_into(
        bytes: &[u8],
        layout: &MetacellLayout,
        scalars: &mut Vec<S>,
    ) -> (u32, S, usize) {
        Self::try_decode_scalars_into(bytes, layout, scalars).expect("corrupt metacell record")
    }

    /// [`MetacellRecord::decode_scalars_into`] for bytes that may be corrupt:
    /// a cut header or payload, an ID outside the layout's grid, or a payload
    /// whose length disagrees with its mode and the block's dimensions is
    /// [`io::ErrorKind::InvalidData`] naming the metacell. It never panics,
    /// and never reserves more than `layout.num_vertices(id)` scalars. Bit
    /// flips inside a packed payload's residuals decode to a block of the
    /// right dimensions with wrong values; nothing in the record can tell.
    pub fn try_decode_scalars_into(
        bytes: &[u8],
        layout: &MetacellLayout,
        scalars: &mut Vec<S>,
    ) -> io::Result<(u32, S, usize)> {
        if bytes.len() < Self::HEADER_LEN {
            return Err(invalid(format!(
                "metacell record header cut at {} of {} bytes",
                bytes.len(),
                Self::HEADER_LEN
            )));
        }
        let (id, vmin) = Self::peek_header(bytes);
        if id as usize >= layout.num_metacells() {
            return Err(invalid(format!(
                "metacell id {id} outside the layout's {} metacells",
                layout.num_metacells()
            )));
        }
        let used = Self::peek_len(bytes);
        let Some(payload) = bytes.get(Self::HEADER_LEN..used) else {
            return Err(invalid(format!(
                "metacell {id}: record of {used} bytes cut at {}",
                bytes.len()
            )));
        };
        let dims = layout.cell_dims(id);
        if Self::peek_raw(bytes) {
            let n = dims.num_vertices();
            if payload.len() != n * S::BYTES {
                return Err(invalid(format!(
                    "metacell {id}: raw payload of {} bytes, {n} scalars need {}",
                    payload.len(),
                    n * S::BYTES
                )));
            }
            scalars.clear();
            scalars.reserve_exact(n);
            scalars.extend(payload.chunks_exact(S::BYTES).map(S::read_le));
        } else {
            codec::unpack(payload, dims, scalars)
                .map_err(|what| invalid(format!("metacell {id}: packed payload: {what}")))?;
        }
        Ok((id, vmin, used))
    }

    /// Peek only the header `(id, vmin)` without decoding the payload —
    /// Case 2's streaming early-exit path.
    pub fn peek_header(bytes: &[u8]) -> (u32, S) {
        let id = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        (id, S::read_le(&bytes[4..]))
    }

    /// The stored length of the record whose header starts `bytes`, header
    /// included.
    pub fn peek_len(bytes: &[u8]) -> usize {
        Self::HEADER_LEN + (Self::len_word(bytes) & !RAW) as usize
    }

    /// Whether the record whose header starts `bytes` stores its scalars raw.
    pub fn peek_raw(bytes: &[u8]) -> bool {
        Self::len_word(bytes) & RAW != 0
    }

    fn len_word(bytes: &[u8]) -> u32 {
        let at = 4 + S::BYTES;
        u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
    }

    /// Reconstruct the metacell's local volume (for triangulation).
    pub fn to_volume(&self) -> Volume<S> {
        Volume::from_vec(self.dims, self.scalars.clone())
    }

    /// Reconstruct the local volume without cloning the payload.
    pub fn into_volume(self) -> Volume<S> {
        Volume::from_vec(self.dims, self.scalars)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout_and_volume() -> (MetacellLayout, Volume<u8>) {
        let dims = Dims3::new(17, 17, 17);
        let vol = Volume::generate(dims, |x, y, z| (x * 3 + y * 5 + z * 7) as u8);
        (MetacellLayout::new(dims, 9), vol)
    }

    #[test]
    fn paper_record_is_734_bytes_raw_and_packs_smaller() {
        let (layout, vol) = layout_and_volume();
        let rec = MetacellRecord::from_volume(&vol, &layout, 0);
        assert_eq!(rec.raw_len(), 734);
        assert_eq!(rec.raw_len(), layout.record_len(0, 1));
        let bytes = rec.encode();
        assert!(!MetacellRecord::<u8>::peek_raw(&bytes));
        assert!(bytes.len() < 734 / 2, "{} bytes", bytes.len());
        assert_eq!(MetacellRecord::<u8>::peek_len(&bytes), bytes.len());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let (layout, vol) = layout_and_volume();
        for id in layout.ids() {
            let rec = MetacellRecord::from_volume(&vol, &layout, id);
            let bytes = rec.encode();
            let (back, used) = MetacellRecord::<u8>::decode(&bytes, &layout);
            assert_eq!(used, bytes.len());
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn noise_is_stored_raw() {
        let dims = Dims3::cube(9);
        let vol = Volume::<u8>::generate(dims, |x, y, z| {
            (oociso_volume::noise::splitmix64((x + 9 * y + 81 * z) as u64) >> 56) as u8
        });
        let layout = MetacellLayout::new(dims, 9);
        let rec = MetacellRecord::from_volume(&vol, &layout, 0);
        let bytes = rec.encode();
        assert!(MetacellRecord::<u8>::peek_raw(&bytes));
        assert_eq!(bytes.len(), layout.record_len(0, 1) + 4);
        assert_eq!(&bytes[MetacellRecord::<u8>::HEADER_LEN..], &rec.scalars[..]);
        assert_eq!(MetacellRecord::<u8>::decode(&bytes, &layout).0, rec);
    }

    #[test]
    fn vmin_vmax_match_payload() {
        let (layout, vol) = layout_and_volume();
        let rec = MetacellRecord::from_volume(&vol, &layout, 3);
        let lo = rec.scalars.iter().copied().fold(255u8, u8::min);
        let hi = rec.scalars.iter().copied().fold(0u8, u8::max);
        assert_eq!(rec.vmin, lo);
        assert_eq!(rec.vmax(), hi);
    }

    #[test]
    fn decode_scalars_into_matches_decode() {
        let (layout, vol) = layout_and_volume();
        let mut buf: Vec<u8> = Vec::new();
        let mut scalars: Vec<u8> = Vec::new();
        for id in layout.ids() {
            let rec = MetacellRecord::from_volume(&vol, &layout, id);
            buf = rec.encode();
            let (did, dvmin, used) =
                MetacellRecord::<u8>::decode_scalars_into(&buf, &layout, &mut scalars);
            assert_eq!(did, rec.id);
            assert_eq!(dvmin, rec.vmin);
            assert_eq!(used, buf.len());
            assert_eq!(scalars, rec.scalars, "id {id}");
        }
        // the same buffer was reused for every record
        assert!(!buf.is_empty());
    }

    #[test]
    fn peek_header_matches_decode() {
        let (layout, vol) = layout_and_volume();
        let rec = MetacellRecord::from_volume(&vol, &layout, 5);
        let bytes = rec.encode();
        let (id, vmin) = MetacellRecord::<u8>::peek_header(&bytes);
        assert_eq!(id, 5);
        assert_eq!(vmin, rec.vmin);
    }

    #[test]
    fn constant_metacell_detected() {
        let dims = Dims3::cube(9);
        let vol = Volume::<u8>::filled(dims, 42);
        let layout = MetacellLayout::new(dims, 9);
        let rec = MetacellRecord::from_volume(&vol, &layout, 0);
        assert!(rec.is_constant());
        assert_eq!(rec.vmin, 42);
        assert_eq!(rec.vmax(), 42);
    }

    #[test]
    fn to_volume_reconstructs_geometry() {
        let (layout, vol) = layout_and_volume();
        let id = layout.id(1, 1, 1);
        let rec = MetacellRecord::from_volume(&vol, &layout, id);
        let local = rec.to_volume();
        let ((x0, y0, z0), _) = layout.vertex_box(id);
        for z in 0..local.dims().nz {
            for y in 0..local.dims().ny {
                for x in 0..local.dims().nx {
                    assert_eq!(local.get(x, y, z), vol.get(x0 + x, y0 + y, z0 + z));
                }
            }
        }
    }

    #[test]
    fn u16_record_roundtrip() {
        let dims = Dims3::new(9, 9, 9);
        let vol = Volume::<u16>::generate(dims, |x, y, z| (x * 311 + y * 97 + z * 1000) as u16);
        let layout = MetacellLayout::new(dims, 9);
        let rec = MetacellRecord::from_volume(&vol, &layout, 0);
        let bytes = rec.encode();
        assert!(bytes.len() < 4 + 2 + 729 * 2);
        let (back, used) = MetacellRecord::<u16>::decode(&bytes, &layout);
        assert_eq!(used, bytes.len());
        assert_eq!(back, rec);
    }
}

//! Brick index entries and the record format abstraction.

use oociso_exio::Span;
use oociso_metacell::{MetacellLayout, MetacellRecord};
use oociso_volume::ScalarValue;

/// One index entry of a compact-interval-tree node: a *brick* of metacells
/// sharing the same `vmax`, stored contiguously on disk sorted by increasing
/// `vmin`.
///
/// The paper's entry has three fields — the brick's `vmax`, the smallest
/// `vmin` of its metacells, and the disk pointer. We additionally keep the
/// brick length (needed to address variable-length record runs without a
/// terminator) and the record count; the size report accounts entries at the
/// paper's 3-field rate and at our concrete rate separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BrickEntry {
    /// Common `vmax` key of every metacell in the brick.
    pub vmax_key: u32,
    /// Smallest `vmin` key in the brick (first record, ascending order).
    pub min_vmin_key: u32,
    /// Contiguous byte range of the brick in the record store.
    pub span: Span,
    /// Number of metacell records in the brick.
    pub count: u32,
}

/// Knows how to parse record headers, so the plan executor can walk a byte
/// run of variable-length records and stop early (Case 2) without decoding
/// payloads.
pub trait RecordFormat: Send + Sync {
    /// Bytes needed to parse a record's header.
    fn header_len(&self) -> usize;
    /// Parse `(id, vmin_key)` from a record's first `header_len()` bytes.
    fn parse_header(&self, bytes: &[u8]) -> (u32, u32);
    /// Total stored length of the record, read from its first
    /// `header_len()` bytes. A length below `header_len()` marks the record
    /// corrupt.
    fn record_len(&self, header: &[u8]) -> usize;
}

/// [`RecordFormat`] for `oociso_metacell` records under a given layout.
#[derive(Clone, Copy, Debug)]
pub struct MetacellRecordFormat<S: ScalarValue> {
    layout: MetacellLayout,
    _marker: std::marker::PhantomData<S>,
}

impl<S: ScalarValue> MetacellRecordFormat<S> {
    /// Format for records cut with `layout`.
    pub fn new(layout: MetacellLayout) -> Self {
        MetacellRecordFormat {
            layout,
            _marker: std::marker::PhantomData,
        }
    }

    /// The layout of the records' dataset.
    pub fn layout(&self) -> &MetacellLayout {
        &self.layout
    }
}

impl<S: ScalarValue> RecordFormat for MetacellRecordFormat<S> {
    fn header_len(&self) -> usize {
        MetacellRecord::<S>::HEADER_LEN
    }

    fn parse_header(&self, bytes: &[u8]) -> (u32, u32) {
        let (id, vmin) = MetacellRecord::<S>::peek_header(bytes);
        (id, vmin.key())
    }

    fn record_len(&self, header: &[u8]) -> usize {
        MetacellRecord::<S>::peek_len(header)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oociso_volume::{Dims3, Volume};

    #[test]
    fn format_matches_real_records() {
        let dims = Dims3::new(17, 9, 9);
        let layout = MetacellLayout::new(dims, 9);
        let vol = Volume::<u8>::generate(dims, |x, y, z| (x + y + z) as u8);
        let fmt = MetacellRecordFormat::<u8>::new(layout);
        for id in layout.ids() {
            let rec = MetacellRecord::from_volume(&vol, &layout, id);
            let bytes = rec.encode();
            let header = &bytes[..fmt.header_len()];
            assert_eq!(fmt.record_len(header), bytes.len());
            let (pid, pmin) = fmt.parse_header(header);
            assert_eq!(pid, id);
            assert_eq!(pmin, rec.vmin.key());
        }
    }

    #[test]
    fn u16_header_len() {
        let layout = MetacellLayout::new(Dims3::cube(9), 9);
        let fmt = MetacellRecordFormat::<u16>::new(layout);
        assert_eq!(fmt.header_len(), 4 + 2 + 4);
        // a raw record: the length word's top bit is the mode, not the length
        let mut header = vec![0u8; 10];
        header[6..].copy_from_slice(&(1458u32 | 1 << 31).to_le_bytes());
        assert_eq!(fmt.record_len(&header), 10 + 729 * 2);
    }
}

//! Record stores.
//!
//! The compact interval tree lays metacells out as *bricks*: runs of
//! variable-length records stored contiguously, addressed by byte spans.
//! Preprocessing writes each record at its span through
//! [`WriteAt`](crate::WriteAt); a [`RecordStore`] serves ranged reads at
//! query time through any [`BlockDevice`] backend.

use crate::device::{BlockDevice, FileDevice, MemDevice};
use std::io;
use std::path::Path;

/// A byte range inside a store: `[offset, offset + len)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Span {
    pub offset: u64,
    pub len: u64,
}

impl Span {
    /// End offset (exclusive).
    #[inline]
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }

    /// Whether this span directly precedes `next` (contiguity check used to
    /// coalesce brick reads into bulk transfers).
    #[inline]
    pub fn abuts(&self, next: &Span) -> bool {
        self.end() == next.offset
    }

    /// Union of two *abutting* spans. Panics (release builds included) if the
    /// spans do not abut — a silent join of disjoint spans would fabricate a
    /// byte range covering unrelated records. Callers that may legitimately
    /// see gaps use [`Span::try_join`] and handle `None`.
    pub fn join(&self, next: &Span) -> Span {
        assert!(
            self.abuts(next),
            "Span::join on non-abutting spans: {self:?} then {next:?}"
        );
        Span {
            offset: self.offset,
            len: self.len + next.len,
        }
    }

    /// Union of two spans if they abut, `None` otherwise.
    pub fn try_join(&self, next: &Span) -> Option<Span> {
        self.abuts(next).then(|| Span {
            offset: self.offset,
            len: self.len + next.len,
        })
    }
}

/// A read-only record store over any block device.
pub struct RecordStore {
    device: Box<dyn BlockDevice>,
}

impl RecordStore {
    /// Open a store file with positioned reads.
    pub fn open(path: &Path) -> io::Result<Self> {
        Ok(RecordStore {
            device: Box::new(FileDevice::open(path)?),
        })
    }

    /// Open a store file memory-mapped.
    pub fn open_mmap(path: &Path) -> io::Result<Self> {
        Ok(RecordStore {
            device: Box::new(FileDevice::open_mmap(path)?),
        })
    }

    /// Store over an in-memory buffer (tests, I/O modeling).
    pub fn in_memory(data: Vec<u8>) -> Self {
        RecordStore {
            device: Box::new(MemDevice::new(data)),
        }
    }

    /// Wrap an arbitrary device.
    pub fn from_device(device: Box<dyn BlockDevice>) -> Self {
        RecordStore { device }
    }

    /// Read the bytes of a span.
    pub fn read_span(&self, span: Span) -> io::Result<Vec<u8>> {
        self.device.read_vec(span.offset, span.len as usize)
    }

    /// Read a span into the caller's buffer (must be exactly `span.len` long).
    pub fn read_span_into(&self, span: Span, buf: &mut [u8]) -> io::Result<()> {
        debug_assert_eq!(buf.len() as u64, span.len);
        self.device.read_at(span.offset, buf)
    }

    /// Underlying device (for stats inspection).
    pub fn device(&self) -> &dyn BlockDevice {
        self.device.as_ref()
    }

    /// Total store length in bytes.
    pub fn len(&self) -> u64 {
        self.device.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.device.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("oociso_store_{}_{}", std::process::id(), name));
        p
    }

    #[test]
    fn span_arithmetic() {
        let a = Span { offset: 0, len: 10 };
        let b = Span { offset: 10, len: 5 };
        assert!(a.abuts(&b));
        assert_eq!(a.join(&b), Span { offset: 0, len: 15 });
        assert_eq!(a.try_join(&b), Some(Span { offset: 0, len: 15 }));
        assert!(!b.abuts(&a));
        assert_eq!(b.try_join(&a), None);
        assert_eq!(a.end(), 10);
    }

    #[test]
    #[should_panic(expected = "non-abutting")]
    fn join_of_disjoint_spans_panics() {
        let a = Span { offset: 0, len: 10 };
        let gap = Span { offset: 12, len: 5 };
        let _ = a.join(&gap);
    }

    #[test]
    fn write_read_roundtrip() {
        let p = tmp("rt.store");
        std::fs::write(&p, b"helloworld!!").unwrap();
        let s1 = Span { offset: 0, len: 5 };
        let s2 = Span { offset: 5, len: 7 };
        let s3 = Span { offset: 12, len: 0 };

        let store = RecordStore::open(&p).unwrap();
        assert_eq!(store.read_span(s1).unwrap(), b"hello");
        assert_eq!(store.read_span(s2).unwrap(), b"world!!");
        assert_eq!(store.read_span(s3).unwrap(), b"");
        assert_eq!(store.len(), 12);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn in_memory_store() {
        let store = RecordStore::in_memory(vec![1, 2, 3, 4, 5]);
        assert_eq!(
            store.read_span(Span { offset: 1, len: 3 }).unwrap(),
            vec![2, 3, 4]
        );
        assert_eq!(store.device().io_snapshot().read_calls, 1);
    }

    #[test]
    fn mmap_backend_equivalent() {
        let p = tmp("mm.store");
        std::fs::write(&p, vec![9u8; 1000]).unwrap();
        let s = Span {
            offset: 0,
            len: 1000,
        };
        let a = RecordStore::open(&p).unwrap().read_span(s).unwrap();
        let b = RecordStore::open_mmap(&p).unwrap().read_span(s).unwrap();
        assert_eq!(a, b);
        std::fs::remove_file(&p).ok();
    }
}

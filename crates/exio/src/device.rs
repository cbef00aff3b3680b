//! Block devices: positioned reads with I/O accounting.

use crate::stats::{IoSnapshot, IoStats, DEFAULT_FORWARD_WINDOW};
use crate::DEFAULT_BLOCK_BYTES;
use memmap2::Mmap;
use std::fs::File;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// A readable device addressed by byte offset. All reads are accounted
/// against the device's [`IoStats`].
pub trait BlockDevice: Send + Sync {
    /// Read exactly `buf.len()` bytes starting at `offset`.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()>;

    /// Total device length in bytes.
    fn len(&self) -> u64;

    /// Whether the device holds no data.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shared I/O counters for this device.
    fn stats(&self) -> &IoStats;

    /// Convenience: snapshot of the counters.
    fn io_snapshot(&self) -> IoSnapshot {
        self.stats().snapshot()
    }

    /// Block size used for block-transfer accounting.
    fn block_bytes(&self) -> u64 {
        DEFAULT_BLOCK_BYTES
    }

    /// Read a fresh vector of `len` bytes at `offset`.
    fn read_vec(&self, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let mut v = vec![0u8; len];
        self.read_at(offset, &mut v)?;
        Ok(v)
    }
}

enum FileBacking {
    /// Positioned reads through the OS (`pread`).
    Pread(File),
    /// Memory-mapped file; reads are slice copies. I/O is still accounted
    /// identically so modeled times are backend-independent.
    Mapped(Mmap),
}

/// A read-only device over a file on disk.
pub struct FileDevice {
    backing: FileBacking,
    len: u64,
    stats: Arc<IoStats>,
    block_bytes: u64,
    forward_window: u64,
}

impl FileDevice {
    /// Open with positioned reads (no mapping).
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        Ok(FileDevice {
            backing: FileBacking::Pread(file),
            len,
            stats: Arc::new(IoStats::new()),
            block_bytes: DEFAULT_BLOCK_BYTES,
            forward_window: DEFAULT_FORWARD_WINDOW,
        })
    }

    /// Open memory-mapped (zero-copy page-cache reads).
    pub fn open_mmap(path: &Path) -> io::Result<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        // SAFETY: the store files are written once during preprocessing and
        // never mutated afterwards; mapping a read-only file we own is sound.
        let map = unsafe { Mmap::map(&file)? };
        Ok(FileDevice {
            backing: FileBacking::Mapped(map),
            len,
            stats: Arc::new(IoStats::new()),
            block_bytes: DEFAULT_BLOCK_BYTES,
            forward_window: DEFAULT_FORWARD_WINDOW,
        })
    }

    /// Override the accounting block size.
    pub fn with_block_bytes(mut self, block: u64) -> Self {
        assert!(block > 0);
        self.block_bytes = block;
        self
    }

    /// Override the forward-skip window.
    pub fn with_forward_window(mut self, window: u64) -> Self {
        self.forward_window = window;
        self
    }
}

impl BlockDevice for FileDevice {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.stats.record_read(
            offset,
            buf.len() as u64,
            self.block_bytes,
            self.forward_window,
        );
        if offset + buf.len() as u64 > self.len {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "read past end of device",
            ));
        }
        match &self.backing {
            FileBacking::Pread(file) => {
                #[cfg(unix)]
                {
                    use std::os::unix::fs::FileExt;
                    file.read_exact_at(buf, offset)
                }
                #[cfg(not(unix))]
                {
                    compile_error!("FileDevice requires a unix platform");
                }
            }
            FileBacking::Mapped(map) => {
                let start = offset as usize;
                buf.copy_from_slice(&map[start..start + buf.len()]);
                Ok(())
            }
        }
    }

    fn len(&self) -> u64 {
        self.len
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }

    fn block_bytes(&self) -> u64 {
        self.block_bytes
    }
}

/// An in-memory device for unit tests and pure I/O-model experiments.
pub struct MemDevice {
    data: Vec<u8>,
    stats: IoStats,
    block_bytes: u64,
    forward_window: u64,
}

impl MemDevice {
    /// Device over the given bytes.
    pub fn new(data: Vec<u8>) -> Self {
        MemDevice {
            data,
            stats: IoStats::new(),
            block_bytes: DEFAULT_BLOCK_BYTES,
            forward_window: DEFAULT_FORWARD_WINDOW,
        }
    }

    /// Override the accounting block size.
    pub fn with_block_bytes(mut self, block: u64) -> Self {
        assert!(block > 0);
        self.block_bytes = block;
        self
    }

    /// Override the forward-skip window.
    pub fn with_forward_window(mut self, window: u64) -> Self {
        self.forward_window = window;
        self
    }
}

impl BlockDevice for MemDevice {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.stats.record_read(
            offset,
            buf.len() as u64,
            self.block_bytes,
            self.forward_window,
        );
        let start = offset as usize;
        let end = start + buf.len();
        if end > self.data.len() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "read past end of device",
            ));
        }
        buf.copy_from_slice(&self.data[start..end]);
        Ok(())
    }

    fn len(&self) -> u64 {
        self.data.len() as u64
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }

    fn block_bytes(&self) -> u64 {
        self.block_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("oociso_dev_{}_{}", std::process::id(), name));
        p
    }

    #[test]
    fn mem_device_reads() {
        let d = MemDevice::new((0..100u8).collect());
        let mut buf = [0u8; 5];
        d.read_at(10, &mut buf).unwrap();
        assert_eq!(buf, [10, 11, 12, 13, 14]);
        assert_eq!(d.io_snapshot().bytes_read, 5);
    }

    #[test]
    fn mem_device_eof() {
        let d = MemDevice::new(vec![0; 10]);
        let mut buf = [0u8; 5];
        assert!(d.read_at(8, &mut buf).is_err());
    }

    #[test]
    fn file_device_pread_and_mmap_agree() {
        let p = tmp("fd.bin");
        let data: Vec<u8> = (0..255u8).cycle().take(100_000).collect();
        std::fs::write(&p, &data).unwrap();
        let fd = FileDevice::open(&p).unwrap();
        let md = FileDevice::open_mmap(&p).unwrap();
        for (off, len) in [(0u64, 10usize), (9999, 1000), (99_990, 10)] {
            let a = fd.read_vec(off, len).unwrap();
            let b = md.read_vec(off, len).unwrap();
            assert_eq!(a, b);
            assert_eq!(&a[..], &data[off as usize..off as usize + len]);
        }
        assert_eq!(fd.len(), 100_000);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn file_device_eof_detected() {
        let p = tmp("eof.bin");
        std::fs::write(&p, vec![0u8; 100]).unwrap();
        let fd = FileDevice::open(&p).unwrap();
        let mut buf = [0u8; 10];
        assert!(fd.read_at(95, &mut buf).is_err());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn sequential_detection_through_device() {
        let d = MemDevice::new(vec![7u8; 4096]).with_block_bytes(512);
        let mut b = [0u8; 1024];
        d.read_at(0, &mut b).unwrap();
        d.read_at(1024, &mut b).unwrap();
        d.read_at(2048, &mut b).unwrap();
        let s = d.io_snapshot();
        assert_eq!(s.seeks, 1);
        assert_eq!(s.sequential_reads, 2);
        assert_eq!(s.blocks_read, 6);
    }
}

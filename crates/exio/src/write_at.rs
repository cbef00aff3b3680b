//! Positioned writes behind a portable abstraction.
//!
//! Preprocessing writes each record at a pre-assigned offset (the last pass
//! of the cluster build, whether its slabs come from a file or from memory:
//! [`build_from_file`]). Routing those writes through
//! [`WriteAt`] keeps platform specifics (`pwrite` on unix, seek+write
//! elsewhere) out of the callers and lets tests substitute failing devices to
//! exercise error paths that real disks only hit when full.
//!
//! [`build_from_file`]: ../../oociso_cluster/cluster/struct.Cluster.html

use std::fs::File;
use std::io;

/// A byte sink addressable by offset (the write-side dual of
/// [`BlockDevice`](crate::device::BlockDevice)).
pub trait WriteAt {
    /// Write all of `buf` at `offset`.
    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()>;
}

impl WriteAt for File {
    #[cfg(unix)]
    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        std::os::unix::fs::FileExt::write_all_at(self, buf, offset)
    }

    #[cfg(not(unix))]
    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        // Portable fallback: `&File` implements Seek + Write. The file cursor
        // moves, which positioned-write callers by construction don't rely on.
        use std::io::{Seek, SeekFrom, Write};
        let mut f = self;
        f.seek(SeekFrom::Start(offset))?;
        f.write_all(buf)
    }
}

impl<W: WriteAt + ?Sized> WriteAt for &W {
    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        (**self).write_all_at(buf, offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("oociso_wat_{}_{}", std::process::id(), name));
        p
    }

    #[test]
    fn positioned_writes_land_at_offsets() {
        let p = tmp("pos.bin");
        let f = File::create(&p).unwrap();
        f.set_len(10).unwrap();
        f.write_all_at(b"cd", 2).unwrap();
        f.write_all_at(b"ab", 0).unwrap();
        f.write_all_at(b"zz", 8).unwrap();
        drop(f);
        let got = std::fs::read(&p).unwrap();
        assert_eq!(&got[..4], b"abcd");
        assert_eq!(&got[8..], b"zz");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn write_to_read_only_handle_is_err_not_panic() {
        let p = tmp("ro.bin");
        std::fs::write(&p, b"existing").unwrap();
        let f = File::open(&p).unwrap(); // read-only handle
        let err = f.write_all_at(b"nope", 0);
        assert!(err.is_err(), "write through read-only fd must fail");
        assert_eq!(std::fs::read(&p).unwrap(), b"existing");
        std::fs::remove_file(&p).ok();
    }
}

//! Disk-time cost model.
//!
//! Our benchmarks run on hardware far faster than the paper's 2006 SCSI
//! disks, so measured wall-clock I/O times cannot be compared directly. The
//! cost model translates the counted I/O operations into *modeled seconds*
//! under explicit disk constants, defaulting to the paper's: 50 MB/s transfer
//! rate (section 6) and a conventional ~8 ms average seek for disks of that
//! era. The model is deliberately simple — `seeks × t_seek + bytes / rate` —
//! because that is the level at which the paper reasons ("we are able to
//! achieve the I/O rate of about 50 MB/s in retrieving the active metacells").
//! Devices that charge every request a fixed latency however sequential it
//! is (a network block store, [`crate::ThrottledDevice`]) add a third term,
//! `read_calls × t_call`; it is zero for the disk presets.

use crate::stats::IoSnapshot;
use std::time::Duration;

/// Disk timing constants for the modeled-time computation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IoCostModel {
    /// Disk block size in bytes.
    pub block_bytes: u64,
    /// Average positioning (seek + rotational) latency per non-sequential read.
    pub seek: Duration,
    /// Fixed latency of every read call, sequential or not.
    pub per_call: Duration,
    /// Sustained sequential transfer rate, bytes per second.
    pub bytes_per_sec: f64,
}

impl IoCostModel {
    /// The paper's cluster disk: 60 GB local disk at 50 MB/s, 8 KB blocks,
    /// ~8 ms seek.
    pub fn paper_disk() -> Self {
        IoCostModel {
            block_bytes: 8192,
            seek: Duration::from_micros(8000),
            per_call: Duration::ZERO,
            bytes_per_sec: 50.0e6,
        }
    }

    /// A modern NVMe-style device (for contrast experiments).
    pub fn nvme() -> Self {
        IoCostModel {
            block_bytes: 4096,
            seek: Duration::from_micros(80),
            per_call: Duration::ZERO,
            bytes_per_sec: 3.0e9,
        }
    }

    /// The model of a [`crate::ThrottledDevice`] built with the same
    /// arguments: `latency` per call plus transfer at `bytes_per_sec`, and no
    /// head — positioning is free. The throttle also passes over gaps for
    /// free, so the model equals the device's summed
    /// [`delay_for`](crate::ThrottledDevice::delay_for) exactly when the
    /// snapshot carries no `skip_bytes` (inner device opened with a zero
    /// forward window), and exceeds it by `skip_bytes / bytes_per_sec`
    /// otherwise.
    pub fn throttled(latency: Duration, bytes_per_sec: f64) -> Self {
        IoCostModel {
            block_bytes: crate::DEFAULT_BLOCK_BYTES,
            seek: Duration::ZERO,
            per_call: latency,
            bytes_per_sec,
        }
    }

    /// Modeled disk time for a snapshot of I/O counters. Forward-skip gap
    /// bytes are charged at the transfer rate — the head reads through short
    /// gaps instead of seeking (the devices' forward window defaults to
    /// `seek_time × rate`, past which a seek is cheaper and is counted as
    /// one by the accounting layer).
    pub fn modeled_time(&self, io: &IoSnapshot) -> Duration {
        let seek = self.seek.as_secs_f64() * io.seeks as f64;
        let calls = self.per_call.as_secs_f64() * io.read_calls as f64;
        let xfer = (io.bytes_read + io.skip_bytes) as f64 / self.bytes_per_sec;
        Duration::from_secs_f64(seek + calls + xfer)
    }

    /// The minimum number of block transfers needed to read `bytes` of
    /// output — the `T/B` term of the paper's I/O-optimality bound.
    pub fn optimal_blocks(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.block_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_disk_constants() {
        let m = IoCostModel::paper_disk();
        assert_eq!(m.block_bytes, 8192);
        assert_eq!(m.bytes_per_sec, 50.0e6);
    }

    #[test]
    fn fifty_mb_takes_one_second() {
        let m = IoCostModel::paper_disk();
        let t = m.modeled_time(&IoSnapshot {
            read_calls: 1,
            seeks: 1,
            forward_skips: 0,
            skip_bytes: 0,
            sequential_reads: 0,
            bytes_read: 50_000_000,
            blocks_read: 6104,
        });
        let secs = t.as_secs_f64();
        assert!((secs - 1.008).abs() < 1e-3, "got {secs}");
    }

    #[test]
    fn seeks_dominate_small_scattered_reads() {
        let m = IoCostModel::paper_disk();
        let scattered = m.modeled_time(&IoSnapshot {
            read_calls: 1000,
            seeks: 1000,
            forward_skips: 0,
            skip_bytes: 0,
            sequential_reads: 0,
            bytes_read: 8192 * 1000,
            blocks_read: 1000,
        });
        let sequential = m.modeled_time(&IoSnapshot {
            read_calls: 1000,
            seeks: 1,
            forward_skips: 0,
            skip_bytes: 0,
            sequential_reads: 999,
            bytes_read: 8192 * 1000,
            blocks_read: 1000,
        });
        assert!(scattered > sequential * 10);
    }

    #[test]
    fn throttled_model_equals_summed_device_delays() {
        use crate::{BlockDevice, MemDevice, ThrottledDevice};
        let (latency, rate) = (Duration::from_micros(500), 25.0e6);
        // zero forward window: the throttle has no head, so gaps must not be
        // accounted as bytes read through
        let device = ThrottledDevice::new(
            MemDevice::new(vec![0u8; 200_000]).with_forward_window(0),
            latency,
            rate,
        );
        // a run of chunked reads, a short gap, a long gap, a backward jump
        let reads = [
            (0u64, 32_768usize),
            (32_768, 32_768),
            (65_536, 1_234),
            (70_000, 8),
            (150_000, 40_000),
            (10, 700),
        ];
        let mut delays = Duration::ZERO;
        for (offset, len) in reads {
            device.read_at(offset, &mut vec![0u8; len]).unwrap();
            delays += device.delay_for(len as u64);
        }
        let io = device.io_snapshot();
        assert_eq!(io.read_calls, reads.len() as u64);
        assert_eq!(io.skip_bytes, 0);
        let model = IoCostModel::throttled(latency, rate).modeled_time(&io);
        let diff = model.as_secs_f64() - delays.as_secs_f64();
        assert!(diff.abs() < 1e-6, "model {model:?} vs device {delays:?}");
        // the disk presets charge nothing per call
        let calls_only = IoSnapshot {
            read_calls: 1000,
            ..Default::default()
        };
        assert_eq!(
            IoCostModel::paper_disk().modeled_time(&calls_only),
            Duration::ZERO
        );
        assert_eq!(
            IoCostModel::nvme().modeled_time(&calls_only),
            Duration::ZERO
        );
    }

    #[test]
    fn optimal_blocks_rounds_up() {
        let m = IoCostModel::paper_disk();
        assert_eq!(m.optimal_blocks(1), 1);
        assert_eq!(m.optimal_blocks(8192), 1);
        assert_eq!(m.optimal_blocks(8193), 2);
        assert_eq!(m.optimal_blocks(0), 0);
    }

    #[test]
    fn nvme_much_faster() {
        let io = IoSnapshot {
            read_calls: 100,
            seeks: 100,
            forward_skips: 0,
            skip_bytes: 0,
            sequential_reads: 0,
            bytes_read: 10_000_000,
            blocks_read: 2442,
        };
        assert!(
            IoCostModel::nvme().modeled_time(&io)
                < IoCostModel::paper_disk().modeled_time(&io) / 50
        );
    }
}

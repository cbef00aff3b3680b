//! Preprocessing scan: volume → metacell records + intervals.
//!
//! The paper's preprocessing "scans the data once and creates the metacells",
//! dropping those whose vertices all share one value (≈50% savings on the RM
//! dataset). One scan loop, [`scan_slabs`], walks z-slabs of `k` layers
//! with one overlapping layer, so only `O(nx·ny·k)` samples are ever resident
//! whatever the slab source: true out-of-core preprocessing. Two wrappers
//! name the sources:
//!
//! * [`scan_reader`] — slabs streamed from a raw volume file;
//! * [`scan_volume`] — slabs copied out of an in-memory volume, the kept
//!   metacells collected into a `Vec` (tests, span-space tools).

use crate::interval::MetacellInterval;
use crate::layout::MetacellLayout;
use crate::record::MetacellRecord;
use oociso_volume::io::RawVolumeReader;
use oociso_volume::{Dims3, ScalarValue, Volume};
use std::io;

/// One surviving metacell: its interval plus its record.
#[derive(Clone, Debug)]
pub struct BuiltMetacell<S: ScalarValue> {
    pub interval: MetacellInterval,
    pub record: MetacellRecord<S>,
}

/// Statistics of a preprocessing run (paper §7: "5,592,802 metacells that
/// occupy … nearly 50% smaller than the original").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PreprocessStats {
    /// Metacells in the full partition.
    pub total_metacells: usize,
    /// Metacells kept (non-constant).
    pub kept_metacells: usize,
    /// Metacells culled as constant.
    pub culled_metacells: usize,
    /// Bytes of the kept records at the paper's raw record size
    /// ([`MetacellRecord::raw_len`]) — Table 1's figure.
    pub kept_bytes: u64,
    /// Bytes of the kept records as stored (packed, header with its length
    /// word included). Set by the store writer; a bare scan leaves it 0.
    pub stored_bytes: u64,
    /// Bytes of the raw input volume.
    pub raw_bytes: u64,
}

impl PreprocessStats {
    /// Fraction of metacells culled.
    pub fn culled_fraction(&self) -> f64 {
        if self.total_metacells == 0 {
            0.0
        } else {
            self.culled_metacells as f64 / self.total_metacells as f64
        }
    }

    /// Kept bytes relative to raw input (the paper reports ≈0.5 for RM).
    pub fn size_ratio(&self) -> f64 {
        if self.raw_bytes == 0 {
            0.0
        } else {
            self.kept_bytes as f64 / self.raw_bytes as f64
        }
    }

    /// Stored bytes relative to kept bytes: what the packed records save
    /// over the paper's raw ones.
    pub fn stored_ratio(&self) -> f64 {
        if self.kept_bytes == 0 {
            0.0
        } else {
            self.stored_bytes as f64 / self.kept_bytes as f64
        }
    }
}

/// Scan an in-memory volume; returns surviving metacells in ID order plus
/// stats. The same slab scan as [`scan_reader`], over slabs copied out of
/// `vol`.
pub fn scan_volume<S: ScalarValue>(
    vol: &Volume<S>,
    layout: &MetacellLayout,
) -> (Vec<BuiltMetacell<S>>, PreprocessStats) {
    let dims = vol.dims();
    assert_eq!(dims, layout.volume_dims(), "layout/volume mismatch");
    let mut kept = Vec::new();
    let read_slab = |z0, count| Ok(vol.extract_box((0, 0, z0), (dims.nx, dims.ny, z0 + count)));
    let stats = scan_slabs(dims, layout.k(), read_slab, |built| {
        kept.push(built);
        Ok(())
    })
    .expect("an in-memory scan has no I/O to fail");
    (kept, stats)
}

/// Out-of-core scan over a raw volume file: [`scan_slabs`] over the file's
/// z-slabs.
pub fn scan_reader<S: ScalarValue>(
    reader: &mut RawVolumeReader<S>,
    k: usize,
    sink: impl FnMut(BuiltMetacell<S>) -> io::Result<()>,
) -> io::Result<PreprocessStats> {
    scan_slabs(
        reader.dims(),
        k,
        |z0, count| reader.read_slab(z0, count),
        sink,
    )
}

/// The preprocessing scan: z-slabs of `k` layers with one layer of overlap,
/// `read_slab(z0, count)` returning layers `z0..z0 + count` of a volume of
/// `dims`, are streamed through `sink` one metacell at a time, in ID order.
/// Constant metacells are culled before reaching the sink. Returns stats.
///
/// Both the slab source and the sink are fallible: a failed read, or a sink
/// that writes records to disk hitting a full disk or closed file, surfaces
/// as `Err` from this function instead of having to panic mid-stream.
pub fn scan_slabs<S: ScalarValue>(
    dims: Dims3,
    k: usize,
    mut read_slab: impl FnMut(usize, usize) -> io::Result<Volume<S>>,
    mut sink: impl FnMut(BuiltMetacell<S>) -> io::Result<()>,
) -> io::Result<PreprocessStats> {
    let layout = MetacellLayout::new(dims, k);
    let grid = layout.grid();
    let span = k - 1;
    let mut stats = PreprocessStats {
        total_metacells: layout.num_metacells(),
        raw_bytes: dims.raw_bytes::<S>() as u64,
        ..Default::default()
    };
    for mz in 0..grid.nz {
        let z0 = mz * span;
        let z1 = (z0 + k).min(dims.nz);
        let slab = read_slab(z0, z1 - z0)?;
        // The slab is a volume of dims (nx, ny, z1-z0); build each record on
        // a single-metacell-layer layout shifted into slab space.
        let slab_layout = MetacellLayout::new(Dims3::new(dims.nx, dims.ny, z1 - z0), k);
        debug_assert_eq!(slab_layout.grid().nx, grid.nx);
        debug_assert_eq!(slab_layout.grid().nz, 1);
        for my in 0..grid.ny {
            for mx in 0..grid.nx {
                let slab_id = slab_layout.id(mx, my, 0);
                let global_id = layout.id(mx, my, mz);
                let record = MetacellRecord::from_volume(&slab, &slab_layout, slab_id);
                let record = MetacellRecord {
                    id: global_id,
                    ..record
                };
                let interval =
                    MetacellInterval::new(global_id, record.vmin.key(), record.vmax().key());
                if interval.is_constant() {
                    stats.culled_metacells += 1;
                } else {
                    stats.kept_bytes += record.raw_len() as u64;
                    stats.kept_metacells += 1;
                    sink(BuiltMetacell { interval, record })?;
                }
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oociso_volume::io::write_volume;
    use oociso_volume::Dims3;

    fn sphere_volume(dims: Dims3) -> Volume<u8> {
        Volume::generate(dims, |x, y, z| {
            let dx = x as f32 - dims.nx as f32 / 2.0;
            let dy = y as f32 - dims.ny as f32 / 2.0;
            let dz = z as f32 - dims.nz as f32 / 2.0;
            let d = (dx * dx + dy * dy + dz * dz).sqrt();
            (200.0 - d * 20.0).clamp(0.0, 255.0) as u8
        })
    }

    #[test]
    fn constant_volume_culls_everything() {
        let dims = Dims3::new(17, 17, 17);
        let vol = Volume::<u8>::filled(dims, 9);
        let layout = MetacellLayout::new(dims, 9);
        let (kept, stats) = scan_volume(&vol, &layout);
        assert!(kept.is_empty());
        assert_eq!(stats.culled_metacells, 8);
        assert_eq!(stats.culled_fraction(), 1.0);
    }

    #[test]
    fn sphere_keeps_boundary_metacells() {
        let dims = Dims3::new(33, 33, 33);
        let vol = sphere_volume(dims);
        let layout = MetacellLayout::new(dims, 9);
        let (kept, stats) = scan_volume(&vol, &layout);
        assert!(stats.kept_metacells > 0);
        assert!(stats.culled_metacells > 0, "far corners are constant 0");
        assert_eq!(stats.kept_metacells + stats.culled_metacells, 64);
        assert_eq!(kept.len(), stats.kept_metacells);
        // intervals really bound the payload
        for b in &kept {
            assert!(b.interval.min_key < b.interval.max_key);
            assert_eq!(b.interval.min_key, b.record.vmin.key());
            assert_eq!(b.interval.max_key, b.record.vmax().key());
        }
    }

    #[test]
    fn reader_scan_matches_in_memory() {
        let dims = Dims3::new(25, 17, 21);
        let vol = sphere_volume(dims);
        let layout = MetacellLayout::new(dims, 9);
        let (expected, es) = scan_volume(&vol, &layout);

        let mut p = std::env::temp_dir();
        p.push(format!("oociso_build_{}.vol", std::process::id()));
        write_volume(&p, &vol).unwrap();
        let mut reader = RawVolumeReader::<u8>::open(&p).unwrap();
        let mut got = Vec::new();
        let rs = scan_reader(&mut reader, 9, |b| {
            got.push(b);
            Ok(())
        })
        .unwrap();
        std::fs::remove_file(&p).ok();

        assert_eq!(es, rs);
        assert_eq!(expected.len(), got.len());
        // reader emits per-slab (z-major) which matches ID order
        for (a, b) in expected.iter().zip(got.iter()) {
            assert_eq!(a.interval, b.interval);
            assert_eq!(a.record, b.record);
        }
    }

    #[test]
    fn scan_reader_propagates_sink_errors() {
        let dims = Dims3::new(25, 17, 21);
        let vol = sphere_volume(dims);
        let mut p = std::env::temp_dir();
        p.push(format!("oociso_build_err_{}.vol", std::process::id()));
        write_volume(&p, &vol).unwrap();
        let mut reader = RawVolumeReader::<u8>::open(&p).unwrap();
        let mut calls = 0usize;
        let err = scan_reader(&mut reader, 9, |_b| {
            calls += 1;
            if calls == 3 {
                Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"))
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        std::fs::remove_file(&p).ok();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(calls, 3, "scan must stop at the failing sink call");
    }

    #[test]
    fn stats_size_ratio() {
        let dims = Dims3::new(17, 17, 17);
        let vol = sphere_volume(dims);
        let layout = MetacellLayout::new(dims, 9);
        let (_, stats) = scan_volume(&vol, &layout);
        let ratio = stats.size_ratio();
        assert!(ratio > 0.0 && ratio < 1.5, "ratio {ratio}");
    }
}

//! Differential contract of `exio::crc`: whatever kernel the host selects
//! (carry-less multiply or sliced tables), `crc32` and a split
//! `Crc32::update` must equal the byte-at-a-time table loop the serve layer
//! shipped through protocol v1–v6 — same polynomial, same bytes on the wire.

use oociso_exio::crc::{self, crc32, Crc32, CLMUL_MIN_BYTES};

/// The retired production loop, kept verbatim as the oracle.
fn reference_crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut b = 0;
            while b < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                b += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut c = !0u32;
    for &b in bytes {
        c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Seeded bytes (xorshift64*), so a failure names a reproducible input.
fn noise(len: usize, seed: u64) -> Vec<u8> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            (s.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
        })
        .collect()
}

/// `len` seeded bytes starting `align` bytes past a 16-byte boundary.
struct Aligned {
    backing: Vec<u8>,
    start: usize,
    len: usize,
}

impl Aligned {
    fn new(len: usize, align: usize, seed: u64) -> Self {
        let mut backing = vec![0u8; len + 32];
        let base = backing.as_ptr() as usize;
        let start = (16 - base % 16) % 16 + align;
        backing[start..start + len].copy_from_slice(&noise(len, seed));
        Aligned {
            backing,
            start,
            len,
        }
    }

    fn bytes(&self) -> &[u8] {
        &self.backing[self.start..self.start + self.len]
    }
}

fn split_crc(bytes: &[u8], at: usize) -> u32 {
    let mut c = Crc32::new();
    c.update(&bytes[..at]);
    c.update(&bytes[at..]);
    c.finish()
}

#[test]
fn check_value_and_empty_input() {
    assert_eq!(crc32(b""), 0);
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(Crc32::new().finish(), 0);
    assert_eq!(Crc32::default().finish(), 0);
}

#[test]
fn crc32_matches_reference_every_length_alignment_and_split() {
    eprintln!(
        "crc32 kernel on this host: {} (inputs of {CLMUL_MIN_BYTES}+ bytes; tables below that)",
        crc::path()
    );
    for len in 0..=1024usize {
        // one seed per length: every alignment holds the same bytes
        let want = reference_crc32(&noise(len, len as u64));
        for align in 0..16 {
            let buf = Aligned::new(len, align, len as u64);
            let bytes = buf.bytes();
            assert_eq!(bytes.as_ptr() as usize % 16, align);
            assert_eq!(crc32(bytes), want, "len {len} align {align}");
        }
        // every split point, at an alignment that walks with the length
        let buf = Aligned::new(len, len % 16, len as u64);
        let bytes = buf.bytes();
        for at in 0..=len {
            assert_eq!(split_crc(bytes, at), want, "len {len} split {at}");
        }
    }
}

#[test]
fn crc32_matches_reference_on_large_buffers() {
    for len in [4095usize, 4096, 4097, 65_535, (1 << 20) + 3] {
        let want = reference_crc32(&noise(len, len as u64));
        for align in 0..16 {
            let buf = Aligned::new(len, align, len as u64);
            let bytes = buf.bytes();
            assert_eq!(crc32(bytes), want, "len {len} align {align}");
            if align % 5 != 0 {
                continue; // splits at alignments 0, 5, 10, 15
            }
            for at in [
                0,
                1,
                15,
                16,
                63,
                64,
                CLMUL_MIN_BYTES - 1,
                CLMUL_MIN_BYTES,
                CLMUL_MIN_BYTES + 1,
                len / 2,
                len - CLMUL_MIN_BYTES - 1,
                len - CLMUL_MIN_BYTES,
                len - 1,
                len,
            ] {
                assert_eq!(
                    split_crc(bytes, at),
                    want,
                    "len {len} align {align} split {at}"
                );
            }
        }
    }
}

/// Many small updates (a frame assembled field by field) equal one pass.
#[test]
fn many_uneven_updates_equal_one_pass() {
    let data = noise(70_000, 99);
    let want = reference_crc32(&data);
    let mut c = Crc32::new();
    let mut rest = &data[..];
    let mut step = 1usize;
    while !rest.is_empty() {
        let n = step.min(rest.len());
        c.update(&rest[..n]);
        rest = &rest[n..];
        step = step * 3 % 1021 + 1; // 1…1021, crossing the kernel threshold
    }
    assert_eq!(c.finish(), want);
}

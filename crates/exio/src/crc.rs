//! CRC-32 (IEEE 802.3: reflected polynomial `0xEDB88320`, initial value and
//! final xor `!0`, check value `0xCBF43926`) — the one checksum routine in
//! the workspace. The serve layer's frame trailer is computed and verified
//! with it, and a per-brick store checksum would call the same function.
//!
//! Two kernels produce the same value:
//!
//! * **slicing-by-16 tables** — the portable path: sixteen 256-entry tables
//!   built at compile time retire 16 input bytes per step instead of one
//!   (by-8 was measured too and is slower on every host tried, so only by-16
//!   is kept; `docs/perf.md`, "The hit path");
//! * **carry-less multiply** — on `x86_64`, when the CPU reports `pclmulqdq`
//!   and `sse4.1` and the input is at least [`CLMUL_MIN_BYTES`] long: four
//!   128-bit lanes folded 64 bytes at a time, reduced to 32 bits by Barrett
//!   reduction. The sub-16-byte tail goes through the tables.
//!
//! Which one runs is detected, never configured; [`path`] reports it.

/// Reflected IEEE 802.3 generator polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[k][b]`: the CRC state after byte `b` followed by `k` zero bytes.
/// `TABLES[0]` is the classic byte-at-a-time table.
const TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// Shortest input the carry-less-multiply kernel is used for. Below this
/// its fixed cost (four lane loads, two reductions) is not repaid.
pub const CLMUL_MIN_BYTES: usize = 128;

/// A streaming CRC-32: feed bytes in any number of [`Crc32::update`] calls,
/// read the checksum with [`Crc32::finish`]. Splitting the input anywhere
/// yields the same value as one call over the whole of it.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    /// The running remainder, kept inverted (`!0` for the empty input).
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// The checksum state of the empty input.
    pub const fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Absorb `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        #[cfg(target_arch = "x86_64")]
        if rest.len() >= CLMUL_MIN_BYTES && clmul_available() {
            let (lanes, tail) = rest.split_at(rest.len() & !15);
            // SAFETY: `clmul_available` just confirmed that this CPU has
            // `pclmulqdq` and `sse4.1` (`sse2` is part of the x86_64
            // baseline). `lanes` is a multiple of 16 bytes and, with
            // `rest.len() >= 128`, at least 112 long, as the kernel expects.
            self.state = unsafe { fold_clmul(self.state, lanes) };
            rest = tail;
        }
        self.state = update_tables(self.state, rest);
    }

    /// The CRC-32 of everything absorbed so far.
    pub const fn finish(&self) -> u32 {
        !self.state
    }
}

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// Name of the kernel [`crc32`] runs on this host for inputs of at least
/// [`CLMUL_MIN_BYTES`]: `"pclmulqdq"` or `"slice16"`. For a program to
/// report, so that a throughput number from another machine is explainable.
pub fn path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if clmul_available() {
        return "pclmulqdq";
    }
    "slice16"
}

#[cfg(target_arch = "x86_64")]
fn clmul_available() -> bool {
    // each probe is one relaxed load of std's cached CPUID bits
    std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
}

/// Slicing-by-16: advance the inverted remainder `state` over `bytes`.
fn update_tables(mut state: u32, bytes: &[u8]) -> u32 {
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let lo = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) ^ state;
        state = TABLES[15][(lo & 0xFF) as usize]
            ^ TABLES[14][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[13][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[12][(lo >> 24) as usize]
            ^ TABLES[11][b[4] as usize]
            ^ TABLES[10][b[5] as usize]
            ^ TABLES[9][b[6] as usize]
            ^ TABLES[8][b[7] as usize]
            ^ TABLES[7][b[8] as usize]
            ^ TABLES[6][b[9] as usize]
            ^ TABLES[5][b[10] as usize]
            ^ TABLES[4][b[11] as usize]
            ^ TABLES[3][b[12] as usize]
            ^ TABLES[2][b[13] as usize]
            ^ TABLES[1][b[14] as usize]
            ^ TABLES[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        state = TABLES[0][((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// Fold constants for the reflected IEEE polynomial `P`: each is
/// `x^n mod P`, bit-reflected and shifted left one bit so that a 64×64-bit
/// carry-less product lands aligned in its 128-bit lane (the unit test
/// `fold_constants_derive_from_the_polynomial` re-derives them from [`POLY`]).
#[cfg(target_arch = "x86_64")]
mod k {
    /// `x^(4·128+32) mod P` / `x^(4·128−32) mod P`: fold a lane 64 bytes on.
    pub const FOLD_64B: [u64; 2] = [0x0000_0001_5444_2bd4, 0x0000_0001_c6e4_1596];
    /// `x^(128+32) mod P` / `x^(128−32) mod P`: fold a lane 16 bytes on.
    pub const FOLD_16B: [u64; 2] = [0x0000_0001_7519_97d0, 0x0000_0000_ccaa_009e];
    /// `x^64 mod P`: the 96 → 64 bit step.
    pub const FOLD_4B: u64 = 0x0000_0001_63cd_6124;
    /// Barrett pair: `P'` (the 33-bit polynomial) and `µ = ⌊x^64 / P⌋`.
    pub const BARRETT: [u64; 2] = [0x0000_0001_db71_0641, 0x0000_0001_f701_1641];
}

/// Carry-less-multiply kernel: advance the inverted remainder `state` over
/// `bytes` (Gopal et al., "Fast CRC Computation for Generic Polynomials
/// Using PCLMULQDQ Instruction", the bit-reflected variant).
///
/// # Safety
///
/// The caller must have verified at run time that the CPU supports
/// `pclmulqdq` and `sse4.1`; executing these instructions without them is
/// undefined behaviour. Memory is only touched through bounds-checked
/// 16-byte sub-slices of `bytes`, so the length rule is a correctness
/// precondition, not a safety one: `bytes.len()` must be a multiple of 16
/// and at least 64 (a shorter input panics, a ragged tail would be left
/// out of the checksum).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
unsafe fn fold_clmul(state: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::*;

    debug_assert!(bytes.len() >= 64 && bytes.len().is_multiple_of(16));
    let lane = |c: &[u8]| -> __m128i {
        // bounds-checked, so the load below stays inside `bytes`
        let c = &c[..16];
        // SAFETY: `c` is exactly 16 readable bytes, and `loadu` has no
        // alignment requirement.
        unsafe { _mm_loadu_si128(c.as_ptr() as *const __m128i) }
    };
    // x ← x·k (both halves) ⊕ next: move a lane's remainder past `next`
    let fold = |x: __m128i, k: __m128i, next: __m128i| -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    };
    let pair = |k: [u64; 2]| _mm_set_epi64x(k[1] as i64, k[0] as i64);

    let mut blocks = bytes.chunks_exact(64);
    let first = blocks.next().expect("caller guarantees at least 64 bytes");
    let mut x0 = _mm_xor_si128(lane(&first[0..16]), _mm_cvtsi32_si128(state as i32));
    let mut x1 = lane(&first[16..32]);
    let mut x2 = lane(&first[32..48]);
    let mut x3 = lane(&first[48..64]);

    let k64 = pair(k::FOLD_64B);
    for b in &mut blocks {
        x0 = fold(x0, k64, lane(&b[0..16]));
        x1 = fold(x1, k64, lane(&b[16..32]));
        x2 = fold(x2, k64, lane(&b[32..48]));
        x3 = fold(x3, k64, lane(&b[48..64]));
    }

    // four lanes → one, then any whole 16-byte lanes left (at most three)
    let k16 = pair(k::FOLD_16B);
    let mut x = fold(x0, k16, x1);
    x = fold(x, k16, x2);
    x = fold(x, k16, x3);
    for c in blocks.remainder().chunks_exact(16) {
        x = fold(x, k16, lane(c));
    }

    // 128 → 96 → 64 bits
    let low32 = _mm_setr_epi32(!0, 0, !0, 0);
    x = _mm_xor_si128(_mm_srli_si128::<8>(x), _mm_clmulepi64_si128::<0x10>(x, k16));
    x = _mm_xor_si128(
        _mm_srli_si128::<4>(x),
        _mm_clmulepi64_si128::<0x00>(
            _mm_and_si128(x, low32),
            _mm_set_epi64x(0, k::FOLD_4B as i64),
        ),
    );

    // Barrett reduction 64 → 32 bits
    let pu = pair(k::BARRETT);
    let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
    let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
    _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-at-a-time definition: the oracle for the unit tests here (the
    /// integration suite in `tests/crc.rs` carries the byte-table loop the
    /// serve layer used to ship).
    fn bitwise(mut state: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            state ^= b as u32;
            for _ in 0..8 {
                state = if state & 1 != 0 {
                    POLY ^ (state >> 1)
                } else {
                    state >> 1
                };
            }
        }
        state
    }

    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn check_value() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The table kernel on its own — on a host with `pclmulqdq` the public
    /// entry never sends it an input of 128 bytes or more.
    #[test]
    fn table_kernel_matches_the_definition_on_long_inputs() {
        for len in [0, 1, 15, 16, 17, 127, 128, 129, 4096, 70_001] {
            let data = noise(len, len as u64 + 7);
            for state in [!0u32, 0, 0x1234_5678] {
                assert_eq!(
                    update_tables(state, &data),
                    bitwise(state, &data),
                    "len {len}"
                );
            }
        }
    }

    /// Where the fold constants come from: `x^n mod P` computed bit by bit.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants_derive_from_the_polynomial() {
        // x^n mod P in the reflected domain (bit 31 = x^0), shifted left one
        // for the 33-bit alignment the kernel's products use
        fn xn_mod_p(n: u32) -> u64 {
            let mut r: u32 = 0x8000_0000; // x^0
            for _ in 0..n {
                r = if r & 1 != 0 { POLY ^ (r >> 1) } else { r >> 1 };
            }
            (r as u64) << 1
        }
        assert_eq!(
            k::FOLD_64B,
            [xn_mod_p(4 * 128 + 32), xn_mod_p(4 * 128 - 32)]
        );
        assert_eq!(k::FOLD_16B, [xn_mod_p(128 + 32), xn_mod_p(128 - 32)]);
        assert_eq!(k::FOLD_4B, xn_mod_p(64));
        assert_eq!(k::BARRETT[0], ((POLY as u64) << 1) | 1);
    }
}

//! The record codec's contract: `decode ∘ encode = id` bit for bit on every
//! scalar type, block shape and field character; corrupt or cut records are
//! errors, never panics or oversized buffers; and the bytes of a fixed
//! volume's records are pinned, so a codec edit is a visible format change.

use oociso_metacell::{MetacellLayout, MetacellRecord};
use oociso_volume::noise::splitmix64;
use oociso_volume::{Dims3, ScalarValue, Volume};

/// Volumes whose metacells at k = 9 come in every shape: full 9³ blocks and
/// blocks clamped on one, two or three axes.
fn shapes() -> [Dims3; 2] {
    [Dims3::new(17, 17, 17), Dims3::new(21, 12, 11)]
}

fn uniform(seed: u64, i: usize) -> u64 {
    splitmix64(seed ^ splitmix64(i as u64))
}

/// The field characters the codec must survive, as `f(x, y, z, seed) → f64`
/// in the unit range (checkerboard and spikes are exact 0/1 patterns).
#[derive(Clone, Copy, Debug)]
enum Field {
    /// Sums of low-frequency sines: the regime the codec is built for.
    Smooth,
    /// Independent uniform samples: packing cannot win, the raw mode must.
    Noise,
    /// 0/max alternating in every axis.
    Checkerboard,
    /// A flat field with rare full-scale spikes: a few rows need every bit.
    Spikes,
}

const FIELDS: [Field; 4] = [
    Field::Smooth,
    Field::Noise,
    Field::Checkerboard,
    Field::Spikes,
];

fn sample(field: Field, seed: u64, dims: Dims3, x: usize, y: usize, z: usize) -> f64 {
    let i = dims.index(x, y, z);
    match field {
        Field::Smooth => {
            let phase = (seed % 1000) as f64 / 100.0;
            let (fx, fy, fz) = (x as f64 / 7.0, y as f64 / 5.0, z as f64 / 11.0);
            0.5 + 0.22 * (fx + phase).sin() + 0.15 * (fy * 1.3 - fz).cos() + 0.1 * (fz + fx).sin()
        }
        Field::Noise => (uniform(seed, i) >> 11) as f64 / (1u64 << 53) as f64,
        Field::Checkerboard => ((x + y + z) % 2) as f64,
        Field::Spikes => {
            if uniform(seed, i).is_multiple_of(37) {
                1.0
            } else {
                0.25
            }
        }
    }
}

fn volume<S: ScalarValue>(
    field: Field,
    seed: u64,
    dims: Dims3,
    to: impl Fn(f64) -> S,
) -> Volume<S> {
    Volume::generate(dims, |x, y, z| to(sample(field, seed, dims, x, y, z)))
}

/// Scalars as bit patterns: `f32` `-0.0` must not pass for `0.0`.
fn bits<S: ScalarValue>(scalars: &[S]) -> Vec<u32> {
    scalars
        .iter()
        .map(|&s| {
            let mut b = [0u8; 4];
            s.write_le(&mut b);
            u32::from_le_bytes(b)
        })
        .collect()
}

/// Encode every metacell of `vol` and decode it back; returns how many
/// records took the raw mode.
fn round_trip_all<S: ScalarValue>(vol: &Volume<S>, ctx: &str) -> usize {
    let layout = MetacellLayout::new(vol.dims(), 9);
    let mut scalars: Vec<S> = Vec::new();
    let mut raw = 0;
    for id in layout.ids() {
        let rec = MetacellRecord::from_volume(vol, &layout, id);
        let bytes = rec.encode();
        assert!(
            bytes.len() <= layout.record_len(id, S::BYTES) + 4,
            "{ctx} id {id}"
        );
        assert_eq!(MetacellRecord::<S>::peek_len(&bytes), bytes.len());
        raw += usize::from(MetacellRecord::<S>::peek_raw(&bytes));
        let (did, vmin, used) =
            MetacellRecord::<S>::try_decode_scalars_into(&bytes, &layout, &mut scalars)
                .unwrap_or_else(|e| panic!("{ctx} id {id}: {e}"));
        assert_eq!((did, used), (id, bytes.len()), "{ctx}");
        assert_eq!(vmin.key(), rec.vmin.key(), "{ctx} id {id}");
        assert_eq!(bits(&scalars), bits(&rec.scalars), "{ctx} id {id}");
    }
    raw
}

#[test]
fn decode_of_encode_is_the_identity_bit_for_bit() {
    for seed in 1..=4u64 {
        for dims in shapes() {
            for field in FIELDS {
                let ctx = format!("{field:?} seed {seed} {dims:?}");
                let u8s = round_trip_all(&volume(field, seed, dims, |v| (v * 255.0) as u8), &ctx);
                let u16s =
                    round_trip_all(&volume(field, seed, dims, |v| (v * 65535.0) as u16), &ctx);
                let f32s = round_trip_all(
                    &volume(field, seed, dims, |v| (v * 1000.0 - 400.0) as f32),
                    &ctx,
                );
                let records = MetacellLayout::new(dims, 9).num_metacells();
                match field {
                    Field::Noise => assert_eq!((u8s, u16s, f32s), (records, records, records)),
                    Field::Smooth => assert_eq!((u8s, u16s), (0, 0), "{ctx}"),
                    _ => {}
                }
            }
        }
    }
}

#[test]
fn f32_negative_zero_subnormals_and_extremes_round_trip() {
    let specials = [
        0.0f32,
        -0.0,
        f32::from_bits(1),
        -f32::from_bits(1),
        f32::MIN_POSITIVE / 3.0,
        f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        f32::INFINITY,
        1.5,
    ];
    for dims in shapes() {
        for seed in 0..3u64 {
            // mostly a smooth ramp, with specials dropped in at random
            let vol = Volume::<f32>::generate(dims, |x, y, z| {
                let h = uniform(seed, dims.index(x, y, z));
                if h.is_multiple_of(5) {
                    specials[(h / 5) as usize % specials.len()]
                } else {
                    (x + 2 * y + 3 * z) as f32 * 0.125
                }
            });
            round_trip_all(&vol, &format!("specials seed {seed} {dims:?}"));
            // and an all-signed-zero block, which packs to almost nothing
            let zeros =
                Volume::<f32>::generate(dims, |x, _, _| if x % 2 == 0 { -0.0 } else { 0.0 });
            round_trip_all(&zeros, "signed zeros");
        }
    }
}

/// The largest row width of a packed u8 record (one nibble per x-row).
fn max_u8_width(bytes: &[u8], layout: &MetacellLayout) -> u8 {
    let (id, _) = MetacellRecord::<u8>::peek_header(bytes);
    let d = layout.cell_dims(id);
    let table = &bytes[MetacellRecord::<u8>::HEADER_LEN..][..(d.ny * d.nz).div_ceil(2)];
    table.iter().map(|b| (b & 0xf).max(b >> 4)).max().unwrap()
}

#[test]
fn full_width_rows_pack_and_checkerboards_round_trip() {
    for dims in shapes() {
        let layout = MetacellLayout::new(dims, 9);
        // spikes of 255 on a flat 63: residuals of ±192 need all 8 bits in
        // their rows, while the flat rows cost none
        let spikes = volume(Field::Spikes, 7, dims, |v| (v * 255.0) as u8);
        let mut full_width = 0;
        for id in layout.ids() {
            let bytes = MetacellRecord::from_volume(&spikes, &layout, id).encode();
            if !MetacellRecord::<u8>::peek_raw(&bytes) && max_u8_width(&bytes, &layout) == 8 {
                full_width += 1;
            }
        }
        assert!(
            full_width > 0,
            "{dims:?}: no packed record has an 8-bit row"
        );
        round_trip_all(&spikes, "spikes");
        let board = volume(Field::Checkerboard, 0, dims, |v| (v * 255.0) as u8);
        round_trip_all(&board, "checkerboard");
    }
}

/// Decode possibly-corrupt `bytes` into a fresh buffer: an error, or a block
/// of the right dimensions — and never a buffer sized past the record's
/// metacell. Returns whether it decoded, or what broke the contract.
fn decode_abused<S: ScalarValue>(bytes: &[u8], layout: &MetacellLayout) -> Result<bool, String> {
    let mut scalars: Vec<S> = Vec::new();
    let result = MetacellRecord::<S>::try_decode_scalars_into(bytes, layout, &mut scalars);
    let id = bytes
        .get(..4)
        .map(|h| u32::from_le_bytes(h.try_into().unwrap()));
    let bound = match id {
        Some(id) if (id as usize) < layout.num_metacells() => layout.num_vertices(id),
        _ => 0,
    };
    if scalars.capacity() > bound {
        return Err(format!("reserved {} > {bound}", scalars.capacity()));
    }
    match result {
        Ok((id, _, used)) if scalars.len() != layout.num_vertices(id) || used > bytes.len() => {
            Err(format!("decoded {} scalars, {used} bytes", scalars.len()))
        }
        Ok(_) => Ok(true),
        Err(_) => Ok(false),
    }
}

/// A few records of each shape and mode — full and clamped-on-every-axis
/// metacells, packed (smooth) and raw (noise) — with the length of their
/// structure: the header, plus a packed record's width table.
fn specimens<S: ScalarValue>(
    to: impl Fn(f64) -> S + Copy,
) -> Vec<(MetacellLayout, Vec<u8>, usize)> {
    let mut out = Vec::new();
    for dims in shapes() {
        let layout = MetacellLayout::new(dims, 9);
        let last = layout.num_metacells() as u32 - 1;
        for field in [Field::Smooth, Field::Noise] {
            let vol = volume(field, 3, dims, to);
            for id in [0, last] {
                let bytes = MetacellRecord::from_volume(&vol, &layout, id).encode();
                let d = layout.cell_dims(id);
                let widths = match (MetacellRecord::<S>::peek_raw(&bytes), S::BYTES) {
                    (true, _) => 0,
                    (false, 1) => (d.ny * d.nz).div_ceil(2),
                    (false, _) => d.ny * d.nz,
                };
                out.push((layout, bytes, MetacellRecord::<S>::HEADER_LEN + widths));
            }
        }
    }
    out
}

#[test]
fn every_truncation_is_an_error() {
    fn run<S: ScalarValue>(to: impl Fn(f64) -> S + Copy) {
        for (layout, bytes, _) in specimens(to) {
            for cut in 0..bytes.len() {
                let decoded = decode_abused::<S>(&bytes[..cut], &layout);
                assert_eq!(decoded, Ok(false), "{} cut at {cut}", S::NAME);
            }
        }
    }
    run(|v| (v * 255.0) as u8);
    run(|v| (v * 65535.0) as u16);
    run(|v| (v * 1000.0 - 400.0) as f32);
}

#[test]
fn every_single_byte_corruption_is_an_error_or_a_right_sized_block() {
    // Every byte of every specimen is corrupted. A structure byte (header,
    // width table) takes every other value; a byte of residual bits or raw
    // scalars only ever changes sample values, so a low, a high and a full
    // flip stand for the rest there.
    fn run<S: ScalarValue>(to: impl Fn(f64) -> S + Copy) {
        let every: Vec<u8> = (1..=255).collect();
        for (layout, bytes, structure) in specimens(to) {
            let mut bad = bytes.clone();
            for at in 0..bytes.len() {
                let values: &[u8] = if at < structure {
                    &every
                } else {
                    &[0x01, 0x80, 0xff]
                };
                for &x in values {
                    bad[at] = bytes[at] ^ x;
                    if let Err(e) = decode_abused::<S>(&bad, &layout) {
                        panic!("{} byte {at} ^ {x:#x}: {e}", S::NAME);
                    }
                }
                bad[at] = bytes[at];
            }
        }
    }
    run(|v| (v * 255.0) as u8);
    run(|v| (v * 65535.0) as u16);
    run(|v| (v * 1000.0 - 400.0) as f32);
}

#[test]
fn a_length_word_past_the_metacell_cannot_reserve_it() {
    // a raw record claiming 2^31 − 1 payload bytes: the claim is checked
    // against the bytes present before anything is reserved
    let layout = MetacellLayout::new(Dims3::cube(9), 9);
    let mut bytes = vec![0u8; MetacellRecord::<u8>::HEADER_LEN];
    bytes[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
    bytes.extend_from_slice(&[7; 729]);
    assert_eq!(decode_abused::<u8>(&bytes, &layout), Ok(false));
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn golden_record_bytes_are_pinned() {
    // A 5×4×3 u8 volume at k = 3: two full 3³ metacells and two clamped to
    // 3×2×3. Changing these bytes changes the store format: bump
    // `oociso-cluster-vN` with them.
    let dims = Dims3::new(5, 4, 3);
    let vol = Volume::<u8>::generate(dims, |x, y, z| {
        (x * x * 7 + y * 13 + z * z * 5 + x * y) as u8
    });
    let layout = MetacellLayout::new(dims, 3);
    let got: Vec<String> = layout
        .ids()
        .map(|id| hex(&MetacellRecord::from_volume(&vol, &layout, id).encode()))
        .collect();
    let want = GOLDEN_U8;
    assert_eq!(got, want);

    // one 3³ block of each wider type, a ramp with a twist (the f32 one
    // within one binade, where bit patterns are linear in value)
    let cube = Dims3::cube(3);
    let one = MetacellLayout::new(cube, 3);
    let u16s = Volume::<u16>::generate(cube, |x, y, z| (x * 1000 + y * 300 + z * z * 77) as u16);
    let f32s = Volume::<f32>::generate(cube, |x, y, z| {
        100.0 + x as f32 * 0.25 - y as f32 * 0.5 + (z * z) as f32 * 0.125
    });
    assert_eq!(
        [
            hex(&MetacellRecord::from_volume(&u16s, &one, 0).encode()),
            hex(&MetacellRecord::from_volume(&f32s, &one, 0).encode()),
        ],
        [GOLDEN_U16, GOLDEN_F32]
    );
}

const GOLDEN_U8: [&str; 4] = [
    "00000000000f000000564500050080a36a21b4100ae00100",
    "010000001c0f000000574500050038a3d80be18550000f00",
    "020000001a0b000000560405b4e46a2114c00300",
    "030000003a0b00000057040574a5d90ba1001e00",
];
const GOLDEN_U16: &str =
    "0000000000001b0000000b0a0a08000009000000803ef4b10400002c0100401300c0390000";
const GOLDEN_F32: &str = "000000000000c6422f000000201111100000110000000090850000010000000100ffff01000000f8ff0f0000000000200000000000600000000000";

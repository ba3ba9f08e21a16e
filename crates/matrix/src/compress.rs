//! Byte-level LZSS compression of encoded tiles.
//!
//! A std-only LZSS variant that works on the bytes
//! [`crate::serialize::encode_tile`] produces and gives them back for
//! [`crate::serialize::decode_tile`], so the codec never needs to know
//! about tile structure. It is a library module only: no runtime path
//! calls it, because dense `f64` tiles measured 1.00x here at several ms
//! of CPU per MiB, so the spill path stores encoded tiles verbatim.
//!
//! Format of a compressed stream (all little-endian):
//!
//! ```text
//! [raw_len: u32] [token stream]
//! token stream = (control byte; 8 flags LSB-first) × (8 tokens)
//!   flag 0 → literal: 1 byte, copied verbatim
//!   flag 1 → match:   dist u16 (1..=65535 back), len u8 (+MIN_MATCH)
//! ```
//!
//! Matching is greedy over a 4-byte rolling hash with single-probe hash
//! heads — O(n), deterministic, no allocation besides the output. On
//! incompressible input the flag bits cost up to 12.5% growth, so
//! [`maybe_compress`] keeps whichever of `{raw, compressed}` is smaller;
//! the identity path doubles as the cross-checked reference for the
//! conformance tests.

use crate::error::{MatrixError, Result};

/// Shortest match worth encoding (a match token costs 3 bytes + 1 flag
/// bit; a 4-byte match is the break-even point).
const MIN_MATCH: usize = 4;
/// Longest match one token can carry (`MIN_MATCH + u8::MAX`).
const MAX_MATCH: usize = MIN_MATCH + 255;
/// Match window: how far back a distance can reach (u16 range).
const WINDOW: usize = 65_535;
/// Hash-head table size (power of two).
const HASH_BITS: u32 = 15;

/// How a spilled buffer is stored, recorded next to the payload so
/// read-back knows whether to decompress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// Stored verbatim — the uncompressed reference path.
    Raw,
    /// LZSS-compressed ([`lz_compress`] / [`lz_decompress`]).
    Lz,
}

impl Codec {
    /// Stable on-disk tag for blob-segment framing.
    pub fn tag(self) -> u8 {
        match self {
            Codec::Raw => 0,
            Codec::Lz => 1,
        }
    }

    /// Inverse of [`Codec::tag`].
    pub fn from_tag(tag: u8) -> Result<Codec> {
        match tag {
            0 => Ok(Codec::Raw),
            1 => Ok(Codec::Lz),
            t => Err(MatrixError::Corrupt(format!("unknown codec tag {t}"))),
        }
    }
}

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    // FNV-ish multiplicative hash of a 4-byte prefix, folded to HASH_BITS.
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Compresses `input` with greedy LZSS. Always succeeds; the output may
/// be larger than the input on incompressible data (callers that care use
/// [`maybe_compress`]).
pub fn lz_compress(input: &[u8]) -> Vec<u8> {
    assert!(
        input.len() <= u32::MAX as usize,
        "spill buffers are tile-sized; {} bytes exceeds the u32 frame",
        input.len()
    );
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    out.extend_from_slice(&(input.len() as u32).to_le_bytes());
    // heads[h] = last position whose 4-byte prefix hashed to h (+1; 0 = none).
    let mut heads = vec![0u32; 1 << HASH_BITS];
    let mut pos = 0usize;
    // Control byte staging: up to 8 tokens buffered, then flushed.
    let mut flags = 0u8;
    let mut nflags = 0u8;
    let mut pending: Vec<u8> = Vec::with_capacity(8 * 3);
    let flush = |out: &mut Vec<u8>, flags: &mut u8, nflags: &mut u8, pending: &mut Vec<u8>| {
        if *nflags > 0 {
            out.push(*flags);
            out.extend_from_slice(pending);
            pending.clear();
            *flags = 0;
            *nflags = 0;
        }
    };
    while pos < input.len() {
        let mut emitted_match = false;
        if pos + MIN_MATCH <= input.len() {
            let h = hash4(&input[pos..]);
            let cand = heads[h] as usize;
            heads[h] = (pos + 1) as u32;
            if cand > 0 {
                let cand = cand - 1;
                let dist = pos - cand;
                if (1..=WINDOW).contains(&dist) {
                    // Extend the match as far as it goes (bounded).
                    let limit = (input.len() - pos).min(MAX_MATCH);
                    let mut len = 0usize;
                    while len < limit && input[cand + len] == input[pos + len] {
                        len += 1;
                    }
                    if len >= MIN_MATCH {
                        flags |= 1 << nflags;
                        pending.extend_from_slice(&(dist as u16).to_le_bytes());
                        pending.push((len - MIN_MATCH) as u8);
                        nflags += 1;
                        // Re-seed the hash head at a mid-match position so
                        // runs keep finding themselves.
                        let mid = pos + len / 2;
                        if mid + MIN_MATCH <= input.len() {
                            heads[hash4(&input[mid..])] = (mid + 1) as u32;
                        }
                        pos += len;
                        emitted_match = true;
                    }
                }
            }
        }
        if !emitted_match {
            pending.push(input[pos]);
            nflags += 1;
            pos += 1;
        }
        if nflags == 8 {
            flush(&mut out, &mut flags, &mut nflags, &mut pending);
        }
    }
    flush(&mut out, &mut flags, &mut nflags, &mut pending);
    out
}

/// Decompresses a [`lz_compress`] stream. Errors on any framing
/// inconsistency (truncation, out-of-range distances, length drift).
pub fn lz_decompress(input: &[u8]) -> Result<Vec<u8>> {
    if input.len() < 4 {
        return Err(MatrixError::Corrupt("lz stream shorter than header".into()));
    }
    let raw_len = u32::from_le_bytes([input[0], input[1], input[2], input[3]]) as usize;
    let mut out = Vec::with_capacity(raw_len);
    let mut pos = 4usize;
    while out.len() < raw_len {
        if pos >= input.len() {
            return Err(MatrixError::Corrupt("lz stream truncated at flags".into()));
        }
        let flags = input[pos];
        pos += 1;
        for bit in 0..8 {
            if out.len() == raw_len {
                break;
            }
            if flags & (1 << bit) == 0 {
                let b = *input
                    .get(pos)
                    .ok_or_else(|| MatrixError::Corrupt("lz literal truncated".into()))?;
                out.push(b);
                pos += 1;
            } else {
                if pos + 3 > input.len() {
                    return Err(MatrixError::Corrupt("lz match token truncated".into()));
                }
                let dist = u16::from_le_bytes([input[pos], input[pos + 1]]) as usize;
                let len = input[pos + 2] as usize + MIN_MATCH;
                pos += 3;
                if dist == 0 || dist > out.len() {
                    return Err(MatrixError::Corrupt(format!(
                        "lz match distance {dist} exceeds {} decoded bytes",
                        out.len()
                    )));
                }
                if out.len() + len > raw_len {
                    return Err(MatrixError::Corrupt("lz match overruns raw length".into()));
                }
                // Byte-at-a-time copy: overlapping matches (dist < len)
                // are the RLE case and must self-reference.
                let start = out.len() - dist;
                for i in 0..len {
                    let b = out[start + i];
                    out.push(b);
                }
            }
        }
    }
    Ok(out)
}

/// Compresses when it helps: returns `(Codec::Lz, compressed)` when the
/// compressed form is strictly smaller, `(Codec::Raw, input.to_vec())`
/// otherwise — so a spilled buffer never grows past its raw size.
pub fn maybe_compress(input: &[u8]) -> (Codec, Vec<u8>) {
    let lz = lz_compress(input);
    if lz.len() < input.len() {
        (Codec::Lz, lz)
    } else {
        (Codec::Raw, input.to_vec())
    }
}

/// Decodes a buffer stored under `codec` back to raw bytes.
pub fn decompress(codec: Codec, data: &[u8]) -> Result<Vec<u8>> {
    match codec {
        Codec::Raw => Ok(data.to_vec()),
        Codec::Lz => lz_decompress(data),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::{decode_tile, encode_tile};
    use crate::Tile;
    use proptest::prelude::*;

    fn roundtrip(input: &[u8]) {
        let lz = lz_compress(input);
        let back = lz_decompress(&lz).expect("decompress");
        assert_eq!(back, input, "lz roundtrip must be identity");
        let (codec, stored) = maybe_compress(input);
        assert_eq!(decompress(codec, &stored).unwrap(), input);
        assert!(
            stored.len() <= input.len().max(4),
            "maybe_compress grew {} -> {}",
            input.len(),
            stored.len()
        );
    }

    #[test]
    fn empty_and_tiny_inputs() {
        roundtrip(&[]);
        roundtrip(&[7]);
        roundtrip(&[1, 2, 3]);
        roundtrip(&[0; 4]);
    }

    #[test]
    fn repetitive_input_compresses_hard() {
        let input: Vec<u8> = (0..65_536u32).map(|i| (i % 16) as u8).collect();
        let lz = lz_compress(&input);
        assert!(
            lz.len() * 8 < input.len(),
            "16-byte cycle should compress >8x, got {} -> {}",
            input.len(),
            lz.len()
        );
        assert_eq!(lz_decompress(&lz).unwrap(), input);
    }

    #[test]
    fn zero_tile_encoding_compresses() {
        let t = Tile::zeros(64, 64);
        let wire = encode_tile(&t);
        let (codec, stored) = maybe_compress(&wire);
        assert_eq!(codec, Codec::Lz);
        assert!(
            stored.len() * 10 < wire.len(),
            "all-zero dense tile: {} -> {}",
            wire.len(),
            stored.len()
        );
        let back = decode_tile(decompress(codec, &stored).unwrap().into()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn incompressible_input_stays_raw() {
        // A full-period LCG byte stream has no 4-byte repeats to speak of.
        let mut x = 0x2545_F491u32;
        let input: Vec<u8> = (0..4096)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (x >> 24) as u8
            })
            .collect();
        let (codec, stored) = maybe_compress(&input);
        assert_eq!(codec, Codec::Raw);
        assert_eq!(stored, input);
    }

    #[test]
    fn corrupt_streams_error_not_panic() {
        assert!(lz_decompress(&[]).is_err());
        assert!(lz_decompress(&[9, 0, 0]).is_err());
        // Claims 100 raw bytes, provides nothing.
        assert!(lz_decompress(&[100, 0, 0, 0]).is_err());
        // Match referencing before the start of the output.
        let bad = [4u8, 0, 0, 0, 0b0000_0001, 9, 0, 0];
        assert!(lz_decompress(&bad).is_err());
        // Truncated match token.
        let bad = [8u8, 0, 0, 0, 0b0000_0010, b'a', 1, 0];
        assert!(lz_decompress(&bad).is_err());
        assert!(Codec::from_tag(9).is_err());
    }

    #[test]
    fn overlapping_match_is_rle() {
        // 1 literal then a long self-overlapping match (dist 1).
        let input = vec![42u8; 300];
        let lz = lz_compress(&input);
        assert!(lz.len() < 20, "run of 300 should be a few tokens: {lz:?}");
        assert_eq!(lz_decompress(&lz).unwrap(), input);
    }

    proptest! {
        #[test]
        fn prop_roundtrip_arbitrary_bytes(input in proptest::collection::vec(any::<u8>(), 0..2048)) {
            roundtrip(&input);
        }

        #[test]
        fn prop_roundtrip_structured_bytes(
            seed in any::<u64>(),
            period in 1usize..64,
            len in 0usize..4096,
        ) {
            // Noisy periodic data — the spill path's realistic middle ground.
            let mut x = seed | 1;
            let input: Vec<u8> = (0..len)
                .map(|i| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    if x >> 61 == 0 { (x >> 32) as u8 } else { (i % period) as u8 }
                })
                .collect();
            roundtrip(&input);
        }

        #[test]
        fn prop_tile_wire_roundtrip(rows in 1usize..24, cols in 1usize..24, seed in any::<u64>()) {
            let dense = crate::gen::dense_uniform_tile(seed, 0, 0, rows, cols, -1.0, 1.0);
            let t = Tile::dense(dense);
            let wire = encode_tile(&t);
            let (codec, stored) = maybe_compress(&wire);
            let raw = decompress(codec, &stored).unwrap();
            prop_assert_eq!(&raw[..], &wire[..]);
            let back = decode_tile(raw.into()).unwrap();
            prop_assert_eq!(back, t);
        }
    }
}

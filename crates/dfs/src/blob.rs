//! Content-addressed on-disk blob store: the third (disk) tier of the
//! storage hierarchy.
//!
//! Spilled tile payloads land here as entries in **append-only segment
//! files** (`seg-NNNNNN.blob` under the store's directory). Each entry is
//! keyed by a deterministic 128-bit digest of its bytes, so identical
//! tile encodings written twice dedupe to one stored copy —
//! re-spilling a tile that round-tripped through RAM unchanged costs no
//! new disk bytes. Entries carry a reference count (one per live DFS file
//! pointing at them); releasing the last reference marks the entry's
//! bytes dead in its segment, and a **compaction pass** rewrites the live
//! remainder of garbage-heavy segments into the current segment and
//! deletes the old file. Compaction triggers automatically once a
//! segment's dead bytes outweigh its live bytes (and the segment is
//! sealed), which is exactly the state `drop_matrix` / checkpoint
//! truncation leaves behind. Two **store-wide** triggers back the
//! per-segment rule up for long iterative runs, whose churn can strand an
//! unbounded tail of sealed segments each just under 50% dead: when total
//! dead bytes exceed [`DEFAULT_DEAD_SWEEP_BYTES`] or the sealed-segment
//! count exceeds [`DEFAULT_MAX_SEALED_SEGMENTS`], every sealed
//! garbage-bearing segment is swept.
//!
//! Segment entry framing (little-endian):
//!
//! ```text
//! [key: 16 bytes] [len: u64] [payload: len bytes]
//! ```
//!
//! Payloads are stored verbatim: there is no codec. The spill path
//! stores encoded tiles, and dense `f64` tiles do not compress (an LZSS
//! pass measured 1.00x at 6–14 ms/MiB); the one case a codec used to
//! win, all-zero tiles, already collapses to a single entry by content
//! addressing. The store never reads an entry it did not index in
//! memory, so the framing exists for crash-inspection and compaction
//! rewrites, not for recovery — the whole store lives for one simulation
//! process and its directory is removed on drop.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::PathBuf;

use crate::error::{DfsError, Result};

/// Deterministic 128-bit content digest, computed a 64-bit word at a
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlobKey(pub [u64; 2]);

const P1: u64 = 0x9e37_79b9_7f4a_7c15;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;

/// One multiply-rotate lane step: a bijection of `acc` for a fixed
/// `word` and of `word` for a fixed `acc`, so a changed input word
/// always leaves its lane changed. One multiply per word keeps the lanes
/// throughput-bound rather than latency-bound.
#[inline(always)]
fn lane_round(acc: u64, word: u64) -> u64 {
    (acc ^ word).wrapping_mul(P1).rotate_left(29)
}

/// Full-avalanche 64-bit finisher (the MurmurHash3 `fmix64` constants).
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"))
}

impl BlobKey {
    /// Digest of a byte buffer. Not cryptographic — collision resistance
    /// here only has to beat the handful of distinct tiles one simulation
    /// produces, and determinism (same bytes → same key on every run and
    /// platform) is the property the equivalence tests lean on.
    ///
    /// Four independent multiply-rotate lanes consume 32-byte stripes of
    /// little-endian `u64` words, so the multiplies pipeline instead of
    /// forming one serial chain; the tail is zero-padded into whole
    /// words. The length is folded into both halves, which then each go
    /// through a full-avalanche finish.
    pub fn digest(bytes: &[u8]) -> BlobKey {
        let mut lanes = [P1.wrapping_add(P2), P2, P3, P1.wrapping_neg()];
        let mut stripes = bytes.chunks_exact(32);
        for stripe in &mut stripes {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = lane_round(*lane, word(&stripe[i * 8..i * 8 + 8]));
            }
        }
        let tail = stripes.remainder();
        let mut words = tail.chunks_exact(8);
        for (i, w) in (&mut words).enumerate() {
            lanes[i] = lane_round(lanes[i], word(w));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            lanes[3] = lane_round(lanes[3], u64::from_le_bytes(last));
        }
        let [a, b, c, d] = lanes;
        let len = bytes.len() as u64;
        let lo = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        let hi = a
            .wrapping_mul(P3)
            .rotate_left(29)
            .wrapping_add(b.rotate_left(41) ^ c.wrapping_mul(P4))
            .wrapping_add(d.rotate_left(53));
        let h1 = fmix64(lo ^ len.wrapping_mul(P3));
        let h2 = fmix64(hi ^ len.wrapping_mul(P4) ^ h1.rotate_left(32));
        BlobKey([h1, h2])
    }

    fn to_bytes(self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.0[0].to_le_bytes());
        out[8..].copy_from_slice(&self.0[1].to_le_bytes());
        out
    }
}

/// Where one live entry resides.
#[derive(Debug, Clone, Copy)]
struct EntryMeta {
    segment: u64,
    /// Offset of the payload (past the frame header) within the segment.
    offset: u64,
    /// Payload length.
    len: u64,
    /// Live references (DFS files currently pointing at this entry).
    refs: u32,
}

#[derive(Debug, Default)]
struct Segment {
    live_bytes: u64,
    dead_bytes: u64,
}

/// Aggregate counters for observability and the spill invariants.
/// Counters are monotonic totals; `live_bytes`/`dead_bytes` are the
/// current segment occupancy split.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BlobStats {
    /// Distinct live entries.
    pub live_entries: u64,
    /// Stored bytes of live entries.
    pub live_bytes: u64,
    /// Stored bytes of dead entries not yet compacted away.
    pub dead_bytes: u64,
    /// Segment files currently on disk.
    pub segments: u64,
    /// Total payload bytes ever appended.
    pub bytes_written: u64,
    /// Total payload bytes read back out.
    pub bytes_read: u64,
    /// Compaction passes executed.
    pub compactions: u64,
    /// `put` calls answered by an existing entry (content dedupe).
    pub dedup_hits: u64,
}

impl BlobStats {
    /// Wire bytes over stored bytes. Always 1.0: payloads are stored
    /// verbatim (see the module docs for why there is no codec).
    pub fn compression_ratio(&self) -> f64 {
        1.0
    }
}

/// Append-only, content-addressed segment store. Single-threaded by
/// construction — the owner (the spill plane) serializes access.
#[derive(Debug)]
pub struct BlobStore {
    dir: PathBuf,
    /// Segment id → occupancy. Current (open) segment is the max id.
    segments: HashMap<u64, Segment>,
    entries: HashMap<BlobKey, EntryMeta>,
    next_segment: u64,
    current: Option<(u64, File)>,
    current_len: u64,
    /// Roll to a new segment past this many payload+frame bytes.
    segment_roll_bytes: u64,
    /// Store-wide sweep trigger: total dead bytes across all segments.
    dead_sweep_bytes: u64,
    /// Store-wide sweep trigger: sealed-segment count.
    max_sealed_segments: u64,
    stats: BlobStats,
}

const FRAME_HEADER: u64 = 16 + 8;
/// Default segment roll size: small enough that drop-heavy workloads
/// produce several segments for compaction to reclaim, large enough that
/// a segment amortizes its file handle.
pub const DEFAULT_SEGMENT_BYTES: u64 = 16 << 20;
/// Default store-wide dead-byte budget before a sweep fires (see
/// [`BlobStore::set_compaction_thresholds`]): a few segments' worth of
/// garbage, sized so long iterative runs reclaim space well before the
/// per-segment 50% trigger would.
pub const DEFAULT_DEAD_SWEEP_BYTES: u64 = 4 * DEFAULT_SEGMENT_BYTES;
/// Default sealed-segment count before a sweep fires.
pub const DEFAULT_MAX_SEALED_SEGMENTS: u64 = 64;

impl BlobStore {
    /// Opens (creates) a blob store rooted at `dir`. The directory is
    /// created if missing and removed again when the store drops.
    pub fn open(dir: PathBuf) -> Result<BlobStore> {
        std::fs::create_dir_all(&dir)
            .map_err(|e| DfsError::Spill(format!("create {}: {e}", dir.display())))?;
        Ok(BlobStore {
            dir,
            segments: HashMap::new(),
            entries: HashMap::new(),
            next_segment: 0,
            current: None,
            current_len: 0,
            segment_roll_bytes: DEFAULT_SEGMENT_BYTES,
            dead_sweep_bytes: DEFAULT_DEAD_SWEEP_BYTES,
            max_sealed_segments: DEFAULT_MAX_SEALED_SEGMENTS,
            stats: BlobStats::default(),
        })
    }

    /// Overrides the segment roll size (tests drive compaction with tiny
    /// segments).
    pub fn set_segment_roll_bytes(&mut self, bytes: u64) {
        self.segment_roll_bytes = bytes.max(1);
    }

    /// Overrides the store-wide sweep triggers: a sweep of every sealed
    /// garbage-bearing segment fires when total dead bytes exceed
    /// `dead_sweep_bytes` **or** more than `max_sealed_segments` sealed
    /// segments exist (and any garbage exists to reclaim). The per-segment
    /// 50% trigger alone lets long iterative runs accumulate an unbounded
    /// tail of sealed segments that each stay just under the threshold;
    /// the store-wide triggers bound that tail.
    pub fn set_compaction_thresholds(&mut self, dead_sweep_bytes: u64, max_sealed_segments: u64) {
        self.dead_sweep_bytes = dead_sweep_bytes;
        self.max_sealed_segments = max_sealed_segments;
    }

    /// The store's on-disk directory.
    pub fn dir(&self) -> &PathBuf {
        &self.dir
    }

    fn segment_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("seg-{id:06}.blob"))
    }

    fn open_segment(&mut self) -> Result<()> {
        if self.current.is_some() && self.current_len < self.segment_roll_bytes {
            return Ok(());
        }
        let id = self.next_segment;
        self.next_segment += 1;
        let path = self.segment_path(id);
        let file = OpenOptions::new()
            .create_new(true)
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| DfsError::Spill(format!("open {}: {e}", path.display())))?;
        self.segments.insert(id, Segment::default());
        self.current = Some((id, file));
        self.current_len = 0;
        Ok(())
    }

    /// Stores `data` and takes one reference on it. Content-addressed: if
    /// an entry with the same `key` is live, its refcount is bumped and
    /// nothing is written. The frame header and the payload go out as two
    /// writes, so no framed copy of the payload is ever built.
    pub fn put(&mut self, key: BlobKey, data: &[u8]) -> Result<()> {
        if let Some(e) = self.entries.get_mut(&key) {
            e.refs += 1;
            self.stats.dedup_hits += 1;
            return Ok(());
        }
        self.open_segment()?;
        let (seg_id, file) = self.current.as_mut().expect("segment open");
        let len = data.len() as u64;
        let mut header = [0u8; FRAME_HEADER as usize];
        header[..16].copy_from_slice(&key.to_bytes());
        header[16..].copy_from_slice(&len.to_le_bytes());
        file.write_all(&header)
            .and_then(|_| file.write_all(data))
            .map_err(|e| DfsError::Spill(format!("append segment {seg_id}: {e}")))?;
        let offset = self.current_len + FRAME_HEADER;
        let seg_id = *seg_id;
        self.current_len = offset + len;
        self.entries.insert(
            key,
            EntryMeta {
                segment: seg_id,
                offset,
                len,
                refs: 1,
            },
        );
        let seg = self.segments.get_mut(&seg_id).expect("segment indexed");
        seg.live_bytes += len;
        self.stats.live_entries += 1;
        self.stats.live_bytes += len;
        self.stats.bytes_written += len;
        Ok(())
    }

    /// Reads an entry's payload into a fresh buffer. The bytes are what
    /// the segment file holds now; callers that need integrity re-digest
    /// them against `key`.
    pub fn get(&mut self, key: BlobKey) -> Result<Vec<u8>> {
        let e = *self
            .entries
            .get(&key)
            .ok_or_else(|| DfsError::Spill(format!("blob entry {key:?} not found")))?;
        let mut buf = vec![0u8; e.len as usize];
        // The entry may live in the currently-open segment; reuse that
        // handle (reads move the cursor, appends re-seek to the end).
        if let Some((cur_id, file)) = self.current.as_mut() {
            if *cur_id == e.segment {
                file.seek(SeekFrom::Start(e.offset))
                    .and_then(|_| file.read_exact(&mut buf))
                    .and_then(|_| file.seek(SeekFrom::End(0)))
                    .map_err(|err| DfsError::Spill(format!("read segment {cur_id}: {err}")))?;
                self.stats.bytes_read += e.len;
                return Ok(buf);
            }
        }
        let path = self.segment_path(e.segment);
        let mut file = File::open(&path)
            .map_err(|err| DfsError::Spill(format!("{}: {err}", path.display())))?;
        file.seek(SeekFrom::Start(e.offset))
            .and_then(|_| file.read_exact(&mut buf))
            .map_err(|err| DfsError::Spill(format!("read {}: {err}", path.display())))?;
        self.stats.bytes_read += e.len;
        Ok(buf)
    }

    /// True when `key` has a live entry.
    pub fn contains(&self, key: BlobKey) -> bool {
        self.entries.contains_key(&key)
    }

    /// Takes an additional reference on a live entry.
    pub fn retain(&mut self, key: BlobKey) -> Result<()> {
        let e = self
            .entries
            .get_mut(&key)
            .ok_or_else(|| DfsError::Spill(format!("retain of dead blob {key:?}")))?;
        e.refs += 1;
        Ok(())
    }

    /// Drops one reference; the last release kills the entry and may
    /// trigger compaction of its segment.
    pub fn release(&mut self, key: BlobKey) -> Result<()> {
        let e = self
            .entries
            .get_mut(&key)
            .ok_or_else(|| DfsError::Spill(format!("release of dead blob {key:?}")))?;
        e.refs -= 1;
        if e.refs > 0 {
            return Ok(());
        }
        let e = self.entries.remove(&key).expect("entry present");
        let seg = self.segments.get_mut(&e.segment).expect("segment indexed");
        seg.live_bytes -= e.len;
        seg.dead_bytes += e.len;
        self.stats.live_entries -= 1;
        self.stats.live_bytes -= e.len;
        self.stats.dead_bytes += e.len;
        self.maybe_compact(e.segment)?;
        self.maybe_sweep()?;
        Ok(())
    }

    /// Compacts `segment` when it is sealed and mostly dead.
    fn maybe_compact(&mut self, segment: u64) -> Result<()> {
        let is_current = matches!(self.current, Some((id, _)) if id == segment);
        let seg = self.segments.get(&segment).expect("segment indexed");
        if is_current || seg.dead_bytes <= seg.live_bytes {
            return Ok(());
        }
        self.compact_segment(segment)
    }

    /// Store-wide compaction trigger: when total dead bytes or the
    /// sealed-segment count outgrow their budgets, sweep every sealed
    /// segment carrying garbage. Catches the long-run tail the per-segment
    /// rule misses — many segments each slightly under 50% dead.
    fn maybe_sweep(&mut self) -> Result<()> {
        if self.stats.dead_bytes == 0 {
            return Ok(());
        }
        let sealed = self.segments.len() as u64 - u64::from(self.current.is_some());
        if self.stats.dead_bytes <= self.dead_sweep_bytes && sealed <= self.max_sealed_segments {
            return Ok(());
        }
        let current = self.current.as_ref().map(|(id, _)| *id);
        let mut victims: Vec<u64> = self
            .segments
            .iter()
            .filter(|(id, s)| Some(**id) != current && s.dead_bytes > 0)
            .map(|(id, _)| *id)
            .collect();
        victims.sort_unstable(); // deterministic rewrite order
        for id in victims {
            self.compact_segment(id)?;
        }
        Ok(())
    }

    /// Rewrites a segment's live entries into the current segment, then
    /// deletes its file. Dead-only segments are simply deleted.
    fn compact_segment(&mut self, segment: u64) -> Result<()> {
        let live_keys: Vec<BlobKey> = self
            .entries
            .iter()
            .filter(|(_, e)| e.segment == segment)
            .map(|(k, _)| *k)
            .collect();
        for key in live_keys {
            let data = self.get(key)?;
            let refs = self.entries.remove(&key).expect("live entry").refs;
            // Live/dead accounting: the old copy leaves its segment…
            let seg = self.segments.get_mut(&segment).expect("segment indexed");
            seg.live_bytes -= data.len() as u64;
            self.stats.live_entries -= 1;
            self.stats.live_bytes -= data.len() as u64;
            // …and a fresh copy lands in the current segment with the
            // same refcount. `put` re-counts bytes_written: compaction
            // I/O is real I/O and the stats should show it.
            self.put(key, &data)?;
            self.entries.get_mut(&key).expect("recreated").refs = refs;
        }
        let seg = self.segments.remove(&segment).expect("segment indexed");
        debug_assert_eq!(seg.live_bytes, 0, "compaction moved all live bytes");
        self.stats.dead_bytes -= seg.dead_bytes;
        let path = self.segment_path(segment);
        std::fs::remove_file(&path)
            .map_err(|e| DfsError::Spill(format!("remove {}: {e}", path.display())))?;
        self.stats.compactions += 1;
        Ok(())
    }

    /// Forces a compaction sweep over every segment with any dead bytes
    /// (the explicit maintenance entry point; automatic compaction fires
    /// past the per-segment 50% garbage threshold or the store-wide
    /// dead-byte / sealed-segment budgets). The current segment is
    /// sealed first if it carries garbage, so a full sweep leaves zero
    /// dead bytes behind.
    pub fn compact(&mut self) -> Result<u64> {
        if let Some((id, _)) = &self.current {
            let seg = self.segments.get(id).expect("segment indexed");
            if seg.dead_bytes > 0 {
                self.current = None;
            }
        }
        let current = self.current.as_ref().map(|(id, _)| *id);
        let victims: Vec<u64> = self
            .segments
            .iter()
            .filter(|(id, s)| Some(**id) != current && s.dead_bytes > 0)
            .map(|(id, _)| *id)
            .collect();
        let before = self.stats.compactions;
        for id in victims {
            self.compact_segment(id)?;
        }
        Ok(self.stats.compactions - before)
    }

    /// Current counters.
    pub fn stats(&self) -> BlobStats {
        let mut s = self.stats;
        s.segments = self.segments.len() as u64;
        s
    }
}

impl Drop for BlobStore {
    fn drop(&mut self) {
        // Best-effort cleanup: segments, then the directory if now empty.
        self.current = None;
        for id in self.segments.keys() {
            let _ = std::fs::remove_file(self.segment_path(*id));
        }
        let _ = std::fs::remove_dir(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(tag: &str) -> BlobStore {
        let dir =
            std::env::temp_dir().join(format!("cumulon-blob-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        BlobStore::open(dir).unwrap()
    }

    #[test]
    fn put_get_roundtrip_stores_verbatim() {
        let mut s = tmp_store("roundtrip");
        let raw: Vec<u8> = (0..10_000u32).map(|i| (i % 7) as u8).collect();
        let key = BlobKey::digest(&raw);
        s.put(key, &raw).unwrap();
        assert_eq!(s.get(key).unwrap(), raw);
        let st = s.stats();
        assert_eq!(st.live_entries, 1);
        assert_eq!(st.bytes_written, raw.len() as u64, "no codec, no frame");
        assert_eq!(st.bytes_read, raw.len() as u64);
        assert_eq!(st.compression_ratio(), 1.0, "{st:?}");
        // On disk: one frame, header then the payload verbatim.
        let seg = std::fs::read(s.segment_path(0)).unwrap();
        assert_eq!(seg.len() as u64, FRAME_HEADER + raw.len() as u64);
        assert_eq!(&seg[..16], &key.to_bytes());
        assert_eq!(&seg[16..24], &(raw.len() as u64).to_le_bytes());
        assert_eq!(&seg[24..], &raw[..]);
    }

    #[test]
    fn content_dedupe_and_refcounts() {
        let mut s = tmp_store("dedupe");
        let raw = vec![9u8; 4096];
        let key = BlobKey::digest(&raw);
        s.put(key, &raw).unwrap();
        s.put(key, &raw).unwrap();
        let st = s.stats();
        assert_eq!(st.dedup_hits, 1);
        assert_eq!(st.live_entries, 1);
        assert_eq!(st.bytes_written, 4096, "second put wrote nothing");
        s.release(key).unwrap();
        assert!(s.contains(key), "one ref still live");
        s.release(key).unwrap();
        assert!(!s.contains(key));
        assert!(s.release(key).is_err(), "double release is a logic error");
    }

    #[test]
    fn digest_is_deterministic_and_length_sensitive() {
        assert_eq!(BlobKey::digest(b"abc"), BlobKey::digest(b"abc"));
        assert_ne!(BlobKey::digest(b"abc"), BlobKey::digest(b"abd"));
        assert_ne!(BlobKey::digest(b""), BlobKey::digest(b"\0"));
        assert_ne!(BlobKey::digest(b"a"), BlobKey::digest(b"a\0"));
        // Every tail shape: full stripes, leftover words, partial word.
        let long: Vec<u8> = (0..200u32).map(|i| (i * 31 % 251) as u8).collect();
        for n in [7, 8, 31, 32, 33, 63, 64, 71, 200] {
            assert_ne!(
                BlobKey::digest(&long[..n]),
                BlobKey::digest(&long[..n - 1]),
                "prefix of {n}"
            );
            let mut padded = long[..n].to_vec();
            padded.push(0);
            assert_ne!(BlobKey::digest(&long[..n]), BlobKey::digest(&padded));
        }
    }

    const GOLDEN_EMPTY: [u64; 2] = [0xc771_7fb4_0250_90d6, 0xec8d_136a_814a_601b];
    const GOLDEN_ABC: [u64; 2] = [0xa6d6_1276_3cf8_a668, 0x4573_eb12_1cc4_98a5];
    const GOLDEN_SEQ: [u64; 2] = [0x9d83_0a49_2f16_21da, 0x401a_ea04_cbc1_86ee];
    const GOLDEN_ZERO_PAGE: [u64; 2] = [0x93a2_6945_5eb9_bcc3, 0x62ee_5209_ae3e_89bd];

    /// The digest addresses bytes on disk, so its values are part of the
    /// format: these pins catch an accidental change to the function.
    #[test]
    fn digest_golden_values() {
        let seq: Vec<u8> = (0..=255u8).collect();
        let cases: [(&[u8], [u64; 2]); 4] = [
            (b"", GOLDEN_EMPTY),
            (b"abc", GOLDEN_ABC),
            (&seq, GOLDEN_SEQ),
            (&[0u8; 4096], GOLDEN_ZERO_PAGE),
        ];
        for (input, want) in cases {
            assert_eq!(BlobKey::digest(input).0, want, "len {}", input.len());
        }
    }

    /// Flipping any single bit of a tile-sized buffer changes both halves
    /// of the key (the integrity check on readmit relies on this).
    #[test]
    fn digest_detects_every_single_bit_flip() {
        let mut buf: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 3) as u8).collect();
        let base = BlobKey::digest(&buf);
        for byte in [0, 1, 7, 8, 31, 32, 500, 991, 992, 999] {
            for bit in 0..8 {
                buf[byte] ^= 1 << bit;
                let flipped = BlobKey::digest(&buf);
                buf[byte] ^= 1 << bit;
                assert_ne!(flipped.0[0], base.0[0], "byte {byte} bit {bit}");
                assert_ne!(flipped.0[1], base.0[1], "byte {byte} bit {bit}");
            }
        }
        assert_eq!(BlobKey::digest(&buf), base);
    }

    #[test]
    fn segments_roll_and_compaction_reclaims() {
        let mut s = tmp_store("compact");
        s.set_segment_roll_bytes(1024);
        let mut keys = Vec::new();
        for i in 0..20u32 {
            // Distinct, incompressible-ish content per entry.
            let raw: Vec<u8> = (0..400u32)
                .map(|j| (i.wrapping_mul(37).wrapping_add(j * 11) % 251) as u8)
                .collect();
            let key = BlobKey::digest(&raw);
            s.put(key, &raw).unwrap();
            keys.push((key, raw));
        }
        let st = s.stats();
        assert!(st.segments > 3, "tiny roll must produce segments: {st:?}");
        // Kill every other entry: sealed segments go >50% dead and
        // auto-compact; survivors must still read back intact.
        for (i, (key, _)) in keys.iter().enumerate() {
            if i % 2 == 0 {
                s.release(*key).unwrap();
            }
        }
        let st_after = s.stats();
        assert!(st_after.compactions > 0, "{st_after:?}");
        assert!(st_after.segments < st.segments, "{st_after:?} vs {st:?}");
        for (i, (key, raw)) in keys.iter().enumerate() {
            if i % 2 == 1 {
                let data = s.get(*key).unwrap();
                assert_eq!(&data, raw, "entry {i} survived compaction");
            }
        }
        // Explicit sweep clears the remaining garbage.
        for (i, (key, _)) in keys.iter().enumerate() {
            if i % 2 == 1 {
                s.release(*key).unwrap();
            }
        }
        s.compact().unwrap();
        let st_end = s.stats();
        assert_eq!(st_end.live_entries, 0);
        assert_eq!(st_end.dead_bytes, 0, "{st_end:?}");
    }

    /// Long-run churn regression: refcount churn across >16 MiB of
    /// segments, patterned so every sealed segment stays *under* the
    /// per-segment 50% trigger. Without the store-wide triggers the dead
    /// bytes and sealed-segment count grow without bound; with them the
    /// garbage stays within the configured budget.
    #[test]
    fn store_wide_triggers_bound_long_run_garbage() {
        const ENTRY: usize = 32 << 10; // 32 KiB entries
        const ENTRIES: u32 = 600; // ~18.75 MiB total churned
        let fill = |i: u32| -> Vec<u8> {
            let mut raw: Vec<u8> = (0..ENTRY as u32)
                .map(|j| (i.wrapping_mul(131).wrapping_add(j.wrapping_mul(7)) % 253) as u8)
                .collect();
            // Distinct content per index — mod-251 patterns alone repeat.
            raw[..4].copy_from_slice(&i.to_le_bytes());
            raw
        };

        // Control: thresholds effectively disabled reproduce the old
        // behaviour — garbage accumulates past 16 MiB of segment churn.
        let mut old = tmp_store("churn-unbounded");
        old.set_segment_roll_bytes(256 << 10); // 8 entries per segment
        old.set_compaction_thresholds(u64::MAX, u64::MAX);
        let mut sweep = tmp_store("churn-bounded");
        sweep.set_segment_roll_bytes(256 << 10);
        sweep.set_compaction_thresholds(1 << 20, 16); // 1 MiB dead budget

        for s in [&mut old, &mut sweep] {
            for i in 0..ENTRIES {
                let raw = fill(i);
                let key = BlobKey::digest(&raw);
                s.put(key, &raw).unwrap();
                // Kill 3 of every 8 entries (per segment: 3 dead vs 5
                // live — always under the per-segment 50% rule).
                if i % 8 < 3 {
                    s.release(key).unwrap();
                }
            }
        }

        let st_old = old.stats();
        assert!(
            st_old.bytes_written > 16 << 20,
            "churned enough: {st_old:?}"
        );
        assert_eq!(st_old.compactions, 0, "per-segment rule never fires");
        assert!(st_old.dead_bytes > 6 << 20, "garbage unbounded: {st_old:?}");
        assert!(st_old.segments > 70, "segment tail unbounded: {st_old:?}");

        let st = sweep.stats();
        assert!(st.compactions > 0, "store-wide trigger fired: {st:?}");
        // Dead bytes stay within one budget of the trigger (a sweep runs
        // as soon as the budget is crossed, so at most the budget plus the
        // open segment's garbage remains).
        assert!(st.dead_bytes <= (1 << 20) + (256 << 10), "{st:?}");
        // The segment count stays near the floor live data needs (old
        // behaviour strands every churned segment forever).
        let live_floor = st.live_bytes / (256 << 10) + 4;
        assert!(st.segments <= live_floor, "{st:?} (floor {live_floor})");
        assert!(st.segments < st_old.segments, "{st:?} vs {st_old:?}");

        // Every surviving entry still reads back intact.
        for i in 0..ENTRIES {
            if i % 8 >= 3 {
                let raw = fill(i);
                let data = sweep.get(BlobKey::digest(&raw)).unwrap();
                assert_eq!(data, raw, "entry {i} survived sweeps");
            }
        }

        // The segment-count trigger alone also bounds the tail: many
        // sealed mostly-live segments plus a trickle of garbage.
        let mut counted = tmp_store("churn-segcount");
        counted.set_segment_roll_bytes(64 << 10);
        counted.set_compaction_thresholds(u64::MAX, 8);
        let mut keys = Vec::new();
        for i in 0..64u32 {
            let raw: Vec<u8> = (0..16 << 10u32).map(|j| ((i + j) % 251) as u8).collect();
            let key = BlobKey::digest(&raw);
            counted.put(key, &raw).unwrap();
            keys.push(key);
        }
        // One release per key: each segment goes 25% dead — under the
        // per-segment rule, but the sealed count is far over 8.
        for key in keys.iter().step_by(4) {
            counted.release(*key).unwrap();
        }
        let st = counted.stats();
        assert!(st.compactions > 0, "{st:?}");
        assert_eq!(
            st.dead_bytes, 0,
            "count trigger swept all sealed garbage: {st:?}"
        );
    }

    #[test]
    fn drop_removes_directory() {
        let s = tmp_store("drop");
        let dir = s.dir().clone();
        drop(s);
        assert!(!dir.exists(), "{} should be cleaned up", dir.display());
    }
}

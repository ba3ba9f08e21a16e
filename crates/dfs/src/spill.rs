//! The memory-budgeted spill plane: LRU residency tracking for
//! handle-plane tile files, backed by the content-addressed
//! [`crate::blob::BlobStore`].
//!
//! The DFS keeps tile payloads resident as shared `Arc<Tile>` handles
//! (the *handle plane*). With a spill plane installed, the total decoded
//! bytes those resident handles pin is bounded by a configurable budget:
//! when a write or read-back admission pushes the plane over budget, the
//! **least-recently-used** resident files are *demoted* — encoded through
//! the ordinary [`cumulon_matrix::serialize::encode_tile_vec`] wire
//! encoder, appended verbatim to a blob segment — and their in-RAM
//! payloads replaced by a [`crate::datanode::BlockPayload::Spilled`]
//! reference. The next read of a demoted file re-admits it through
//! [`crate::Dfs::read_payload`], transparently.
//!
//! **Nothing observable changes.** IO receipts are computed from namenode
//! block metadata (`BlockMeta.len`), placement RNG draws happen only at
//! write time, and datanode byte counters price payloads by their wire
//! length — which a `Spilled` reference preserves exactly. Where a tile
//! physically resides (RAM Arc vs disk segment) is invisible to results,
//! receipts, billing and fault handling; the equivalence tests and the
//! `spill-transparency` invariant of `cumulon check` pin this. The one
//! deliberate exception, documented in the tile-store tests: a tile that
//! round-trips through disk comes back as a *new* `Arc` with bitwise-equal
//! contents — pointer identity is only preserved while resident (same rule
//! the executor's replay validation already tolerates). Spill *statistics*
//! (like cache counters) may vary with worker-thread count, because
//! speculative execution can warm tiles ahead of canonical time.
//!
//! Phantom tiles are never tracked: they hold no materialised data, so
//! spilling them would save nothing.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::blob::{BlobKey, BlobStats, BlobStore};
use crate::error::Result;

/// Configuration of the out-of-core plane.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpillConfig {
    /// Resident-tile budget in bytes; `0` disables spilling entirely
    /// (the seed behaviour — everything stays in RAM).
    pub budget_bytes: u64,
    /// Blob-segment directory. `None` picks a unique directory under the
    /// system temp dir, removed when the plane drops.
    pub dir: Option<PathBuf>,
}

impl SpillConfig {
    /// A budgeted plane with defaults (temp-dir segments).
    pub fn budgeted(budget_bytes: u64) -> SpillConfig {
        SpillConfig {
            budget_bytes,
            dir: None,
        }
    }
}

/// Counters of the spill plane. Monotonic totals plus current occupancy;
/// like the tile-cache counters, these are observability aids and may
/// vary with worker-thread count (speculative readers warm tiles early) —
/// they are deliberately excluded from run fingerprints.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpillStats {
    /// Decoded bytes currently pinned by resident tracked files.
    pub resident_bytes: u64,
    /// Tracked files currently resident.
    pub resident_files: u64,
    /// Files currently demoted to the blob store.
    pub spilled_files: u64,
    /// Wire bytes of currently-demoted files.
    pub spilled_wire_bytes: u64,
    /// Demotions performed (monotonic).
    pub evictions: u64,
    /// Re-admissions performed (monotonic).
    pub readmissions: u64,
    /// Wire bytes pushed through the spill path (monotonic).
    pub spilled_bytes_total: u64,
    /// Wire bytes read back from disk (monotonic).
    pub readback_bytes_total: u64,
    /// Blob-store counters (segments, dedup hits, compactions).
    pub blob: BlobStats,
}

/// One demoted file: where its encoded payload lives.
#[derive(Debug, Clone, Copy)]
pub struct SpilledFile {
    /// Content digest addressing the blob entry.
    pub key: BlobKey,
    /// Wire length of the encoded tile — equals the sum of the file's
    /// block lengths, which is what conservation checks.
    pub wire_len: u64,
}

static PLANE_SEQ: AtomicU64 = AtomicU64::new(0);

fn default_dir() -> PathBuf {
    std::env::temp_dir().join(format!(
        "cumulon-spill-{}-{}",
        std::process::id(),
        PLANE_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The spill plane: residency LRU + blob store. Owned by the DFS state
/// and accessed under its lock, so the plane itself is single-threaded.
#[derive(Debug)]
pub struct SpillPlane {
    budget: u64,
    blob: BlobStore,
    /// path → (recency sequence, charged decoded bytes).
    resident: HashMap<String, (u64, u64)>,
    /// recency sequence → path; the smallest key is the coldest file.
    order: BTreeMap<u64, String>,
    resident_bytes: u64,
    seq: u64,
    spilled: HashMap<String, SpilledFile>,
    evictions: u64,
    readmissions: u64,
    spilled_bytes_total: u64,
    readback_bytes_total: u64,
}

impl SpillPlane {
    /// Builds a plane from a config with a nonzero budget.
    pub fn new(config: &SpillConfig) -> Result<SpillPlane> {
        debug_assert!(config.budget_bytes > 0, "budget 0 means no plane");
        let dir = config.dir.clone().unwrap_or_else(default_dir);
        Ok(SpillPlane {
            budget: config.budget_bytes,
            blob: BlobStore::open(dir)?,
            resident: HashMap::new(),
            order: BTreeMap::new(),
            resident_bytes: 0,
            seq: 0,
            spilled: HashMap::new(),
            evictions: 0,
            readmissions: 0,
            spilled_bytes_total: 0,
            readback_bytes_total: 0,
        })
    }

    /// The configured budget in bytes.
    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    /// Mutable handle to the blob store (demotion/re-admission I/O).
    pub fn blob_mut(&mut self) -> &mut BlobStore {
        &mut self.blob
    }

    /// Records `path` as resident, pinning `bytes` of decoded data, and
    /// marks it most-recently-used. Re-noting an already-resident path
    /// only refreshes recency (bytes must not drift for a same-content
    /// file; if they do, the charge is updated).
    ///
    /// A path must never be tracked as resident *and* spilled at once: a
    /// write landing on a currently-demoted path (overwrite without a
    /// preceding [`SpillPlane::forget`]) supersedes the demoted copy. The
    /// displaced entry is returned so the caller can release its blob
    /// reference — dropping it silently would leak a segment ref and skew
    /// `spill_conserved()`.
    #[must_use = "a displaced spilled entry holds a blob reference the caller must release"]
    pub fn note_resident(&mut self, path: &str, bytes: u64) -> Option<SpilledFile> {
        let displaced = self.spilled.remove(path);
        self.seq += 1;
        match self.resident.get_mut(path) {
            Some((seq, charged)) => {
                self.order.remove(seq);
                self.resident_bytes = self.resident_bytes - *charged + bytes;
                *charged = bytes;
                *seq = self.seq;
            }
            None => {
                self.resident.insert(path.to_string(), (self.seq, bytes));
                self.resident_bytes += bytes;
            }
        }
        self.order.insert(self.seq, path.to_string());
        displaced
    }

    /// Refreshes recency of a resident path (reads).
    pub fn touch(&mut self, path: &str) {
        if let Some((seq, bytes)) = self.resident.get(path).copied() {
            self.seq += 1;
            self.order.remove(&seq);
            self.order.insert(self.seq, path.to_string());
            self.resident.insert(path.to_string(), (self.seq, bytes));
        }
    }

    /// True when `path` is currently tracked as resident (its decoded
    /// payload is pinned in RAM).
    pub fn is_resident(&self, path: &str) -> bool {
        self.resident.contains_key(path)
    }

    /// True when `path` is currently demoted to the blob store: reading
    /// it pays a readback.
    pub fn is_spilled(&self, path: &str) -> bool {
        self.spilled.contains_key(path)
    }

    /// True when resident bytes exceed the budget.
    pub fn over_budget(&self) -> bool {
        self.resident_bytes > self.budget
    }

    /// Pops the coldest resident path if the plane is over budget. The
    /// caller performs the actual demotion and then calls
    /// [`SpillPlane::record_spilled`].
    pub fn next_eviction(&mut self) -> Option<String> {
        if !self.over_budget() {
            return None;
        }
        let (&seq, _) = self.order.iter().next()?;
        let path = self.order.remove(&seq)?;
        let (_, bytes) = self.resident.remove(&path).expect("ordered => resident");
        self.resident_bytes -= bytes;
        Some(path)
    }

    /// Books a completed demotion of `path`. If the path is somehow still
    /// tracked as resident (a demotion not initiated through
    /// [`SpillPlane::next_eviction`]), its residency charge is released
    /// first so `resident_bytes` cannot drift; a previously-recorded
    /// spilled entry for the same path is returned so the caller can
    /// release the superseded blob reference.
    #[must_use = "a displaced spilled entry holds a blob reference the caller must release"]
    pub fn record_spilled(
        &mut self,
        path: &str,
        key: BlobKey,
        wire_len: u64,
    ) -> Option<SpilledFile> {
        if let Some((seq, bytes)) = self.resident.remove(path) {
            self.order.remove(&seq);
            self.resident_bytes -= bytes;
        }
        let displaced = self
            .spilled
            .insert(path.to_string(), SpilledFile { key, wire_len });
        self.evictions += 1;
        self.spilled_bytes_total += wire_len;
        displaced
    }

    /// Looks up where a demoted file's payload lives.
    pub fn spilled(&self, path: &str) -> Option<SpilledFile> {
        self.spilled.get(path).copied()
    }

    /// Books a completed re-admission: the path stops being spilled (its
    /// blob reference is released by the caller) and becomes resident.
    pub fn record_readmitted(&mut self, path: &str, resident_bytes: u64) -> Option<SpilledFile> {
        let entry = self.spilled.remove(path);
        if let Some(e) = &entry {
            self.readmissions += 1;
            self.readback_bytes_total += e.wire_len;
        }
        // The path was just removed from `spilled`, so re-noting it cannot
        // displace another entry.
        let displaced = self.note_resident(path, resident_bytes);
        debug_assert!(displaced.is_none(), "spilled entry removed above");
        entry
    }

    /// Forgets a path entirely (file deletion/overwrite). Returns the
    /// spilled entry if the path was demoted, so the caller can release
    /// the blob reference.
    pub fn forget(&mut self, path: &str) -> Option<SpilledFile> {
        if let Some((seq, bytes)) = self.resident.remove(path) {
            self.order.remove(&seq);
            self.resident_bytes -= bytes;
        }
        self.spilled.remove(path)
    }

    /// Paths currently demoted (for conservation checks), in namespace
    /// order.
    pub fn spilled_paths(&self) -> Vec<String> {
        let mut v: Vec<String> = self.spilled.keys().cloned().collect();
        v.sort();
        v
    }

    /// Resident paths from coldest to hottest (test observability).
    pub fn lru_order(&self) -> VecDeque<String> {
        self.order.values().cloned().collect()
    }

    /// Current counters.
    pub fn stats(&self) -> SpillStats {
        SpillStats {
            resident_bytes: self.resident_bytes,
            resident_files: self.resident.len() as u64,
            spilled_files: self.spilled.len() as u64,
            spilled_wire_bytes: self.spilled.values().map(|s| s.wire_len).sum(),
            evictions: self.evictions,
            readmissions: self.readmissions,
            spilled_bytes_total: self.spilled_bytes_total,
            readback_bytes_total: self.readback_bytes_total,
            blob: self.blob.stats(),
        }
    }

    /// Internal-consistency audit, used by the interleaving tests: no
    /// path may be tracked as resident and spilled at once, the byte
    /// charge must equal the sum of per-path charges, and the LRU order
    /// map must mirror the resident map exactly.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        for path in self.resident.keys() {
            if self.spilled.contains_key(path) {
                return Err(format!("{path} is both resident and spilled"));
            }
        }
        let charged: u64 = self.resident.values().map(|&(_, b)| b).sum();
        if charged != self.resident_bytes {
            return Err(format!(
                "resident_bytes {} != sum of charges {}",
                self.resident_bytes, charged
            ));
        }
        if self.order.len() != self.resident.len() {
            return Err(format!(
                "order map has {} entries, resident map {}",
                self.order.len(),
                self.resident.len()
            ));
        }
        for (seq, path) in &self.order {
            match self.resident.get(path) {
                Some((s, _)) if s == seq => {}
                _ => return Err(format!("order entry {seq}->{path} not mirrored")),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn plane(budget: u64) -> SpillPlane {
        SpillPlane::new(&SpillConfig::budgeted(budget)).unwrap()
    }

    /// Admits a fresh path: no spilled entry may be displaced.
    fn admit(p: &mut SpillPlane, path: &str, bytes: u64) {
        assert!(p.note_resident(path, bytes).is_none(), "fresh admit");
    }

    #[test]
    fn lru_evicts_coldest_first() {
        let mut p = plane(100);
        admit(&mut p, "/a", 40);
        admit(&mut p, "/b", 40);
        admit(&mut p, "/c", 40); // 120 > 100
        assert_eq!(p.lru_order(), ["/a", "/b", "/c"]);
        assert_eq!(p.next_eviction().as_deref(), Some("/a"));
        assert!(p.next_eviction().is_none(), "80 <= 100 after evicting /a");
        // Touch /b so /c becomes coldest, then push over budget again.
        p.touch("/b");
        admit(&mut p, "/d", 40);
        assert_eq!(p.next_eviction().as_deref(), Some("/c"));
        assert!(!p.over_budget());
    }

    #[test]
    fn budget_is_enforced_exhaustively() {
        let mut p = plane(64);
        for i in 0..10 {
            admit(&mut p, &format!("/t{i}"), 32);
        }
        let mut evicted = Vec::new();
        while let Some(path) = p.next_eviction() {
            evicted.push(path);
        }
        assert_eq!(evicted.len(), 8, "320 - 8*32 = 64 <= budget");
        assert_eq!(p.stats().resident_bytes, 64);
        assert!(p.stats().resident_bytes <= p.budget_bytes());
        // Coldest first: the first writes went first.
        assert_eq!(evicted[0], "/t0");
        assert_eq!(evicted[7], "/t7");
    }

    #[test]
    fn renoting_updates_charge_without_double_count() {
        let mut p = plane(1000);
        admit(&mut p, "/a", 100);
        admit(&mut p, "/a", 100);
        assert_eq!(p.stats().resident_bytes, 100);
        assert_eq!(p.stats().resident_files, 1);
        admit(&mut p, "/a", 60);
        assert_eq!(p.stats().resident_bytes, 60);
    }

    #[test]
    fn spill_readmit_forget_bookkeeping() {
        let mut p = plane(10);
        admit(&mut p, "/a", 50);
        let path = p.next_eviction().unwrap();
        assert_eq!(path, "/a");
        let key = BlobKey::digest(b"payload");
        assert!(p.record_spilled(&path, key, 48).is_none());
        let st = p.stats();
        assert_eq!(st.spilled_files, 1);
        assert_eq!(st.spilled_wire_bytes, 48);
        assert_eq!(st.evictions, 1);
        assert_eq!(p.spilled("/a").unwrap().key, key);
        assert_eq!(p.spilled_paths(), ["/a"]);
        assert!(p.is_spilled("/a") && !p.is_resident("/a"));

        let entry = p.record_readmitted("/a", 50).unwrap();
        assert_eq!(entry.key, key);
        let st = p.stats();
        assert_eq!(st.spilled_files, 0);
        assert_eq!(st.readmissions, 1);
        assert_eq!(st.readback_bytes_total, 48);
        assert_eq!(st.resident_bytes, 50);
        assert!(p.is_resident("/a") && !p.is_spilled("/a"));

        assert!(p.forget("/a").is_none(), "resident, not spilled");
        assert_eq!(p.stats().resident_bytes, 0);
        assert!(p.forget("/a").is_none(), "idempotent");
    }

    #[test]
    fn touch_of_unknown_path_is_a_noop() {
        let mut p = plane(10);
        p.touch("/ghost");
        assert_eq!(p.stats().resident_files, 0);
    }

    #[test]
    fn overwrite_of_spilled_path_displaces_the_stale_entry() {
        let mut p = plane(10);
        admit(&mut p, "/a", 50);
        let evicted = p.next_eviction().unwrap();
        let key = BlobKey::digest(b"old");
        assert!(p.record_spilled(&evicted, key, 48).is_none());
        // A write lands on the demoted path without a forget: the plane
        // must not track the path in both maps, and the stale blob
        // reference surfaces for release.
        let displaced = p.note_resident("/a", 50).expect("stale entry surfaced");
        assert_eq!(displaced.key, key);
        assert!(p.is_resident("/a") && !p.is_spilled("/a"));
        assert_eq!(p.stats().resident_bytes, 50);
        p.check_invariants().unwrap();
    }

    #[test]
    fn direct_respill_of_resident_path_releases_the_charge() {
        let mut p = plane(1000);
        admit(&mut p, "/a", 50);
        // A demotion not initiated through next_eviction (caller bug or
        // churn race) must still release the residency charge.
        assert!(p.record_spilled("/a", BlobKey::digest(b"a"), 48).is_none());
        assert_eq!(p.stats().resident_bytes, 0);
        assert!(!p.is_resident("/a") && p.is_spilled("/a"));
        p.check_invariants().unwrap();
    }

    /// Satellite audit: arbitrary interleavings of admit / touch / evict+
    /// spill / readmit / forget keep the plane internally consistent — no
    /// path in both maps, no budget-charge drift.
    #[derive(Debug, Clone)]
    enum Op {
        Note(u8, u64),
        Touch(u8),
        EvictAndSpill,
        /// Readmit a spilled path.
        Readmit(u8),
        Forget(u8),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..6, 1u64..200).prop_map(|(p, b)| Op::Note(p, b)),
            (0u8..6).prop_map(Op::Touch),
            Just(Op::EvictAndSpill),
            (0u8..6).prop_map(Op::Readmit),
            (0u8..6).prop_map(Op::Forget),
        ]
    }

    proptest! {
        #[test]
        fn interleavings_preserve_plane_invariants(
            ops in proptest::collection::vec(op_strategy(), 1..120),
            budget in 50u64..400,
        ) {
            let mut p = plane(budget);
            let path = |i: u8| format!("/t{i}");
            for op in ops {
                match op {
                    Op::Note(i, b) => {
                        let _displaced = p.note_resident(&path(i), b);
                    }
                    Op::Touch(i) => p.touch(&path(i)),
                    Op::EvictAndSpill => {
                        if let Some(victim) = p.next_eviction() {
                            let key = BlobKey::digest(victim.as_bytes());
                            let displaced = p.record_spilled(&victim, key, 64);
                            prop_assert!(
                                displaced.is_none(),
                                "evicted path cannot already be spilled"
                            );
                        }
                    }
                    Op::Readmit(i) => {
                        if p.is_spilled(&path(i)) {
                            prop_assert!(p.record_readmitted(&path(i), 64).is_some());
                        }
                    }
                    Op::Forget(i) => {
                        let _stale = p.forget(&path(i));
                    }
                }
                p.check_invariants().map_err(TestCaseError::fail)?;
                let st = p.stats();
                prop_assert_eq!(
                    st.spilled_wire_bytes,
                    st.spilled_files * 64,
                    "every live spilled entry carries its wire length"
                );
            }
            // Draining all evictions always lands the plane within budget.
            while let Some(victim) = p.next_eviction() {
                let _ = p.record_spilled(&victim, BlobKey::digest(victim.as_bytes()), 64);
            }
            prop_assert!(p.stats().resident_bytes <= p.budget_bytes());
            p.check_invariants().map_err(TestCaseError::fail)?;
        }
    }
}

//! The tile store: named matrices whose tiles live in the DFS.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use cumulon_matrix::gen::Generator;
use cumulon_matrix::serialize::{decode_tile, encode_tile, encoded_len};
use cumulon_matrix::{LocalMatrix, MatrixMeta, Tile};

use crate::dfs::{Dfs, FilePayload, FileToken, IoReceipt, NodeId};
use crate::error::{DfsError, Result};
use crate::spill::SpillConfig;

/// Registry entry for a stored matrix.
#[derive(Debug, Clone)]
pub struct MatrixHandle {
    /// Matrix name (unique within the store).
    pub name: String,
    /// Logical dimensions and tiling.
    pub meta: MatrixMeta,
    /// Optional generator: tiles of generated matrices are produced on
    /// demand by tasks instead of being read from the DFS.
    pub generator: Option<Generator>,
    /// Store-wide registration number, never reused: a dropped and
    /// re-registered matrix gets a new one.
    serial: u64,
}

/// The content version a tile read observed. A recorded read whose
/// version still holds reads the same tile again, so a replay can charge
/// it from metadata alone ([`TileStore::replay_read`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileVersion {
    /// A generator-backed tile: the registration serial of its matrix.
    Generated(u64),
    /// A DFS-backed tile.
    Stored {
        /// Identity of the tile's file.
        file: FileToken,
        /// The file is on the byte plane, so its reads go through the
        /// decoded-tile cache (handle-plane reads never do).
        decoded: bool,
    },
}

struct StoreState {
    matrices: BTreeMap<String, MatrixHandle>,
    /// Next registration serial.
    next_serial: u64,
    /// When set, tile writes materialize encoded bytes (the pre-handle-plane
    /// behavior) instead of storing `Arc<Tile>` handles. Kept for tests and
    /// the `--materialize-bytes` CLI mode; receipts and results must be
    /// identical either way.
    materialize_bytes: bool,
}

/// Number of independent cache shards; keyed reads on different tiles do
/// not contend on one lock.
const CACHE_SHARDS: usize = 16;

/// Default decoded-tile cache budget.
const DEFAULT_CACHE_BYTES: u64 = 256 << 20;

/// Bookkeeping size charged for phantom tiles, whose payload is metadata
/// only (their `stored_bytes` is the *logical* size, which would evict the
/// whole cache for no memory actually held).
const PHANTOM_ENTRY_BYTES: u64 = 64;

fn cache_entry_bytes(tile: &Tile) -> u64 {
    if tile.is_phantom() {
        PHANTOM_ENTRY_BYTES
    } else {
        tile.stored_bytes()
    }
}

#[derive(Default)]
struct CacheShard {
    /// Decoded tiles with the version they were read at.
    entries: HashMap<String, (Arc<Tile>, TileVersion)>,
    /// FIFO eviction order of keys currently present.
    order: VecDeque<String>,
    bytes: u64,
}

impl CacheShard {
    fn remove(&mut self, key: &str) {
        if let Some((tile, _)) = self.entries.remove(key) {
            self.bytes = self.bytes.saturating_sub(cache_entry_bytes(&tile));
            self.order.retain(|k| k != key);
        }
    }
}

/// A sharded, byte-budgeted, FIFO-evicting cache of decoded tiles. Holding
/// `Arc<Tile>` handles means a cache hit costs no payload copy, and readers
/// on different shards never serialize on one lock.
struct TileCache {
    shards: Vec<Mutex<CacheShard>>,
    /// Byte budget; atomically swappable so a memory budget installed
    /// after construction (`TileStore::set_memory_budget`) resizes the
    /// cache shared by every store clone.
    capacity: AtomicU64,
}

impl TileCache {
    fn new(capacity: u64) -> Self {
        TileCache {
            shards: (0..CACHE_SHARDS).map(|_| Mutex::default()).collect(),
            capacity: AtomicU64::new(capacity),
        }
    }

    fn capacity(&self) -> u64 {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Resizes the cache, trimming each shard to the new per-shard budget.
    fn set_capacity(&self, capacity: u64) {
        self.capacity.store(capacity, Ordering::Relaxed);
        let budget = capacity / CACHE_SHARDS as u64;
        for m in &self.shards {
            let mut shard = m.lock();
            while shard.bytes > budget {
                let Some(victim) = shard.order.front().cloned() else {
                    break;
                };
                shard.remove(&victim);
            }
        }
    }

    fn shard(&self, key: &str) -> &Mutex<CacheShard> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % CACHE_SHARDS]
    }

    fn get(&self, key: &str) -> Option<(Arc<Tile>, TileVersion)> {
        self.shard(key).lock().entries.get(key).cloned()
    }

    /// Whether the cache holds `key` at exactly `version`.
    fn holds(&self, key: &str, version: TileVersion) -> bool {
        self.shard(key)
            .lock()
            .entries
            .get(key)
            .is_some_and(|(_, v)| *v == version)
    }

    fn insert(&self, key: &str, tile: Arc<Tile>, version: TileVersion) {
        let capacity = self.capacity();
        let size = cache_entry_bytes(&tile);
        if size > capacity {
            return;
        }
        let mut shard = self.shard(key).lock();
        shard.remove(key);
        shard.entries.insert(key.to_string(), (tile, version));
        shard.order.push_back(key.to_string());
        shard.bytes += size;
        // Per-shard budget so the aggregate stays near `capacity`.
        let budget = (capacity / CACHE_SHARDS as u64).max(size);
        while shard.bytes > budget {
            let Some(victim) = shard.order.front().cloned() else {
                break;
            };
            shard.remove(&victim);
        }
    }

    fn invalidate(&self, key: &str) {
        self.shard(key).lock().remove(key);
    }
}

/// Rescales an I/O receipt from the `actual` on-the-wire byte count to the
/// tile's `logical` stored size, preserving the local/remote split. Only
/// changes anything for phantom tiles (dense/sparse tiles encode at their
/// logical size, modulo a small header).
fn scale_receipt(r: IoReceipt, actual: u64, logical: u64) -> IoReceipt {
    if actual == 0 || actual == logical {
        return r;
    }
    let f = logical as f64 / actual as f64;
    IoReceipt {
        bytes: (r.bytes as f64 * f).round() as u64,
        local_bytes: (r.local_bytes as f64 * f).round() as u64,
        remote_bytes: (r.remote_bytes as f64 * f).round() as u64,
    }
}

/// Maps `(matrix, ti, tj)` to DFS files and handles tile (de)serialization.
///
/// Cheap to clone; shares state through `Arc`.
#[derive(Clone)]
pub struct TileStore {
    dfs: Dfs,
    state: Arc<RwLock<StoreState>>,
    cache: Arc<TileCache>,
    /// Per-run trace handle for tile-cache hit/miss counters; swapped in
    /// by the scheduler at run start (see `TileStore::set_trace`).
    trace: Arc<RwLock<cumulon_trace::Trace>>,
}

impl TileStore {
    /// Creates a tile store over a DFS.
    pub fn new(dfs: Dfs) -> Self {
        Self::with_cache_capacity(dfs, DEFAULT_CACHE_BYTES)
    }

    /// Creates a tile store with an explicit decoded-tile cache budget in
    /// bytes (`0` disables caching).
    pub fn with_cache_capacity(dfs: Dfs, cache_bytes: u64) -> Self {
        TileStore {
            dfs,
            state: Arc::new(RwLock::new(StoreState {
                matrices: BTreeMap::new(),
                next_serial: 0,
                materialize_bytes: false,
            })),
            cache: Arc::new(TileCache::new(cache_bytes)),
            trace: Arc::new(RwLock::new(cumulon_trace::Trace::disabled())),
        }
    }

    /// The underlying DFS.
    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    /// Installs (or removes) a memory budget over the whole tile plane:
    /// the decoded-tile cache is resized to the budget, and the DFS handle
    /// plane gains the LRU spill plane ([`crate::spill`]) that demotes
    /// cold tiles to content-addressed blob segments on local disk. A
    /// budget of zero restores the unbounded seed behaviour (default
    /// cache size, no spilling). Shared through the store's `Arc`s, so
    /// every clone — including the ones task contexts hold — sees the
    /// budget. Spilling is observational: results, receipts, billing and
    /// placement are bitwise-identical at any budget; only wall-clock time
    /// and host memory footprint change.
    pub fn set_memory_budget(&self, config: &SpillConfig) -> Result<()> {
        if config.budget_bytes == 0 {
            self.cache.set_capacity(DEFAULT_CACHE_BYTES);
        } else {
            self.cache.set_capacity(config.budget_bytes);
        }
        self.dfs.set_spill_config(config)
    }

    /// Installs the trace handle that tile-cache hits and misses count
    /// into. The scheduler sets this at run start (and resets it to a
    /// disabled handle at run end); counters are advisory only — they
    /// never influence reads, receipts or placement, and speculative
    /// worker threads are suppressed (see `cumulon_trace::suppress`), so
    /// tracing cannot perturb results.
    pub fn set_trace(&self, trace: cumulon_trace::Trace) {
        *self.trace.write() = trace;
    }

    fn trace_cache(&self, hit: bool) {
        let trace = self.trace.read();
        if hit {
            trace.cache_hit();
        } else {
            trace.cache_miss();
        }
    }

    /// Forces tile writes onto the byte plane (encode on write, decode on
    /// read) instead of the zero-copy handle plane. Receipts, placement,
    /// and results are identical either way; this mode exists so tests can
    /// assert that equivalence and exercise the codec end-to-end.
    pub fn set_materialize_bytes(&self, on: bool) {
        self.state.write().materialize_bytes = on;
    }

    /// Whether writes currently materialize encoded bytes.
    pub fn materialize_bytes(&self) -> bool {
        self.state.read().materialize_bytes
    }

    fn tile_path(name: &str, ti: usize, tj: usize) -> String {
        format!("/matrix/{name}/{ti}_{tj}")
    }

    /// Registers a stored (non-generated) matrix.
    pub fn register(&self, name: &str, meta: MatrixMeta) -> Result<MatrixHandle> {
        self.register_inner(name, meta, None)
    }

    /// Registers a generated matrix: no tiles are written; readers invoke
    /// the generator on demand.
    pub fn register_generated(
        &self,
        name: &str,
        meta: MatrixMeta,
        generator: Generator,
    ) -> Result<MatrixHandle> {
        self.register_inner(name, meta, Some(generator))
    }

    fn register_inner(
        &self,
        name: &str,
        meta: MatrixMeta,
        generator: Option<Generator>,
    ) -> Result<MatrixHandle> {
        let mut st = self.state.write();
        if st.matrices.contains_key(name) {
            return Err(DfsError::AlreadyExists(format!("matrix {name}")));
        }
        let handle = MatrixHandle {
            name: name.to_string(),
            meta,
            generator,
            serial: st.next_serial,
        };
        st.next_serial += 1;
        st.matrices.insert(name.to_string(), handle.clone());
        Ok(handle)
    }

    /// Looks up a matrix by name.
    pub fn lookup(&self, name: &str) -> Result<MatrixHandle> {
        self.state
            .read()
            .matrices
            .get(name)
            .cloned()
            .ok_or_else(|| DfsError::MatrixNotFound(name.to_string()))
    }

    /// All registered matrix names.
    pub fn names(&self) -> Vec<String> {
        self.state.read().matrices.keys().cloned().collect()
    }

    /// Validates that a tile's dims match slot `(ti, tj)` of a registered
    /// matrix, returning the handle. Deferred-write task contexts run this
    /// at staging time so in-task error behavior matches an eager write.
    pub fn validate_tile(
        &self,
        name: &str,
        ti: usize,
        tj: usize,
        tile: &Tile,
    ) -> Result<MatrixHandle> {
        let handle = self.lookup(name)?;
        let want = handle.meta.tile_dims(ti, tj);
        if (tile.rows(), tile.cols()) != want {
            return Err(DfsError::Codec(format!(
                "tile ({ti},{tj}) of {name} has dims ({}, {}), expected {want:?}",
                tile.rows(),
                tile.cols()
            )));
        }
        Ok(handle)
    }

    /// Writes one tile of a registered matrix from `writer`'s node.
    pub fn write_tile(
        &self,
        name: &str,
        ti: usize,
        tj: usize,
        tile: &Tile,
        writer: Option<NodeId>,
    ) -> Result<IoReceipt> {
        self.write_tile_arc(name, ti, tj, Arc::new(tile.clone()), writer)
    }

    /// Writes one tile as a shared handle — the hot path. On the default
    /// handle plane the `Arc<Tile>` goes into the DFS as-is, charged at its
    /// exact wire length; under [`TileStore::set_materialize_bytes`] the
    /// tile is encoded and written as bytes instead. Both paths produce
    /// identical receipts and placement.
    pub fn write_tile_arc(
        &self,
        name: &str,
        ti: usize,
        tj: usize,
        tile: Arc<Tile>,
        writer: Option<NodeId>,
    ) -> Result<IoReceipt> {
        // Validate registration and dims.
        self.validate_tile(name, ti, tj, &tile)?;
        let stored = tile.stored_bytes();
        if self.materialize_bytes() {
            return self.write_tile_encoded(name, ti, tj, encode_tile(&tile), stored, writer);
        }
        let path = Self::tile_path(name, ti, tj);
        if self.dfs.exists(&path) {
            // Re-execution after task failure overwrites the old output.
            self.dfs.delete_file(&path)?;
        }
        let wire = encoded_len(&tile);
        let receipt =
            self.dfs
                .write_tile_file(&path, tile, wire, writer, self.dfs.config().replication)?;
        self.cache.invalidate(&path);
        Ok(scale_receipt(receipt, wire, stored))
    }

    /// Writes one pre-encoded tile. Deferred-write task contexts encode at
    /// staging time (so the compute cost lands on the worker) and commit
    /// through this entry point; dims must already have been validated via
    /// [`TileStore::validate_tile`].
    pub fn write_tile_encoded(
        &self,
        name: &str,
        ti: usize,
        tj: usize,
        encoded: Bytes,
        stored_bytes: u64,
        writer: Option<NodeId>,
    ) -> Result<IoReceipt> {
        let path = Self::tile_path(name, ti, tj);
        if self.dfs.exists(&path) {
            // Re-execution after task failure overwrites the old output.
            self.dfs.delete_file(&path)?;
        }
        let actual = encoded.len() as u64;
        let receipt = self.dfs.write_file(&path, encoded, writer)?;
        self.cache.invalidate(&path);
        // Phantom tiles are tiny on the wire but stand in for full-size
        // data: rescale the receipt to the tile's logical stored size so
        // simulated-scale runs charge realistic I/O.
        Ok(scale_receipt(receipt, actual, stored_bytes))
    }

    /// Reads one tile as a shared handle; generated matrices synthesize the
    /// tile locally (no I/O receipt — generation is CPU, charged by the
    /// caller via [`cumulon_matrix::ops`]).
    ///
    /// Decoded DFS-backed tiles are cached: a hit returns the shared handle
    /// without copying the payload, while the receipt (and the datanode
    /// read counters, and any [`DfsError::BlockLost`]) is replayed through
    /// [`Dfs::read_receipt`] so timing and fault behavior are bit-identical
    /// to a cold read.
    ///
    /// `phantom` requests metadata-only tiles for simulated-scale runs.
    pub fn read_tile(
        &self,
        name: &str,
        ti: usize,
        tj: usize,
        reader: Option<NodeId>,
        phantom: bool,
    ) -> Result<(Arc<Tile>, IoReceipt)> {
        self.read_tile_versioned(name, ti, tj, reader, phantom)
            .map(|(tile, receipt, _)| (tile, receipt))
    }

    /// [`TileStore::read_tile`], also returning the content version the
    /// read observed, taken atomically with the data it returned.
    pub fn read_tile_versioned(
        &self,
        name: &str,
        ti: usize,
        tj: usize,
        reader: Option<NodeId>,
        phantom: bool,
    ) -> Result<(Arc<Tile>, IoReceipt, TileVersion)> {
        let handle = self.lookup(name)?;
        let path = Self::tile_path(name, ti, tj);
        if let Some(generator) = handle.generator {
            let version = TileVersion::Generated(handle.serial);
            if phantom {
                let tile = generator.generate_phantom(&handle.meta, ti, tj);
                return Ok((Arc::new(tile), IoReceipt::default(), version));
            }
            if let Some((tile, cached)) = self.cache.get(&path) {
                self.trace_cache(true);
                return Ok((tile, IoReceipt::default(), cached));
            }
            self.trace_cache(false);
            let tile = Arc::new(generator.generate(&handle.meta, ti, tj));
            self.cache.insert(&path, tile.clone(), version);
            return Ok((tile, IoReceipt::default(), version));
        }
        if !self.dfs.exists(&path) {
            return Err(DfsError::TileNotFound {
                matrix: name.to_string(),
                tile: (ti, tj),
            });
        }
        // A hit reports the version the cached tile was read at, not the
        // file's current one, so a replay of it validates the data served.
        if let Some((tile, cached)) = self.cache.get(&path) {
            self.trace_cache(true);
            let (receipt, _) = self.dfs.read_receipt(&path, reader)?;
            let receipt = scale_receipt(receipt, receipt.bytes, tile.stored_bytes());
            return Ok((tile, receipt, cached));
        }
        let (payload, receipt, file) = self.dfs.read_payload(&path, reader)?;
        match payload {
            // Handle-plane file: the DFS itself holds the Arc — no decode,
            // no cache entry needed; identity is stable across reads. Not
            // counted as a cache miss: the read is cache-invisible.
            FilePayload::Tile(tile) => {
                let receipt = scale_receipt(receipt, receipt.bytes, tile.stored_bytes());
                let version = TileVersion::Stored {
                    file,
                    decoded: false,
                };
                Ok((tile, receipt, version))
            }
            FilePayload::Bytes(bytes) => {
                self.trace_cache(false);
                let actual = bytes.len() as u64;
                let tile = Arc::new(decode_tile(bytes)?);
                let receipt = scale_receipt(receipt, actual, tile.stored_bytes());
                let version = TileVersion::Stored {
                    file,
                    decoded: true,
                };
                self.cache.insert(&path, tile.clone(), version);
                Ok((tile, receipt, version))
            }
        }
    }

    /// Charges a recorded read again without touching tile data: the
    /// receipt, datanode read counters, spill recency, any
    /// [`DfsError::BlockLost`] and the cache trace counters all come out
    /// as [`TileStore::read_tile`] would produce them now, but a spilled
    /// tile is not re-admitted, an evicted generated tile is not
    /// regenerated, and nothing enters the cache. `stored_bytes` is the
    /// recorded tile's stored size. Returns `Ok(None)` when `version` no
    /// longer holds — the tile may differ from the one recorded.
    #[allow(clippy::too_many_arguments)]
    pub fn replay_read(
        &self,
        name: &str,
        ti: usize,
        tj: usize,
        reader: Option<NodeId>,
        phantom: bool,
        version: TileVersion,
        stored_bytes: u64,
    ) -> Result<Option<IoReceipt>> {
        let path = Self::tile_path(name, ti, tj);
        match version {
            TileVersion::Generated(serial) => {
                let handle = self.lookup(name)?;
                if handle.generator.is_none() || handle.serial != serial {
                    return Ok(None);
                }
                if !phantom {
                    self.trace_cache(self.cache.holds(&path, version));
                }
                Ok(Some(IoReceipt::default()))
            }
            TileVersion::Stored { file, decoded } => {
                let (receipt, current) = self.dfs.read_receipt(&path, reader)?;
                if current != file {
                    return Ok(None);
                }
                if decoded {
                    self.trace_cache(self.cache.holds(&path, version));
                }
                Ok(Some(scale_receipt(receipt, receipt.bytes, stored_bytes)))
            }
        }
    }

    /// True when every tile of the matrix has been written (generated
    /// matrices are always complete).
    pub fn is_complete(&self, name: &str) -> Result<bool> {
        let handle = self.lookup(name)?;
        if handle.generator.is_some() {
            return Ok(true);
        }
        Ok(handle
            .meta
            .grid()
            .iter()
            .all(|(ti, tj)| self.dfs.exists(&Self::tile_path(name, ti, tj))))
    }

    /// Whether tile `(ti, tj)` of `name` is fully resident on `node`.
    pub fn tile_is_local(&self, name: &str, ti: usize, tj: usize, node: NodeId) -> bool {
        self.dfs.is_local(&Self::tile_path(name, ti, tj), node)
    }

    /// Re-persists every tile of a matrix at the given replication factor
    /// (a *checkpoint*: iterative drivers call this every k iterations so
    /// the iterate survives node deaths that would defeat lineage
    /// recovery). Generated matrices need no checkpoint and return an
    /// empty receipt. Returns the combined I/O receipt of the rewrite.
    pub fn checkpoint_matrix(&self, name: &str, replication: usize) -> Result<IoReceipt> {
        let handle = self.lookup(name)?;
        if handle.generator.is_some() {
            return Ok(IoReceipt::default());
        }
        let mut total = IoReceipt::default();
        for (ti, tj) in handle.meta.grid().iter() {
            let path = Self::tile_path(name, ti, tj);
            let (bytes, read) = self.dfs.read_file(&path, None)?;
            self.dfs.delete_file(&path)?;
            let write = self.dfs.write_file_with(&path, bytes, None, replication)?;
            self.cache.invalidate(&path);
            for r in [read, write] {
                total.bytes += r.bytes;
                total.local_bytes += r.local_bytes;
                total.remote_bytes += r.remote_bytes;
            }
        }
        Ok(total)
    }

    /// Whether a matrix is registered (without the error of [`lookup`]).
    ///
    /// [`lookup`]: TileStore::lookup
    pub fn contains(&self, name: &str) -> bool {
        self.state.read().matrices.contains_key(name)
    }

    /// Drops a matrix: namespace entry plus all tile files.
    pub fn drop_matrix(&self, name: &str) -> Result<()> {
        let handle = {
            let mut st = self.state.write();
            st.matrices
                .remove(name)
                .ok_or_else(|| DfsError::MatrixNotFound(name.to_string()))?
        };
        for (ti, tj) in handle.meta.grid().iter() {
            let path = Self::tile_path(name, ti, tj);
            self.cache.invalidate(&path);
            if handle.generator.is_none() && self.dfs.exists(&path) {
                self.dfs.delete_file(&path)?;
            }
        }
        Ok(())
    }

    /// Uploads a whole in-memory matrix (driver-side convenience used by
    /// tests, examples and workload setup).
    pub fn put_local(&self, name: &str, matrix: &LocalMatrix) -> Result<MatrixHandle> {
        let handle = self.register(name, matrix.meta())?;
        for ((ti, tj), tile) in matrix.iter_tiles() {
            self.write_tile(name, ti, tj, tile, None)?;
        }
        Ok(handle)
    }

    /// Downloads a whole matrix into memory.
    pub fn get_local(&self, name: &str) -> Result<LocalMatrix> {
        let handle = self.lookup(name)?;
        let tiles = handle
            .meta
            .grid()
            .iter()
            .map(|(ti, tj)| {
                self.read_tile(name, ti, tj, None, false)
                    .map(|(t, _)| Arc::unwrap_or_clone(t))
            })
            .collect::<Result<Vec<_>>>()?;
        LocalMatrix::from_tiles(handle.meta, tiles).map_err(DfsError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs::DfsConfig;
    use cumulon_matrix::gen::Generator;

    fn store() -> TileStore {
        TileStore::new(Dfs::new(
            4,
            DfsConfig {
                replication: 2,
                block_size: 1 << 20,
                seed: 3,
                racks: 1,
            },
        ))
    }

    #[test]
    fn register_write_read_roundtrip() {
        let s = store();
        let meta = MatrixMeta::new(5, 5, 3);
        s.register("A", meta).unwrap();
        let m = LocalMatrix::generate(
            meta,
            &Generator::DenseUniform {
                seed: 1,
                lo: 0.0,
                hi: 1.0,
            },
        );
        for ((ti, tj), tile) in m.iter_tiles() {
            s.write_tile("A", ti, tj, tile, Some(NodeId(0))).unwrap();
        }
        assert!(s.is_complete("A").unwrap());
        let back = s.get_local("A").unwrap();
        assert_eq!(back.to_dense_vec().unwrap(), m.to_dense_vec().unwrap());
    }

    #[test]
    fn put_get_local_convenience() {
        let s = store();
        let meta = MatrixMeta::new(7, 4, 3);
        let m = LocalMatrix::generate(meta, &Generator::DenseGaussian { seed: 9 });
        s.put_local("G", &m).unwrap();
        let back = s.get_local("G").unwrap();
        assert_eq!(back.max_abs_diff(&m).unwrap(), 0.0);
    }

    #[test]
    fn generated_matrix_needs_no_io() {
        let s = store();
        let meta = MatrixMeta::new(6, 6, 4);
        s.register_generated(
            "R",
            meta,
            Generator::DenseUniform {
                seed: 5,
                lo: -1.0,
                hi: 1.0,
            },
        )
        .unwrap();
        assert!(s.is_complete("R").unwrap());
        let (tile, receipt) = s.read_tile("R", 0, 0, Some(NodeId(1)), false).unwrap();
        assert_eq!((tile.rows(), tile.cols()), (4, 4));
        assert_eq!(receipt, IoReceipt::default());
        // Deterministic across reads.
        let (tile2, _) = s.read_tile("R", 0, 0, Some(NodeId(2)), false).unwrap();
        assert_eq!(tile, tile2);
    }

    #[test]
    fn phantom_reads() {
        let s = store();
        let meta = MatrixMeta::new(100, 100, 50);
        s.register_generated(
            "P",
            meta,
            Generator::SparseUniform {
                seed: 2,
                density: 0.1,
            },
        )
        .unwrap();
        let (tile, _) = s.read_tile("P", 1, 1, None, true).unwrap();
        assert!(tile.is_phantom());
        assert_eq!(tile.nnz(), 250);
    }

    #[test]
    fn wrong_dims_rejected() {
        let s = store();
        s.register("A", MatrixMeta::new(4, 4, 2)).unwrap();
        let bad = Tile::zeros(3, 3);
        assert!(s.write_tile("A", 0, 0, &bad, None).is_err());
    }

    #[test]
    fn missing_matrix_and_tile() {
        let s = store();
        assert!(matches!(s.lookup("nope"), Err(DfsError::MatrixNotFound(_))));
        s.register("A", MatrixMeta::new(4, 4, 2)).unwrap();
        assert!(matches!(
            s.read_tile("A", 0, 0, None, false),
            Err(DfsError::TileNotFound { .. })
        ));
        assert!(!s.is_complete("A").unwrap());
    }

    #[test]
    fn duplicate_registration_rejected() {
        let s = store();
        s.register("A", MatrixMeta::new(2, 2, 2)).unwrap();
        assert!(s.register("A", MatrixMeta::new(2, 2, 2)).is_err());
    }

    #[test]
    fn overwrite_on_reexecution() {
        let s = store();
        s.register("A", MatrixMeta::new(2, 2, 2)).unwrap();
        s.write_tile("A", 0, 0, &Tile::zeros(2, 2), None).unwrap();
        let mut t = Tile::zeros(2, 2);
        t.add_assign(&Tile::dense(cumulon_matrix::DenseTile::identity(2)))
            .unwrap();
        s.write_tile("A", 0, 0, &t, None).unwrap();
        let (back, _) = s.read_tile("A", 0, 0, None, false).unwrap();
        assert_eq!(back.sum(), 2.0);
    }

    #[test]
    fn drop_matrix_frees_storage() {
        let s = store();
        let meta = MatrixMeta::new(4, 4, 2);
        let m = LocalMatrix::generate(meta, &Generator::DenseGaussian { seed: 1 });
        s.put_local("A", &m).unwrap();
        assert!(s.dfs().storage_stats().1 > 0);
        s.drop_matrix("A").unwrap();
        assert_eq!(s.dfs().storage_stats().1, 0);
        assert!(s.lookup("A").is_err());
        // Name reusable after drop.
        s.register("A", meta).unwrap();
    }

    #[test]
    fn locality_hint_via_store() {
        let s = store();
        s.register("A", MatrixMeta::new(2, 2, 2)).unwrap();
        s.write_tile("A", 0, 0, &Tile::zeros(2, 2), Some(NodeId(3)))
            .unwrap();
        assert!(s.tile_is_local("A", 0, 0, NodeId(3)));
    }

    #[test]
    fn checkpoint_raises_replication() {
        let s = TileStore::new(Dfs::new(
            4,
            DfsConfig {
                replication: 1,
                block_size: 1 << 20,
                seed: 7,
                racks: 1,
            },
        ));
        let meta = MatrixMeta::new(8, 8, 4);
        let m = LocalMatrix::generate(meta, &Generator::DenseGaussian { seed: 4 });
        s.put_local("W", &m).unwrap();
        let receipt = s.checkpoint_matrix("W", 3).unwrap();
        assert!(receipt.bytes > 0);
        // At replication 3, losing two nodes cannot lose the checkpoint.
        s.dfs().kill_node(NodeId(0)).unwrap();
        s.dfs().kill_node(NodeId(1)).unwrap();
        let back = s.get_local("W").unwrap();
        assert_eq!(back.max_abs_diff(&m).unwrap(), 0.0);
        // Generated matrices need no checkpoint.
        s.register_generated("G", meta, Generator::DenseGaussian { seed: 5 })
            .unwrap();
        assert_eq!(s.checkpoint_matrix("G", 3).unwrap(), IoReceipt::default());
        assert!(s.contains("W") && !s.contains("nope"));
    }

    #[test]
    fn names_sorted() {
        let s = store();
        s.register("B", MatrixMeta::new(1, 1, 1)).unwrap();
        s.register("A", MatrixMeta::new(1, 1, 1)).unwrap();
        assert_eq!(s.names(), vec!["A", "B"]);
    }
}

#[cfg(test)]
mod data_plane_tests {
    use super::*;
    use crate::dfs::DfsConfig;
    use cumulon_matrix::gen::Generator;

    fn store_with(seed: u64) -> TileStore {
        TileStore::new(Dfs::new(
            4,
            DfsConfig {
                replication: 2,
                block_size: 1 << 20,
                seed,
                racks: 1,
            },
        ))
    }

    /// The handle plane and the byte plane must be indistinguishable to
    /// every observable: write receipts, read receipts, read-back values,
    /// placement, and storage stats.
    #[test]
    fn materialize_bytes_mode_is_observationally_identical() {
        let meta = MatrixMeta::new(20, 20, 8);
        let m = LocalMatrix::generate(meta, &Generator::DenseGaussian { seed: 42 });
        let handle_store = store_with(77);
        let byte_store = store_with(77);
        byte_store.set_materialize_bytes(true);
        assert!(byte_store.materialize_bytes() && !handle_store.materialize_bytes());
        for s in [&handle_store, &byte_store] {
            s.register("A", meta).unwrap();
        }
        for ((ti, tj), tile) in m.iter_tiles() {
            let rh = handle_store
                .write_tile("A", ti, tj, tile, Some(NodeId(1)))
                .unwrap();
            let rb = byte_store
                .write_tile("A", ti, tj, tile, Some(NodeId(1)))
                .unwrap();
            assert_eq!(rh, rb, "write receipts diverge at ({ti},{tj})");
        }
        assert_eq!(
            handle_store.dfs().storage_stats(),
            byte_store.dfs().storage_stats()
        );
        assert_eq!(
            handle_store.dfs().per_node_bytes(),
            byte_store.dfs().per_node_bytes()
        );
        for ((ti, tj), _) in m.iter_tiles() {
            let (th, rh) = handle_store
                .read_tile("A", ti, tj, Some(NodeId(0)), false)
                .unwrap();
            let (tb, rb) = byte_store
                .read_tile("A", ti, tj, Some(NodeId(0)), false)
                .unwrap();
            assert_eq!(rh, rb, "read receipts diverge at ({ti},{tj})");
            assert_eq!(th, tb, "tiles diverge at ({ti},{tj})");
        }
        assert_eq!(
            handle_store.get_local("A").unwrap().to_dense_vec().unwrap(),
            byte_store.get_local("A").unwrap().to_dense_vec().unwrap()
        );
    }

    #[test]
    fn handle_reads_share_identity_without_cache() {
        // Handle-plane reads return the same Arc on every read even with a
        // zero-capacity cache — the DFS holds the handle, not the cache.
        let s = TileStore::with_cache_capacity(
            Dfs::new(
                2,
                DfsConfig {
                    replication: 2,
                    block_size: 1 << 20,
                    seed: 9,
                    racks: 1,
                },
            ),
            0,
        );
        s.register("A", MatrixMeta::new(4, 4, 4)).unwrap();
        s.write_tile("A", 0, 0, &Tile::zeros(4, 4), Some(NodeId(0)))
            .unwrap();
        let (a, _) = s.read_tile("A", 0, 0, Some(NodeId(1)), false).unwrap();
        let (b, _) = s.read_tile("A", 0, 0, Some(NodeId(0)), false).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    /// A replay read charges what a real read charges now, from metadata
    /// alone, and holds only while the recorded version does: a rewrite
    /// of the file or a re-registration of a generated matrix refuses it.
    #[test]
    fn replay_read_matches_read_tile_until_the_version_changes() {
        for materialize in [false, true] {
            let s = store_with(5);
            s.set_materialize_bytes(materialize);
            s.register("A", MatrixMeta::new(4, 4, 4)).unwrap();
            let tile = Tile::dense(cumulon_matrix::gen::dense_uniform_tile(
                2, 0, 0, 4, 4, -1.0, 1.0,
            ));
            s.write_tile("A", 0, 0, &tile, Some(NodeId(0))).unwrap();
            let (got, _, version) = s
                .read_tile_versioned("A", 0, 0, Some(NodeId(3)), false)
                .unwrap();
            let stored = got.stored_bytes();
            assert!(
                matches!(version, TileVersion::Stored { decoded, .. } if decoded == materialize)
            );
            for reader in 0..4 {
                let reader = Some(NodeId(reader));
                let replayed = s
                    .replay_read("A", 0, 0, reader, false, version, stored)
                    .unwrap();
                let (_, real, again) = s.read_tile_versioned("A", 0, 0, reader, false).unwrap();
                assert_eq!(replayed, Some(real), "materialize={materialize}");
                assert_eq!(again, version, "reads do not change the version");
            }
            s.checkpoint_matrix("A", 2).unwrap();
            assert_eq!(
                s.replay_read("A", 0, 0, None, false, version, stored)
                    .unwrap(),
                None,
                "a rewritten file refuses the replay"
            );
        }

        let s = store_with(6);
        let meta = MatrixMeta::new(4, 4, 4);
        s.register_generated("G", meta, Generator::DenseGaussian { seed: 1 })
            .unwrap();
        let (got, io, version) = s.read_tile_versioned("G", 0, 0, None, false).unwrap();
        assert_eq!(io, IoReceipt::default());
        let stored = got.stored_bytes();
        assert_eq!(
            s.replay_read("G", 0, 0, None, false, version, stored)
                .unwrap(),
            Some(IoReceipt::default())
        );
        s.drop_matrix("G").unwrap();
        s.register_generated("G", meta, Generator::DenseGaussian { seed: 2 })
            .unwrap();
        assert_eq!(
            s.replay_read("G", 0, 0, None, false, version, stored)
                .unwrap(),
            None,
            "a re-registered generator refuses the replay"
        );
    }

    #[test]
    fn checkpoint_moves_handle_file_to_byte_plane() {
        // checkpoint_matrix reads files as bytes (the serialization
        // boundary) and rewrites them durably — afterwards the file is a
        // real byte-plane file that decodes to the same tile.
        let s = store_with(3);
        let meta = MatrixMeta::new(6, 6, 6);
        s.register("W", meta).unwrap();
        let tile = Tile::dense(cumulon_matrix::gen::dense_uniform_tile(
            1, 0, 0, 6, 6, -1.0, 1.0,
        ));
        s.write_tile("W", 0, 0, &tile, Some(NodeId(0))).unwrap();
        let (before, _) = s.read_tile("W", 0, 0, None, false).unwrap();
        s.checkpoint_matrix("W", 3).unwrap();
        match s.dfs().read_payload("/matrix/W/0_0", None).unwrap().0 {
            FilePayload::Bytes(b) => assert_eq!(decode_tile(b).unwrap(), *before),
            FilePayload::Tile(_) => panic!("checkpointed file still on the handle plane"),
        }
        let (after, _) = s.read_tile("W", 0, 0, None, false).unwrap();
        assert_eq!(*after, *before);
    }
}

#[cfg(test)]
mod spill_plane_tests {
    use super::*;
    use crate::dfs::DfsConfig;
    use cumulon_matrix::gen::Generator;

    fn store_with(seed: u64) -> TileStore {
        TileStore::new(Dfs::new(
            4,
            DfsConfig {
                replication: 2,
                block_size: 1 << 20,
                seed,
                racks: 1,
            },
        ))
    }

    fn fill(s: &TileStore, name: &str, meta: MatrixMeta, gen_seed: u64) -> LocalMatrix {
        let m = LocalMatrix::generate(meta, &Generator::DenseGaussian { seed: gen_seed });
        s.register(name, meta).unwrap();
        for ((ti, tj), tile) in m.iter_tiles() {
            s.write_tile(name, ti, tj, tile, Some(NodeId(ti as u32 % 4)))
                .unwrap();
        }
        m
    }

    /// The third plane: a budget ~10x smaller than the working set must be
    /// indistinguishable from the unbounded handle plane on every
    /// observable — receipts, values, placement, storage stats — while
    /// actually spilling (nonzero evictions), and storage accounting stays
    /// conserved throughout.
    #[test]
    fn tight_budget_is_observationally_identical_to_unbounded() {
        let meta = MatrixMeta::new(40, 40, 8); // 25 tiles ≈ 13 KB wire
        let unbounded = store_with(123);
        let tight = store_with(123);
        tight
            .set_memory_budget(&SpillConfig::budgeted(1200))
            .unwrap();
        for s in [&unbounded, &tight] {
            s.register("A", meta).unwrap();
        }
        let m = LocalMatrix::generate(meta, &Generator::DenseGaussian { seed: 5 });
        for ((ti, tj), tile) in m.iter_tiles() {
            let ru = unbounded
                .write_tile("A", ti, tj, tile, Some(NodeId(1)))
                .unwrap();
            let rt = tight
                .write_tile("A", ti, tj, tile, Some(NodeId(1)))
                .unwrap();
            assert_eq!(ru, rt, "write receipts diverge at ({ti},{tj})");
            assert!(tight.dfs().spill_conserved());
            assert!(tight.dfs().storage_accounting().is_conserved());
        }
        let spilled = tight.dfs().spill_stats().unwrap();
        assert!(spilled.evictions > 0, "budget this tight must spill");
        assert!(spilled.spilled_bytes_total > 0);
        assert!(
            spilled.resident_bytes <= 1200,
            "budget exceeded: {} resident",
            spilled.resident_bytes
        );
        assert_eq!(
            unbounded.dfs().storage_stats(),
            tight.dfs().storage_stats(),
            "residency leaked into storage stats"
        );
        assert_eq!(
            unbounded.dfs().per_node_bytes(),
            tight.dfs().per_node_bytes()
        );
        // Reads re-admit transparently: identical receipts and values, in
        // an access order that forces eviction/readback churn.
        for pass in 0..2 {
            for ((ti, tj), _) in m.iter_tiles() {
                let reader = Some(NodeId((ti + tj + pass) as u32 % 4));
                let (tu, ru) = unbounded.read_tile("A", ti, tj, reader, false).unwrap();
                let (tt, rt) = tight.read_tile("A", ti, tj, reader, false).unwrap();
                assert_eq!(ru, rt, "read receipts diverge at ({ti},{tj})");
                assert_eq!(tu, tt, "tiles diverge at ({ti},{tj})");
            }
        }
        let st = tight.dfs().spill_stats().unwrap();
        assert!(st.readmissions > 0, "reads under pressure must re-admit");
        assert!(tight.dfs().spill_conserved());
        assert!(tight.dfs().storage_accounting().is_conserved());
    }

    /// Re-admission yields a *new* Arc whose contents are bitwise equal —
    /// the documented residency exception to pointer identity. While a
    /// tile stays resident, identity is preserved as before.
    #[test]
    fn readmitted_tiles_are_equal_but_not_pointer_identical() {
        let s = TileStore::with_cache_capacity(
            Dfs::new(
                2,
                DfsConfig {
                    replication: 2,
                    block_size: 1 << 20,
                    seed: 9,
                    racks: 1,
                },
            ),
            0, // no decoded-tile cache: reads always hit the DFS
        );
        let meta = MatrixMeta::new(8, 4, 4);
        let m = fill(&s, "A", meta, 11);
        let (before, _) = s.read_tile("A", 0, 0, None, false).unwrap();
        // Budget of one tile: writing/keeping both tiles is impossible, so
        // reading tile 1 then tile 0 forces tile 0 through disk.
        let one_tile = encoded_len(&before);
        s.set_memory_budget(&SpillConfig::budgeted(one_tile + 1))
            .unwrap();
        let (_, _) = s.read_tile("A", 1, 0, None, false).unwrap();
        assert_eq!(
            s.dfs().spill_stats().unwrap().spilled_files,
            1,
            "exactly one of the two tiles fits"
        );
        let (after, _) = s.read_tile("A", 0, 0, None, false).unwrap();
        assert!(
            !Arc::ptr_eq(&before, &after),
            "a disk round-trip mints a fresh Arc"
        );
        assert_eq!(*before, *after, "…with bitwise-identical contents");
        // Resident hits keep sharing the new Arc.
        let (again, _) = s.read_tile("A", 0, 0, None, false).unwrap();
        assert!(Arc::ptr_eq(&after, &again));
        assert_eq!(
            m.to_dense_vec().unwrap(),
            s.get_local("A").unwrap().to_dense_vec().unwrap()
        );
    }

    /// LRU discipline: reads refresh recency, so the file demoted is the
    /// least-recently-*used*, not the least-recently-written.
    #[test]
    fn eviction_follows_recency_not_write_order() {
        // Zero-capacity decoded-tile cache: every read goes to the DFS,
        // so recency is driven purely by the accesses below.
        let s = TileStore::with_cache_capacity(
            Dfs::new(
                4,
                DfsConfig {
                    replication: 2,
                    block_size: 1 << 20,
                    seed: 21,
                    racks: 1,
                },
            ),
            0,
        );
        let meta = MatrixMeta::new(12, 4, 4); // 3 tiles, one block each
        fill(&s, "A", meta, 3);
        let one = encoded_len(&s.read_tile("A", 0, 0, None, false).unwrap().0);
        // Room for two tiles: installing the budget demotes exactly one.
        s.set_memory_budget(&SpillConfig::budgeted(2 * one))
            .unwrap();
        let base = s.dfs().spill_stats().unwrap();
        assert_eq!(base.spilled_files, 1, "adoption evicted the coldest");
        // Adoption order is namespace order, so tile 0 is on disk and
        // tiles 1 and 2 are resident (2 hotter). Touch tile 1, then
        // re-admit tile 0: the eviction this forces must pick tile 2 —
        // the least-recently-used — even though tile 1 was written first.
        s.read_tile("A", 1, 0, None, false).unwrap();
        s.read_tile("A", 0, 0, None, false).unwrap();
        let st = s.dfs().spill_stats().unwrap();
        assert_eq!(st.spilled_files, 1, "budget still holds");
        assert_eq!(st.readmissions, base.readmissions + 1);
        // Tile 1 stayed resident: reading it again re-admits nothing…
        s.read_tile("A", 1, 0, None, false).unwrap();
        let st = s.dfs().spill_stats().unwrap();
        assert_eq!(
            st.readmissions,
            base.readmissions + 1,
            "the recently-touched tile was evicted"
        );
        // …while tile 2 — the cold one — is the file on disk.
        s.read_tile("A", 2, 0, None, false).unwrap();
        assert_eq!(
            s.dfs().spill_stats().unwrap().readmissions,
            base.readmissions + 2
        );
        assert!(s.dfs().spill_conserved());
    }

    /// drop_matrix on a spilled matrix releases every blob reference, and
    /// an explicit compaction sweep reclaims the segment bytes.
    #[test]
    fn drop_matrix_releases_blob_bytes() {
        let s = store_with(31);
        let meta = MatrixMeta::new(40, 40, 8);
        fill(&s, "A", meta, 17);
        s.set_memory_budget(&SpillConfig::budgeted(1)).unwrap();
        let st = s.dfs().spill_stats().unwrap();
        assert_eq!(st.spilled_files, 25, "budget of 1 byte spills everything");
        assert_eq!(st.resident_bytes, 0);
        s.drop_matrix("A").unwrap();
        s.dfs().compact_spill().unwrap();
        let st = s.dfs().spill_stats().unwrap();
        assert_eq!(st.spilled_files, 0);
        assert_eq!(st.blob.live_entries, 0);
        assert_eq!(st.blob.dead_bytes, 0, "compaction reclaimed the garbage");
        assert!(s.dfs().storage_accounting().is_conserved());
    }

    /// Removing the budget re-admits everything; no data is stranded in
    /// the segment files the plane deletes on drop.
    #[test]
    fn removing_the_budget_readmits_all_files() {
        let s = store_with(41);
        let meta = MatrixMeta::new(16, 16, 8);
        let m = fill(&s, "A", meta, 23);
        s.set_memory_budget(&SpillConfig::budgeted(100)).unwrap();
        assert!(s.dfs().spill_stats().unwrap().spilled_files > 0);
        s.set_memory_budget(&SpillConfig::default()).unwrap();
        assert!(s.dfs().spill_stats().is_none(), "plane removed");
        assert_eq!(
            m.to_dense_vec().unwrap(),
            s.get_local("A").unwrap().to_dense_vec().unwrap()
        );
    }

    /// The only spill path stores encoded tiles verbatim. Dense, sparse
    /// and all-zero tiles under a budget that spills every file come back
    /// bitwise equal to the unbounded run, with identical receipts; and
    /// identical zero tiles share one blob entry by content addressing
    /// (the case a codec used to win).
    #[test]
    fn spill_round_trip_is_bitwise_for_every_tile_kind() {
        let uncached = |seed| {
            TileStore::with_cache_capacity(
                Dfs::new(
                    4,
                    DfsConfig {
                        replication: 2,
                        block_size: 1 << 20,
                        seed,
                        racks: 1,
                    },
                ),
                0, // no decoded-tile cache: every read goes to the DFS
            )
        };
        let unbounded = uncached(55);
        let tight = uncached(55);
        tight.set_memory_budget(&SpillConfig::budgeted(1)).unwrap();
        let meta = MatrixMeta::new(24, 24, 8); // 9 tiles per matrix
        let matrices = [
            ("Z", Generator::Zeros),
            ("D", Generator::DenseGaussian { seed: 29 }),
            (
                "S",
                Generator::SparseUniform {
                    seed: 31,
                    density: 0.3,
                },
            ),
        ];
        for (name, gen) in &matrices {
            let m = LocalMatrix::generate(meta, gen);
            for s in [&unbounded, &tight] {
                s.register(name, meta).unwrap();
            }
            for ((ti, tj), tile) in m.iter_tiles() {
                let writer = Some(NodeId(ti as u32 % 4));
                let ru = unbounded.write_tile(name, ti, tj, tile, writer).unwrap();
                let rt = tight.write_tile(name, ti, tj, tile, writer).unwrap();
                assert_eq!(ru, rt, "{name} write receipts diverge at ({ti},{tj})");
            }
            if *name == "Z" {
                let st = tight.dfs().spill_stats().unwrap();
                assert_eq!(st.spilled_files, 9, "every zero tile is on disk");
                assert_eq!(st.blob.live_entries, 1, "…as one blob entry: {st:?}");
                assert_eq!(st.blob.dedup_hits, 8, "{st:?}");
            }
        }
        let st = tight.dfs().spill_stats().unwrap();
        assert_eq!(st.spilled_files, 27, "a 1-byte budget spills everything");
        assert_eq!(st.resident_bytes, 0);
        assert_eq!(st.blob.compression_ratio(), 1.0, "stored verbatim");
        for (name, _) in &matrices {
            for ti in 0..3 {
                for tj in 0..3 {
                    let reader = Some(NodeId((ti + tj) as u32 % 4));
                    let (tu, ru) = unbounded.read_tile(name, ti, tj, reader, false).unwrap();
                    let (tt, rt) = tight.read_tile(name, ti, tj, reader, false).unwrap();
                    assert_eq!(ru, rt, "{name} read receipts diverge at ({ti},{tj})");
                    assert_eq!(tu.is_sparse(), tt.is_sparse(), "{name} representation");
                    assert_eq!(encode_tile(&tu), encode_tile(&tt), "{name} ({ti},{tj})");
                }
            }
        }
        let st = tight.dfs().spill_stats().unwrap();
        assert_eq!(st.readmissions, 27, "every read went through disk");
        assert!(tight.dfs().spill_conserved());
        assert!(tight.dfs().storage_accounting().is_conserved());
    }

    /// Phantom tiles are metadata-only and must never reach the blob
    /// store, no matter how tight the budget.
    #[test]
    fn phantom_tiles_never_spill() {
        let s = store_with(61);
        s.set_memory_budget(&SpillConfig::budgeted(1)).unwrap();
        let meta = MatrixMeta::new(1000, 1000, 500);
        s.register("P", meta).unwrap();
        for ti in 0..2 {
            for tj in 0..2 {
                s.write_tile("P", ti, tj, &Tile::phantom_dense(500, 500), Some(NodeId(0)))
                    .unwrap();
            }
        }
        let st = s.dfs().spill_stats().unwrap();
        assert_eq!(st.evictions, 0);
        assert_eq!(st.spilled_files, 0);
        let (t, _) = s.read_tile("P", 1, 1, None, true).unwrap();
        assert!(t.is_phantom());
    }
}

#[cfg(test)]
mod phantom_receipt_tests {
    use super::*;
    use crate::dfs::DfsConfig;

    #[test]
    fn phantom_write_and_read_charge_logical_bytes() {
        let s = TileStore::new(Dfs::new(
            2,
            DfsConfig {
                replication: 2,
                block_size: 1 << 20,
                seed: 1,
                racks: 1,
            },
        ));
        let meta = MatrixMeta::new(1000, 1000, 1000);
        s.register("P", meta).unwrap();
        let tile = Tile::phantom_dense(1000, 1000);
        let w = s.write_tile("P", 0, 0, &tile, Some(NodeId(0))).unwrap();
        let logical = tile.stored_bytes();
        assert_eq!(w.bytes, logical, "write receipt must be logical size");
        assert_eq!(
            w.local_bytes + w.remote_bytes,
            2 * logical,
            "both replicas charged"
        );
        let (_, r) = s.read_tile("P", 0, 0, Some(NodeId(0)), false).unwrap();
        assert_eq!(r.bytes, logical);
        assert_eq!(r.local_bytes, logical, "writer-local replica read locally");
    }

    #[test]
    fn dense_receipts_unchanged_in_spirit() {
        let s = TileStore::new(Dfs::new(
            1,
            DfsConfig {
                replication: 1,
                block_size: 1 << 20,
                seed: 1,
                racks: 1,
            },
        ));
        let meta = MatrixMeta::new(10, 10, 10);
        s.register("D", meta).unwrap();
        let tile = Tile::zeros(10, 10);
        let w = s.write_tile("D", 0, 0, &tile, Some(NodeId(0))).unwrap();
        assert_eq!(w.bytes, tile.stored_bytes());
    }
}

//! The page store: fixed-size page frames behind an LRU buffer, over a
//! pluggable [`PageBackend`] — with **no decoded mirror**.
//!
//! # Residency and the pin/unpin contract
//!
//! Historically the store kept a decoded in-memory image of *every* page,
//! which made "cold" reads never actually cold and bounded datasets by RAM.
//! That mirror is gone. Decoded payloads now live in a **resident table**
//! that holds exactly two kinds of pages:
//!
//! * **buffer members** — pages currently admitted to the [`LruBuffer`];
//!   their decoded payload is the in-memory image a buffer hit serves, and
//!   it is dropped when the page is evicted (after a write-back if dirty);
//! * **pinned pages** — pages with outstanding [`PageRef`] guards from
//!   [`PageStore::try_peek`]. A peek pins the page (a refcount in the
//!   resident table, beside the payload) **without touching recency,
//!   membership or any counter**, so snapshot reads leave the measured
//!   buffer state byte-identical. A peek of a non-resident page decodes it
//!   through the backend as an [`IoClass::Unmetered`] transfer and holds it
//!   in the resident table — *not* admitted to the buffer — until the last
//!   guard drops.
//!
//! A pin keeps the decoded payload resident; it does not keep the page in
//! the buffer. Membership is the [`LruBuffer`]'s alone, so a pinned member
//! is evicted like any other, and only its payload outlives the eviction
//! until the last guard drops. That is what lets a pinned page be replayed
//! ([`PageStore::note_read`]) with the buffer deciding exactly what it
//! would have decided had the page been read there.
//!
//! Everything else decodes on miss through the backend and is dropped on
//! eviction, so peak decoded residency is bounded by `buffer capacity +
//! pinned pages` (tracked by [`PageStore::peak_resident_pages`] /
//! [`PageStore::peak_pinned_pages`] and asserted under a join by
//! `out_of_core_join_stays_within_buffer_plus_pins` in the workspace's
//! `tests/storage.rs`) instead of by the dataset size.
//!
//! A [`PageRef`] holds its payload through an `Arc`, so a guard stays valid
//! even if the page is concurrently overwritten (writes *replace* the
//! resident payload — a guard taken before the write keeps observing the
//! snapshot it pinned; trees are read-only during joins, so this only
//! matters for exotic interleavings) or freed.
//!
//! # The page table
//!
//! Page ids are dense: [`PageBackend::allocate`] hands them out
//! consecutively from 0 and freed ids are not recycled. Everything the
//! store keeps per page is therefore a vector indexed by the id, never a
//! map: the allocation flag (1 byte), the resident payload slot (an
//! `Option<Arc<T>>`, 8 bytes), the pin count (4 bytes) and, inside the
//! buffer ([`LruBuffer::with_dense_keys`]), the list slot (4 bytes) — 17
//! bytes per id ever allocated, whether or not the page is resident,
//! against a page of `page_size` bytes on the backend. A counted read
//! reaches its buffer slot, its pin count and its payload by subscript; [`PageStore::num_pages`], [`PageStore::resident_pages`] and
//! [`PageStore::pinned_pages`] read counts kept beside the vectors, so none
//! of them scans. (The hash-indexed [`LruBuffer::new`] stays for callers
//! whose keys are sparse — the reuse buffer's object ids.)
//!
//! # Read/write path and the backend parity guarantee
//!
//! * Logical reads go through the LRU buffer: a **hit** is served from the
//!   resident payload, a **miss** transfers the frame from the backend
//!   ([`IoClass::Metered`]) and decodes it.
//! * A replayed read ([`PageStore::note_read`]) goes through the buffer
//!   too, but its page is pinned by the guard it replays: a miss admits
//!   that payload, with no transfer and nothing that can fail.
//! * Writes are **write-back**: `allocate` dirties the buffered page; the
//!   frame is encoded and written to the backend when the page is evicted
//!   or on [`PageStore::flush`] (both metered); [`PageStore::drop_buffer`]
//!   writes dirty frames back as [`IoClass::Unmetered`] traffic — see the
//!   counting contract in the [backend module docs](crate::backend).
//!
//! All accounting ([`IoStats`], buffer state, eviction decisions) happens
//! *above* the backend, so swapping [`StorageBackend::Heap`] for
//! [`StorageBackend::File`] changes no counter and no result — only
//! whether the frames actually hit storage, measured
//! by [`PageStore::backend_io`].
//!
//! The store is internally synchronized (a mutex around the residency
//! state), which is what lets `&self` peeks pin pages while `&mut self`
//! metered operations stay exclusive. Guards never hold the lock; they
//! re-acquire it briefly on drop to unpin.

use std::collections::BTreeSet;
use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::backend::{BackendIo, IoClass, PageBackend, StorageBackend};
use crate::error::{IoOp, PageIoError};
use crate::fault::{FaultBackend, FaultProfile, FaultStats};
use crate::frame::{seal_frame, verify_frame, PagePayload, FRAME_TRAILER_BYTES};
use crate::lru::{Admission, LruBuffer};
use crate::stats::IoStats;

/// Bounded retry policy for transient backend faults.
///
/// An attempt that fails with a transient error is repeated at once, up to
/// `max_attempts` total attempts; persistent and corrupt errors are never
/// retried. Nothing waits between attempts: no thread blocks and no clock
/// is read. The default budget of 4 attempts is generous: an injected
/// transient fails one attempt only, and real `EINTR`-class transients are
/// already absorbed inside `FileBackend`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation (first try included). Minimum 1.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 4 }
    }
}

/// Identifier of a page on the (simulated or real) disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl PageId {
    fn as_key(self) -> u64 {
        u64::from(self.0)
    }
}

/// Configuration of a [`PageStore`].
#[derive(Debug, Clone, Copy)]
pub struct PageStoreConfig {
    /// Size of a disk page in bytes. Doubles as the frame size of the
    /// backend and as the byte budget clients use to derive node fanout.
    pub page_size: usize,
    /// Number of pages the LRU buffer can hold.
    pub buffer_pages: usize,
    /// Which storage backend holds the page frames.
    pub backend: StorageBackend,
}

impl Default for PageStoreConfig {
    /// A generic default: 4 KB pages (a typical OS page size), no buffer,
    /// heap frames. The paper's experimental setting (1 KB pages,
    /// [`DEFAULT_PAGE_SIZE`](crate::DEFAULT_PAGE_SIZE)) is deliberately
    /// *not* the default — `cij-rtree` sets it through
    /// [`PageStoreConfig::with_page_size`].
    fn default() -> Self {
        PageStoreConfig {
            page_size: 4096,
            buffer_pages: 0,
            backend: StorageBackend::Heap,
        }
    }
}

impl PageStoreConfig {
    /// Sets the page size in bytes.
    pub fn with_page_size(mut self, bytes: usize) -> Self {
        self.page_size = bytes;
        self
    }

    /// Sets the storage backend.
    pub fn with_backend(mut self, backend: StorageBackend) -> Self {
        self.backend = backend;
        self
    }

    // Inert: `cij_benchmark/src/layers.rs` is its only reader. A
    // configuration holds no fault schedule; a test arms one on a built
    // store with `PageStore::inject_fault`.
    #[doc(hidden)]
    pub fn without_faults(self) -> Self {
        self
    }
}

/// The mutex-guarded residency state of a [`PageStore`].
#[derive(Debug)]
struct StoreInner<T: PagePayload> {
    /// Decoded payloads of exactly the buffer members and the pinned pages
    /// — the replacement for the historical full mirror. Index = page id,
    /// one slot per id ever allocated (see "The page table" in the module
    /// docs).
    resident: Vec<Option<Arc<T>>>,
    /// How many slots of `resident` are `Some`.
    resident_count: usize,
    /// Outstanding [`PageRef`] guards per page (index = page id). A pinned
    /// page keeps its `resident` payload whether or not it is a buffer
    /// member.
    pins: Vec<u32>,
    /// How many entries of `pins` are non-zero.
    pinned_count: usize,
    /// High-water mark of `pinned_count`.
    peak_pinned: usize,
    /// Which page ids are currently allocated (index = page id).
    allocated: Vec<bool>,
    /// How many flags of `allocated` are set.
    allocated_count: usize,
    backend: Box<dyn PageBackend>,
    buffer: LruBuffer,
    stats: IoStats,
    /// Scratch frame (always `page_size` bytes) for encode/decode transfers.
    frame: Vec<u8>,
    /// High-water mark of `resident.len()`, sampled at operation
    /// boundaries (steady states, not mid-operation transients).
    peak_resident: usize,
    /// Bounded retry policy for transient backend faults.
    retry: RetryPolicy,
    /// Frames that failed checksum verification: reads of these fail fast
    /// with a `Corrupt` error instead of re-transferring known-bad bytes.
    /// Ordered set so diagnostics enumerate deterministically.
    quarantined: BTreeSet<u32>,
    /// Read attempts repeated after a transient error.
    fault_retries: u64,
    /// Reads that succeeded after at least one retry.
    fault_recoveries: u64,
    /// Write attempts repeated after a transient error.
    fault_write_retries: u64,
}

/// A disk of fixed-size pages with an LRU buffer in front of it.
///
/// Payloads of type `T` (R-tree nodes, in practice) are serialized through
/// the [`PagePayload`] codec into `page_size`-byte frames held by the
/// configured [`PageBackend`]; a payload whose encoding exceeds the page
/// size is rejected at allocate time, so fanout budgets cannot be
/// silently violated. [`PageStore::try_read`] returns owned payloads so that
/// callers never hold borrows across further store operations (pages can be
/// evicted under you, exactly like a real buffer pool); [`PageStore::try_peek`]
/// returns a pinned [`PageRef`] guard instead. See the [module docs](self)
/// for the residency and pin/unpin contract.
#[derive(Debug)]
pub struct PageStore<T: PagePayload> {
    inner: Arc<Mutex<StoreInner<T>>>,
    /// Shared counter handle, cached outside the lock.
    stats: IoStats,
    kind: StorageBackend,
    page_size: usize,
}

impl<T: PagePayload> PageStore<T> {
    /// Creates an empty store with the given configuration and fresh
    /// statistics counters.
    pub fn new(config: PageStoreConfig) -> Self {
        Self::with_stats(config, IoStats::new())
    }

    /// Creates a store that shares statistics counters with `stats`.
    ///
    /// The CIJ join algorithms operate on two (or more) trees at once but the
    /// paper reports a single page-access figure, so the trees' stores share
    /// one counter set.
    pub fn with_stats(config: PageStoreConfig, stats: IoStats) -> Self {
        assert!(config.page_size > 0, "page size must be positive");
        let backend = config.backend.create(config.page_size);
        PageStore {
            inner: Arc::new(Mutex::new(StoreInner {
                resident: Vec::new(),
                resident_count: 0,
                pins: Vec::new(),
                pinned_count: 0,
                peak_pinned: 0,
                allocated: Vec::new(),
                allocated_count: 0,
                backend,
                buffer: LruBuffer::with_dense_keys(config.buffer_pages),
                stats: stats.clone(),
                frame: vec![0u8; config.page_size],
                peak_resident: 0,
                retry: RetryPolicy::default(),
                quarantined: BTreeSet::new(),
                fault_retries: 0,
                fault_recoveries: 0,
                fault_write_retries: 0,
            })),
            stats,
            kind: config.backend,
            page_size: config.page_size,
        }
    }

    fn lock(&self) -> MutexGuard<'_, StoreInner<T>> {
        // Poisoning is ignored deliberately: a panic mid-operation in some
        // other thread must not cascade into every guard drop.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The configured page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Which storage backend holds this store's frames.
    pub fn backend_kind(&self) -> StorageBackend {
        self.kind
    }

    /// Bytes actually transferred to/from the backend so far — the physical
    /// counterpart of the [`IoStats`] page-access counts (metered and
    /// unmetered buckets, see [`BackendIo`]).
    pub fn backend_io(&self) -> BackendIo {
        self.lock().backend.io()
    }

    /// Number of allocated pages (the data size on disk, in pages); a
    /// kept count, not a scan of the page table.
    pub fn num_pages(&self) -> usize {
        self.lock().allocated_count
    }

    /// A handle to the shared statistics counters.
    pub fn stats(&self) -> IoStats {
        self.stats.clone()
    }

    /// Number of pages currently holding a decoded payload (buffer members
    /// plus pinned pages).
    pub fn resident_pages(&self) -> usize {
        self.lock().resident_count
    }

    /// High-water mark of [`PageStore::resident_pages`] — with the mirror
    /// gone this is bounded by `buffer capacity + peak pinned`, not by the
    /// dataset.
    pub fn peak_resident_pages(&self) -> usize {
        self.lock().peak_resident
    }

    /// Number of distinct pages currently pinned by [`PageRef`] guards.
    pub fn pinned_pages(&self) -> usize {
        self.lock().pinned_count
    }

    /// High-water mark of [`PageStore::pinned_pages`].
    pub fn peak_pinned_pages(&self) -> usize {
        self.lock().peak_pinned
    }

    /// Restarts the residency high-water marks from the current state, so a
    /// measurement phase tracks its own peaks rather than construction's.
    pub fn reset_residency_peaks(&mut self) {
        let mut inner = self.lock();
        inner.peak_resident = inner.resident_count;
        inner.peak_pinned = inner.pinned_count;
    }

    /// Allocates a new page containing `payload` and returns its id.
    ///
    /// Allocation counts as a logical write; the physical write happens when
    /// the page is evicted from the buffer (write-back) or on
    /// [`PageStore::flush`].
    ///
    /// # Panics
    ///
    /// Panics with a [`FrameOverflow`](crate::FrameOverflow) message if the
    /// payload's encoding does not fit one page.
    pub fn allocate(&mut self, payload: T) -> PageId {
        let inner = &mut *self.lock();
        inner.check_fits(&payload);
        let index = inner.backend.allocate();
        debug_assert_eq!(
            index as usize,
            inner.allocated.len(),
            "backend frame index drifted from the page table"
        );
        inner.allocated.push(true);
        inner.allocated_count += 1;
        inner.resident.push(None);
        inner.pins.push(0);
        let id = PageId(index);
        inner.stats.record_logical_write();
        let key = id.as_key();
        inner.set_resident(key, Arc::new(payload));
        inner.admit_dirty(key);
        inner.release_if_unreferenced(key);
        inner.note_peak();
        id
    }

    /// Reads the payload of a page, going through the buffer. A miss
    /// transfers the frame from the backend ([`IoClass::Metered`]) and
    /// decodes it; a hit is served from the resident payload.
    ///
    /// Transient backend faults are retried under the store's
    /// [`RetryPolicy`]; exhausted transients, persistent failures and
    /// checksum mismatches come back as a structured [`PageIoError`].
    /// Corrupt frames are quarantined — later reads fail fast without
    /// re-transferring known-bad bytes.
    ///
    /// # Panics
    ///
    /// Panics if the page does not exist — that is a logic error in the
    /// caller (dangling `PageId`), not a runtime condition to handle.
    pub fn try_read(&mut self, id: PageId) -> Result<T, PageIoError> {
        let arc = self.lock().try_read_arc(id)?;
        Ok(Arc::try_unwrap(arc).unwrap_or_else(|arc| (*arc).clone()))
    }

    /// Reads a page by reference, going through the buffer with accounting
    /// identical to [`PageStore::try_read`] — but serving the visitor
    /// without cloning the payload.
    ///
    /// On a miss the frame is physically transferred from the backend and
    /// decoded (so [`PageStore::backend_io`] byte counters match `try_read`
    /// exactly). This is the zero-copy decode path behind arena-based node
    /// visits in `cij-rtree`: pages land straight in the caller's flat
    /// buffers with no intermediate payload allocation. The callback runs
    /// *outside* the store's internal lock (the payload is kept alive by an
    /// `Arc`), so it may call back into this or any other store; on `Err`
    /// (error contract of [`PageStore::try_read`]) it never ran.
    ///
    /// # Panics
    ///
    /// Panics if the page does not exist, like [`PageStore::try_read`].
    pub fn try_read_with<R>(
        &mut self,
        id: PageId,
        f: impl FnOnce(&T) -> R,
    ) -> Result<R, PageIoError> {
        let arc = self.lock().try_read_arc(id)?;
        Ok(f(&arc))
    }

    /// Accounts for a logical read of the page `page` pins **without**
    /// reading it: the buffer is touched and the hit or miss recorded
    /// exactly as [`PageStore::try_read`] would, and a miss admits the
    /// payload the guard already holds — no backend transfer, checksum or
    /// decode, so nothing here can fail. Buffer state and [`IoStats`] end
    /// as a counted read leaves them; backend bytes move only where the
    /// page was actually read, at its peek.
    ///
    /// This is the deferred-accounting hook of the chunked NM-CIJ and
    /// multiway paths: workers read through pinned snapshots
    /// ([`PageStore::try_peek`]) and keep each guard in their log; the
    /// coordinator replays each log here in sequential leaf order (through
    /// `RTree::replay_read` in `cij-rtree`, a thin wrapper over this method
    /// — this doc is the authoritative one), then drops the guards.
    ///
    /// # Panics
    ///
    /// Panics if `page` is a guard of another store, or of a page freed
    /// since its peek: both are trace drift, a logic error, not I/O.
    pub fn note_read(&mut self, page: &PageRef<T>) {
        let inner = &mut *self.lock();
        let ours = Arc::ptr_eq(&self.inner, &page.store) && inner.is_allocated(page.id());
        assert!(ours, "replay of a page this store does not hold");
        inner.touch_counted(page.key);
    }

    /// Reads a page **without** touching the buffer recency, the metered
    /// counters or the [`IoStats`] — returning a [`PageRef`] guard that
    /// pins the page for its lifetime: its decoded payload stays resident
    /// until the last guard drops, whatever the buffer evicts meanwhile.
    ///
    /// A resident page (buffer member or already pinned) is served from its
    /// decoded payload with zero I/O. A cold page is decoded through the
    /// backend as an [`IoClass::Unmetered`] transfer and held in the
    /// resident table — not admitted to the buffer — until the last guard
    /// drops. Either way the measured buffer state is left byte-identical,
    /// which is what the snapshot readers of the parallel and fast
    /// execution paths rely on. Error contract of [`PageStore::try_read`].
    ///
    /// # Panics
    ///
    /// Panics if the page does not exist, like [`PageStore::try_read`].
    pub fn try_peek(&self, id: PageId) -> Result<PageRef<T>, PageIoError> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        assert!(inner.is_allocated(id), "peek of unallocated page");
        let key = id.as_key();
        let payload = match inner.resident(key) {
            Some(arc) => Arc::clone(arc),
            None => {
                inner.read_frame_retrying(id.0, IoClass::Unmetered)?;
                inner.verify_or_quarantine(id.0)?;
                let arc = Arc::new(T::decode(&inner.frame));
                inner.set_resident(key, Arc::clone(&arc));
                arc
            }
        };
        inner.pin(key);
        inner.note_peak();
        drop(guard);
        Ok(PageRef {
            store: Arc::clone(&self.inner),
            key,
            payload,
        })
    }

    /// Frees a page: it no longer counts towards [`PageStore::num_pages`],
    /// is dropped from the buffer without write-back accounting, and its
    /// backend frame is released.
    ///
    /// Used by the R-tree bulk loader to discard the placeholder root of an
    /// initially-empty tree once the packed root replaces it. Freed page ids
    /// are not recycled. Outstanding [`PageRef`] guards stay valid (they
    /// own their payload).
    pub fn free(&mut self, id: PageId) {
        let inner = &mut *self.lock();
        if inner.is_allocated(id) {
            inner.allocated[id.0 as usize] = false;
            inner.allocated_count -= 1;
            inner.buffer.remove(id.as_key());
            inner.drop_resident(id.as_key());
            inner.backend.free(id.0);
        }
    }

    /// Writes back every dirty buffered page (metered, like eviction
    /// write-backs — the counting contract in the
    /// [backend docs](crate::backend)), empties the buffer and flushes the
    /// backend.
    pub fn flush(&mut self) {
        let inner = &mut *self.lock();
        for (key, dirty) in inner.buffer.clear() {
            if dirty {
                inner.write_back(key, IoClass::Metered);
                inner.stats.record_physical_write();
            }
            inner.release_if_unreferenced(key);
        }
        // A failed durability flush is service-fatal by the failure model:
        // nothing above the store can make the medium sync.
        if let Err(e) = inner.backend.flush() {
            panic!("{e}");
        }
    }

    /// Empties the buffer *without* metering write-backs. Useful to make
    /// separate measurements start cold without attributing the previous
    /// phase's dirty pages to the next one.
    ///
    /// The dirty frames are still physically written (data must survive on a
    /// real backend — a later cold read serves them from storage), but as
    /// [`IoClass::Unmetered`] traffic: the [`IoStats`] and the metered byte
    /// counters stay put, by design of the measurement convention.
    pub fn drop_buffer(&mut self) {
        let inner = &mut *self.lock();
        for (key, dirty) in inner.buffer.clear() {
            if dirty {
                inner.write_back(key, IoClass::Unmetered);
            }
            inner.release_if_unreferenced(key);
        }
    }

    /// Resizes the buffer to `pages` pages, accounting for the write-back of
    /// any dirty pages that get evicted by a shrink. (Growing keeps all
    /// resident pages; [`LruBuffer::resize`] handles both directions.)
    pub fn set_buffer_pages(&mut self, pages: usize) {
        let inner = &mut *self.lock();
        for (key, dirty) in inner.buffer.resize(pages) {
            if dirty {
                inner.write_back(key, IoClass::Metered);
                inner.stats.record_physical_write();
            }
            inner.release_if_unreferenced(key);
        }
    }

    /// Sets the buffer capacity to `fraction` of the current data size on
    /// disk (in pages), the way the paper expresses buffer sizes ("2 % of the
    /// data size"). At least one page is kept whenever `fraction > 0` — even
    /// when the store is so small that the fraction rounds to zero pages.
    pub fn set_buffer_fraction(&mut self, fraction: f64) {
        let pages = if fraction <= 0.0 {
            0
        } else {
            ((self.num_pages() as f64 * fraction).ceil() as usize).max(1)
        };
        self.set_buffer_pages(pages);
    }

    /// Current buffer capacity in pages.
    pub fn buffer_pages(&self) -> usize {
        self.lock().buffer.capacity()
    }

    /// Fault and recovery counters: the backend's injection tallies (zero
    /// for real backends) combined with the store's retry, recovery and
    /// quarantine counts.
    pub fn fault_stats(&self) -> FaultStats {
        let inner = self.lock();
        let mut stats = inner.backend.fault_stats();
        stats.retries = inner.fault_retries;
        stats.recoveries = inner.fault_recoveries;
        stats.write_retries = inner.fault_write_retries;
        stats.quarantined_frames = inner.quarantined.len() as u64;
        stats
    }

    /// Wraps the current backend in a [`FaultBackend`] running `profile`,
    /// its attempts counted from this call — how fault tests arm an
    /// already-built store. Existing frames and byte counters carry over.
    pub fn inject_fault(&mut self, profile: FaultProfile) {
        let inner = &mut *self.lock();
        let placeholder: Box<dyn PageBackend> = Box::new(crate::HeapBackend::new(1));
        let current = std::mem::replace(&mut inner.backend, placeholder);
        inner.backend = Box::new(FaultBackend::new(current, profile));
    }

    /// Replaces the retry policy (default: 4 attempts).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.lock().retry = RetryPolicy {
            max_attempts: policy.max_attempts.max(1),
        };
    }

    /// Frame indices currently quarantined after checksum failures, in
    /// ascending order.
    pub fn quarantined_frames(&self) -> Vec<u32> {
        self.lock().quarantined.iter().copied().collect()
    }

    /// Pages currently admitted to the LRU buffer, most recently used
    /// first — the buffer state that accounting-parity tests compare
    /// between two read paths. Observes only; no recency changes.
    pub fn buffered_pages_mru_to_lru(&self) -> Vec<PageId> {
        let keys = self.lock().buffer.keys_mru_to_lru();
        keys.into_iter().map(|key| PageId(key as u32)).collect()
    }
}

impl<T: PagePayload> StoreInner<T> {
    fn is_allocated(&self, id: PageId) -> bool {
        self.allocated.get(id.0 as usize).copied().unwrap_or(false)
    }

    fn check_fits(&self, payload: &T) {
        // The payload budget excludes the integrity trailer sealed into the
        // tail of every frame.
        let budget = self.frame.len().saturating_sub(FRAME_TRAILER_BYTES);
        if let Err(overflow) = payload.check_frame(budget) {
            panic!("{overflow}");
        }
    }

    /// The decoded payload of page `key`, if it is resident.
    fn resident(&self, key: u64) -> Option<&Arc<T>> {
        self.resident.get(key as usize)?.as_ref()
    }

    /// Makes `payload` the resident image of the allocated page `key`.
    fn set_resident(&mut self, key: u64, payload: Arc<T>) {
        let slot = &mut self.resident[key as usize];
        self.resident_count += usize::from(slot.is_none());
        *slot = Some(payload);
    }

    fn drop_resident(&mut self, key: u64) {
        if self.resident[key as usize].take().is_some() {
            self.resident_count -= 1;
        }
    }

    fn note_peak(&mut self) {
        self.peak_resident = self.peak_resident.max(self.resident_count);
    }

    fn pin(&mut self, key: u64) {
        let count = &mut self.pins[key as usize];
        self.pinned_count += usize::from(*count == 0);
        *count += 1;
        self.peak_pinned = self.peak_pinned.max(self.pinned_count);
    }

    /// Drops one pin of `key`; `true` when that was the last one. Only a
    /// guard's drop unpins, and every guard pinned once.
    fn unpin(&mut self, key: u64) -> bool {
        let count = &mut self.pins[key as usize];
        *count -= 1;
        self.pinned_count -= usize::from(*count == 0);
        *count == 0
    }

    /// Transfers frame `index` into the scratch buffer, retrying transient
    /// faults under the bounded [`RetryPolicy`]. Quarantined frames fail
    /// fast with a `Corrupt` error before touching the backend.
    ///
    /// This is the one sanctioned read-side `IoClass` funnel (allowlisted
    /// `CIJ-I301` in `lint.toml`, like `write_back` on the write side).
    fn read_frame_retrying(&mut self, index: u32, class: IoClass) -> Result<(), PageIoError> {
        if self.quarantined.contains(&index) {
            return Err(PageIoError::corrupt(
                IoOp::Read,
                Some(index),
                "frame quarantined after an earlier checksum failure",
            ));
        }
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.backend.read(index, &mut self.frame, class) {
                Ok(()) => {
                    if attempt > 1 {
                        self.fault_recoveries += 1;
                    }
                    return Ok(());
                }
                Err(e) if e.is_transient() && attempt < self.retry.max_attempts => {
                    self.fault_retries += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Checks the integrity trailer of the scratch frame just transferred
    /// for `index`; on mismatch the frame is quarantined and a `Corrupt`
    /// error returned.
    fn verify_or_quarantine(&mut self, index: u32) -> Result<(), PageIoError> {
        match verify_frame(&self.frame) {
            Ok(_payload_len) => Ok(()),
            Err(detail) => {
                self.quarantined.insert(index);
                Err(PageIoError::corrupt(IoOp::Read, Some(index), detail))
            }
        }
    }

    /// The shared counted-read path of `try_read` and `try_read_with`:
    /// touch the buffer, record hit/miss, transfer + verify + decode on
    /// miss, keep the residency invariant (resident = members ∪ pinned).
    ///
    /// A failed transfer still counts its miss (the attempt is real I/O
    /// pressure), but the page is backed out of the buffer so a later retry
    /// starts from a consistent state.
    fn try_read_arc(&mut self, id: PageId) -> Result<Arc<T>, PageIoError> {
        assert!(self.is_allocated(id), "read of unallocated page");
        let key = id.as_key();
        if self.touch_counted(key) {
            let payload = self
                .resident(key)
                .expect("buffer member without a decoded payload");
            return Ok(Arc::clone(payload));
        }
        let outcome = self.read_frame_retrying(id.0, IoClass::Metered);
        if let Err(e) = outcome.and_then(|()| self.verify_or_quarantine(id.0)) {
            // Back the admission out: a buffer member must always carry a
            // decoded payload.
            self.buffer.remove(key);
            self.release_if_unreferenced(key);
            return Err(e);
        }
        let payload = Arc::new(T::decode(&self.frame));
        if self.buffer.slot_of(key).is_some() {
            self.set_resident(key, Arc::clone(&payload));
        }
        self.note_peak();
        Ok(payload)
    }

    /// The buffer side of a counted read of `key`, shared by the read paths
    /// and [`PageStore::note_read`]: touch the buffer, record the hit or
    /// miss, write back and release what the admission evicted. `true` on a
    /// hit. On a miss the page may now be a member without a payload: the
    /// caller makes it resident.
    fn touch_counted(&mut self, key: u64) -> bool {
        let Admission::Miss { evicted } = self.buffer.touch(key, false) else {
            self.stats.record_hit();
            return true;
        };
        self.stats.record_miss();
        self.handle_eviction(evicted);
        false
    }

    /// Admits `key` as dirty, handling whatever the admission evicted
    /// (including `key` itself in the capacity-0 self-eviction case).
    fn admit_dirty(&mut self, key: u64) {
        match self.buffer.touch(key, true) {
            Admission::Hit => {}
            Admission::Miss { evicted } => self.handle_eviction(evicted),
        }
    }

    /// Write-back (metered) + residency release of an evicted page.
    fn handle_eviction(&mut self, evicted: Option<(u64, bool)>) {
        if let Some((key, dirty)) = evicted {
            if dirty {
                self.write_back(key, IoClass::Metered);
                self.stats.record_physical_write();
            }
            self.release_if_unreferenced(key);
        }
    }

    /// Drops the resident payload of `key` unless the buffer or a pin still
    /// references it — the single place the residency invariant
    /// (resident = members ∪ pinned) is enforced on the release side.
    fn release_if_unreferenced(&mut self, key: u64) {
        if self.buffer.slot_of(key).is_none() && self.pins[key as usize] == 0 {
            self.drop_resident(key);
        }
    }

    /// Encodes the resident payload of a page into a zero-padded frame,
    /// seals the integrity trailer, and writes it to the backend under
    /// `class` — retrying transient faults under the [`RetryPolicy`].
    /// Reuses the scratch frame across calls — no allocation on the
    /// eviction path.
    ///
    /// Exhausted or persistent write failures panic: write-backs happen
    /// during build, eviction and flush, where losing a frame is
    /// service-fatal by the crate's failure model (queries only read).
    ///
    /// This is the one sanctioned write-side `IoClass`-forwarding funnel
    /// (allowlisted `CIJ-I301` in `lint.toml`): every *caller* must pass a
    /// literal class, which the lint enforces at those call sites.
    fn write_back(&mut self, key: u64, class: IoClass) {
        let page_size = self.frame.len();
        let mut frame = std::mem::take(&mut self.frame);
        frame.clear();
        self.resident(key)
            .expect("write-back of a page with no decoded payload")
            .encode_into(&mut frame);
        let payload_len = frame.len();
        frame.resize(page_size, 0); // zero padding up to the page size
        seal_frame(&mut frame, payload_len);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.backend.write(key as u32, &frame, class) {
                Ok(()) => break,
                Err(e) if e.is_transient() && attempt < self.retry.max_attempts => {
                    self.fault_write_retries += 1;
                }
                Err(e) => panic!("write-back of frame {key} failed: {e}"),
            }
        }
        self.frame = frame;
    }
}

/// A pinned reference to a page's decoded payload, returned by
/// [`PageStore::try_peek`].
///
/// Dereferences to the payload. While any guard for a page is alive the
/// page is pinned: the store keeps its decoded payload resident, whether or
/// not the LRU buffer keeps the page (a pin is no eviction exemption).
/// Dropping the last guard unpins the page and — if it is not also a buffer
/// member — releases the payload. A guard is also the receipt of a read
/// whose accounting is deferred: [`PageStore::note_read`] replays it.
#[derive(Debug)]
pub struct PageRef<T: PagePayload> {
    store: Arc<Mutex<StoreInner<T>>>,
    key: u64,
    payload: Arc<T>,
}

impl<T: PagePayload> PageRef<T> {
    /// The page this guard pins.
    pub fn id(&self) -> PageId {
        PageId(self.key as u32)
    }
}

impl<T: PagePayload> Deref for PageRef<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.payload
    }
}

impl<T: PagePayload> Drop for PageRef<T> {
    fn drop(&mut self) {
        let mut inner = self.store.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.unpin(self.key) {
            inner.release_if_unreferenced(self.key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(buffer_pages: usize) -> PageStore<u32> {
        store_on(buffer_pages, StorageBackend::Heap)
    }

    fn store_on(buffer_pages: usize, backend: StorageBackend) -> PageStore<u32> {
        let mut store = PageStore::new(PageStoreConfig::default().with_backend(backend));
        store.set_buffer_pages(buffer_pages);
        store
    }

    #[test]
    fn allocate_and_read_roundtrip() {
        for backend in StorageBackend::ALL {
            let mut s = store_on(4, backend);
            let a = s.allocate(10);
            let b = s.allocate(20);
            assert_eq!(s.try_read(a).unwrap(), 10);
            assert_eq!(s.try_read(b).unwrap(), 20);
            assert_eq!(s.num_pages(), 2);
            assert_eq!(s.backend_kind(), backend);
        }
    }

    #[test]
    fn buffered_reads_hit_after_first_access() {
        for backend in StorageBackend::ALL {
            let mut s = store_on(4, backend);
            let a = s.allocate(1);
            s.drop_buffer();
            s.stats().reset();
            s.try_read(a).unwrap();
            s.try_read(a).unwrap();
            s.try_read(a).unwrap();
            let snap = s.stats().snapshot();
            assert_eq!(snap.physical_reads, 1);
            assert_eq!(snap.buffer_hits, 2);
        }
    }

    #[test]
    fn unbuffered_store_counts_every_read() {
        for backend in StorageBackend::ALL {
            let mut s = store_on(0, backend);
            let a = s.allocate(1);
            s.stats().reset();
            for _ in 0..5 {
                assert_eq!(s.try_read(a).unwrap(), 1);
            }
            assert_eq!(s.stats().snapshot().physical_reads, 5);
        }
    }

    #[test]
    fn write_back_counts_on_eviction() {
        for backend in StorageBackend::ALL {
            let mut s = store_on(1, backend);
            let a = s.allocate(1); // dirty in buffer
            let _b = s.allocate(2); // evicts a (dirty) -> physical write
            let snap = s.stats().snapshot();
            assert_eq!(snap.physical_writes, 1);
            assert_eq!(snap.logical_writes, 2);
            // Reading a again is a miss served from the backend frame.
            s.stats().reset();
            assert_eq!(s.try_read(a).unwrap(), 1);
            assert_eq!(s.stats().snapshot().physical_reads, 1);
        }
    }

    #[test]
    fn flush_writes_dirty_pages_once() {
        for backend in StorageBackend::ALL {
            let mut s = store_on(10, backend);
            for i in 0..5 {
                s.allocate(i);
            }
            s.flush();
            let snap = s.stats().snapshot();
            assert_eq!(snap.physical_writes, 5);
            // A second flush has nothing left to write.
            s.flush();
            assert_eq!(s.stats().snapshot().physical_writes, 5);
        }
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn reading_unallocated_page_panics() {
        let mut s = store(2);
        let a = s.allocate(1);
        let _ = s.try_read(PageId(a.0 + 7)).unwrap();
    }

    #[test]
    fn note_read_replays_exactly_like_read_and_reads_nothing() {
        // Two stores with identical contents: peeking a trace, then
        // replaying its guards via note_read while they are still pinned,
        // must leave counters, buffer state and write-backs identical to
        // performing the reads directly — and transfer no metered byte: a
        // replayed miss admits the pinned payload.
        for backend in StorageBackend::ALL {
            let mut live = store_on(2, backend);
            let mut replay = store_on(2, backend);
            let ids: Vec<PageId> = (0..4).map(|i| live.allocate(i)).collect();
            for i in 0..4 {
                replay.allocate(i);
            }
            live.stats().reset();
            replay.stats().reset();
            let trace = [ids[0], ids[1], ids[0], ids[2], ids[3], ids[1], ids[0]];
            for &id in &trace {
                let _ = live.try_read(id).unwrap();
            }
            let guards: Vec<PageRef<u32>> = trace
                .iter()
                .map(|&id| replay.try_peek(id).unwrap())
                .collect();
            let peeked = replay.backend_io();
            for guard in &guards {
                replay.note_read(guard);
            }
            assert_eq!(live.stats().snapshot(), replay.stats().snapshot());
            assert_eq!(
                live.buffered_pages_mru_to_lru(),
                replay.buffered_pages_mru_to_lru()
            );
            let (a, b) = (live.backend_io(), replay.backend_io());
            assert_eq!(a.bytes_written, b.bytes_written, "{backend}: write-backs");
            assert_eq!(b.bytes_read, 0, "{backend}: the replay read nothing");
            assert_eq!(b.unmetered_bytes_read, peeked.unmetered_bytes_read);
            drop(guards);
            assert_eq!(replay.resident_pages(), 2, "{backend}: only the members");
        }
    }

    #[test]
    fn a_pinned_member_is_evicted_like_any_other_and_keeps_its_payload() {
        for backend in StorageBackend::ALL {
            let mut s = store_on(2, backend);
            let ids: Vec<PageId> = (0..3u32).map(|i| s.allocate(i + 40)).collect();
            s.flush();
            let _ = s.try_read(ids[0]).unwrap();
            let guard = s.try_peek(ids[0]).unwrap();
            let _ = s.try_read(ids[1]).unwrap();
            let _ = s.try_read(ids[2]).unwrap();
            // The pin is no exemption: the LRU member went.
            assert_eq!(s.buffered_pages_mru_to_lru(), [ids[2], ids[1]]);
            assert_eq!((*guard, s.resident_pages()), (40, 3), "{backend}");
            drop(guard);
            assert_eq!(
                s.resident_pages(),
                2,
                "{backend}: released on the last drop"
            );
        }
    }

    #[test]
    fn read_with_accounts_exactly_like_read() {
        // Same trace through read on one store and read_with on another:
        // payloads, counters, buffer state and backend bytes must match.
        for backend in StorageBackend::ALL {
            let mut by_value = store_on(2, backend);
            let mut by_ref = store_on(2, backend);
            let ids: Vec<PageId> = (0..4).map(|i| by_value.allocate(i * 3)).collect();
            for i in 0..4 {
                by_ref.allocate(i * 3);
            }
            by_value.stats().reset();
            by_ref.stats().reset();
            let trace = [ids[0], ids[1], ids[0], ids[2], ids[3], ids[1], ids[0]];
            for &id in &trace {
                let expected = by_value.try_read(id).unwrap();
                let got = by_ref.try_read_with(id, |v| *v).unwrap();
                assert_eq!(got, expected);
            }
            assert_eq!(by_value.stats().snapshot(), by_ref.stats().snapshot());
            assert_eq!(
                by_value.buffered_pages_mru_to_lru(),
                by_ref.buffered_pages_mru_to_lru()
            );
            assert_eq!(by_value.backend_io(), by_ref.backend_io());
        }
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn note_read_of_unallocated_page_panics() {
        let mut s = store(2);
        let a = s.allocate(1);
        let guard = s.try_peek(a).unwrap();
        s.free(a);
        s.note_read(&guard);
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn note_read_of_another_stores_page_panics() {
        let (mut s, mut other) = (store(2), store(2));
        s.allocate(1);
        let page = other.allocate(1);
        let guard = other.try_peek(page).unwrap();
        s.note_read(&guard);
    }

    #[test]
    fn free_removes_page_from_count_and_buffer() {
        for backend in StorageBackend::ALL {
            let mut s = store_on(4, backend);
            let a = s.allocate(1);
            let b = s.allocate(2);
            assert_eq!(s.num_pages(), 2);
            s.free(a);
            assert_eq!(s.num_pages(), 1);
            // The freed (dirty) page is not written back on flush.
            s.flush();
            assert_eq!(s.stats().snapshot().physical_writes, 1);
            assert_eq!(s.try_read(b).unwrap(), 2);
        }
    }

    #[test]
    fn buffer_fraction_sizing() {
        let mut s = store(0);
        for i in 0..100 {
            s.allocate(i);
        }
        s.set_buffer_fraction(0.02);
        assert_eq!(s.buffer_pages(), 2);
        s.set_buffer_fraction(0.005);
        assert_eq!(s.buffer_pages(), 1);
        s.set_buffer_fraction(0.0);
        assert_eq!(s.buffer_pages(), 0);
    }

    #[test]
    fn zero_fraction_disables_the_buffer_entirely() {
        let mut s = store(8);
        let a = s.allocate(7);
        s.set_buffer_fraction(0.0);
        assert_eq!(s.buffer_pages(), 0);
        s.stats().reset();
        s.try_read(a).unwrap();
        s.try_read(a).unwrap();
        // Every read is a miss once the buffer is gone.
        assert_eq!(s.stats().snapshot().physical_reads, 2);
        assert_eq!(s.stats().snapshot().buffer_hits, 0);
    }

    #[test]
    fn tiny_store_fractions_round_up_to_one_page() {
        // On stores so small that fraction * pages rounds to zero, a
        // positive fraction must still keep one buffer page.
        let mut s = store(0);
        s.allocate(1);
        s.set_buffer_fraction(0.001);
        assert_eq!(s.buffer_pages(), 1);
        // Even an empty store gets the one-page floor for fraction > 0 —
        // the buffer exists before data does.
        let mut empty = store(0);
        empty.set_buffer_fraction(0.5);
        assert_eq!(empty.buffer_pages(), 1);
    }

    #[test]
    fn refraction_after_growth_tracks_the_new_data_size() {
        for backend in StorageBackend::ALL {
            let mut s = store_on(0, backend);
            for i in 0..50 {
                s.allocate(i);
            }
            s.set_buffer_fraction(0.1);
            assert_eq!(s.buffer_pages(), 5);
            // Re-apply the fraction after the store grew: capacity follows
            // the new num_pages.
            for i in 50..150 {
                s.allocate(i);
            }
            s.set_buffer_fraction(0.1);
            assert_eq!(s.buffer_pages(), 15);
            // Fill the buffer with dirty pages (fresh allocations), then
            // shrink: the evicted dirty pages must be written back and
            // accounted.
            for i in 150..165 {
                s.allocate(i);
            }
            s.stats().reset();
            s.set_buffer_fraction(0.018); // ceil(165 * 0.018) = 3 pages, shrink by 12
            assert_eq!(s.buffer_pages(), 3);
            assert_eq!(
                s.stats().snapshot().physical_writes,
                12,
                "shrink must write back exactly the evicted dirty pages"
            );
            // Data survives the churn.
            assert_eq!(s.try_read(PageId(0)).unwrap(), 0);
            assert_eq!(s.try_read(PageId(149)).unwrap(), 149);
        }
    }

    #[test]
    fn shared_stats_between_stores() {
        let stats = IoStats::new();
        let mut p: PageStore<u32> =
            PageStore::with_stats(PageStoreConfig::default(), stats.clone());
        let mut q: PageStore<u32> =
            PageStore::with_stats(PageStoreConfig::default(), stats.clone());
        let a = p.allocate(1);
        let b = q.allocate(2);
        p.try_read(a).unwrap();
        q.try_read(b).unwrap();
        assert_eq!(stats.snapshot().physical_reads, 2);
    }

    #[test]
    fn grow_buffer_preserves_cached_pages() {
        let mut s = store(2);
        let a = s.allocate(1);
        let b = s.allocate(2);
        s.set_buffer_pages(8);
        s.stats().reset();
        s.try_read(a).unwrap();
        s.try_read(b).unwrap();
        // Both pages were resident before the grow and must still hit.
        assert_eq!(s.stats().snapshot().buffer_hits, 2);
    }

    #[test]
    #[should_panic(expected = "page frame overflow")]
    fn oversized_payload_is_rejected_at_allocate() {
        // A u32 needs 4 bytes; a 3-byte page cannot hold it.
        let mut s: PageStore<u32> = PageStore::new(PageStoreConfig::default().with_page_size(3));
        s.allocate(1);
    }

    #[test]
    fn heap_and_file_stores_behave_identically() {
        // One interleaved workload, both backends: every counter, the buffer
        // state and every payload must match — the parity guarantee at the
        // store level.
        let mut heap = store_on(3, StorageBackend::Heap);
        let mut file = store_on(3, StorageBackend::File);
        for s in [&mut heap, &mut file] {
            let mut ids: Vec<PageId> = (0..8u32).map(|i| s.allocate(i * 11)).collect();
            for &id in &[ids[0], ids[5], ids[2], ids[7], ids[0], ids[2]] {
                let _ = s.try_read(id).unwrap();
            }
            // A late allocation dirties a page amid the clean reads.
            ids.push(s.allocate(999));
            s.free(ids[3]);
            s.set_buffer_pages(2);
            for &id in &[ids[6], ids[1], ids[6]] {
                let _ = s.try_read(id).unwrap();
            }
            s.flush();
        }
        assert_eq!(heap.stats().snapshot(), file.stats().snapshot());
        assert_eq!(
            heap.buffered_pages_mru_to_lru(),
            file.buffered_pages_mru_to_lru()
        );
        assert_eq!(heap.num_pages(), file.num_pages());
        assert_eq!(heap.backend_io(), file.backend_io());
        for i in 0..9u32 {
            if i == 3 {
                continue;
            }
            assert_eq!(
                heap.try_read(PageId(i)).unwrap(),
                file.try_read(PageId(i)).unwrap(),
                "page {i}"
            );
        }
    }

    #[test]
    fn file_store_serves_data_from_disk_after_cold_restart_of_the_buffer() {
        let mut s = store_on(4, StorageBackend::File);
        let ids: Vec<PageId> = (0..20u32).map(|i| s.allocate(i * 7 + 1)).collect();
        s.flush();
        let io_flushed = s.backend_io();
        assert_eq!(io_flushed.bytes_written as usize, 20 * s.page_size());
        s.drop_buffer();
        s.stats().reset();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(s.try_read(id).unwrap(), i as u32 * 7 + 1);
        }
        let snap = s.stats().snapshot();
        let io = s.backend_io().since(&io_flushed);
        assert_eq!(
            io.bytes_read,
            snap.physical_reads * s.page_size() as u64,
            "bytes actually read must equal counted physical reads × page size"
        );
    }

    #[test]
    fn metered_byte_contract_holds_for_every_backend() {
        // Both halves of the counting contract, both backends: after a
        // mixed workload with evictions, flushes and drop_buffer resets,
        // bytes_read == physical_reads × page_size and bytes_written ==
        // physical_writes × page_size.
        for backend in StorageBackend::ALL {
            let mut s = store_on(3, backend);
            let ids: Vec<PageId> = (0..12u32).map(|i| s.allocate(i)).collect();
            s.flush();
            s.drop_buffer(); // unmetered write-backs (nothing dirty here)
            s.stats().reset();
            let before = s.backend_io();
            for &id in &[ids[0], ids[4], ids[0], ids[9], ids[2], ids[4]] {
                let _ = s.try_read(id).unwrap();
            }
            s.allocate(777); // dirty in buffer
            s.set_buffer_pages(1); // shrink: evicts, one dirty write-back
            s.flush();
            let snap = s.stats().snapshot();
            let io = s.backend_io().since(&before);
            let ps = s.page_size() as u64;
            assert_eq!(io.bytes_read, snap.physical_reads * ps, "{backend}: reads");
            assert_eq!(
                io.bytes_written,
                snap.physical_writes * ps,
                "{backend}: writes"
            );
        }
    }

    #[test]
    fn drop_buffer_write_backs_are_unmetered_but_real() {
        for backend in StorageBackend::ALL {
            let mut s = store_on(4, backend);
            let a = s.allocate(31); // dirty, never flushed
            let before = s.backend_io();
            s.stats().reset();
            s.drop_buffer();
            let io = s.backend_io().since(&before);
            // The frame moved — as unmetered traffic.
            assert_eq!(io.bytes_written, 0, "{backend}: metered bucket untouched");
            assert_eq!(
                io.unmetered_bytes_written,
                s.page_size() as u64,
                "{backend}: the dirty frame was really written"
            );
            assert_eq!(s.stats().snapshot().physical_writes, 0);
            // And the data survives the cold restart.
            assert_eq!(s.try_read(a).unwrap(), 31);
        }
    }

    #[test]
    fn peek_pins_and_survives_eviction_pressure() {
        for backend in StorageBackend::ALL {
            let mut s = store_on(2, backend);
            let ids: Vec<PageId> = (0..6u32).map(|i| s.allocate(i * 5)).collect();
            s.flush();
            let guard = s.try_peek(ids[0]).unwrap();
            assert_eq!(*guard, 0);
            assert_eq!(s.pinned_pages(), 1);
            // Thrash the buffer: the pinned page must keep its payload
            // throughout.
            for round in 0..3 {
                for &id in &ids[1..] {
                    let _ = s.try_read(id).unwrap();
                }
                assert_eq!(*guard, 0, "round {round}");
            }
            drop(guard);
            assert_eq!(s.pinned_pages(), 0);
            // With the last guard gone and the page not a member, its
            // payload is released.
            assert!(s.resident_pages() <= s.buffer_pages());
        }
    }

    #[test]
    fn peek_does_not_touch_metered_state() {
        for backend in StorageBackend::ALL {
            let mut s = store_on(2, backend);
            let ids: Vec<PageId> = (0..5u32).map(|i| s.allocate(i + 100)).collect();
            s.flush();
            s.drop_buffer();
            s.stats().reset();
            let _ = s.try_read(ids[0]).unwrap();
            let _ = s.try_read(ids[1]).unwrap();
            let counters = s.stats().snapshot();
            let buffer = s.buffered_pages_mru_to_lru();
            let metered = (s.backend_io().bytes_read, s.backend_io().bytes_written);
            // Peek resident and cold pages alike: nothing measured moves.
            {
                let g0 = s.try_peek(ids[0]).unwrap(); // buffer member
                let g4 = s.try_peek(ids[4]).unwrap(); // cold page -> unmetered decode
                assert_eq!((*g0, *g4), (100, 104));
            }
            assert_eq!(s.stats().snapshot(), counters);
            assert_eq!(s.buffered_pages_mru_to_lru(), buffer);
            assert_eq!(
                (s.backend_io().bytes_read, s.backend_io().bytes_written),
                metered
            );
            // The cold peek transferred real (unmetered) bytes.
            assert_eq!(s.backend_io().unmetered_bytes_read, s.page_size() as u64);
        }
    }

    #[test]
    fn residency_is_bounded_by_buffer_plus_pins_not_by_the_dataset() {
        for backend in StorageBackend::ALL {
            let mut s = store_on(4, backend);
            let ids: Vec<PageId> = (0..64u32).map(|i| s.allocate(i)).collect();
            s.flush();
            // Hold a few pins while scanning everything repeatedly.
            let guards: Vec<PageRef<u32>> =
                ids[..3].iter().map(|&id| s.try_peek(id).unwrap()).collect();
            for _ in 0..2 {
                for &id in &ids {
                    let _ = s.try_read(id).unwrap();
                }
            }
            assert!(
                s.peak_resident_pages() <= s.buffer_pages() + s.peak_pinned_pages(),
                "{backend}: peak resident {} > buffer {} + peak pinned {}",
                s.peak_resident_pages(),
                s.buffer_pages(),
                s.peak_pinned_pages()
            );
            assert!(s.peak_resident_pages() < ids.len(), "{backend}: no mirror");
            drop(guards);
            s.drop_buffer();
            assert_eq!(s.resident_pages(), 0, "{backend}: nothing left resident");
        }
    }

    #[test]
    fn nested_peeks_share_one_pin_slot_per_page() {
        let mut s = store(2);
        let a = s.allocate(9);
        s.flush();
        s.drop_buffer();
        let g1 = s.try_peek(a).unwrap();
        let g2 = s.try_peek(a).unwrap();
        assert_eq!((*g1, *g2), (9, 9));
        assert_eq!(s.pinned_pages(), 1, "refcounted, not duplicated");
        assert_eq!(s.resident_pages(), 1);
        drop(g1);
        assert_eq!(s.pinned_pages(), 1, "second guard still holds the pin");
        drop(g2);
        assert_eq!(s.pinned_pages(), 0);
        assert_eq!(s.resident_pages(), 0);
    }

    #[test]
    fn transient_faults_recover_invisibly_on_every_backend() {
        // The parity property at store level: a transient fault at any read
        // or write attempt changes no payload, no counter and no metered
        // byte — the one retry is invisible to results.
        use crate::error::{FaultKind, IoOp};
        let run = |backend, fault: Option<FaultProfile>| {
            let config = PageStoreConfig {
                buffer_pages: 2,
                ..PageStoreConfig::default()
            }
            .with_backend(backend);
            let mut s: PageStore<u32> = PageStore::new(config);
            // Attempts count from the injection, so the schedule covers the
            // store's first operation on.
            if let Some(profile) = fault {
                s.inject_fault(profile);
            }
            let ids: Vec<PageId> = (0..16u32).map(|i| s.allocate(i * 13 + 1)).collect();
            s.flush();
            s.drop_buffer();
            s.stats().reset();
            for round in 0..4 {
                for &id in &ids {
                    assert_eq!(s.try_read(id).unwrap(), id.0 * 13 + 1, "round {round}");
                }
            }
            s.allocate(999);
            s.flush();
            s
        };
        for backend in StorageBackend::ALL {
            let clean = run(backend, None);
            assert_eq!(clean.fault_stats(), FaultStats::default());
            for op in [IoOp::Read, IoOp::Write] {
                for at in 0.. {
                    let profile = FaultProfile::FailAt {
                        op,
                        at,
                        kind: FaultKind::Transient,
                    };
                    let faulty = run(backend, Some(profile));
                    let stats = faulty.fault_stats();
                    if stats.injected_read_faults + stats.injected_write_faults == 0 {
                        assert!(at > 16, "{backend}: {profile:?} never fired");
                        break;
                    }
                    let label = format!("{backend}, {profile:?}");
                    assert_eq!(
                        clean.stats().snapshot(),
                        faulty.stats().snapshot(),
                        "{label}"
                    );
                    assert_eq!(clean.backend_io(), faulty.backend_io(), "{label}");
                    let retried = if op == IoOp::Read {
                        (stats.injected_read_faults, stats.retries, stats.recoveries)
                    } else {
                        (stats.injected_write_faults, stats.write_retries, 1)
                    };
                    assert_eq!(retried, (1, 1, 1), "{label}: {stats:?}");
                }
            }
        }
    }

    #[test]
    fn corrupt_frame_quarantines_and_fails_fast() {
        use crate::error::FaultKind;
        let mut s = store(0);
        let ids: Vec<PageId> = (0..4u32).map(|i| s.allocate(i + 50)).collect();
        s.flush();
        s.drop_buffer();
        s.inject_fault(FaultProfile::CorruptFrame(ids[1].0));
        // The affected page surfaces as a structured Corrupt error...
        let err = s.try_read(ids[1]).unwrap_err();
        assert_eq!(err.kind, FaultKind::Corrupt);
        assert_eq!(err.page, Some(ids[1].0));
        assert_eq!(s.quarantined_frames(), vec![ids[1].0]);
        // ...fails fast on the second attempt (no second transfer of the
        // known-bad frame)...
        let bit_flips = s.fault_stats().injected_bit_flips;
        let err2 = s.try_read(ids[1]).unwrap_err();
        assert_eq!(err2.kind, FaultKind::Corrupt);
        assert!(err2.detail.contains("quarantined"), "{err2}");
        assert_eq!(s.fault_stats().injected_bit_flips, bit_flips);
        // ...and peek sees the same contract.
        assert_eq!(s.try_peek(ids[1]).unwrap_err().kind, FaultKind::Corrupt);
        // Clean pages keep serving.
        for &id in &[ids[0], ids[2], ids[3]] {
            assert_eq!(s.try_read(id).unwrap(), id.0 + 50);
        }
        assert_eq!(s.fault_stats().quarantined_frames, 1);
    }

    #[test]
    fn exhausted_retries_and_persistent_faults_surface_and_leave_the_store_usable() {
        use crate::error::FaultKind;
        let policies = [
            (FaultKind::Transient, 1), // no retry allowed
            (FaultKind::Persistent, RetryPolicy::default().max_attempts),
        ];
        for (kind, max_attempts) in policies {
            let mut s: PageStore<u32> = PageStore::new(PageStoreConfig::default());
            s.set_retry_policy(RetryPolicy { max_attempts });
            let id = s.allocate(7);
            s.flush();
            s.drop_buffer();
            s.inject_fault(FaultProfile::fail_read(1, kind));
            assert_eq!(s.try_read(id).unwrap(), 7);
            let err = s.try_read(id).unwrap_err();
            assert_eq!((err.kind, err.page), (kind, Some(id.0)), "{err}");
            assert_eq!(s.fault_stats().retries, 0, "{kind:?}: nothing retried");
            assert_eq!(s.try_read(id).unwrap(), 7, "{kind:?}: usable afterwards");
        }
    }
}

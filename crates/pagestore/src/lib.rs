//! # cij-pagestore
//!
//! The storage substrate of the CIJ reproduction: fixed-size disk pages, an
//! LRU buffer pool with pinning, I/O accounting — and **pluggable
//! page-frame backends**: frames live on the heap or in a file.
//!
//! The paper's evaluation is I/O-centric: every dataset is indexed by an
//! R-tree with a **1 KB page size**, algorithms run on top of an **LRU
//! buffer** whose default capacity is **2 % of the data size on disk**, and
//! the reported cost metric is the number of **page accesses**. This crate
//! provides exactly that substrate, layered as:
//!
//! * [`PageId`] / [`PageStore`] — the page table: routes every logical read
//!   and write through the buffer manager and moves serialized frames
//!   to/from the backend on misses and write-backs. Decoded payloads exist
//!   **only** for buffer members and pinned pages (there is no full
//!   in-memory mirror), so resident memory is bounded by the buffer, not
//!   the dataset; [`PageRef`] is the pin guard handed out by
//!   [`PageStore::try_peek`] for accounting-free snapshot reads,
//! * [`PagePayload`] (+ [`FrameWriter`]/[`FrameReader`]) — the serialization
//!   contract turning payloads into `page_size`-bounded byte frames, with
//!   [`FrameOverflow`] rejection so node fanout genuinely respects the page
//!   budget,
//! * [`PageBackend`] — the frame-storage trait, selected by
//!   [`StorageBackend`]: [`HeapBackend`] keeps frames in memory (the
//!   historical simulated disk), [`FileBackend`] keeps them in a real file
//!   accessed with positioned I/O,
//! * [`LruBuffer`] — an O(1) least-recently-used buffer pool with
//!   write-back semantics, indexed by hash for sparse keys or by subscript
//!   for dense ones such as the store's page ids; the store's
//!   [`PageRef`] pins keep payloads resident, not pages in the buffer,
//! * [`IoStats`] — counters for physical reads/writes, logical accesses and
//!   buffer hits, with snapshot/delta helpers used by the experiment harness
//!   to attribute cost to materialisation vs join phases; [`BackendIo`]
//!   carries the backend's *byte* counters alongside, split by [`IoClass`]
//!   into metered transfers (misses, eviction/flush write-backs) and
//!   unmetered maintenance traffic (snapshot decodes, `drop_buffer`
//!   write-backs) — the exact contract lives in the
//!   [backend module docs](backend).
//!
//! ## The backend parity guarantee
//!
//! All accounting decisions — what is a hit, what gets evicted, which
//! counter moves — are made **above** the backend, and the [`PagePayload`]
//! codec is lossless, so heap- and file-backed stores driven by the
//! same operations produce *identical* payloads, buffer states, [`IoStats`]
//! counters and even [`BackendIo`] byte counts. The backends differ only in
//! whether the frames actually hit storage. This is asserted at the store
//! level here, and end-to-end (identical join results and page-access
//! totals on every backend, each test naming the backends it runs) by the
//! workspace's integration tests — which is what finally lets the paper's
//! counted page accesses be validated against real I/O (`bytes_read ==
//! physical_reads × page_size`, see
//! `file_bytes_read_match_counted_physical_reads` in the workspace's
//! `tests/storage.rs`).
//!
//! ## The failure model
//!
//! Real storage fails, and the crate classifies every failure into the
//! three-kind taxonomy of [`PageIoError`] (see the [error module](error)):
//!
//! * **Transient** ([`FaultKind::Transient`]) — interrupted or flaky
//!   operations that may succeed when repeated. Two layers absorb them
//!   before any caller notices: [`FileBackend`] loops its positioned I/O on
//!   short transfers and `EINTR`, and [`PageStore`] retries whole frame
//!   transfers under a bounded [`RetryPolicy`], repeating a failed
//!   attempt at once (no backoff, no clock, no sleep). Only an exhausted
//!   retry budget surfaces a transient error.
//! * **Persistent** ([`FaultKind::Persistent`]) — the medium or syscall
//!   failed for good; surfaced immediately, never retried.
//! * **Corrupt** ([`FaultKind::Corrupt`]) — the frame transferred but
//!   failed its integrity check. Every frame is sealed on write-back with a
//!   [`FRAME_TRAILER_BYTES`]-byte trailer (payload length + XXH64
//!   checksum, [`frame::seal_frame`]) and verified on every cold decode
//!   ([`frame::verify_frame`]), so bit-rot surfaces as a structured error
//!   instead of garbage geometry. A corrupt frame is **quarantined**:
//!   later reads fail fast without re-transferring known-bad bytes.
//!
//! **Query-fatal vs service-fatal.** Trees are immutable while queries run,
//! so the two directions fail differently:
//!
//! * *Read errors are query-fatal*: a read ([`PageStore::try_read`],
//!   [`PageStore::try_read_with`], [`PageStore::try_peek`]) is a `Result`
//!   and nothing else — no panicking twin; it panics only on a `PageId`
//!   never allocated, a logic error. A replayed read
//!   ([`PageStore::note_read`]) reads nothing, so it cannot fail. The
//!   executor fails the one affected query with a structured terminal
//!   frame while the service keeps serving others. Where the
//!   error may become a panic instead is decided above this crate, at the
//!   blocking edges the `cij-rtree` crate docs list.
//! * *Write and flush errors are service-fatal*: write-backs happen during
//!   build, eviction and flush — losing a frame there corrupts shared
//!   state, so a persistent write error, or a transient one after retry
//!   exhaustion, panics naming the frame.
//!
//! Per-class [`FaultStats`] counters (injected faults, retries, recoveries,
//! quarantined frames) are surfaced by [`PageStore::fault_stats`] alongside
//! [`BackendIo`]. The whole model is testable deterministically through
//! [`FaultBackend`], a wrapper backend that fails one chosen read or write
//! attempt, or bit-rots one frame ([`FaultProfile`], see the
//! [fault module](fault)); a test arms it with [`PageStore::inject_fault`],
//! and nothing else does. A transient fault at any attempt is retried and
//! leaves results byte-identical to a clean run.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod backend;
pub mod error;
pub mod fault;
pub mod frame;
pub mod lru;
pub mod stats;
pub mod store;

pub use backend::{BackendIo, FileBackend, HeapBackend, IoClass, PageBackend, StorageBackend};
pub use error::{FaultKind, IoOp, PageIoError};
pub use fault::{FaultBackend, FaultProfile, FaultStats};
pub use frame::{FrameOverflow, FrameReader, FrameWriter, PagePayload, FRAME_TRAILER_BYTES};
pub use lru::{Admission, LruBuffer};
pub use stats::{IoSnapshot, IoStats};
pub use store::{PageId, PageRef, PageStore, PageStoreConfig, RetryPolicy};

/// Page size used throughout the paper's experiments: 1 KB.
pub const DEFAULT_PAGE_SIZE: usize = 1024;

/// Default buffer size as a fraction of the data size on disk (2 %).
pub const DEFAULT_BUFFER_FRACTION: f64 = 0.02;

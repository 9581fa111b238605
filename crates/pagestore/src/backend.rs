//! Pluggable page-frame storage: the [`PageBackend`] trait and its three
//! implementations, [`HeapBackend`] (in-memory frames, the historical
//! simulated disk), [`FileBackend`] (a real file accessed with positioned
//! reads and writes) and [`MmapBackend`](crate::MmapBackend) (memory-mapped
//! frames over an unlinked temp file).
//!
//! The backend sits *below* the LRU buffer and the [`IoStats`]
//! accounting of [`PageStore`](crate::PageStore): it only moves fixed-size
//! byte frames. Which backend is plugged in therefore cannot change any
//! logical read/write count, buffer hit, eviction or page-access total — the
//! **backend parity guarantee** asserted by the integration tests. What
//! the backend *adds* is a second, independent measurement: the
//! [`BackendIo`] byte counters record how many bytes were actually
//! transferred.
//!
//! # The counting contract
//!
//! Every transfer carries an [`IoClass`] chosen by the store, and the
//! backend must account each byte in exactly one bucket of [`BackendIo`]:
//!
//! * [`IoClass::Metered`] transfers are the experiment-visible I/O: buffer
//!   misses, eviction write-backs, [`PageStore::flush`] write-backs and
//!   replayed reads. For a store whose accounting is intact, `bytes_read ==
//!   physical_reads × page_size` **and** `bytes_written == physical_writes ×
//!   page_size` — the two invariants
//!   `metered_byte_contract_holds_for_every_backend` checks (and, for reads
//!   under a join, the workspace's `tests/storage.rs`). All three
//!   backends count metered transfers identically; historically
//!   `drop_buffer`'s write-backs were "uncounted-but-real" (bytes moved,
//!   `physical_writes` did not), which broke the written-byte half of the
//!   contract on the file backend.
//! * [`IoClass::Unmetered`] transfers are real bytes that are deliberately
//!   *outside* the measured experiment: `drop_buffer` write-backs (the
//!   measurement-reset path) and cold [`PageStore::try_peek`] decodes (snapshot
//!   reads whose accounting is deferred to trace replay, or skipped
//!   entirely in fast mode). They land in
//!   [`BackendIo::unmetered_bytes_read`] / `unmetered_bytes_written`, so no
//!   byte is ever silently dropped and the metered invariants stay exact.
//!
//! Relaxed-consistency contract: the only atomic in this module is the
//! process-wide temp-file name counter (`FILE_COUNTER`), whose sole job is
//! handing out distinct integers — `fetch_add`'s per-object modification
//! order guarantees uniqueness under `Ordering::Relaxed`, and nothing else
//! is ordered against it.
//!
//! [`IoStats`]: crate::IoStats
//! [`PageStore::flush`]: crate::PageStore::flush
//! [`PageStore::try_peek`]: crate::PageStore::try_peek

use std::fmt;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::{IoOp, PageIoError};
use crate::fault::FaultStats;

/// Which [`PageBackend`] a [`PageStore`](crate::PageStore) uses for its
/// frames.
///
/// This is the configuration-level knob ([`PageStoreConfig::backend`],
/// threaded up through `cij_core::CijConfig::storage_backend`); the trait
/// object itself is created by [`StorageBackend::create`].
///
/// [`PageStoreConfig::backend`]: crate::PageStoreConfig
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageBackend {
    /// Frames live in memory — the simulated disk the reproduction started
    /// with. No persistence, no real I/O; byte counters still account every
    /// frame transfer.
    #[default]
    Heap,
    /// Frames live in a real file (anonymous, in the system temp directory)
    /// accessed with `read_at`/`write_at`, so every buffer miss and
    /// write-back is an actual positioned disk I/O.
    File,
    /// Frames live in memory-mapped segments of an unlinked temp file
    /// ([`MmapBackend`](crate::MmapBackend)): transfers are `memcpy`s into
    /// the kernel page cache, residency is the kernel's to manage, so
    /// datasets can exceed the configured buffer (and eventually RAM).
    Mmap,
}

impl StorageBackend {
    /// Every selectable backend, for sweeps and tests.
    pub const ALL: [StorageBackend; 3] = [
        StorageBackend::Heap,
        StorageBackend::File,
        StorageBackend::Mmap,
    ];

    /// Short lowercase name, used by tables and test labels.
    pub fn name(&self) -> &'static str {
        match self {
            StorageBackend::Heap => "heap",
            StorageBackend::File => "file",
            StorageBackend::Mmap => "mmap",
        }
    }

    /// Creates a fresh, empty backend of this kind for `frame_size`-byte
    /// frames.
    pub fn create(self, frame_size: usize) -> Box<dyn PageBackend> {
        match self {
            StorageBackend::Heap => Box::new(HeapBackend::new(frame_size)),
            StorageBackend::File => Box::new(FileBackend::anonymous(frame_size)),
            StorageBackend::Mmap => Box::new(crate::MmapBackend::anonymous(frame_size)),
        }
    }
}

impl fmt::Display for StorageBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether a backend transfer belongs to the measured experiment.
///
/// The [`PageStore`](crate::PageStore) classifies every transfer it issues;
/// the backend routes the bytes into the matching [`BackendIo`] bucket. See
/// the [module docs](self) for the full counting contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoClass {
    /// Experiment-visible I/O: paired one-to-one with a
    /// `physical_reads`/`physical_writes` increment in the store's
    /// [`IoStats`](crate::IoStats).
    Metered,
    /// Real bytes outside the measured experiment: `drop_buffer`
    /// write-backs and cold snapshot (`peek`) decodes.
    Unmetered,
}

/// Byte counters of a [`PageBackend`]: the *actual* I/O volume, as opposed
/// to the logical page-access counts of [`IoStats`](crate::IoStats).
///
/// Metered counters advance by exactly one frame size per metered
/// operation, so for a store whose accounting is intact, `bytes_read ==
/// physical_reads × page_size` and `bytes_written == physical_writes ×
/// page_size` — the invariants `metered_byte_contract_holds_for_every_backend`
/// checks. The unmetered counters account every remaining real transfer (see
/// the [module docs](self)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendIo {
    /// Bytes read from the backing storage by metered transfers.
    pub bytes_read: u64,
    /// Bytes written to the backing storage by metered transfers.
    pub bytes_written: u64,
    /// Bytes read outside the measured experiment (cold `peek` decodes).
    pub unmetered_bytes_read: u64,
    /// Bytes written outside the measured experiment (`drop_buffer`
    /// write-backs).
    pub unmetered_bytes_written: u64,
}

impl BackendIo {
    /// Component-wise difference `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: &BackendIo) -> BackendIo {
        BackendIo {
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            unmetered_bytes_read: self
                .unmetered_bytes_read
                .saturating_sub(earlier.unmetered_bytes_read),
            unmetered_bytes_written: self
                .unmetered_bytes_written
                .saturating_sub(earlier.unmetered_bytes_written),
        }
    }

    /// Sum of two counter sets (e.g. the two trees of a workload).
    pub fn plus(&self, other: &BackendIo) -> BackendIo {
        BackendIo {
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_written: self.bytes_written + other.bytes_written,
            unmetered_bytes_read: self.unmetered_bytes_read + other.unmetered_bytes_read,
            unmetered_bytes_written: self.unmetered_bytes_written + other.unmetered_bytes_written,
        }
    }

    /// Records `n` read bytes under `class` (backend-implementation helper).
    pub fn record_read(&mut self, class: IoClass, n: u64) {
        match class {
            IoClass::Metered => self.bytes_read += n,
            IoClass::Unmetered => self.unmetered_bytes_read += n,
        }
    }

    /// Records `n` written bytes under `class` (backend-implementation
    /// helper).
    pub fn record_write(&mut self, class: IoClass, n: u64) {
        match class {
            IoClass::Metered => self.bytes_written += n,
            IoClass::Unmetered => self.unmetered_bytes_written += n,
        }
    }
}

/// Storage of fixed-size byte frames, one per [`PageId`](crate::PageId).
///
/// The [`PageStore`](crate::PageStore) drives the backend under write-back
/// semantics: `allocate` only reserves a frame slot (the first `write`
/// happens when the page is evicted from the LRU buffer or flushed), `read`
/// is only issued on buffer misses or cold `peek`s, and a frame is never
/// read before its first write — implementations are encouraged to assert
/// that invariant, because violating it means the store's accounting has
/// drifted. Every transfer carries the [`IoClass`] the store assigned it;
/// the backend accounts the bytes accordingly (see the [module
/// docs](self)).
pub trait PageBackend: fmt::Debug + Send + Sync {
    /// Which configuration knob selects this backend.
    fn kind(&self) -> StorageBackend;

    /// Size of one frame in bytes (the page size).
    fn frame_size(&self) -> usize;

    /// Reserves the next frame slot and returns its index. Indices are
    /// dense, starting at 0; freed slots are not recycled.
    fn allocate(&mut self) -> u32;

    /// Reads the frame at `index` into `frame` (`frame.len() ==
    /// frame_size()`), accounting the bytes under `class`. On `Err` no
    /// bytes are accounted and `frame` contents are unspecified.
    ///
    /// # Panics
    ///
    /// Panics if the frame was never written or was freed — that is a
    /// store-accounting bug, not a storage failure, so it is *not* part of
    /// the [`PageIoError`] taxonomy.
    fn read(&mut self, index: u32, frame: &mut [u8], class: IoClass) -> Result<(), PageIoError>;

    /// Writes the frame at `index` (`frame.len() == frame_size()`),
    /// accounting the bytes under `class`. On `Err` no bytes are accounted
    /// and the slot keeps its previous validity.
    fn write(&mut self, index: u32, frame: &[u8], class: IoClass) -> Result<(), PageIoError>;

    /// Marks a frame slot as freed; it must not be read again.
    fn free(&mut self, index: u32);

    /// Makes previous writes durable where the medium supports it (no-op
    /// for the heap backend).
    fn flush(&mut self) -> Result<(), PageIoError>;

    /// Bytes transferred so far.
    fn io(&self) -> BackendIo;

    /// Fault-injection counters. Zero for every real backend; the
    /// [`FaultBackend`](crate::FaultBackend) wrapper overrides this with
    /// its injection tallies so the store can surface them alongside
    /// [`BackendIo`].
    fn fault_stats(&self) -> FaultStats {
        FaultStats::default()
    }
}

/// The in-memory backend: frames in a `Vec`, byte-for-byte the simulated
/// disk this reproduction always had — plus the [`BackendIo`] counters.
#[derive(Debug, Clone, Default)]
pub struct HeapBackend {
    frame_size: usize,
    frames: Vec<Option<Box<[u8]>>>,
    io: BackendIo,
}

impl HeapBackend {
    /// Creates an empty heap backend for `frame_size`-byte frames.
    pub fn new(frame_size: usize) -> Self {
        HeapBackend {
            frame_size,
            frames: Vec::new(),
            io: BackendIo::default(),
        }
    }
}

impl PageBackend for HeapBackend {
    fn kind(&self) -> StorageBackend {
        StorageBackend::Heap
    }

    fn frame_size(&self) -> usize {
        self.frame_size
    }

    fn allocate(&mut self) -> u32 {
        self.frames.push(None);
        (self.frames.len() - 1) as u32
    }

    fn read(&mut self, index: u32, frame: &mut [u8], class: IoClass) -> Result<(), PageIoError> {
        let stored = self.frames[index as usize]
            .as_ref()
            .expect("backend read of a never-written or freed frame");
        frame.copy_from_slice(stored);
        self.io.record_read(class, self.frame_size as u64);
        Ok(())
    }

    fn write(&mut self, index: u32, frame: &[u8], class: IoClass) -> Result<(), PageIoError> {
        assert_eq!(frame.len(), self.frame_size, "frame size mismatch");
        match &mut self.frames[index as usize] {
            // Overwrite in place: no fresh allocation per write-back.
            Some(existing) => existing.copy_from_slice(frame),
            slot => *slot = Some(frame.into()),
        }
        self.io.record_write(class, self.frame_size as u64);
        Ok(())
    }

    fn free(&mut self, index: u32) {
        if let Some(slot) = self.frames.get_mut(index as usize) {
            *slot = None;
        }
    }

    fn flush(&mut self) -> Result<(), PageIoError> {
        Ok(())
    }

    fn io(&self) -> BackendIo {
        self.io
    }
}

/// Monotonic discriminator for anonymous backing-file names (several stores
/// are routinely alive at once — `RP`, `RQ`, Voronoi trees).
pub(crate) static FILE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Creates, opens and immediately unlinks a fresh anonymous file in the
/// system temp directory — shared by the file and mmap backends.
pub(crate) fn anonymous_file(tag: &str) -> File {
    let serial = FILE_COUNTER.fetch_add(1, Ordering::Relaxed);
    let name = format!("cij-{tag}-{}-{}.pages", std::process::id(), serial);
    let path = std::env::temp_dir().join(name);
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(&path)
        .unwrap_or_else(|e| panic!("create pagestore file {}: {e}", path.display()));
    std::fs::remove_file(&path).expect("unlink anonymous pagestore file");
    file
}

/// The real-file backend: one frame per `page_size`-byte slot of a file,
/// accessed with positioned I/O (`FileExt::read_at` / `write_at`).
///
/// [`FileBackend::anonymous`] creates the file in the system temp directory
/// and immediately unlinks it, so the data lives exactly as long as the
/// backend (kernel cleanup on drop or crash, nothing to clean up by hand).
///
/// The `written` bitmap tracks which slots hold valid frames; reading a
/// never-written slot panics instead of returning uninitialized file bytes,
/// which is the backend-level symptom of broken write-back accounting.
#[derive(Debug)]
pub struct FileBackend {
    file: File,
    frame_size: usize,
    written: Vec<bool>,
    io: BackendIo,
}

impl FileBackend {
    /// Creates a backend over a fresh anonymous file in the system temp
    /// directory (created, opened, unlinked).
    pub fn anonymous(frame_size: usize) -> Self {
        assert!(frame_size > 0, "frame size must be positive");
        FileBackend {
            file: anonymous_file("pagestore"),
            frame_size,
            written: Vec::new(),
            io: BackendIo::default(),
        }
    }

    fn offset(&self, index: u32) -> u64 {
        index as u64 * self.frame_size as u64
    }
}

/// Fills `buf` from `file` at `offset`, looping on short reads and retrying
/// `EINTR` — positioned syscalls may legally transfer fewer bytes than asked
/// (signals, pipes-over-NFS, large frames), so a single `read_at` is not a
/// full-frame guarantee.
pub(crate) fn read_full_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    let mut done = 0usize;
    while done < buf.len() {
        match file.read_at(&mut buf[done..], offset + done as u64) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    format!("short read: {done} of {} bytes", buf.len()),
                ))
            }
            Ok(n) => done += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Writes all of `buf` to `file` at `offset`, looping on short writes and
/// retrying `EINTR` (the write-side twin of [`read_full_at`]).
pub(crate) fn write_full_at(file: &File, buf: &[u8], offset: u64) -> std::io::Result<()> {
    let mut done = 0usize;
    while done < buf.len() {
        match file.write_at(&buf[done..], offset + done as u64) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    format!("short write: {done} of {} bytes", buf.len()),
                ))
            }
            Ok(n) => done += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

impl PageBackend for FileBackend {
    fn kind(&self) -> StorageBackend {
        StorageBackend::File
    }

    fn frame_size(&self) -> usize {
        self.frame_size
    }

    fn allocate(&mut self) -> u32 {
        self.written.push(false);
        (self.written.len() - 1) as u32
    }

    fn read(&mut self, index: u32, frame: &mut [u8], class: IoClass) -> Result<(), PageIoError> {
        assert!(
            self.written.get(index as usize).copied().unwrap_or(false),
            "backend read of a never-written or freed frame"
        );
        read_full_at(&self.file, frame, self.offset(index))
            .map_err(|e| PageIoError::from_io(IoOp::Read, Some(index), &e))?;
        self.io.record_read(class, self.frame_size as u64);
        Ok(())
    }

    fn write(&mut self, index: u32, frame: &[u8], class: IoClass) -> Result<(), PageIoError> {
        assert_eq!(frame.len(), self.frame_size, "frame size mismatch");
        write_full_at(&self.file, frame, self.offset(index))
            .map_err(|e| PageIoError::from_io(IoOp::Write, Some(index), &e))?;
        self.written[index as usize] = true;
        self.io.record_write(class, self.frame_size as u64);
        Ok(())
    }

    fn free(&mut self, index: u32) {
        if let Some(slot) = self.written.get_mut(index as usize) {
            *slot = false;
        }
    }

    fn flush(&mut self) -> Result<(), PageIoError> {
        // Counted page accesses — not durability — are what the experiments
        // measure, but syncing keeps the backend honest as real storage.
        self.file
            .sync_data()
            .map_err(|e| PageIoError::from_io(IoOp::Flush, None, &e))
    }

    fn io(&self) -> BackendIo {
        self.io
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(mut b: Box<dyn PageBackend>) -> Box<dyn PageBackend> {
        let fs = b.frame_size();
        let a = b.allocate();
        let c = b.allocate();
        assert_eq!((a, c), (0, 1));
        let mut frame = vec![0u8; fs];
        frame[0] = 0xAB;
        frame[fs - 1] = 0xCD;
        b.write(a, &frame, IoClass::Metered).unwrap();
        frame[0] = 0x11;
        b.write(c, &frame, IoClass::Metered).unwrap();
        let mut out = vec![0u8; fs];
        b.read(a, &mut out, IoClass::Metered).unwrap();
        assert_eq!((out[0], out[fs - 1]), (0xAB, 0xCD));
        b.read(c, &mut out, IoClass::Metered).unwrap();
        assert_eq!(out[0], 0x11);
        // Overwrite sticks.
        frame[0] = 0x22;
        b.write(a, &frame, IoClass::Metered).unwrap();
        b.read(a, &mut out, IoClass::Metered).unwrap();
        assert_eq!(out[0], 0x22);
        b.flush().unwrap();
        let io = b.io();
        assert_eq!(io.bytes_written, 3 * fs as u64);
        assert_eq!(io.bytes_read, 3 * fs as u64);
        assert_eq!(
            (io.unmetered_bytes_read, io.unmetered_bytes_written),
            (0, 0)
        );
        b
    }

    #[test]
    fn heap_backend_roundtrip_and_counters() {
        let b = exercise(Box::new(HeapBackend::new(64)));
        assert_eq!(b.kind(), StorageBackend::Heap);
    }

    #[test]
    fn file_backend_roundtrip_and_counters() {
        let b = exercise(Box::new(FileBackend::anonymous(64)));
        assert_eq!(b.kind(), StorageBackend::File);
    }

    #[test]
    fn mmap_backend_roundtrip_and_counters() {
        let b = exercise(Box::new(crate::MmapBackend::anonymous(64)));
        assert_eq!(b.kind(), StorageBackend::Mmap);
    }

    #[test]
    fn every_backend_routes_bytes_by_io_class() {
        // The counting contract: each transfer lands in exactly one bucket,
        // chosen by the store-assigned IoClass — identically on all three
        // backends.
        for kind in StorageBackend::ALL {
            let mut b = kind.create(32);
            let i = b.allocate();
            let frame = [5u8; 32];
            let mut out = [0u8; 32];
            b.write(i, &frame, IoClass::Unmetered).unwrap();
            b.read(i, &mut out, IoClass::Unmetered).unwrap();
            b.write(i, &frame, IoClass::Metered).unwrap();
            b.read(i, &mut out, IoClass::Metered).unwrap();
            let io = b.io();
            assert_eq!(
                (io.bytes_read, io.bytes_written),
                (32, 32),
                "{kind}: metered bucket"
            );
            assert_eq!(
                (io.unmetered_bytes_read, io.unmetered_bytes_written),
                (32, 32),
                "{kind}: unmetered bucket"
            );
            let moved = io.bytes_read
                + io.bytes_written
                + io.unmetered_bytes_read
                + io.unmetered_bytes_written;
            assert_eq!(moved, 128, "{kind}: no byte dropped");
        }
    }

    #[test]
    #[should_panic(expected = "never-written")]
    fn heap_read_before_write_panics() {
        let mut b = HeapBackend::new(8);
        let i = b.allocate();
        let mut out = vec![0u8; 8];
        b.read(i, &mut out, IoClass::Metered).unwrap();
    }

    #[test]
    #[should_panic(expected = "never-written")]
    fn file_read_before_write_panics() {
        let mut b = FileBackend::anonymous(8);
        let i = b.allocate();
        let mut out = vec![0u8; 8];
        b.read(i, &mut out, IoClass::Metered).unwrap();
    }

    #[test]
    #[should_panic(expected = "never-written")]
    fn file_read_after_free_panics() {
        let mut b = FileBackend::anonymous(8);
        let i = b.allocate();
        b.write(i, &[9u8; 8], IoClass::Metered).unwrap();
        b.free(i);
        let mut out = vec![0u8; 8];
        b.read(i, &mut out, IoClass::Metered).unwrap();
    }

    #[test]
    fn storage_backend_prints() {
        assert_eq!(StorageBackend::File.to_string(), "file");
        assert_eq!(StorageBackend::Mmap.to_string(), "mmap");
        assert_eq!(StorageBackend::default(), StorageBackend::Heap);
    }

    #[test]
    fn backend_io_deltas_and_sums() {
        let a = BackendIo {
            bytes_read: 10,
            bytes_written: 4,
            unmetered_bytes_read: 2,
            unmetered_bytes_written: 1,
        };
        let b = BackendIo {
            bytes_read: 25,
            bytes_written: 4,
            unmetered_bytes_read: 6,
            unmetered_bytes_written: 1,
        };
        assert_eq!(
            b.since(&a),
            BackendIo {
                bytes_read: 15,
                bytes_written: 0,
                unmetered_bytes_read: 4,
                unmetered_bytes_written: 0,
            }
        );
        assert_eq!(
            a.plus(&b),
            BackendIo {
                bytes_read: 35,
                bytes_written: 8,
                unmetered_bytes_read: 8,
                unmetered_bytes_written: 2,
            }
        );
        let moved =
            a.bytes_read + a.bytes_written + a.unmetered_bytes_read + a.unmetered_bytes_written;
        assert_eq!(moved, 17);
    }
}

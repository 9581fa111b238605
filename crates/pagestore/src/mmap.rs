//! The memory-mapped page backend: frames live in `mmap(MAP_SHARED)`
//! segments of an unlinked temp file.
//!
//! [`MmapBackend`] is the third [`PageBackend`]: like
//! [`FileBackend`](crate::FileBackend) the data lives in a real
//! (anonymous, already-unlinked) file, but transfers are `memcpy`s against
//! the kernel page cache instead of `read_at`/`write_at` syscalls, and
//! *residency* of the backing frames is the kernel's to manage — pages the
//! join never revisits can be reclaimed under memory pressure, which is
//! what lets a dataset grow past the configured LRU buffer (and eventually
//! past RAM) while the store above keeps its exact page-access accounting.
//!
//! The mapping is built out of fixed-size **segments** that are never
//! remapped: growing the backend extends the file with
//! [`File::set_len`] and maps one more segment at its own file offset.
//! Existing frame addresses therefore stay stable for the lifetime of the
//! backend, which keeps the implementation free of any remap/copy dance.
//!
//! The bindings are hand-declared `extern "C"` prototypes of the three
//! POSIX calls used (`mmap`, `munmap`, `msync`) — the workspace vendors no
//! libc crate, and the C library is linked into every Rust binary anyway.

use std::fs::File;
use std::os::raw::c_void;
use std::os::unix::io::AsRawFd;

use crate::backend::{anonymous_file, BackendIo, IoClass, PageBackend, StorageBackend};
use crate::error::{IoOp, PageIoError};

mod sys {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const PROT_WRITE: c_int = 2;
    pub const MAP_SHARED: c_int = 1;
    pub const MS_SYNC: c_int = 4;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn msync(addr: *mut c_void, len: usize, flags: c_int) -> c_int;
    }
}

const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

/// Segment file offsets are aligned to this, which must be a multiple of
/// the system page size on every supported platform (covers 4 KiB, 16 KiB
/// and 64 KiB pages).
const SEGMENT_ALIGN: u64 = 1 << 16;

/// Target segment payload before alignment rounding: ~1 MiB of frames per
/// `mmap` call keeps the mapping count low without reserving much ahead.
const SEGMENT_TARGET_BYTES: u64 = 1 << 20;

/// One live `mmap` region covering `frames_per_segment` frames.
#[derive(Debug)]
struct Segment {
    ptr: *mut u8,
    len: usize,
}

/// The memory-mapped backend — see the [module docs](self).
#[derive(Debug)]
pub struct MmapBackend {
    file: File,
    frame_size: usize,
    frames_per_segment: u64,
    /// Aligned byte span one segment occupies in the file (≥
    /// `frames_per_segment × frame_size`, multiple of [`SEGMENT_ALIGN`]).
    segment_span: u64,
    segments: Vec<Segment>,
    written: Vec<bool>,
    io: BackendIo,
}

// SAFETY: the raw segment pointers are exclusively owned by this backend —
// they point into private MAP_SHARED mappings of an unlinked file no other
// code can open. All dereferencing happens in methods taking `&mut self`
// (`read`, `write`) or `&self` without mutation (`flush` via msync), so the
// usual &mut-xor-& aliasing discipline of the owner provides the
// synchronization; the type has no interior mutability.
unsafe impl Send for MmapBackend {}
// SAFETY: same argument as `Send` above — `&MmapBackend` exposes no
// mutation of the mapped memory, so shared references are safe to send.
unsafe impl Sync for MmapBackend {}

impl MmapBackend {
    /// Creates a backend over a fresh anonymous (created, opened, unlinked)
    /// temp file mapped segment by segment as it grows.
    pub fn anonymous(frame_size: usize) -> Self {
        assert!(frame_size > 0, "frame size must be positive");
        let frames_per_segment = (SEGMENT_TARGET_BYTES / frame_size as u64).max(1);
        let payload = frames_per_segment * frame_size as u64;
        let segment_span = payload.div_ceil(SEGMENT_ALIGN) * SEGMENT_ALIGN;
        MmapBackend {
            file: anonymous_file("mmap"),
            frame_size,
            frames_per_segment,
            segment_span,
            segments: Vec::new(),
            written: Vec::new(),
            io: BackendIo::default(),
        }
    }

    /// Extends the file and maps segments until `segment` exists.
    fn ensure_segment(&mut self, segment: usize) {
        while self.segments.len() <= segment {
            let next = self.segments.len() as u64;
            self.file
                .set_len((next + 1) * self.segment_span)
                .expect("grow mmap backing file");
            let len = self.segment_span as usize;
            let offset = (next * self.segment_span) as i64;
            // SAFETY: the file region [offset, offset + len) exists (set_len
            // above), offset is SEGMENT_ALIGN-aligned, and the resulting
            // mapping is recorded so it outlives every pointer derived from
            // it (unmapped only in Drop).
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ | sys::PROT_WRITE,
                    sys::MAP_SHARED,
                    self.file.as_raw_fd(),
                    offset,
                )
            };
            assert!(
                ptr != MAP_FAILED,
                "mmap segment {next} failed: {}",
                std::io::Error::last_os_error()
            );
            self.segments.push(Segment {
                ptr: ptr as *mut u8,
                len,
            });
        }
    }

    /// Address of frame `index` inside its (already mapped) segment.
    fn frame_ptr(&self, index: u32) -> *mut u8 {
        let segment = (index as u64 / self.frames_per_segment) as usize;
        let slot = index as u64 % self.frames_per_segment;
        let offset = (slot * self.frame_size as u64) as usize;
        debug_assert!(offset + self.frame_size <= self.segments[segment].len);
        // SAFETY: offset stays within the segment mapping (checked above).
        unsafe { self.segments[segment].ptr.add(offset) }
    }
}

impl PageBackend for MmapBackend {
    fn kind(&self) -> StorageBackend {
        StorageBackend::Mmap
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
        assert_eq!(frame.len(), self.frame_size, "frame size mismatch");
        let src = self.frame_ptr(index);
        // SAFETY: src points at frame_size mapped bytes; frame is a
        // distinct (borrow-checked) buffer of the same length.
        unsafe { std::ptr::copy_nonoverlapping(src, frame.as_mut_ptr(), self.frame_size) };
        self.io.record_read(class, self.frame_size as u64);
        Ok(())
    }

    fn write(&mut self, index: u32, frame: &[u8], class: IoClass) -> Result<(), PageIoError> {
        assert_eq!(frame.len(), self.frame_size, "frame size mismatch");
        assert!(
            (index as usize) < self.written.len(),
            "backend write of an unallocated frame"
        );
        self.ensure_segment((index as u64 / self.frames_per_segment) as usize);
        let dst = self.frame_ptr(index);
        // SAFETY: dst points at frame_size mapped bytes exclusively owned
        // through &mut self.
        unsafe { std::ptr::copy_nonoverlapping(frame.as_ptr(), dst, self.frame_size) };
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
        for seg in self.segments.iter() {
            // SAFETY: (ptr, len) is a live mapping owned by self.
            let rc = unsafe { sys::msync(seg.ptr as *mut c_void, seg.len, sys::MS_SYNC) };
            if rc != 0 {
                let e = std::io::Error::last_os_error();
                return Err(PageIoError::from_io(IoOp::Flush, None, &e));
            }
        }
        Ok(())
    }

    fn io(&self) -> BackendIo {
        self.io
    }
}

impl Drop for MmapBackend {
    fn drop(&mut self) {
        for seg in &self.segments {
            // SAFETY: (ptr, len) is a live mapping owned by self; after this
            // loop the backend is gone and no pointer into it survives.
            unsafe { sys::munmap(seg.ptr as *mut c_void, seg.len) };
        }
        self.segments.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_survive_across_many_segments() {
        // A frame size that does not divide the alignment, and enough
        // frames to span several segments, so segment rounding and
        // per-segment addressing are both exercised.
        let mut b = MmapBackend::anonymous(48);
        // Shrink segments so the test maps several of them cheaply.
        b.frames_per_segment = 7;
        b.segment_span = (7u64 * 48).div_ceil(SEGMENT_ALIGN) * SEGMENT_ALIGN;
        let n = 100u32;
        for i in 0..n {
            assert_eq!(b.allocate(), i);
            let frame = [(i % 251) as u8; 48];
            b.write(i, &frame, IoClass::Metered).unwrap();
        }
        assert!(b.segments.len() > 10, "spans many segments");
        let mut out = [0u8; 48];
        for i in (0..n).rev() {
            b.read(i, &mut out, IoClass::Metered).unwrap();
            assert_eq!(out, [(i % 251) as u8; 48], "frame {i}");
        }
        b.flush().unwrap();
        assert_eq!(b.io().bytes_written, n as u64 * 48);
        assert_eq!(b.io().bytes_read, n as u64 * 48);
    }

    #[test]
    #[should_panic(expected = "never-written")]
    fn mmap_read_before_write_panics() {
        let mut b = MmapBackend::anonymous(8);
        let i = b.allocate();
        let mut out = vec![0u8; 8];
        let _ = b.read(i, &mut out, IoClass::Metered);
    }

    #[test]
    #[should_panic(expected = "never-written")]
    fn mmap_read_after_free_panics() {
        let mut b = MmapBackend::anonymous(8);
        let i = b.allocate();
        b.write(i, &[9u8; 8], IoClass::Metered).unwrap();
        b.free(i);
        let mut out = vec![0u8; 8];
        let _ = b.read(i, &mut out, IoClass::Metered);
    }

    #[test]
    fn backend_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MmapBackend>();
    }
}

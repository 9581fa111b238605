//! Deterministic storage fault injection: [`FaultBackend`] wraps any real
//! [`PageBackend`] and injects failures from one of two schedules
//! ([`FaultProfile`]):
//!
//! * [`FaultProfile::FailAt`] — the `at`-th read (or write) attempt after
//!   injection, counting from 0, fails with a [`FaultKind::Transient`] or
//!   [`FaultKind::Persistent`] error before it reaches the inner backend;
//!   every other operation passes through. No bytes are accounted for the
//!   failed attempt and the inner backend is untouched, so under a
//!   transient fault the store's one retry performs the one real transfer
//!   and every byte-level invariant survives. Sweeping `at = 0, 1, …` until
//!   the schedule no longer fires reaches every fault point of a run — what
//!   `tests/fault_sweep.rs` in the workspace does.
//! * [`FaultProfile::CorruptFrame`] — reads of one chosen frame succeed but
//!   deliver a flipped bit, simulating bit-rot on the medium. The store's
//!   checksum verification turns that into a structured
//!   [`Corrupt`](crate::FaultKind::Corrupt) error and quarantines the frame.
//!
//! Both are pure functions of the operations the backend sees — never a
//! clock, never OS randomness. The wrapper reports the *inner* backend's
//! [`StorageBackend`] kind, so backend-parity assertions see straight
//! through it.

use crate::backend::{BackendIo, IoClass, PageBackend, StorageBackend};
use crate::error::{FaultKind, IoOp, PageIoError};

/// Counters of injected faults and store-side recovery actions, surfaced by
/// [`PageStore::fault_stats`](crate::PageStore::fault_stats) alongside
/// [`BackendIo`].
///
/// The injection tallies (`injected_*`) come from the [`FaultBackend`]; the
/// recovery tallies (`retries`, `recoveries`, `write_retries`,
/// `quarantined_frames`) are filled in by the store that drives it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Read errors injected before the real transfer.
    pub injected_read_faults: u64,
    /// Write errors injected before the real transfer.
    pub injected_write_faults: u64,
    /// Reads that delivered a deliberately flipped bit
    /// ([`FaultProfile::CorruptFrame`]).
    pub injected_bit_flips: u64,
    /// Read attempts the store repeated after a transient error.
    pub retries: u64,
    /// Reads that succeeded after at least one retry.
    pub recoveries: u64,
    /// Write attempts the store repeated after a transient error.
    pub write_retries: u64,
    /// Frames quarantined after a checksum failure.
    pub quarantined_frames: u64,
}

/// Which fault schedule a [`FaultBackend`] runs — see the
/// [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultProfile {
    /// Attempt `at` (from 0, counted per operation since injection) of
    /// `op` — [`IoOp::Read`] or [`IoOp::Write`] — fails with `kind`.
    FailAt {
        /// The operation whose attempts are counted.
        op: IoOp,
        /// The failing attempt.
        at: u64,
        /// [`FaultKind::Transient`] or [`FaultKind::Persistent`].
        kind: FaultKind,
    },
    /// Every read of the given frame index delivers one flipped bit.
    CorruptFrame(u32),
}

impl FaultProfile {
    /// Read attempt `at` fails with `kind`.
    pub fn fail_read(at: u64, kind: FaultKind) -> Self {
        FaultProfile::FailAt {
            op: IoOp::Read,
            at,
            kind,
        }
    }
}

/// The fault-injecting wrapper backend — see the [module docs](self).
#[derive(Debug)]
pub struct FaultBackend {
    inner: Box<dyn PageBackend>,
    profile: FaultProfile,
    /// Read and write attempts seen so far.
    reads: u64,
    writes: u64,
    stats: FaultStats,
}

impl FaultBackend {
    /// Wraps `inner` under the given fault schedule.
    pub fn new(inner: Box<dyn PageBackend>, profile: FaultProfile) -> Self {
        FaultBackend {
            inner,
            profile,
            reads: 0,
            writes: 0,
            stats: FaultStats::default(),
        }
    }

    /// Counts one attempt of `op` on frame `index` and fails it if the
    /// schedule names it.
    fn attempt(&mut self, op: IoOp, index: u32) -> Result<(), PageIoError> {
        let (attempts, injected) = match op {
            IoOp::Read => (&mut self.reads, &mut self.stats.injected_read_faults),
            _ => (&mut self.writes, &mut self.stats.injected_write_faults),
        };
        let attempt = *attempts;
        *attempts += 1;
        match self.profile {
            FaultProfile::FailAt { op: o, at, kind } if o == op && at == attempt => {
                *injected += 1;
                Err(PageIoError {
                    kind,
                    op,
                    page: Some(index),
                    detail: format!("injected at {} attempt {at}", op.name()),
                })
            }
            _ => Ok(()),
        }
    }
}

impl PageBackend for FaultBackend {
    fn kind(&self) -> StorageBackend {
        // Transparent: parity checks and store bookkeeping see the real
        // backend kind.
        self.inner.kind()
    }

    fn frame_size(&self) -> usize {
        self.inner.frame_size()
    }

    fn allocate(&mut self) -> u32 {
        self.inner.allocate()
    }

    fn read(&mut self, index: u32, frame: &mut [u8], class: IoClass) -> Result<(), PageIoError> {
        self.attempt(IoOp::Read, index)?;
        self.inner.read(index, frame, class)?;
        if self.profile == FaultProfile::CorruptFrame(index) && !frame.is_empty() {
            frame[frame.len() / 2] ^= 0x40;
            self.stats.injected_bit_flips += 1;
        }
        Ok(())
    }

    fn write(&mut self, index: u32, frame: &[u8], class: IoClass) -> Result<(), PageIoError> {
        self.attempt(IoOp::Write, index)?;
        self.inner.write(index, frame, class)
    }

    fn free(&mut self, index: u32) {
        self.inner.free(index);
    }

    fn flush(&mut self) -> Result<(), PageIoError> {
        self.inner.flush()
    }

    fn io(&self) -> BackendIo {
        self.inner.io()
    }

    fn fault_stats(&self) -> FaultStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::HeapBackend;

    fn over_heap(profile: FaultProfile) -> FaultBackend {
        FaultBackend::new(Box::new(HeapBackend::new(16)), profile)
    }

    /// Writes and reads back 8 frames, repeating each failed attempt once;
    /// returns the errors of the failed attempts.
    fn drive(b: &mut FaultBackend) -> Vec<PageIoError> {
        let mut errors = Vec::new();
        let mut out = [0u8; 16];
        for i in 0..8u32 {
            assert_eq!(b.allocate(), i);
            let frame = [i as u8 + 1; 16];
            if let Err(e) = b.write(i, &frame, IoClass::Metered) {
                errors.push(e);
                b.write(i, &frame, IoClass::Metered).unwrap();
            }
            if let Err(e) = b.read(i, &mut out, IoClass::Metered) {
                errors.push(e);
                b.read(i, &mut out, IoClass::Metered).unwrap();
            }
            assert_eq!(out, frame, "frame {i}");
        }
        errors
    }

    #[test]
    fn the_scheduled_attempt_fails_exactly_once_with_its_kind() {
        for kind in [FaultKind::Transient, FaultKind::Persistent] {
            for op in [IoOp::Read, IoOp::Write] {
                let mut b = over_heap(FaultProfile::FailAt { op, at: 5, kind });
                let detail = format!("injected at {} attempt 5", op.name());
                let expected = PageIoError {
                    kind,
                    op,
                    page: Some(5),
                    detail,
                };
                assert_eq!(drive(&mut b), vec![expected]);
                let stats = b.fault_stats();
                let counts = (stats.injected_read_faults, stats.injected_write_faults);
                assert_eq!(counts, if op == IoOp::Read { (1, 0) } else { (0, 1) });
            }
        }
    }

    #[test]
    fn injected_faults_move_no_bytes() {
        for profile in [
            FaultProfile::fail_read(3, FaultKind::Transient),
            FaultProfile::FailAt {
                op: IoOp::Write,
                at: 6,
                kind: FaultKind::Persistent,
            },
        ] {
            let mut b = over_heap(profile);
            assert_eq!(drive(&mut b).len(), 1);
            // One real transfer per operation: 8 writes, 8 reads.
            let io = b.io();
            assert_eq!((io.bytes_written, io.bytes_read), (8 * 16, 8 * 16));
        }
    }

    #[test]
    fn a_schedule_past_the_last_attempt_never_fires() {
        let mut b = over_heap(FaultProfile::fail_read(8, FaultKind::Persistent));
        assert_eq!(drive(&mut b), vec![]);
        assert_eq!(b.fault_stats(), FaultStats::default());
        assert_eq!(b.kind(), StorageBackend::Heap);
    }

    #[test]
    fn corrupt_profile_flips_one_bit_of_the_target_frame_only() {
        let mut b = over_heap(FaultProfile::CorruptFrame(1));
        let frame = [0u8; 16];
        let mut out = [7u8; 16];
        for i in 0..3u32 {
            b.allocate();
            b.write(i, &frame, IoClass::Metered).unwrap();
        }
        b.read(0, &mut out, IoClass::Metered).unwrap();
        assert_eq!(out, frame, "frame 0 must be intact");
        b.read(1, &mut out, IoClass::Metered).unwrap();
        assert_eq!(out[8], 0x40, "frame 1 carries the flipped bit");
        assert_eq!(b.fault_stats().injected_bit_flips, 1);
        b.read(2, &mut out, IoClass::Metered).unwrap();
        assert_eq!(out, frame, "frame 2 must be intact");
    }
}

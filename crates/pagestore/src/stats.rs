//! I/O statistics counters.
//!
//! # Relaxed-consistency contract
//!
//! Every atomic access in this module uses `Ordering::Relaxed`, and that is
//! a deliberate, audited choice — the counters are *pure event counts*:
//! nothing reads a counter to decide control flow, and no other shared
//! memory is published or acquired through them, so there is no
//! happens-before edge for a stronger ordering to establish. Per site:
//!
//! * **Increments** (`record_*`, all `fetch_add(1, Relaxed)`): each counter
//!   has a single total modification order, so relaxed read-modify-writes
//!   never lose events — per-counter totals are exact regardless of thread
//!   interleaving (exercised by `stats_handles_are_send_and_sync`).
//! * **Snapshot loads** ([`IoStats::snapshot`], five relaxed loads): the
//!   snapshot is *not* an atomic cut — it may tear across counters while
//!   writers are active (a `logical_reads` increment visible while its
//!   paired `buffer_hits` increment is not). Each value is still exact and
//!   monotone. All engine measurement paths snapshot at quiescent points
//!   (the metered coordinator is single-threaded; fast mode keeps local
//!   counts), so they always observe an exact cross-counter cut; only an
//!   external mid-flight sampler sees the torn view.
//! * **Reset stores** ([`IoStats::reset`], relaxed `store(0)`): reset is a
//!   measurement-protocol operation, valid only while no recorder is
//!   running. Racing it against recorders loses no *memory safety*, only
//!   attribution (an increment may land before or after the zeroing) — the
//!   harness never does so.
//!
//! If a future counter ever gates control flow or publishes other data,
//! that site must leave this contract (and upgrade its ordering) rather
//! than stretch it.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared, thread-safe I/O counters.
///
/// One `IoStats` instance is shared (via [`IoStats::clone`], which is a
/// reference-count bump) between the page store, the buffer manager and any
/// algorithm that wants to attribute costs. The experiment harness takes
/// [`IoSnapshot`]s before and after a phase and subtracts them to obtain the
/// phase cost (e.g. MAT vs JOIN in Figure 7).
///
/// The counters are `AtomicU64`-backed (relaxed ordering — they are pure
/// event counts with no synchronisation role), so an `IoStats` handle is
/// `Send + Sync` and concurrent leaf units of the parallel NM-CIJ path can
/// attribute page accesses without data races.
#[derive(Debug, Clone, Default)]
pub struct IoStats {
    inner: Arc<Counters>,
}

#[derive(Debug, Default)]
struct Counters {
    physical_reads: AtomicU64,
    physical_writes: AtomicU64,
    logical_reads: AtomicU64,
    logical_writes: AtomicU64,
    buffer_hits: AtomicU64,
}

/// A point-in-time copy of the counters, used to compute per-phase deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    /// Physical page reads (buffer misses).
    pub physical_reads: u64,
    /// Physical page writes (dirty evictions and flushes).
    pub physical_writes: u64,
    /// Logical read requests (hits + misses).
    pub logical_reads: u64,
    /// Logical write requests.
    pub logical_writes: u64,
    /// Logical reads served from the buffer.
    pub buffer_hits: u64,
}

impl IoSnapshot {
    /// Total physical page accesses (reads + writes) — the paper's cost
    /// metric.
    pub fn page_accesses(&self) -> u64 {
        self.physical_reads + self.physical_writes
    }

    /// Component-wise difference `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            physical_reads: self.physical_reads.saturating_sub(earlier.physical_reads),
            physical_writes: self.physical_writes.saturating_sub(earlier.physical_writes),
            logical_reads: self.logical_reads.saturating_sub(earlier.logical_reads),
            logical_writes: self.logical_writes.saturating_sub(earlier.logical_writes),
            buffer_hits: self.buffer_hits.saturating_sub(earlier.buffer_hits),
        }
    }

    /// Buffer hit ratio over logical reads (0 when there were none).
    pub fn hit_ratio(&self) -> f64 {
        if self.logical_reads == 0 {
            0.0
        } else {
            self.buffer_hits as f64 / self.logical_reads as f64
        }
    }
}

impl IoStats {
    /// Creates a fresh set of counters, all zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a logical read that missed the buffer (a physical read).
    pub fn record_miss(&self) {
        self.inner.logical_reads.fetch_add(1, Ordering::Relaxed);
        self.inner.physical_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a logical read served from the buffer.
    pub fn record_hit(&self) {
        self.inner.logical_reads.fetch_add(1, Ordering::Relaxed);
        self.inner.buffer_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a logical write request.
    pub fn record_logical_write(&self) {
        self.inner.logical_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a physical page write (dirty eviction or flush).
    pub fn record_physical_write(&self) {
        self.inner.physical_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Current counter values.
    ///
    /// # Consistency contract
    ///
    /// The snapshot is built from five independent relaxed loads, **not**
    /// an atomic cut across all counters: if other threads are recording
    /// events concurrently, the copy may mix "before" and "after" values of
    /// different counters (e.g. a `logical_reads` increment visible while
    /// its paired `buffer_hits` increment is not). Each individual counter
    /// is still exact and monotonic.
    ///
    /// The engine's measurement paths never rely on cross-counter
    /// atomicity: metered execution funnels all accounting through the
    /// single-threaded coordinator (parallel units record traces that are
    /// replayed sequentially), so every snapshot it takes is quiescent and
    /// therefore exact across counters. Fast-mode execution does not write
    /// shared counters at all — it keeps per-query local read counts. Only
    /// an external observer sampling mid-flight sees the relaxed,
    /// per-counter-exact view described above.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            physical_reads: self.inner.physical_reads.load(Ordering::Relaxed),
            physical_writes: self.inner.physical_writes.load(Ordering::Relaxed),
            logical_reads: self.inner.logical_reads.load(Ordering::Relaxed),
            logical_writes: self.inner.logical_writes.load(Ordering::Relaxed),
            buffer_hits: self.inner.buffer_hits.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero.
    ///
    /// The buffer contents are *not* affected; use this together with
    /// clearing the buffer when a fully cold-start measurement is needed.
    /// Per the module's relaxed-consistency contract, call only at
    /// quiescent points (no concurrent recorders).
    pub fn reset(&self) {
        self.inner.physical_reads.store(0, Ordering::Relaxed);
        self.inner.physical_writes.store(0, Ordering::Relaxed);
        self.inner.logical_reads.store(0, Ordering::Relaxed);
        self.inner.logical_writes.store(0, Ordering::Relaxed);
        self.inner.buffer_hits.store(0, Ordering::Relaxed);
    }
}

impl fmt::Display for IoSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reads={} writes={} (logical r/w {}/{}, hits {})",
            self.physical_reads,
            self.physical_writes,
            self.logical_reads,
            self.logical_writes,
            self.buffer_hits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = IoStats::new();
        s.record_miss();
        s.record_miss();
        s.record_hit();
        s.record_logical_write();
        s.record_physical_write();
        let snap = s.snapshot();
        assert_eq!(snap.physical_reads, 2);
        assert_eq!(snap.buffer_hits, 1);
        assert_eq!(snap.logical_reads, 3);
        assert_eq!(snap.logical_writes, 1);
        assert_eq!(snap.physical_writes, 1);
        assert_eq!(snap.page_accesses(), 3);
    }

    #[test]
    fn clones_share_counters() {
        let a = IoStats::new();
        let b = a.clone();
        b.record_miss();
        assert_eq!(a.snapshot().physical_reads, 1);
    }

    #[test]
    fn snapshot_delta() {
        let s = IoStats::new();
        s.record_miss();
        let before = s.snapshot();
        s.record_miss();
        s.record_hit();
        s.record_physical_write();
        let delta = s.snapshot().since(&before);
        assert_eq!(delta.physical_reads, 1);
        assert_eq!(delta.buffer_hits, 1);
        assert_eq!(delta.physical_writes, 1);
        assert_eq!(delta.page_accesses(), 2);
    }

    #[test]
    fn hit_ratio() {
        let s = IoStats::new();
        assert_eq!(s.snapshot().hit_ratio(), 0.0);
        s.record_miss();
        s.record_hit();
        s.record_hit();
        s.record_hit();
        assert!((s.snapshot().hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = IoStats::new();
        s.record_miss();
        s.record_physical_write();
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn stats_handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IoStats>();

        // Concurrent attribution from several threads lands in one counter
        // set without loss.
        let s = IoStats::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = s.clone();
                scope.spawn(move || {
                    for _ in 0..1_000 {
                        s.record_miss();
                    }
                });
            }
        });
        assert_eq!(s.snapshot().physical_reads, 4_000);
    }
}

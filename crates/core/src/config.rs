//! Configuration shared by the CIJ algorithms.

use cij_geom::Rect;
use cij_pagestore::StorageBackend;
use cij_rtree::{LeafLayout, RTreeConfig};

// Inert: `cij_benchmark/src/layers.rs` is its only reader.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FilterKernel {
    #[default]
    Indexed,
}

/// How a streaming executor pays for its tree reads — the trade between
/// exact cost accounting and per-query overhead. The mode is resolved
/// **once**, when a stream is constructed, into the accounting value the
/// chunk protocol runs on; no phase of a join branches on it afterwards,
/// and both modes run the same kernels over the same snapshot reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// The byte-exact counted path: every page access lands in the real
    /// LRU buffers and the shared [`cij_pagestore::IoStats`] — the chunk
    /// protocol reads through traced [`cij_rtree::SnapshotReader`]s whose
    /// page traces the coordinator replays in Hilbert leaf order, at any
    /// worker count. This is the correctness *and* accounting oracle — tests
    /// and the paper-figure benches run it. Needs the workload exclusively.
    /// The default.
    #[default]
    Metered,
    /// The lock-light serving path: the same snapshot reads, only
    /// *counted* — no trace is recorded, nothing is replayed, no shared
    /// buffer or counter is touched, and I/O is reported from a
    /// per-query-local counter. Results — pairs, tuples, set *and* order,
    /// every NM/multiway counter — are identical to [`ExecMode::Metered`];
    /// only the cost accounting changes meaning (logical snapshot reads
    /// instead of buffer-simulated physical accesses). Needs only shared
    /// tree access, so many simultaneous queries can run over one
    /// `Arc`-snapshotted tree set; see [`crate::service`].
    Fast,
}

impl ExecMode {
    /// Short label used by benches and tables.
    pub fn name(&self) -> &'static str {
        match self {
            ExecMode::Metered => "metered",
            ExecMode::Fast => "fast",
        }
    }
}

/// Configuration of a CIJ evaluation.
#[derive(Debug, Clone, Copy)]
pub struct CijConfig {
    /// Space domain the Voronoi cells are clipped to (the paper normalises
    /// all data to `[0, 10000]²`).
    pub domain: Rect,
    /// R-tree configuration used for any tree the algorithms build
    /// themselves (the Voronoi R-trees `R'P`/`R'Q`).
    pub rtree: RTreeConfig,
    /// Storage backend for every page store this configuration builds — the
    /// input trees of a [`Workload`](crate::workload::Workload), the
    /// materialised Voronoi R-trees, the multiway trees.
    ///
    /// [`StorageBackend::Heap`] (default) keeps page frames in memory, a
    /// simulated disk; [`StorageBackend::File`] keeps them in a real file
    /// accessed with positioned I/O. The choice cannot affect results or
    /// page-access counts (the backend parity guarantee of `cij_pagestore`)
    /// — it decides whether the counted accesses move real bytes, which
    /// `tests/storage.rs::file_bytes_read_match_counted_physical_reads`
    /// cross-checks.
    pub storage_backend: StorageBackend,
    /// Buffer capacity, as a fraction of each tree's size, applied to trees
    /// the algorithms build themselves (2 % in the paper).
    pub buffer_fraction: f64,
    /// Lower bound on the buffer capacity in pages.
    ///
    /// The paper's default buffer is "2 % of the data size" at |P| = 100 K,
    /// i.e. roughly 40 one-kilobyte pages in absolute terms. When experiments
    /// are run at reduced scale, 2 % of a small tree would be only a handful
    /// of pages — far below the working-set size of a single Voronoi-cell
    /// computation — which distorts the relative costs. This floor keeps the
    /// absolute buffer comparable to the paper's default; sweeps that want
    /// full control (Figure 8a) set it to 1.
    pub min_buffer_pages: usize,
    // Inert: `cij_benchmark/src/layers.rs` is its only reader.
    #[doc(hidden)]
    pub reuse_cells: bool,
    /// Capacity (in cells) of the bounded LRU
    /// [`CellCache`](crate::cell_cache::CellCache) used as the Section IV-B
    /// reuse buffer (the REUSE heuristic: exact Voronoi cells of `P`
    /// computed for one leaf of `RQ` serve the next ones) by NM-CIJ and the
    /// multiway/grouped extensions.
    ///
    /// The paper's buffer experiments (Fig. 8a) show reuse benefit
    /// saturating once the buffer covers the candidate overlap of
    /// neighbouring `RQ` leaves — a few leaves' worth of cells. The default
    /// (1024) is comfortably above that saturation point at the paper's
    /// default leaf sizes while keeping memory bounded at scale. Zero
    /// disables caching.
    pub cell_cache_capacity: usize,
    /// Number of worker threads NM-CIJ uses to process the leaves of `RQ`.
    ///
    /// Leaf units `(cells → filter → refine → report)` run on a worker pool
    /// of this width — `0` and `1` (the default) both mean one worker, at
    /// which the pool is inline calls on the caller's thread; above `1` it
    /// is a [`std::thread::scope`] pool. The per-leaf pair buffers are
    /// reassembled in Hilbert leaf order, so the emitted pairs (set *and*
    /// order), the NM counters and the page-access totals are identical at
    /// every width — workers compute against the trees as immutable
    /// snapshots and the coordinator replays each leaf's page-access trace
    /// through the real LRU buffer in leaf order (the chunk protocol;
    /// [`crate::nm`] points to its description). The stream stays lazy: at
    /// most a small multiple of `worker_threads` leaves are in flight, so
    /// first pairs never wait for the whole join.
    ///
    /// The multiway [`TupleStream`](crate::multiway::TupleStream) honours
    /// the same knob with the same exact-parity guarantee over its leaf
    /// units.
    pub worker_threads: usize,
    // Inert: `cij_benchmark/src/layers.rs` is its only reader.
    #[doc(hidden)]
    pub filter_kernel: FilterKernel,
    // Inert: `cij_benchmark/src/layers.rs` is its only reader.
    #[doc(hidden)]
    pub leaf_layout: LeafLayout,
    /// Execution path of the streaming executors (see [`ExecMode`]):
    /// [`ExecMode::Metered`] (the default) is the byte-exact counted
    /// oracle, [`ExecMode::Fast`] the lock-light serving path with
    /// snapshot reads and per-query-local I/O counters. Both modes emit
    /// identical pairs/tuples in identical order — the knob trades cost
    /// accounting for per-query overhead, never results.
    pub exec_mode: ExecMode,
}

impl Default for CijConfig {
    fn default() -> Self {
        CijConfig {
            domain: Rect::DOMAIN,
            rtree: RTreeConfig::default(),
            storage_backend: StorageBackend::Heap,
            buffer_fraction: cij_pagestore::DEFAULT_BUFFER_FRACTION,
            min_buffer_pages: 40,
            reuse_cells: true,
            cell_cache_capacity: 1024,
            worker_threads: 1,
            filter_kernel: FilterKernel::Indexed,
            leaf_layout: LeafLayout::Soa,
            exec_mode: ExecMode::Metered,
        }
    }
}

impl CijConfig {
    /// Sets the space domain.
    pub fn with_domain(mut self, domain: Rect) -> Self {
        self.domain = domain;
        self
    }

    /// Sets the R-tree configuration for algorithm-built trees.
    pub fn with_rtree(mut self, rtree: RTreeConfig) -> Self {
        self.rtree = rtree;
        self
    }

    /// Sets the storage backend for every page store built under this
    /// configuration (see [`CijConfig::storage_backend`]).
    pub fn with_storage_backend(mut self, storage: StorageBackend) -> Self {
        self.storage_backend = storage;
        self
    }

    /// Sets the buffer fraction for algorithm-built trees.
    pub fn with_buffer_fraction(mut self, fraction: f64) -> Self {
        self.buffer_fraction = fraction;
        self
    }

    /// Sets the minimum buffer capacity in pages.
    pub fn with_min_buffer_pages(mut self, pages: usize) -> Self {
        self.min_buffer_pages = pages;
        self
    }

    /// Sets the capacity of the Voronoi-cell reuse buffer (zero disables
    /// caching; see [`CijConfig::cell_cache_capacity`]).
    pub fn with_cell_cache_capacity(mut self, cells: usize) -> Self {
        self.cell_cache_capacity = cells;
        self
    }

    /// Sets the NM-CIJ worker-thread count (see
    /// [`CijConfig::worker_threads`]; `0` and `1` both mean one worker).
    pub fn with_worker_threads(mut self, threads: usize) -> Self {
        self.worker_threads = threads;
        self
    }

    /// Sets the execution mode (see [`ExecMode`]).
    pub fn with_exec_mode(mut self, mode: ExecMode) -> Self {
        self.exec_mode = mode;
        self
    }

    /// The effective number of worker threads (at least one).
    pub fn effective_worker_threads(&self) -> usize {
        self.worker_threads.max(1)
    }

    /// The buffer capacity (in pages) for a tree of `num_pages` pages under
    /// this configuration: `buffer_fraction` of the tree, but never below
    /// `min_buffer_pages` (and never zero unless the fraction is zero and the
    /// floor is zero).
    pub fn buffer_pages_for(&self, num_pages: usize) -> usize {
        let frac = ((num_pages as f64) * self.buffer_fraction).ceil() as usize;
        frac.max(self.min_buffer_pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_setting() {
        let c = CijConfig::default();
        assert_eq!(c.domain, Rect::DOMAIN);
        assert!((c.buffer_fraction - 0.02).abs() < 1e-12);
        assert_eq!(c.rtree.page_size, 1024);
    }

    #[test]
    fn builder_methods_apply() {
        let c = CijConfig::default()
            .with_buffer_fraction(0.1)
            .with_cell_cache_capacity(64)
            .with_domain(Rect::from_coords(0.0, 0.0, 1.0, 1.0));
        assert_eq!(c.buffer_fraction, 0.1);
        assert_eq!(c.cell_cache_capacity, 64);
        assert_eq!(c.domain.hi.x, 1.0);
    }

    #[test]
    fn worker_threads_default_and_builder() {
        let c = CijConfig::default();
        assert_eq!(c.worker_threads, 1, "sequential by default");
        assert_eq!(c.effective_worker_threads(), 1);
        let c = c.with_worker_threads(4);
        assert_eq!(c.worker_threads, 4);
        assert_eq!(c.effective_worker_threads(), 4);
        // Zero degrades to the sequential path, never to zero workers.
        assert_eq!(c.with_worker_threads(0).effective_worker_threads(), 1);
    }

    #[test]
    fn storage_backend_default_and_builder() {
        let c = CijConfig::default();
        assert_eq!(
            c.storage_backend,
            StorageBackend::Heap,
            "the simulated disk stays the default"
        );
        let c = c.with_storage_backend(StorageBackend::File);
        assert_eq!(c.storage_backend, StorageBackend::File);
    }

    #[test]
    fn exec_mode_default_and_builder() {
        let c = CijConfig::default();
        assert_eq!(c.exec_mode, ExecMode::Metered, "metered is the oracle");
        assert_eq!(c.exec_mode.name(), "metered");
        let c = c.with_exec_mode(ExecMode::Fast);
        assert_eq!(c.exec_mode, ExecMode::Fast);
        assert_eq!(c.exec_mode.name(), "fast");
    }

    #[test]
    fn default_cell_cache_is_bounded() {
        let c = CijConfig::default();
        assert!(c.cell_cache_capacity > 0, "reuse enabled by default");
        assert!(
            c.cell_cache_capacity <= 4096,
            "default stays bounded (Fig. 8a saturation, not unbounded growth)"
        );
    }
}

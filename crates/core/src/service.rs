//! A concurrent request server over a shared engine snapshot — the thin
//! serving front of the fast execution mode.
//!
//! The classic entry points ([`QueryEngine::run`], the blocking algorithm
//! functions) own a mutable [`Workload`](crate::workload::Workload): the
//! metered executor must mutate LRU page buffers and shared counters, so
//! two queries can never share a tree pair. The fast executor
//! ([`ExecMode::Fast`]) removes exactly that requirement — it traverses
//! trees through read-only snapshot readers with per-query-local I/O
//! counters — which makes a *serving* topology possible:
//!
//! * [`EngineSnapshot`] — `k` pointsets bulk-loaded into R-trees once and
//!   nothing else: every query walks its driving tree's Hilbert leaf order
//!   itself (a handful of non-leaf reads, charged to the query like every
//!   other read, and a failed walk fails that query only). Held in an
//!   `Arc`; any number of in-flight queries read it simultaneously with
//!   zero locks on the hot path.
//! * [`CijService`] — a bounded work queue plus a pool of worker threads.
//!   [`CijService::submit`] enqueues a [`Request`] (binary CIJ, multiway
//!   CIJ or grouped-NN) and returns immediately with a [`ResponseHandle`];
//!   when the queue is full the submit fails fast with [`QueueFull`]
//!   (back-pressure at the door, not inside the engine).
//! * **Admission control**: before executing, a worker reserves what the
//!   query's caches will hold from the service's global [`CacheBudget`].
//!   When the budget is exhausted the worker blocks until a running query
//!   returns its lease — so aggregate cache residency never exceeds the
//!   budget, and each query's private cache makes cross-query eviction
//!   structurally impossible. The query cache quota, clamped to the budget,
//!   is `quota`. A binary query's one cache gets and reserves all of it; a
//!   multiway query over `k` sets gives each of its `k − 1` probed sets
//!   `quota / k` cells — what a direct run at that per-set capacity holds —
//!   and reserves their sum, `(k − 1) · (quota / k)`: the driving set needs
//!   no cache, and its share is never reserved.
//! * **Incremental streaming**: results flow back through the handle in
//!   batches cut at the underlying stream's [`LeafWatermark`] boundaries —
//!   everything in a delivered batch is final, exactly the checkpointing
//!   contract of [`PairStream`](crate::engine::PairStream) and
//!   [`TupleStream`]. One loop serves every request kind (`drive`, which
//!   carries the description of the flush / poll / fail-stop sequence).
//!
//! # Failure model and graceful degradation
//!
//! A query can end four ways short of success, all surfaced the same way: a
//! terminal [`Batch::Error`] frame carrying a structured [`QueryError`],
//! followed by a [`Completion`] with [`failed`](Completion::failed) set and
//! the same error in [`Completion::error`]. Batches delivered *before* the
//! error frame are final — the watermark contract holds right up to the
//! failure point.
//!
//! * **Storage failure** ([`QueryError::Storage`]): the underlying stream
//!   fail-stopped on a [`PageIoError`] (e.g. a checksum mismatch on a
//!   corrupt frame). Only the affected query fails; concurrent queries on
//!   healthy pages are untouched.
//! * **Worker panic** ([`QueryError::Panic`]): the panic payload's message
//!   is captured and forwarded — the worker thread itself survives and
//!   returns to the pool.
//! * **Deadline** ([`QueryError::DeadlineExceeded`]): a query submitted
//!   with [`CijService::submit_with_deadline`] is checked against the
//!   service's [`ServiceClock`] at every watermark boundary — cancellation
//!   is cooperative and never tears a batch.
//! * **Cancellation** ([`QueryError::Cancelled`]): [`ResponseHandle::cancel`]
//!   flags the query; the worker notices at the next watermark boundary
//!   (or at admission, if the query is still queued).
//!
//! [`CijService::shutdown`] keeps its drain semantics under all of the
//! above: every accepted request still completes — successfully or with a
//! terminal error frame — before the workers join.
//!
//! [`ExecMode::Fast`]: crate::config::ExecMode::Fast
//! [`QueryEngine::run`]: crate::engine::QueryEngine::run
//! [`LeafWatermark`]: crate::stats::LeafWatermark

use crate::cell_cache::CacheBudget;
use crate::chunk::LeafStream;
use crate::config::CijConfig;
use crate::grouped::GroupCounts;
use crate::multiway::{MultiwayTuple, TupleStream};
use crate::nm::NmPairIter;
use crate::workload::MultiwayWorkload;
use cij_geom::Point;
use cij_pagestore::PageIoError;
use cij_rtree::{PointObject, RTree};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Locks `m`, recovering the guard from a poisoned mutex instead of
/// panicking.
///
/// Worker panics are caught by [`worker_loop`]'s `catch_unwind` and
/// reported as [`Completion::failed`]; a panic while a lock is held poisons
/// it, and a plain `.lock().unwrap()` in the *other* workers (or in the
/// submitting thread's [`ResponseHandle`]) would then cascade that one
/// failure into a pool-wide panic storm. Every critical section in this
/// module leaves the shared state structurally valid at each unlock point
/// (short push/pop/flag sections — no multi-step invariants span a panic
/// site), so recovering the guard is sound and keeps the pool
/// `catch_unwind`-recoverable (lint rule `CIJ-C502`).
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] with the same poison recovery as [`lock_recover`].
fn wait_recover<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// An immutable, shareable snapshot of `k` indexed pointsets — the data a
/// [`CijService`] serves queries against.
///
/// Building the snapshot bulk-loads one R-tree per set through the same
/// [`MultiwayWorkload`] path as every measured workload, so accounting
/// rules cannot drift. Nothing else is precomputed: each query walks its
/// driving tree's Hilbert leaf order itself (module docs).
#[derive(Debug)]
pub struct EngineSnapshot {
    config: CijConfig,
    trees: Vec<RTree<PointObject>>,
}

impl EngineSnapshot {
    /// Indexes `sets` under `config`.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is empty.
    pub fn build(sets: &[Vec<Point>], config: &CijConfig) -> Self {
        EngineSnapshot {
            config: *config,
            trees: MultiwayWorkload::build(sets, config).trees,
        }
    }

    /// Number of indexed pointsets.
    pub fn k(&self) -> usize {
        self.trees.len()
    }

    /// The configuration the snapshot was built under (queries execute with
    /// it, always in [`ExecMode::Fast`](crate::config::ExecMode::Fast)).
    pub fn config(&self) -> &CijConfig {
        &self.config
    }

    /// The R-tree of set `i`.
    pub fn tree(&self, i: usize) -> &RTree<PointObject> {
        &self.trees[i]
    }

    /// Mutable access to the R-tree of set `i` — only reachable before the
    /// snapshot is shared (`Arc::new` freezes it), which is exactly the
    /// window fault-injection harnesses need to arm
    /// [`inject_fault`](RTree::inject_fault) / drop buffers on a tree that
    /// will then serve queries immutably.
    pub fn tree_mut(&mut self, i: usize) -> &mut RTree<PointObject> {
        &mut self.trees[i]
    }
}

/// One query against an [`EngineSnapshot`]'s sets, identified by index.
#[derive(Debug, Clone)]
pub enum Request {
    /// Binary NM-CIJ of sets `p` and `q`; streams [`Batch::Pairs`].
    Join {
        /// Index of the `P` set (filter/refinement side).
        p: usize,
        /// Index of the `Q` set (driving side).
        q: usize,
    },
    /// Multiway CIJ over the listed sets (any non-empty subset, any order);
    /// streams [`Batch::Tuples`] with ids in the listed order.
    Multiway {
        /// Indices of the participating sets.
        sets: Vec<usize>,
    },
    /// Grouped nearest-neighbour analysis: joins sets `p` and `q`, counting
    /// `locations` per common influence region as the join reports
    /// ([`crate::grouped`]); one final [`Batch::Groups`], none on failure.
    GroupedNn {
        /// Index of the `P` set.
        p: usize,
        /// Index of the `Q` set.
        q: usize,
        /// The locations to assign to (p, q) influence regions.
        locations: Vec<Point>,
    },
}

/// A chunk of results delivered through a [`ResponseHandle`]. Batches are
/// cut at leaf-watermark boundaries, so everything in a delivered batch is
/// final.
#[derive(Debug, Clone)]
pub enum Batch {
    /// Result pairs of a [`Request::Join`].
    Pairs(Vec<(u64, u64)>),
    /// Result tuples of a [`Request::Multiway`].
    Tuples(Vec<MultiwayTuple>),
    /// The complete counts of a [`Request::GroupedNn`].
    Groups(GroupCounts),
    /// Terminal frame of a failed request: the structured reason. Batches
    /// delivered before this frame are final; nothing follows it.
    Error(QueryError),
}

/// Why a request failed — the structured payload of [`Batch::Error`] and
/// [`Completion::error`]. See the module-level failure model.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The underlying stream fail-stopped on a storage error.
    Storage(PageIoError),
    /// The executing worker panicked; the payload's message is preserved.
    Panic(String),
    /// The query ran past its submitted deadline and was cooperatively
    /// cancelled at a watermark boundary.
    DeadlineExceeded,
    /// The query was cancelled through [`ResponseHandle::cancel`].
    Cancelled,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Storage(e) => write!(f, "storage failure: {e}"),
            QueryError::Panic(msg) => write!(f, "worker panicked: {msg}"),
            QueryError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            QueryError::Cancelled => write!(f, "query cancelled"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Terminal summary of a completed request.
#[derive(Debug, Clone, Default)]
pub struct Completion {
    /// Result rows produced (pairs, tuples, or groups).
    pub rows: u64,
    /// The query's page-access figure: its private logical snapshot-read
    /// count (fast-mode accounting); a grouped request's is its join's.
    pub page_accesses: u64,
    /// Leaf watermarks the underlying stream recorded.
    pub watermarks: usize,
    /// True when the request ended short of success; any delivered batches
    /// are valid but the result is truncated. [`Completion::error`] says
    /// why.
    pub failed: bool,
    /// The structured failure reason when [`failed`](Completion::failed) is
    /// set (the same value the terminal [`Batch::Error`] frame carried).
    pub error: Option<QueryError>,
}

/// The service's notion of time, in abstract ticks — injected so deadline
/// tests are deterministic ([`ManualClock`]) while production uses the
/// monotonic [`SystemClock`] (one tick = one millisecond).
pub trait ServiceClock: Send + Sync {
    /// Current time in ticks. Monotonically non-decreasing.
    fn now_ticks(&self) -> u64;
}

/// Wall-clock [`ServiceClock`]: milliseconds elapsed since the clock was
/// created.
#[derive(Debug)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// Captures the origin; all ticks are measured from here.
    pub fn new() -> Self {
        SystemClock {
            // The service's single real-time read (allowlisted CIJ-D101):
            // deadlines are relative to submission, so one origin capture
            // plus monotonic `elapsed` is all the wall clock we need.
            origin: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        SystemClock::new()
    }
}

impl ServiceClock for SystemClock {
    fn now_ticks(&self) -> u64 {
        self.origin.elapsed().as_millis() as u64
    }
}

/// Hand-advanced [`ServiceClock`] for deterministic deadline tests: time
/// moves only when [`ManualClock::advance`] is called.
#[derive(Debug, Default)]
pub struct ManualClock {
    ticks: Mutex<u64>,
}

impl ManualClock {
    /// A clock frozen at tick 0.
    pub fn new() -> Self {
        ManualClock::default()
    }

    /// Moves time forward by `ticks`.
    pub fn advance(&self, ticks: u64) {
        *lock_recover(&self.ticks) += ticks;
    }
}

impl ServiceClock for ManualClock {
    fn now_ticks(&self) -> u64 {
        *lock_recover(&self.ticks)
    }
}

/// Error returned by [`CijService::submit`] when the bounded work queue is
/// at capacity — the caller should back off and retry (back-pressure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "service work queue is full")
    }
}

impl std::error::Error for QueueFull {}

/// Sizing knobs of a [`CijService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Maximum queued (not yet started) requests before [`CijService::submit`]
    /// returns [`QueueFull`].
    pub queue_depth: usize,
    /// Worker threads executing requests concurrently.
    pub workers: usize,
    /// Global cell-cache budget shared by all in-flight queries, in cells
    /// (see [`CacheBudget`]).
    pub cache_budget_cells: usize,
    /// Cell-cache quota each query reserves from the budget before it runs
    /// (clamped to the whole budget if larger).
    pub query_cache_quota: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_depth: 64,
            workers: 4,
            cache_budget_cells: 4096,
            query_cache_quota: 512,
        }
    }
}

/// State shared between a worker and the [`ResponseHandle`] of one request.
#[derive(Default)]
struct ResponseShared {
    state: Mutex<ResponseState>,
    ready: Condvar,
}

#[derive(Default)]
struct ResponseState {
    batches: VecDeque<Batch>,
    done: bool,
    completion: Option<Completion>,
    /// Set by [`ResponseHandle::cancel`]; workers poll it at watermark
    /// boundaries (cooperative cancellation — a batch is never torn).
    cancelled: bool,
}

/// The consumer side of one submitted request: result batches stream out as
/// the worker produces them; [`ResponseHandle::completion`] blocks for the
/// terminal summary.
pub struct ResponseHandle {
    shared: Arc<ResponseShared>,
}

impl std::fmt::Debug for ResponseHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResponseHandle").finish_non_exhaustive()
    }
}

impl ResponseHandle {
    /// Blocks until the next result batch is available; `None` once the
    /// request has completed and every batch has been taken.
    pub fn next_batch(&self) -> Option<Batch> {
        let mut state = lock_recover(&self.shared.state);
        loop {
            if let Some(batch) = state.batches.pop_front() {
                return Some(batch);
            }
            if state.done {
                return None;
            }
            state = wait_recover(&self.shared.ready, state);
        }
    }

    /// Blocks until the request completes and returns its summary. Batches
    /// not yet taken remain available through [`ResponseHandle::next_batch`].
    pub fn completion(&self) -> Completion {
        let mut state = lock_recover(&self.shared.state);
        while !state.done {
            state = wait_recover(&self.shared.ready, state);
        }
        state.completion.clone().unwrap_or_default()
    }

    /// Requests cooperative cancellation: the executing worker notices at
    /// the next watermark boundary and ends the query with a terminal
    /// [`Batch::Error`]`(`[`QueryError::Cancelled`]`)` frame. Batches
    /// already delivered stay valid. Idempotent; a no-op once the request
    /// has completed.
    pub fn cancel(&self) {
        lock_recover(&self.shared.state).cancelled = true;
    }

    /// Drains every remaining batch of a [`Request::Join`] into a flat pair
    /// vector (blocking until the request completes).
    pub fn collect_pairs(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(batch) = self.next_batch() {
            if let Batch::Pairs(pairs) = batch {
                out.extend(pairs);
            }
        }
        out
    }

    /// Drains every remaining batch of a [`Request::Multiway`] into a flat
    /// tuple vector (blocking until the request completes).
    pub fn collect_tuples(&self) -> Vec<MultiwayTuple> {
        let mut out = Vec::new();
        while let Some(batch) = self.next_batch() {
            if let Batch::Tuples(tuples) = batch {
                out.extend(tuples);
            }
        }
        out
    }

    /// Drains the response of a [`Request::GroupedNn`] (blocking).
    pub fn collect_groups(&self) -> GroupCounts {
        let mut out = GroupCounts::new();
        while let Some(batch) = self.next_batch() {
            if let Batch::Groups(groups) = batch {
                out.extend(groups);
            }
        }
        out
    }
}

fn push_batch(shared: &ResponseShared, batch: Batch) {
    let mut state = lock_recover(&shared.state);
    state.batches.push_back(batch);
    drop(state);
    shared.ready.notify_all();
}

fn mark_done(shared: &ResponseShared, completion: Completion) {
    let mut state = lock_recover(&shared.state);
    state.done = true;
    state.completion = Some(completion);
    drop(state);
    shared.ready.notify_all();
}

/// Ends a request with a terminal [`Batch::Error`] frame and a failed
/// [`Completion`] carrying the same structured reason. `prefix` describes
/// the valid prefix that was delivered before the failure.
fn fail_query(shared: &ResponseShared, error: QueryError, prefix: Completion) {
    push_batch(shared, Batch::Error(error.clone()));
    mark_done(
        shared,
        Completion {
            failed: true,
            error: Some(error),
            ..prefix
        },
    );
}

/// Extracts a human-readable message from a caught panic payload (`String`
/// and `&'static str` payloads cover `panic!` in practice).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(message) => (*message).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// Polls the two cooperative stop conditions, cancellation first (an
/// explicit cancel beats a deadline that expired in the same window).
fn check_interrupt(job: &Job, clock: &dyn ServiceClock) -> Option<QueryError> {
    if lock_recover(&job.shared.state).cancelled {
        return Some(QueryError::Cancelled);
    }
    if let Some(deadline) = job.deadline {
        // `>=` so a zero-tick deadline expires immediately — deterministic
        // under a frozen [`ManualClock`].
        if clock.now_ticks() >= deadline {
            return Some(QueryError::DeadlineExceeded);
        }
    }
    None
}

struct Job {
    request: Request,
    shared: Arc<ResponseShared>,
    /// Absolute deadline in clock ticks, if the submit set one.
    deadline: Option<u64>,
}

struct QueueInner {
    capacity: usize,
    state: Mutex<QueueState>,
    jobs_available: Condvar,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// The concurrent CIJ request server: a bounded work queue feeding a worker
/// pool that executes fast-mode queries against one shared
/// [`EngineSnapshot`].
///
/// ```
/// use cij_core::{CijConfig, QueryEngine};
/// use cij_core::service::{Request, ServiceConfig};
/// use cij_geom::Point;
///
/// let engine = QueryEngine::new(CijConfig::default());
/// let sets = vec![
///     vec![Point::new(2_000.0, 3_000.0), Point::new(7_000.0, 8_000.0)],
///     vec![Point::new(2_500.0, 2_500.0), Point::new(6_500.0, 8_500.0)],
/// ];
/// let service = engine.serve(&sets, ServiceConfig::default());
/// let handle = service.submit(Request::Join { p: 0, q: 1 }).unwrap();
/// assert!(!handle.collect_pairs().is_empty());
/// service.shutdown();
/// ```
pub struct CijService {
    snapshot: Arc<EngineSnapshot>,
    queue: Arc<QueueInner>,
    budget: CacheBudget,
    clock: Arc<dyn ServiceClock>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for CijService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CijService")
            .field("k", &self.snapshot.k())
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl CijService {
    /// Starts `config.workers` worker threads over `snapshot`, timing
    /// deadlines against the wall-clock [`SystemClock`].
    pub fn start(snapshot: Arc<EngineSnapshot>, config: ServiceConfig) -> Self {
        CijService::start_with_clock(snapshot, config, Arc::new(SystemClock::new()))
    }

    /// Like [`CijService::start`] with an injected [`ServiceClock`] — pass a
    /// [`ManualClock`] to test deadline behaviour deterministically.
    pub fn start_with_clock(
        snapshot: Arc<EngineSnapshot>,
        config: ServiceConfig,
        clock: Arc<dyn ServiceClock>,
    ) -> Self {
        let budget = CacheBudget::new(config.cache_budget_cells);
        let queue = Arc::new(QueueInner {
            capacity: config.queue_depth.max(1),
            state: Mutex::new(QueueState::default()),
            jobs_available: Condvar::new(),
        });
        let quota = config.query_cache_quota.max(1);
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let snapshot = Arc::clone(&snapshot);
                let budget = budget.clone();
                let clock = Arc::clone(&clock);
                std::thread::spawn(move || worker_loop(&queue, &snapshot, &budget, quota, &clock))
            })
            .collect();
        CijService {
            snapshot,
            queue,
            budget,
            clock,
            workers,
        }
    }

    /// The snapshot this service serves.
    pub fn snapshot(&self) -> &Arc<EngineSnapshot> {
        &self.snapshot
    }

    /// The global cell-cache budget (exposed so harnesses can assert on
    /// [`CacheBudget::high_water`]).
    pub fn budget(&self) -> &CacheBudget {
        &self.budget
    }

    /// Enqueues `request` and returns its response handle, or [`QueueFull`]
    /// when the bounded queue is at capacity.
    ///
    /// # Panics
    ///
    /// Panics if the request names a set index outside the snapshot, lists
    /// no sets, or the service has been shut down.
    pub fn submit(&self, request: Request) -> Result<ResponseHandle, QueueFull> {
        self.submit_with_deadline(request, None)
    }

    /// Like [`CijService::submit`] with a relative deadline: the query gets
    /// `deadline_ticks` ticks of service-clock time from now (including any
    /// time spent queued). Past the deadline the worker ends it at the next
    /// watermark boundary with [`QueryError::DeadlineExceeded`]; batches
    /// delivered before that stay valid. Zero ticks expire immediately —
    /// the query fails at its first boundary check.
    ///
    /// # Panics
    ///
    /// Same conditions as [`CijService::submit`].
    pub fn submit_with_deadline(
        &self,
        request: Request,
        deadline_ticks: Option<u64>,
    ) -> Result<ResponseHandle, QueueFull> {
        let k = self.snapshot.k();
        match &request {
            Request::Join { p, q } | Request::GroupedNn { p, q, .. } => {
                assert!(*p < k && *q < k, "set index out of range (k = {k})");
            }
            Request::Multiway { sets } => {
                assert!(!sets.is_empty(), "multiway request needs at least one set");
                assert!(
                    sets.iter().all(|&s| s < k),
                    "set index out of range (k = {k})"
                );
            }
        }
        let shared = Arc::new(ResponseShared::default());
        let deadline = deadline_ticks.map(|t| self.clock.now_ticks().saturating_add(t));
        {
            let mut state = lock_recover(&self.queue.state);
            assert!(!state.shutdown, "service is shut down");
            if state.jobs.len() >= self.queue.capacity {
                return Err(QueueFull);
            }
            state.jobs.push_back(Job {
                request,
                shared: Arc::clone(&shared),
                deadline,
            });
        }
        self.queue.jobs_available.notify_one();
        Ok(ResponseHandle { shared })
    }

    /// Stops accepting new requests, drains the queue and joins the worker
    /// threads (every submitted request still completes).
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        {
            let mut state = lock_recover(&self.queue.state);
            state.shutdown = true;
        }
        self.queue.jobs_available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for CijService {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn worker_loop(
    queue: &QueueInner,
    snapshot: &EngineSnapshot,
    budget: &CacheBudget,
    quota: usize,
    clock: &Arc<dyn ServiceClock>,
) {
    loop {
        let job = {
            let mut state = lock_recover(&queue.state);
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = wait_recover(&queue.jobs_available, state);
            }
        };
        run_job(snapshot, budget, quota, clock.as_ref(), job);
    }
}

/// Runs one dequeued job to completion, converting a worker panic into a
/// terminal [`QueryError::Panic`] frame carrying the payload's message (the
/// worker thread survives). Factored out of [`worker_loop`] so the panic
/// path is testable without staging a real pool.
fn run_job(
    snapshot: &EngineSnapshot,
    budget: &CacheBudget,
    quota: usize,
    clock: &dyn ServiceClock,
    job: Job,
) {
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        execute(snapshot, budget, quota, clock, &job)
    }));
    if let Err(payload) = run {
        let error = QueryError::Panic(panic_message(payload));
        fail_query(&job.shared, error, Completion::default());
    }
}

/// Drives one join stream to its end — the one loop every request kind
/// runs. Pull a row; whenever the stream's watermark count grew, everything
/// buffered before is final: flush it as one batch through `batch` (`None`
/// when the rows are not the answer: they are dropped as they are pulled),
/// then poll cancellation and the deadline — watermark boundaries double as
/// the cooperative stop points, so a stopped query never tears a batch. At
/// the end of the stream flush what is left (a fail-stopped stream emitted
/// only watermark-covered rows — the valid prefix) and surface a latched
/// storage error.
///
/// Returns the stream's summary, or `None` when the query ended here with
/// its terminal error frame.
fn drive<T, S: LeafStream<Item = T>>(
    stream: &mut S,
    job: &Job,
    clock: &dyn ServiceClock,
    batch: Option<fn(Vec<T>) -> Batch>,
) -> Option<Completion> {
    let shared = &job.shared;
    let mut buffered: Vec<T> = Vec::new();
    let mut rows = 0u64;
    let mut seen = 0usize;
    let stopped = loop {
        let next = stream.next();
        let ledger = stream.ledger();
        let boundary = ledger.watermarks.len() > seen;
        seen = ledger.watermarks.len();
        if boundary || next.is_none() {
            if let Some(batch) = batch.filter(|_| !buffered.is_empty()) {
                rows += buffered.len() as u64;
                push_batch(shared, batch(std::mem::take(&mut buffered)));
            }
        }
        if boundary {
            if let Some(error) = check_interrupt(job, clock) {
                break Some(error);
            }
        }
        match next {
            Some(row) if batch.is_some() => buffered.push(row),
            Some(_) => {}
            None => break ledger.error().cloned().map(QueryError::Storage),
        }
    };
    let ledger = stream.ledger();
    let summary = Completion {
        rows,
        page_accesses: ledger.profile.page_accesses(),
        watermarks: ledger.watermarks.len(),
        ..Completion::default()
    };
    match stopped {
        Some(error) => {
            fail_query(shared, error, summary);
            None
        }
        None => Some(summary),
    }
}

/// Executes one request end to end: reserve the cache quota (admission
/// control — blocks while the budget is exhausted), [`drive`] the fast-mode
/// stream, publish the completion.
fn execute(
    snapshot: &EngineSnapshot,
    budget: &CacheBudget,
    quota: usize,
    clock: &dyn ServiceClock,
    job: &Job,
) {
    // A multiway query's caches hold `k − 1` shares of `quota / k` cells
    // (the shares a direct run at that per-set capacity holds), and it
    // reserves exactly those.
    let quota = quota.min(budget.total());
    let lease = match &job.request {
        Request::Multiway { sets } => budget.reserve((sets.len() - 1) * (quota / sets.len())),
        Request::Join { .. } | Request::GroupedNn { .. } => budget.reserve(quota),
    };
    let config = snapshot.config;
    let shared = &job.shared;
    match &job.request {
        Request::Join { p, q } => {
            let (rp, rq) = (&snapshot.trees[*p], &snapshot.trees[*q]);
            let mut stream = NmPairIter::over_snapshot(rp, rq, lease.new_cache(), config);
            if let Some(done) = drive(&mut stream, job, clock, Some(Batch::Pairs)) {
                mark_done(shared, done);
            }
        }
        Request::Multiway { sets } => {
            let trees: Vec<&RTree<PointObject>> =
                sets.iter().map(|&s| &snapshot.trees[s]).collect();
            let share = quota / trees.len();
            let mut stream = TupleStream::over_snapshot(trees, share, config);
            if let Some(done) = drive(&mut stream, job, clock, Some(Batch::Tuples)) {
                mark_done(shared, done);
            }
        }
        Request::GroupedNn { p, q, locations } => {
            let (rp, rq) = (&snapshot.trees[*p], &snapshot.trees[*q]);
            let mut stream = NmPairIter::over_snapshot(rp, rq, lease.new_cache(), config)
                .with_locations(locations);
            let Some(join) = drive(&mut stream, job, clock, None) else {
                return;
            };
            match stream.into_group_counts() {
                Err(e) => fail_query(shared, QueryError::Storage(e), join),
                Ok(counts) => {
                    let rows = counts.len() as u64;
                    push_batch(shared, Batch::Groups(counts));
                    mark_done(shared, Completion { rows, ..join });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_cij;
    use crate::cell_cache::CellCache;
    use crate::config::{CijConfig, ExecMode};
    use crate::grouped::grouped_nn_via_all_nn;
    use crate::QueryEngine;
    use cij_rtree::{RTreeConfig, SnapshotReader};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small_config() -> CijConfig {
        CijConfig::default().with_rtree(RTreeConfig {
            page_size: 512,
            max_entries: 64,
        })
    }

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..10_000.0), rng.gen_range(0.0..10_000.0)))
            .collect()
    }

    fn service_over(sets: &[Vec<Point>], config: ServiceConfig) -> CijService {
        CijService::start(
            Arc::new(EngineSnapshot::build(sets, &small_config())),
            config,
        )
    }

    #[test]
    fn served_join_matches_the_oracle() {
        let sets = vec![random_points(80, 601), random_points(90, 602)];
        let oracle = brute_force_cij(&sets[0], &sets[1], &small_config().domain);
        let service = service_over(&sets, ServiceConfig::default());
        let handle = service.submit(Request::Join { p: 0, q: 1 }).unwrap();
        let mut pairs = handle.collect_pairs();
        let completion = handle.completion();
        assert_eq!(completion.rows, pairs.len() as u64);
        assert!(completion.page_accesses > 0);
        assert!(completion.watermarks > 0);
        assert!(!completion.failed);
        pairs.sort_unstable();
        assert_eq!(pairs, oracle);
        service.shutdown();
    }

    #[test]
    fn many_concurrent_queries_share_one_snapshot() {
        let sets = vec![random_points(120, 603), random_points(110, 604)];
        let oracle = brute_force_cij(&sets[0], &sets[1], &small_config().domain);
        let service = service_over(
            &sets,
            ServiceConfig {
                workers: 4,
                ..ServiceConfig::default()
            },
        );
        let handles: Vec<ResponseHandle> = (0..16)
            .map(|_| service.submit(Request::Join { p: 0, q: 1 }).unwrap())
            .collect();
        for handle in handles {
            let mut pairs = handle.collect_pairs();
            pairs.sort_unstable();
            assert_eq!(pairs, oracle);
        }
        service.shutdown();
    }

    #[test]
    fn served_multiway_matches_the_blocking_run() {
        let sets = vec![
            random_points(40, 605),
            random_points(35, 606),
            random_points(30, 607),
        ];
        let blocking = QueryEngine::new(small_config()).multiway(&sets);
        let service = service_over(&sets, ServiceConfig::default());
        let handle = service
            .submit(Request::Multiway {
                sets: vec![0, 1, 2],
            })
            .unwrap();
        let tuples = handle.collect_tuples();
        let mut ids: Vec<Vec<u64>> = tuples.into_iter().map(|t| t.ids).collect();
        ids.sort();
        assert_eq!(ids, blocking.sorted_ids());
        service.shutdown();
    }

    /// On an idle service a 3-way request reserves what its two probed
    /// sets' caches hold, `2 · (quota / 3)` of the quota clamped to the
    /// budget, and returns the tuples and page accesses of a direct run at
    /// `quota / 3` cells per set.
    #[test]
    fn a_multiway_lease_reserves_only_what_its_caches_hold() {
        let sets: Vec<Vec<Point>> = (0..3).map(|i| random_points(150, 651 + i)).collect();
        for (budget_cells, quota) in [(4_096, 64), (30, 64)] {
            let service = service_over(
                &sets,
                ServiceConfig {
                    workers: 1,
                    cache_budget_cells: budget_cells,
                    query_cache_quota: quota,
                    ..ServiceConfig::default()
                },
            );
            let handle = service
                .submit(Request::Multiway {
                    sets: vec![0, 1, 2],
                })
                .unwrap();
            let tuples = handle.collect_tuples();
            let completion = handle.completion();
            let budget = service.budget().clone();
            service.shutdown();
            let share = quota.min(budget_cells) / 3;
            assert_eq!(budget.high_water(), 2 * share, "budget {budget_cells}");
            assert_eq!(budget.reserved(), 0);

            let direct = small_config()
                .with_exec_mode(ExecMode::Fast)
                .with_cell_cache_capacity(share);
            let direct = QueryEngine::new(direct).multiway(&sets);
            assert!(direct.profile.work.cells.iter().any(|c| c.evicted > 0));
            let ids = |tuples: &[MultiwayTuple]| -> Vec<Vec<u64>> {
                tuples.iter().map(|t| t.ids.clone()).collect()
            };
            assert_eq!(ids(&tuples), ids(&direct.tuples), "budget {budget_cells}");
            assert_eq!(completion.page_accesses, direct.profile.page_accesses());
        }
    }

    #[test]
    fn served_grouped_nn_matches_the_all_nn_plan() {
        let sets = vec![random_points(25, 608), random_points(30, 609)];
        let locations = random_points(800, 610);
        let oracle = grouped_nn_via_all_nn(&sets[0], &sets[1], &locations);
        let service = service_over(&sets, ServiceConfig::default());
        let handle = service
            .submit(Request::GroupedNn {
                p: 0,
                q: 1,
                locations,
            })
            .unwrap();
        assert_eq!(handle.collect_groups(), oracle);
        service.shutdown();
    }

    #[test]
    fn bounded_queue_rejects_overflow_with_queue_full() {
        let sets = vec![random_points(200, 611), random_points(200, 612)];
        // One worker and a tiny queue: the first submits occupy the worker,
        // later ones must hit the bound.
        let service = service_over(
            &sets,
            ServiceConfig {
                queue_depth: 2,
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        let mut handles = Vec::new();
        let mut rejected = 0usize;
        for _ in 0..32 {
            match service.submit(Request::Join { p: 0, q: 1 }) {
                Ok(h) => handles.push(h),
                Err(QueueFull) => rejected += 1,
            }
        }
        assert!(
            rejected > 0,
            "a depth-2 queue must reject some of 32 submits"
        );
        for handle in handles {
            assert!(!handle.collect_pairs().is_empty());
        }
        service.shutdown();
    }

    #[test]
    fn quota_pressure_never_exceeds_the_global_budget() {
        let sets = vec![random_points(150, 613), random_points(150, 614)];
        // 16 queries × quota 64 would want 1024 cells; the budget holds 128,
        // so at most two queries run concurrently and the rest wait at
        // admission.
        let service = service_over(
            &sets,
            ServiceConfig {
                workers: 4,
                cache_budget_cells: 128,
                query_cache_quota: 64,
                ..ServiceConfig::default()
            },
        );
        let handles: Vec<ResponseHandle> = (0..16)
            .map(|_| service.submit(Request::Join { p: 0, q: 1 }).unwrap())
            .collect();
        for handle in handles {
            assert!(!handle.collect_pairs().is_empty());
        }
        let budget = service.budget().clone();
        service.shutdown();
        assert!(budget.high_water() <= budget.total());
        assert!(budget.high_water() > 0, "queries did reserve quota");
        assert_eq!(budget.reserved(), 0, "all leases returned");
    }

    #[test]
    fn panic_message_extracts_string_and_str_payloads() {
        let payload = std::panic::catch_unwind(|| panic!("plain str")).unwrap_err();
        assert_eq!(panic_message(payload), "plain str");
        let payload = std::panic::catch_unwind(|| panic!("formatted {}", 42)).unwrap_err();
        assert_eq!(panic_message(payload), "formatted 42");
    }

    #[test]
    fn worker_panics_surface_their_message_in_the_error_frame() {
        let sets = vec![random_points(20, 623), random_points(20, 624)];
        let snapshot = EngineSnapshot::build(&sets, &small_config());
        let budget = CacheBudget::new(64);
        let clock = SystemClock::new();
        let shared = Arc::new(ResponseShared::default());
        // An out-of-range set index never passes `submit`; feeding it
        // straight to `run_job` stages a genuine worker panic.
        run_job(
            &snapshot,
            &budget,
            16,
            &clock,
            Job {
                request: Request::Join { p: 0, q: 7 },
                shared: Arc::clone(&shared),
                deadline: None,
            },
        );
        let handle = ResponseHandle { shared };
        let completion = handle.completion();
        assert!(completion.failed);
        match completion.error.clone().expect("a structured panic error") {
            QueryError::Panic(msg) => {
                assert!(msg.contains("index out of bounds"), "got: {msg}");
            }
            other => panic!("expected a panic error, got {other:?}"),
        }
        let mut saw_error_frame = false;
        while let Some(batch) = handle.next_batch() {
            if let Batch::Error(err) = batch {
                assert_eq!(Some(err), completion.error);
                saw_error_frame = true;
            }
        }
        assert!(saw_error_frame, "the terminal Batch::Error frame arrived");
    }

    /// One request of every kind joining sets `p` and `q`: the binary kinds
    /// are driven by `q`'s tree, the multiway one by the cost model's pick.
    fn every_kind(p: usize, q: usize) -> [Request; 3] {
        [
            Request::Join { p, q },
            Request::Multiway { sets: vec![q, p] },
            Request::GroupedNn {
                p,
                q,
                locations: random_points(200, 650),
            },
        ]
    }

    /// Drains a failed request: its completion, after checking that exactly
    /// one terminal error frame arrived, that it was the last frame, that
    /// it carries the completion's error — and that no [`Batch::Groups`]
    /// came before it: counts of a partial join never leave the worker.
    fn failed_completion(handle: &ResponseHandle) -> Completion {
        let mut frames = Vec::new();
        while let Some(batch) = handle.next_batch() {
            frames.push(batch);
        }
        let completion = handle.completion();
        assert!(completion.failed);
        let errors: Vec<&QueryError> = frames
            .iter()
            .filter_map(|batch| match batch {
                Batch::Error(error) => Some(error),
                _ => None,
            })
            .collect();
        assert_eq!(errors, [completion.error.as_ref().expect("a reason")]);
        assert!(matches!(frames.last(), Some(Batch::Error(_))));
        assert!(!frames.iter().any(|batch| matches!(batch, Batch::Groups(_))));
        completion
    }

    #[test]
    fn zero_deadline_expires_at_the_first_boundary() {
        let sets = vec![random_points(150, 619), random_points(150, 620)];
        let clock = Arc::new(ManualClock::new());
        let service = CijService::start_with_clock(
            Arc::new(EngineSnapshot::build(&sets, &small_config())),
            ServiceConfig::default(),
            Arc::clone(&clock) as Arc<dyn ServiceClock>,
        );
        for request in every_kind(0, 1) {
            let doomed = service
                .submit_with_deadline(request.clone(), Some(0))
                .unwrap();
            let completion = failed_completion(&doomed);
            assert_eq!(completion.error, Some(QueryError::DeadlineExceeded));
            // A roomy deadline on a frozen clock never expires.
            let fine = service
                .submit_with_deadline(request, Some(1_000_000))
                .unwrap();
            assert!(!fine.completion().failed);
            assert!(!matches!(fine.next_batch(), None | Some(Batch::Error(_))));
        }
        service.shutdown();
    }

    #[test]
    fn cancelled_queries_end_with_a_cancelled_frame() {
        let sets = vec![random_points(300, 621), random_points(300, 622)];
        // One worker: the first submit occupies it, the second is cancelled
        // while still queued (or at its first watermark boundary).
        let service = service_over(
            &sets,
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        for request in every_kind(0, 1) {
            let busy = service.submit(Request::Join { p: 0, q: 1 }).unwrap();
            let doomed = service.submit(request).unwrap();
            doomed.cancel();
            let completion = failed_completion(&doomed);
            assert_eq!(completion.error, Some(QueryError::Cancelled));
            assert!(!busy.completion().failed, "the running query is untouched");
        }
        service.shutdown();
    }

    #[test]
    fn corrupt_page_fails_only_the_affected_query() {
        use cij_pagestore::{FaultKind, FaultProfile};
        let sets = vec![
            random_points(60, 615),
            random_points(70, 616),
            random_points(50, 617),
            random_points(55, 618),
        ];
        let oracle = brute_force_cij(&sets[2], &sets[3], &small_config().domain);
        let mut snapshot = EngineSnapshot::build(&sets, &small_config());
        let leaves =
            SnapshotReader::new(snapshot.tree(1)).leaf_pages_hilbert_order(&small_config().domain);
        let target = leaves[leaves.len() / 2];
        // Arm the fault before sharing the snapshot: cold reads of the
        // target frame now fail their checksum.
        {
            let tree = snapshot.tree_mut(1);
            tree.flush();
            tree.drop_buffer();
            tree.inject_fault(FaultProfile::CorruptFrame(target.0));
        }
        let service = CijService::start(
            Arc::new(snapshot),
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        );
        for request in every_kind(0, 1) {
            let faulty = service.submit(request).unwrap();
            let clean = service.submit(Request::Join { p: 2, q: 3 }).unwrap();
            match failed_completion(&faulty).error {
                Some(QueryError::Storage(e)) => {
                    assert_eq!((e.kind, e.page), (FaultKind::Corrupt, Some(target.0)));
                }
                other => panic!("expected a storage error, got {other:?}"),
            }
            // The concurrent clean query is oracle-identical and unaffected.
            let mut pairs = clean.collect_pairs();
            pairs.sort_unstable();
            assert_eq!(pairs, oracle);
            assert!(!clean.completion().failed);
        }
        service.shutdown();
    }

    #[test]
    fn a_failed_leaf_order_walk_is_a_storage_error_not_a_worker_panic() {
        use crate::workload::pick_driver;
        use cij_pagestore::{FaultKind, FaultProfile};
        let sets = vec![random_points(110, 620), random_points(240, 619)];
        let mut snapshot = EngineSnapshot::build(&sets, &small_config());
        // Rot the (non-leaf) root of the tree every request below drives
        // with — `q`'s, which the cost model ranks first for the multiway
        // kind too: each query's own leaf-order walk is the first read of it.
        let (p, q) = (1, 0);
        assert_eq!(pick_driver(&[snapshot.tree(q), snapshot.tree(p)]), 0);
        let root = snapshot.tree(q).root_page();
        assert!(snapshot.tree(q).root_level() > 0);
        {
            let tree = snapshot.tree_mut(q);
            tree.flush();
            tree.drop_buffer();
            tree.inject_fault(FaultProfile::CorruptFrame(root.0));
        }
        let service = CijService::start(Arc::new(snapshot), ServiceConfig::default());
        for request in every_kind(p, q) {
            let completion = failed_completion(&service.submit(request).unwrap());
            assert_eq!((completion.rows, completion.watermarks), (0, 0));
            match completion.error {
                Some(QueryError::Storage(e)) => {
                    assert_eq!((e.kind, e.page), (FaultKind::Corrupt, Some(root.0)));
                }
                other => panic!("expected a storage error, got {other:?}"),
            }
        }
        service.shutdown();
    }

    #[test]
    fn served_batches_end_on_watermark_boundaries() {
        // "Never tears a batch": the rows delivered so far always add up to
        // a watermark of the stream the worker drives, here rebuilt directly
        // over the same snapshot.
        let sets = vec![random_points(400, 625), random_points(400, 626)];
        let snapshot = Arc::new(EngineSnapshot::build(&sets, &small_config()));
        let (rp, rq) = (snapshot.tree(0), snapshot.tree(1));
        let config = *snapshot.config();
        let mut pairs = NmPairIter::over_snapshot(rp, rq, CellCache::new(64), config);
        pairs.by_ref().for_each(drop);
        let mut tuples = TupleStream::over_snapshot(vec![rp, rq], 64, config);
        tuples.by_ref().for_each(drop);
        let service = CijService::start(Arc::clone(&snapshot), ServiceConfig::default());
        for (request, ledger) in [
            (Request::Join { p: 0, q: 1 }, pairs.ledger()),
            (Request::Multiway { sets: vec![0, 1] }, tuples.ledger()),
        ] {
            let boundaries: Vec<u64> = ledger.watermarks.iter().map(|w| w.rows).collect();
            assert!(boundaries.len() > 8, "a multi-leaf, multi-chunk stream");
            let handle = service.submit(request).unwrap();
            let (mut delivered, mut batches) = (0u64, 0usize);
            while let Some(batch) = handle.next_batch() {
                delivered += match batch {
                    Batch::Pairs(rows) => rows.len() as u64,
                    Batch::Tuples(rows) => rows.len() as u64,
                    other => panic!("unexpected frame {other:?}"),
                };
                batches += 1;
                assert!(boundaries.contains(&delivered), "torn batch at {delivered}");
            }
            assert!(batches > 2, "results streamed incrementally");
            let completion = handle.completion();
            assert_eq!(delivered, completion.rows);
            assert_eq!(completion.watermarks, boundaries.len());
        }
        service.shutdown();
    }
}

//! The shared Voronoi-cell reuse buffer (Section IV-B of the paper,
//! promoted from a private `HashMap` inside NM-CIJ to a bounded LRU cache
//! shared by every algorithm that computes exact cells on demand).
//!
//! Neighbouring leaves of `RQ` produce overlapping candidate sets of `P`, so
//! NM-CIJ's refinement step keeps recently computed exact cells around
//! instead of recomputing them (the REUSE heuristic). The paper's buffer
//! experiments (Fig. 8a) show the benefit saturating at a small fraction of
//! the data size, which is why [`CellCache`] is *bounded*: it holds at most
//! `capacity` cells and evicts the least recently used one when full.
//! Eviction is always safe — an evicted cell is simply recomputed on the
//! next request, so join results never change (covered by the eviction
//! tests).
//!
//! Recency and eviction are delegated to the already-tested O(1)
//! [`cij_pagestore::LruBuffer`] (the same component backing the page
//! buffer), and each resident cell is kept in the buffer slot its id
//! occupies: one table, nothing mirrored.
//!
//! The product joins reach the cache through the chunk protocol's probe
//! stage, one cache per probed set (NM-CIJ's `P`, the multiway join's
//! extension sets; a driving set's cells are computed once each and need
//! no buffer, and PM-CIJ keeps no cells, see [`crate::pm`]). The cache
//! also implements [`cij_voronoi::CellStore`], the one-lookup-at-a-time
//! get/put of Algorithm 6 as [`cij_voronoi::batch_voronoi`] takes it. The
//! cache counts its own hits, misses and evictions; a query's
//! [`QueryProfile`](crate::stats::QueryProfile) reports them per set.

use cij_geom::ConvexPolygon;
use cij_pagestore::{Admission, IoStats, LruBuffer};
use cij_voronoi::CellStore;
use std::sync::{Arc, Condvar, Mutex};

/// A global budget of cell-cache capacity, carved into per-query quotas.
///
/// The fast execution mode gives every concurrent query its **own**
/// [`CellCache`] (so queries can never evict each other's entries), but the
/// sum of those private caches must stay bounded — a serving process has
/// one memory envelope, not one per query. `CacheBudget` is that envelope:
/// a query reserves its quota up front (all-or-nothing), holds it as a
/// [`CacheLease`] for the life of its cache, and returns it on drop. When
/// the budget is exhausted, [`CacheBudget::reserve`] blocks — this is the
/// admission-control point of the [`crate::service`] work queue.
///
/// The budget counts *capacity* (the worst-case resident cells of a lease's
/// cache), not instantaneous occupancy, so the aggregate residency bound
/// `Σ len(cache_i) ≤ Σ capacity_i ≤ total` holds by construction; the
/// high-water mark records the tightest value the process ever reached for
/// harnesses to assert against.
#[derive(Debug, Clone)]
pub struct CacheBudget {
    inner: Arc<BudgetInner>,
}

#[derive(Debug)]
struct BudgetInner {
    total: usize,
    state: Mutex<BudgetState>,
    freed: Condvar,
}

#[derive(Debug, Default)]
struct BudgetState {
    reserved: usize,
    high_water: usize,
}

impl CacheBudget {
    /// Creates a budget of `total` cells shared by every lease cloned from
    /// this handle.
    pub fn new(total: usize) -> Self {
        CacheBudget {
            inner: Arc::new(BudgetInner {
                total,
                state: Mutex::new(BudgetState::default()),
                freed: Condvar::new(),
            }),
        }
    }

    /// The budget's total capacity in cells.
    pub fn total(&self) -> usize {
        self.inner.total
    }

    /// Cells currently reserved by live leases.
    pub fn reserved(&self) -> usize {
        self.inner.state.lock().unwrap().reserved
    }

    /// The highest reservation level ever reached — the value
    /// `tests/fast_mode.rs::quota_pressure_never_changes_results` asserts
    /// never exceeds [`CacheBudget::total`].
    pub fn high_water(&self) -> usize {
        self.inner.state.lock().unwrap().high_water
    }

    /// Reserves `cells`, blocking until enough budget is free (admission
    /// control). Requests larger than the whole budget are clamped to it
    /// (they could otherwise never be admitted).
    pub fn reserve(&self, cells: usize) -> CacheLease {
        let cells = cells.min(self.inner.total);
        let mut state = self.inner.state.lock().unwrap();
        while state.reserved + cells > self.inner.total {
            state = self.inner.freed.wait(state).unwrap();
        }
        state.reserved += cells;
        state.high_water = state.high_water.max(state.reserved);
        CacheLease {
            budget: Arc::clone(&self.inner),
            cells,
        }
    }
}

/// A reservation of cell-cache capacity, returned to its [`CacheBudget`]
/// when dropped.
#[derive(Debug)]
pub struct CacheLease {
    budget: Arc<BudgetInner>,
    cells: usize,
}

impl CacheLease {
    /// The number of cells this lease entitles — the capacity to construct
    /// the query's private [`CellCache`] with.
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// Builds the private cache this lease pays for.
    pub fn new_cache(&self) -> CellCache {
        CellCache::new(self.cells)
    }
}

impl Drop for CacheLease {
    fn drop(&mut self) {
        let mut state = self.budget.state.lock().unwrap();
        state.reserved = state.reserved.saturating_sub(self.cells);
        drop(state);
        self.budget.freed.notify_all();
    }
}

/// A bounded LRU cache of exact Voronoi cells, keyed by point id.
#[derive(Debug)]
pub struct CellCache {
    /// Replacement policy: residency and recency of point ids, and the slot
    /// each resident id occupies.
    lru: LruBuffer,
    /// `cells[slot]`: the cell the put that claimed `slot` wrote. A slot's
    /// outline buffer outlives the ids that pass through it.
    cells: Vec<ConvexPolygon>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl CellCache {
    /// Creates a cache holding at most `capacity` cells. A capacity of zero
    /// disables caching entirely (every lookup misses, nothing is stored).
    pub fn new(capacity: usize) -> Self {
        CellCache {
            lru: LruBuffer::new(capacity),
            cells: Vec::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    // Inert: `cij_benchmark/src/layers.rs` is its only reader. The cache
    // counts its own events; the page store's statistics keep none.
    #[doc(hidden)]
    pub fn with_stats(capacity: usize, _stats: IoStats) -> Self {
        CellCache::new(capacity)
    }

    /// Maximum number of cells held.
    pub fn capacity(&self) -> usize {
        self.lru.capacity()
    }

    /// Number of cells currently held.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Lookups served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found no cached cell so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Cells evicted to respect the capacity bound so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    // ------------------------------------------------------------------
    // The one cache policy, by slot — used by the chunk coordinator and,
    // with each put filled at once, by `CellStore`.
    //
    // Policy and payload are one table: a resident id's cell lives in the
    // slot `lru` gives the id. `policy_get` / `policy_put` take every
    // replacement decision from the id sequence alone (and keep the
    // counters exact) and return the slot; `cell` reads a slot and `fill`
    // writes one. The chunk coordinator takes the decisions of a whole
    // chunk before its cells exist, then resolves its units in leaf order,
    // each unit reading its hits' slots before filling its puts'. A slot is
    // written only by the put that claimed it, so a hit reads the cell of
    // the put it hit: an earlier unit filled it, and the put that next
    // claims the slot — after evicting the hit's id, so in this unit or a
    // later one — fills it only after the hit has been read.
    // ------------------------------------------------------------------

    /// Records a lookup of `id`: on a hit, touches its recency and returns
    /// the slot that holds its cell; on a miss, `None`.
    pub(crate) fn policy_get(&mut self, id: u64) -> Option<u32> {
        let slot = self.lru.slot_of(id);
        if slot.is_some() {
            let _ = self.lru.touch(id, false);
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        slot
    }

    /// Admits `id`, counting the eviction it causes, and returns the slot
    /// its cell must be [`fill`](CellCache::fill)ed into (`None` at
    /// capacity 0: nothing is kept).
    pub(crate) fn policy_put(&mut self, id: u64) -> Option<u32> {
        if let Admission::Miss { evicted: Some(_) } = self.lru.touch(id, false) {
            self.evictions += 1;
        }
        self.lru.slot_of(id)
    }

    /// Writes `cell` into `slot`, reusing the outline buffer the slot
    /// already holds.
    pub(crate) fn fill(&mut self, slot: u32, cell: &ConvexPolygon) {
        let slot = slot as usize;
        if slot >= self.cells.len() {
            self.cells.resize_with(slot + 1, ConvexPolygon::default);
        }
        self.cells[slot].clone_from(cell);
    }

    /// The cell in `slot`: the one its last [`fill`](CellCache::fill)
    /// wrote.
    pub(crate) fn cell(&self, slot: u32) -> &ConvexPolygon {
        &self.cells[slot as usize]
    }
}

impl CellStore for CellCache {
    fn get(&mut self, id: u64) -> Option<ConvexPolygon> {
        let slot = self.policy_get(id)?;
        Some(self.cell(slot).clone())
    }

    fn put(&mut self, id: u64, cell: &ConvexPolygon) {
        if let Some(slot) = self.policy_put(id) {
            self.fill(slot, cell);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cij_geom::Rect;

    fn poly(tag: f64) -> ConvexPolygon {
        ConvexPolygon::from_rect(&Rect::from_coords(0.0, 0.0, tag, tag))
    }

    #[test]
    fn serves_hits_and_counts_misses() {
        let mut c = CellCache::new(4);
        assert!(c.get(1).is_none());
        c.put(1, &poly(10.0));
        let got = c.get(1).expect("cached");
        assert!((got.area() - 100.0).abs() < 1e-9);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let mut c = CellCache::new(2);
        c.put(1, &poly(1.0));
        c.put(2, &poly(2.0));
        // Touch 1 so that 2 becomes the LRU entry.
        assert!(c.get(1).is_some());
        c.put(3, &poly(3.0));
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
        assert!(c.get(2).is_none(), "LRU entry 2 must have been evicted");
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = CellCache::new(0);
        c.put(1, &poly(1.0));
        assert!(c.get(1).is_none());
        assert_eq!(c.len(), 0);
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn reinserting_updates_the_cell_without_growth() {
        let mut c = CellCache::new(2);
        c.put(1, &poly(1.0));
        c.put(1, &poly(5.0));
        assert_eq!(c.len(), 1);
        let got = c.get(1).unwrap();
        assert!((got.area() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn hit_heavy_load_then_new_puts_keep_admitting() {
        // Regression guard for the recency-bookkeeping bug class: a long
        // run of hits followed by new insertions must keep the cache fully
        // functional — new entries admitted, victims evicted, payload and
        // policy state in sync.
        let mut c = CellCache::new(1);
        c.put(100, &poly(1.0));
        for _ in 0..50 {
            assert!(c.get(100).is_some());
        }
        c.put(200, &poly(2.0));
        assert!(c.get(100).is_none(), "100 must have been evicted");
        assert!(c.get(200).is_some(), "200 must be resident");
        c.put(300, &poly(3.0));
        assert!(c.get(300).is_some(), "cache must keep admitting new ids");
        assert_eq!(c.len(), 1);
        assert_eq!(c.evictions(), 2);
    }

    #[test]
    fn policy_and_payload_state_stay_in_sync_under_churn() {
        let mut c = CellCache::new(8);
        for round in 0..1_000u64 {
            let id = round % 24;
            if c.get(id).is_none() {
                c.put(id, &poly(1.0 + id as f64));
            }
            assert!(c.len() <= 8);
        }
        // Every resident id must be servable.
        let resident = c.len();
        assert!(resident > 0);
        // One lookup per round, each either a hit or a miss.
        assert_eq!(c.hits() + c.misses(), 1_000);
    }

    #[test]
    fn policy_split_mirrors_sequential_get_put_exactly() {
        // Drive the same id sequence through the classic get/put API and
        // through the slot API (the chunk coordinator's protocol):
        // hit/miss/eviction counters and resident cells must agree at every
        // step.
        let mut seq = CellCache::new(3);
        let mut par = CellCache::new(3);
        let ids = [1u64, 2, 3, 1, 4, 2, 5, 1, 1, 6, 7, 3, 4];
        for &id in &ids {
            let seq_hit = seq.get(id).is_some();
            if !seq_hit {
                seq.put(id, &poly(id as f64));
            }

            let par_hit = par.policy_get(id);
            assert_eq!(par_hit.is_some(), seq_hit, "id {id} hit/miss diverged");
            if let Some(slot) = par_hit {
                let cell = par.cell(slot);
                assert!((cell.area() - poly(id as f64).area()).abs() < 1e-9);
            } else if let Some(slot) = par.policy_put(id) {
                par.fill(slot, &poly(id as f64));
            }
            assert_eq!(par.hits(), seq.hits());
            assert_eq!(par.misses(), seq.misses());
            assert_eq!(par.evictions(), seq.evictions());
            assert_eq!(par.len(), seq.len());
        }
    }

    #[test]
    fn policy_split_with_zero_capacity_never_admits() {
        let mut c = CellCache::new(0);
        assert_eq!(c.policy_get(1), None);
        assert_eq!(c.policy_put(1), None);
        assert_eq!(c.policy_get(1), None);
        assert_eq!(c.len(), 0);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn budget_reserve_fits_returns_on_drop_and_clamps() {
        let budget = CacheBudget::new(100);
        let a = budget.reserve(60);
        assert_eq!(a.cells(), 60);
        assert_eq!(budget.reserved(), 60);
        let b = budget.reserve(40); // exactly fits: returns without waiting
        assert_eq!(budget.reserved(), 100);
        assert_eq!(budget.high_water(), 100);
        drop(a);
        assert_eq!(budget.reserved(), 40);
        // High water is sticky.
        assert_eq!(budget.high_water(), 100);
        drop(b);
        assert_eq!(budget.reserved(), 0);
        // Oversized requests clamp to the whole budget instead of
        // deadlocking forever.
        let c = budget.reserve(1_000_000);
        assert_eq!(c.cells(), 100);
        assert_eq!(c.new_cache().capacity(), 100);
    }

    #[test]
    fn blocking_reserve_waits_for_a_freed_lease() {
        let budget = CacheBudget::new(10);
        let held = budget.reserve(10);
        let budget2 = budget.clone();
        let waiter = std::thread::spawn(move || {
            // Blocks until the main thread drops `held`.
            let lease = budget2.reserve(5);
            lease.cells()
        });
        // Give the waiter a chance to park, then free the budget.
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(held);
        assert_eq!(waiter.join().unwrap(), 5);
        assert_eq!(budget.reserved(), 0);
        assert!(budget.high_water() <= budget.total());
    }
}

//! An O(1) least-recently-used buffer pool.
//!
//! The buffer tracks which [`PageId`](crate::PageId)s are memory-resident and
//! whether they are dirty. Page *payloads* live in the
//! [`PageStore`](crate::PageStore)'s resident table, so the buffer is purely
//! the replacement-policy and accounting component, exactly the part the
//! paper's experiments vary (Figure 8a sweeps the buffer size from 0.5 % to
//! 10 % of the data size).
//!
//! Membership is the buffer's alone: every member is evictable, and a full
//! buffer's next admission evicts the least-recently-used member. Keeping a
//! payload alive past its eviction — a [`PageRef`](crate::PageRef) guard's
//! pin — is the store's business, not a replacement decision.
//!
//! # Two indexes, one buffer
//!
//! The recency list and the eviction rule exist once. What differs by
//! caller is only how a key finds its list slot — a private two-variant
//! table:
//!
//! * [`LruBuffer::new`] — a **hash** table, for keys that are sparse. The
//!   reuse buffer (`cij_core::CellCache`) keys this buffer by
//!   caller-assigned object ids, which can be any `u64`.
//! * [`LruBuffer::with_dense_keys`] — a **vector** indexed by the key
//!   itself, for keys that are small and dense. The page store uses it:
//!   page ids are handed out consecutively from 0 by
//!   `PageBackend::allocate`, so a counted read finds its slot with one
//!   array load and no hashing. It costs 4 bytes per key up to the largest
//!   one seen (a `u32` slot), whether or not the key is buffered.
//!
//! Both keep a live count beside the table, so [`LruBuffer::len`] is O(1)
//! either way.

use std::collections::HashMap;

/// Slot index inside the intrusive LRU list.
type SlotIdx = u32;

const NIL: SlotIdx = u32::MAX;

#[derive(Debug, Clone)]
struct Slot {
    key: u64,
    dirty: bool,
    prev: SlotIdx,
    next: SlotIdx,
}

/// A `key → u32` table: the slot index of each member. See the
/// [module docs](self) for who uses which variant.
#[derive(Debug, Clone)]
enum Table {
    Hash(HashMap<u64, u32>),
    /// `cells[key]`, [`ABSENT`] where the key has no entry; `live` counts
    /// the entries so `len` is not a scan.
    Dense {
        cells: Vec<u32>,
        live: usize,
    },
}

/// The dense table's "no entry". No slot index reaches it (`NIL`).
const ABSENT: u32 = u32::MAX;

impl Table {
    fn len(&self) -> usize {
        match self {
            Table::Hash(map) => map.len(),
            Table::Dense { live, .. } => *live,
        }
    }

    fn get(&self, key: u64) -> Option<u32> {
        match self {
            Table::Hash(map) => map.get(&key).copied(),
            Table::Dense { cells, .. } => usize::try_from(key)
                .ok()
                .and_then(|at| cells.get(at).copied())
                .filter(|&value| value != ABSENT),
        }
    }

    /// Inserts or overwrites the entry of `key`.
    fn set(&mut self, key: u64, value: u32) {
        debug_assert_ne!(value, ABSENT);
        match self {
            Table::Hash(map) => {
                map.insert(key, value);
            }
            Table::Dense { cells, live } => {
                let at = usize::try_from(key).expect("a dense key indexes memory");
                if at >= cells.len() {
                    cells.resize(at + 1, ABSENT);
                }
                *live += usize::from(cells[at] == ABSENT);
                cells[at] = value;
            }
        }
    }

    fn remove(&mut self, key: u64) -> Option<u32> {
        match self {
            Table::Hash(map) => map.remove(&key),
            Table::Dense { cells, live } => {
                let cell = cells.get_mut(usize::try_from(key).ok()?)?;
                let value = std::mem::replace(cell, ABSENT);
                (value != ABSENT).then(|| {
                    *live -= 1;
                    value
                })
            }
        }
    }
}

/// A fixed-capacity LRU buffer with write-back semantics.
///
/// Keys are raw `u64` page identifiers so the buffer stays independent of the
/// page-store types. All operations are O(1) except [`LruBuffer::clear`],
/// which is O(members).
#[derive(Debug, Clone)]
pub struct LruBuffer {
    capacity: usize,
    /// Slot of every member.
    index: Table,
    slots: Vec<Slot>,
    free: Vec<SlotIdx>,
    head: SlotIdx, // most recently used
    tail: SlotIdx, // least recently used
}

/// Result of touching a page in the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The page was already resident (a buffer hit).
    Hit,
    /// The page was not resident and has been admitted; if a page had to be
    /// evicted to make room, it is carried here together with its dirty flag.
    Miss {
        /// The evicted page (id, was_dirty), if any.
        evicted: Option<(u64, bool)>,
    },
}

impl LruBuffer {
    /// Creates a buffer holding at most `capacity` pages, indexed by a hash
    /// table: any `u64` is a fine key. A capacity of 0 disables caching
    /// entirely (every access is a miss and nothing is retained).
    pub fn new(capacity: usize) -> Self {
        let index = Table::Hash(HashMap::with_capacity(capacity.min(1 << 20)));
        Self::over(capacity, index)
    }

    /// Like [`LruBuffer::new`], indexed by a vector the key subscripts: for
    /// keys handed out densely from 0, as page ids are. Memory grows with
    /// the largest key touched (4 bytes each), not with the capacity — see
    /// the [module docs](self).
    pub fn with_dense_keys(capacity: usize) -> Self {
        let index = Table::Dense {
            cells: Vec::new(),
            live: 0,
        };
        Self::over(capacity, index)
    }

    fn over(capacity: usize, index: Table) -> Self {
        LruBuffer {
            capacity,
            index,
            slots: Vec::with_capacity(capacity.min(1 << 20)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Maximum number of resident pages; membership never exceeds it.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently resident pages.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no pages are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the page is currently resident (does not update recency).
    pub fn contains(&self, key: u64) -> bool {
        self.index.get(key).is_some()
    }

    /// The slot a resident key occupies (does not update recency): fixed
    /// from the key's admission to its eviction, then handed to the key
    /// admitted in its place. A caller keeping payloads beside the buffer
    /// indexes them by it.
    pub fn slot_of(&self, key: u64) -> Option<u32> {
        self.index.get(key)
    }

    /// Touches a page for reading or writing, admitting it if necessary and
    /// evicting the least-recently-used page when the buffer is full.
    ///
    /// `dirty` marks the page as modified (a write access); dirtiness is
    /// sticky until the page is evicted or the buffer is cleared.
    pub fn touch(&mut self, key: u64, dirty: bool) -> Admission {
        if self.capacity == 0 {
            // Unbuffered mode: every access is a miss; a dirty access is
            // immediately "written back".
            return Admission::Miss {
                evicted: if dirty { Some((key, true)) } else { None },
            };
        }
        if let Some(slot) = self.index.get(key) {
            self.slots[slot as usize].dirty |= dirty;
            self.move_to_front(slot);
            return Admission::Hit;
        }
        let evicted = (self.len() >= self.capacity).then(|| self.evict_lru());
        let slot = self.alloc_slot(key, dirty);
        self.push_front(slot);
        self.index.set(key, slot);
        Admission::Miss { evicted }
    }

    /// Removes a single page from the buffer without any write-back
    /// accounting (used when a page is freed). Returns `true` when the page
    /// was resident.
    pub fn remove(&mut self, key: u64) -> bool {
        if let Some(slot) = self.index.remove(key) {
            self.unlink(slot);
            self.free.push(slot);
            true
        } else {
            false
        }
    }

    /// Drops every resident page, returning `(key, was_dirty)` for each so
    /// the caller can write back the dirty ones and release the clean ones.
    pub fn clear(&mut self) -> Vec<(u64, bool)> {
        // A recycled slot still carries its last key: the index tells the
        // members apart, and forgets each as it is reported.
        let dropped: Vec<(u64, bool)> = (0..)
            .zip(&self.slots)
            .filter(|&(i, s)| self.index.get(s.key) == Some(i))
            .map(|(_, s)| (s.key, s.dirty))
            .collect();
        for &(key, _) in &dropped {
            self.index.remove(key);
        }
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        dropped
    }

    /// Changes the capacity. Shrinking evicts LRU pages; the evicted
    /// `(key, was_dirty)` pairs are returned for write-back accounting.
    pub fn resize(&mut self, capacity: usize) -> Vec<(u64, bool)> {
        self.capacity = capacity;
        let excess = self.len().saturating_sub(capacity);
        (0..excess).map(|_| self.evict_lru()).collect()
    }

    /// The resident keys ordered from most- to least-recently used.
    /// Intended for tests and diagnostics.
    pub fn keys_mru_to_lru(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len());
        let mut cur = self.head;
        while cur != NIL {
            out.push(self.slots[cur as usize].key);
            cur = self.slots[cur as usize].next;
        }
        out
    }

    fn alloc_slot(&mut self, key: u64, dirty: bool) -> SlotIdx {
        let slot = Slot {
            key,
            dirty,
            prev: NIL,
            next: NIL,
        };
        if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = slot;
            idx
        } else {
            assert!(self.slots.len() < NIL as usize, "2^32 buffered pages");
            self.slots.push(slot);
            (self.slots.len() - 1) as SlotIdx
        }
    }

    fn push_front(&mut self, slot: SlotIdx) {
        self.slots[slot as usize].prev = NIL;
        self.slots[slot as usize].next = self.head;
        if self.head != NIL {
            self.slots[self.head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    fn unlink(&mut self, slot: SlotIdx) {
        let Slot { prev, next, .. } = self.slots[slot as usize];
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
        self.slots[slot as usize].prev = NIL;
        self.slots[slot as usize].next = NIL;
    }

    fn move_to_front(&mut self, slot: SlotIdx) {
        if self.head == slot {
            return;
        }
        self.unlink(slot);
        self.push_front(slot);
    }

    /// Evicts the least-recently-used member: unlinks the tail. Called only
    /// on a non-empty buffer.
    fn evict_lru(&mut self) -> (u64, bool) {
        let tail = self.tail;
        let Slot { key, dirty, .. } = self.slots[tail as usize];
        self.unlink(tail);
        self.index.remove(key);
        self.free.push(tail);
        (key, dirty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The buffer as its docs describe it, on plain vectors and scans.
    #[derive(Default)]
    struct Model {
        capacity: usize,
        /// `(key, dirty)`, most recently used first.
        members: Vec<(u64, bool)>,
    }

    impl Model {
        fn touch(&mut self, key: u64, dirty: bool) -> Admission {
            if self.capacity == 0 {
                return Admission::Miss {
                    evicted: dirty.then_some((key, true)),
                };
            }
            if let Some(at) = self.members.iter().position(|&(k, _)| k == key) {
                let (_, was_dirty) = self.members.remove(at);
                self.members.insert(0, (key, was_dirty | dirty));
                return Admission::Hit;
            }
            let evicted = (self.members.len() >= self.capacity).then(|| self.members.pop());
            self.members.insert(0, (key, dirty));
            Admission::Miss {
                evicted: evicted.flatten(),
            }
        }

        fn resize(&mut self, capacity: usize) -> Vec<(u64, bool)> {
            self.capacity = capacity;
            let excess = self.members.len().saturating_sub(capacity);
            (0..excess).filter_map(|_| self.members.pop()).collect()
        }
    }

    /// What one call answered.
    #[derive(Debug, PartialEq)]
    enum Answer {
        Admission(Admission),
        Flag(bool),
        Dropped(Vec<(u64, bool)>),
    }

    proptest! {
        /// One list and one eviction rule behind both indexes: fed the same
        /// calls, the hash-indexed buffer, the dense-indexed one and the
        /// vector model answer and end alike.
        #[test]
        fn both_indexes_behave_like_the_vector_model(
            capacity in 0usize..6,
            ops in proptest::collection::vec((0u8..12, 0u64..12, 0usize..7), 1..400),
        ) {
            let mut model = Model { capacity, ..Model::default() };
            let mut buffers = [LruBuffer::new(capacity), LruBuffer::with_dense_keys(capacity)];
            for (step, &(op, key, size)) in ops.iter().enumerate() {
                let expected = match op {
                    // Reads and writes, over half of the calls.
                    0..=8 => Answer::Admission(model.touch(key, op > 5)),
                    9 => {
                        let before = model.members.len();
                        model.members.retain(|&(k, _)| k != key);
                        Answer::Flag(model.members.len() < before)
                    }
                    10 => Answer::Dropped(model.resize(size)),
                    _ => {
                        let mut dropped = std::mem::take(&mut model.members);
                        dropped.sort_unstable();
                        Answer::Dropped(dropped)
                    }
                };
                let members: Vec<u64> = model.members.iter().map(|&(k, _)| k).collect();
                for buffer in &mut buffers {
                    let got = match op {
                        0..=8 => Answer::Admission(buffer.touch(key, op > 5)),
                        9 => Answer::Flag(buffer.remove(key)),
                        10 => Answer::Dropped(buffer.resize(size)),
                        _ => {
                            let mut dropped = buffer.clear();
                            dropped.sort_unstable();
                            Answer::Dropped(dropped)
                        }
                    };
                    prop_assert_eq!(&got, &expected, "step {}, op {}", step, op);
                    prop_assert_eq!(buffer.keys_mru_to_lru(), members.clone(), "step {}", step);
                    prop_assert_eq!(buffer.len(), members.len());
                    prop_assert!(buffer.len() <= buffer.capacity());
                    prop_assert_eq!(buffer.is_empty(), members.is_empty());
                    prop_assert_eq!(buffer.capacity(), model.capacity);
                    for probe in 0..12 {
                        prop_assert_eq!(buffer.contains(probe), members.contains(&probe));
                        prop_assert_eq!(buffer.slot_of(probe).is_some(), members.contains(&probe));
                    }
                }
            }
        }
    }

    #[test]
    fn hit_after_admission() {
        let mut b = LruBuffer::new(2);
        assert_eq!(b.touch(1, false), Admission::Miss { evicted: None });
        assert_eq!(b.touch(1, false), Admission::Hit);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut b = LruBuffer::new(2);
        b.touch(1, false);
        b.touch(2, false);
        // Touch 1 so that 2 becomes LRU.
        b.touch(1, false);
        match b.touch(3, false) {
            Admission::Miss {
                evicted: Some((2, false)),
            } => {}
            other => panic!("expected eviction of page 2, got {other:?}"),
        }
        assert!(b.contains(1));
        assert!(b.contains(3));
        assert!(!b.contains(2));
    }

    #[test]
    fn dirty_flag_is_sticky_and_reported_on_eviction() {
        let mut b = LruBuffer::new(1);
        b.touch(7, true);
        b.touch(7, false); // still dirty
        match b.touch(8, false) {
            Admission::Miss {
                evicted: Some((7, true)),
            } => {}
            other => panic!("expected dirty eviction of page 7, got {other:?}"),
        }
    }

    #[test]
    fn zero_capacity_buffer_never_caches() {
        let mut b = LruBuffer::new(0);
        assert!(matches!(b.touch(1, false), Admission::Miss { .. }));
        assert!(matches!(b.touch(1, false), Admission::Miss { .. }));
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn mru_order_is_maintained() {
        let mut b = LruBuffer::new(3);
        b.touch(1, false);
        b.touch(2, false);
        b.touch(3, false);
        b.touch(1, false);
        assert_eq!(b.keys_mru_to_lru(), vec![1, 3, 2]);
    }

    #[test]
    fn remove_drops_a_single_page() {
        let mut b = LruBuffer::new(4);
        b.touch(1, true);
        b.touch(2, false);
        assert!(b.remove(1));
        assert!(!b.remove(1));
        assert!(!b.contains(1));
        assert!(b.contains(2));
        assert_eq!(b.len(), 1);
        // Freed slot is recycled.
        b.touch(3, false);
        b.touch(4, false);
        b.touch(5, false);
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn clear_reports_every_member_with_its_dirty_flag() {
        let mut b = LruBuffer::new(4);
        b.touch(1, true);
        b.touch(2, false);
        b.touch(3, true);
        let mut dropped = b.clear();
        dropped.sort_unstable();
        assert_eq!(dropped, vec![(1, true), (2, false), (3, true)]);
        assert!(b.is_empty());
    }

    #[test]
    fn resize_shrinks_and_evicts() {
        let mut b = LruBuffer::new(4);
        for k in 0..4 {
            b.touch(k, k % 2 == 0);
        }
        let evicted = b.resize(2);
        assert_eq!(b.len(), 2);
        // Pages 0 and 1 are the LRU ones; page 0 was dirty.
        assert_eq!(evicted, vec![(0, true), (1, false)]);
        assert!(b.contains(2) && b.contains(3));
    }

    #[test]
    fn sequential_scan_larger_than_buffer_always_misses() {
        let mut b = LruBuffer::new(10);
        let mut hits = 0;
        for round in 0..3 {
            for k in 0..20u64 {
                if b.touch(k, false) == Admission::Hit {
                    hits += 1;
                }
            }
            // A cyclic scan of 20 pages through a 10-page LRU buffer never
            // hits: by the time a page comes around again it has been evicted.
            assert_eq!(hits, 0, "round {round}");
        }
    }

    #[test]
    fn repeated_working_set_smaller_than_buffer_always_hits_after_warmup() {
        let mut b = LruBuffer::new(10);
        for k in 0..5u64 {
            b.touch(k, false);
        }
        for _ in 0..100 {
            for k in 0..5u64 {
                assert_eq!(b.touch(k, false), Admission::Hit);
            }
        }
    }
}

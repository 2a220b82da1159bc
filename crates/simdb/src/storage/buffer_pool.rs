//! Buffer pool with a real LRU replacement policy.
//!
//! The pool is the primary structural-knob surface: `innodb_buffer_pool_size`
//! sets the frame capacity, and the hit rate that the cost model converts
//! into I/O time *emerges* from the actual access stream and evictions — it
//! is not a formula.
//!
//! Frames live in a `Vec` and carry two intrusive doubly-linked lists: the
//! LRU list over every resident frame, and the dirty list over the dirty
//! ones *in the same relative order*, so the flusher takes its victims from
//! the dirty tail in O(pages flushed) instead of searching the LRU list for
//! them. Pages find their frame through a per-table array indexed by page
//! number (tables number their pages densely from 0, see
//! [`Table::page_count`](super::Table::page_count)), so an access costs two
//! array reads and no hashing, and 4 bytes per page number ever touched.
//! [`BufferPool::reset`] empties the pool in place; an instance restart
//! reuses every allocation of the previous boot.

use super::page::PageId;

const NIL: u32 = u32::MAX;

/// Index of the list over all resident frames, most recently used first.
const LRU: usize = 0;
/// Index of the list over dirty frames, a subsequence of the LRU list.
const DIRTY: usize = 1;

#[derive(Debug, Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
}

/// Head (front) and tail of one intrusive list.
#[derive(Debug, Clone, Copy)]
struct Ends {
    head: u32,
    tail: u32,
}

const EMPTY: Ends = Ends { head: NIL, tail: NIL };

#[derive(Debug, Clone, Copy)]
struct Frame {
    page: PageId,
    /// Membership in the `DIRTY` list; its link is meaningless when false.
    dirty: bool,
    links: [Link; 2],
}

/// What happened on a page access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The page was already resident.
    pub hit: bool,
    /// A dirty page had to be written back to make room.
    pub evicted_dirty: bool,
}

/// An LRU buffer pool over page identities.
#[derive(Debug)]
pub struct BufferPool {
    /// Resident frames; a frame is only ever recycled by eviction, so
    /// `frames.len()` is the number of resident pages.
    frames: Vec<Frame>,
    /// `page_table[table][page_no]` is the page's frame, `NIL` or absent
    /// when it is not resident.
    page_table: Vec<Vec<u32>>,
    lists: [Ends; 2],
    capacity: usize,
    dirty: usize,
    // Counters for the metrics collector.
    read_requests: u64,
    misses: u64,
    write_requests: u64,
    pages_flushed: u64,
}

impl BufferPool {
    /// Creates a pool holding at most `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        Self {
            frames: Vec::new(),
            page_table: Vec::new(),
            lists: [EMPTY; 2],
            capacity: capacity.max(1),
            dirty: 0,
            read_requests: 0,
            misses: 0,
            write_requests: 0,
            pages_flushed: 0,
        }
    }

    /// Returns the pool to the state of [`BufferPool::new`]`(capacity)` —
    /// nothing resident, counters at zero — keeping the frame array and the
    /// page table allocated. Costs one sequential pass over the page table.
    pub fn reset(&mut self, capacity: usize) {
        let mut frames = std::mem::take(&mut self.frames);
        frames.clear();
        let mut page_table = std::mem::take(&mut self.page_table);
        for slots in &mut page_table {
            slots.fill(NIL);
        }
        *self = Self { frames, page_table, ..Self::new(capacity) };
    }

    /// Frame capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident pages.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when no pages are resident.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Number of dirty resident pages.
    pub fn dirty_count(&self) -> usize {
        self.dirty
    }

    /// Free frames remaining.
    pub fn free_count(&self) -> usize {
        self.capacity - self.frames.len()
    }

    /// Total page read requests since creation.
    pub fn read_requests(&self) -> u64 {
        self.read_requests
    }

    /// Read requests that missed (required a disk read).
    pub fn miss_count(&self) -> u64 {
        self.misses
    }

    /// Total page write requests since creation.
    pub fn write_requests(&self) -> u64 {
        self.write_requests
    }

    /// Dirty pages written back (by eviction or checkpoint flush).
    pub fn pages_flushed(&self) -> u64 {
        self.pages_flushed
    }

    /// Whether a page is resident (no LRU effect).
    pub fn contains(&self, page: PageId) -> bool {
        self.frame_of(page) != NIL
    }

    /// Accesses a page for read (`write = false`) or write (`write = true`),
    /// faulting it in (and evicting the LRU victim) on a miss.
    pub fn access(&mut self, page: PageId, write: bool) -> AccessOutcome {
        if write {
            self.write_requests += 1;
        } else {
            self.read_requests += 1;
        }
        let idx = self.frame_of(page);
        if idx == NIL {
            if !write {
                self.misses += 1;
            }
            let evicted_dirty = self.insert_new(page, write);
            return AccessOutcome { hit: false, evicted_dirty };
        }
        // lint:allow(panic) reason=frame ids are intrusive-list indices bounded by capacity
        let was_dirty = self.frames[idx as usize].dirty;
        // The LRU head, when dirty, already heads the dirty list.
        if self.ends(LRU).head != idx {
            self.unlink(LRU, idx);
            self.push_front(LRU, idx);
            if was_dirty {
                self.unlink(DIRTY, idx);
                self.push_front(DIRTY, idx);
            }
        }
        if write && !was_dirty {
            // lint:allow(panic) reason=frame ids are intrusive-list indices bounded by capacity
            self.frames[idx as usize].dirty = true;
            self.dirty += 1;
            self.push_front(DIRTY, idx);
        }
        AccessOutcome { hit: true, evicted_dirty: false }
    }

    /// Flushes up to `max_pages` dirty pages starting from the LRU end
    /// (background flushing / checkpoint). Returns pages flushed.
    pub fn flush_some(&mut self, max_pages: usize) -> usize {
        let mut flushed = 0;
        while flushed < max_pages && self.ends(DIRTY).tail != NIL {
            let idx = self.ends(DIRTY).tail;
            self.unlink(DIRTY, idx);
            // lint:allow(panic) reason=frame ids are intrusive-list indices bounded by capacity
            self.frames[idx as usize].dirty = false;
            flushed += 1;
        }
        self.dirty -= flushed;
        self.pages_flushed += flushed as u64;
        flushed
    }

    /// Flushes every dirty page (full checkpoint). Returns pages flushed.
    pub fn flush_all(&mut self) -> usize {
        self.flush_some(usize::MAX)
    }

    /// Makes `pages` resident in an empty pool, clean, in one pass: the
    /// pool ends exactly as faulting them in one after another would leave
    /// it, the last page most recently used, but with no list surgery. With
    /// `as_reads` each page counts as a read request that missed, as
    /// [`BufferPool::access`] counts it; without, no counter moves (a
    /// pre-warm is not workload I/O). The pages must be distinct; those past
    /// the capacity are ignored. Used after a restart to start from the
    /// steady-state residency a long-running instance would have rather than
    /// an unrealistically cold cache.
    pub fn fill(&mut self, pages: impl IntoIterator<Item = PageId>, as_reads: bool) {
        debug_assert!(self.is_empty(), "fill needs an empty pool");
        for page in pages.into_iter().take(self.capacity) {
            let idx = self.frames.len() as u32;
            // The LRU list runs from the last page back to the first: a
            // frame's `next` is the page filled before it, its `prev` the
            // one after (the last frame's is mended below).
            let next = if idx == 0 { NIL } else { idx - 1 };
            let lru = Link { prev: idx + 1, next };
            self.frames.push(Frame { page, dirty: false, links: [lru, Link { prev: NIL, next: NIL }] });
            self.map(page, idx);
        }
        let filled = self.frames.len();
        if let Some(head) = self.frames.last_mut() {
            head.links[LRU].prev = NIL;
            self.lists[LRU] = Ends { head: filled as u32 - 1, tail: 0 };
        }
        if as_reads {
            self.read_requests += filled as u64;
            self.misses += filled as u64;
        }
    }

    /// The draw-by-draw pre-warm [`BufferPool::fill`] replaced, kept as the
    /// reference it is tested against: pages produced by `gen` are faulted
    /// in one at a time, skipping resident ones, until the pool is full,
    /// `gen` returns `None`, or `gen` has been called 8 × capacity + 1 times.
    #[cfg(test)]
    pub(crate) fn prewarm(&mut self, mut gen: impl FnMut() -> Option<PageId>) {
        let mut guard = 0u64;
        let budget = (self.capacity as u64) * 8;
        while self.len() < self.capacity {
            match gen() {
                Some(p) => {
                    if !self.contains(p) {
                        self.insert_new(p, false);
                    }
                }
                None => break,
            }
            guard += 1;
            if guard > budget {
                break; // generator keeps producing duplicates; give up
            }
        }
    }

    /// Resident pages, most recently used first.
    #[cfg(test)]
    pub(crate) fn lru_pages(&self) -> Vec<PageId> {
        let mut out = Vec::with_capacity(self.frames.len());
        let mut idx = self.lists[LRU].head;
        while idx != NIL {
            let f = &self.frames[idx as usize];
            out.push(f.page);
            idx = f.links[LRU].next;
        }
        out
    }

    fn insert_new(&mut self, page: PageId, dirty: bool) -> bool {
        let mut evicted_dirty = false;
        let frame = Frame { page, dirty, links: [Link { prev: NIL, next: NIL }; 2] };
        let idx = if self.frames.len() >= self.capacity {
            // Evict the LRU victim and take over its frame.
            let victim = self.ends(LRU).tail;
            debug_assert_ne!(victim, NIL);
            // lint:allow(panic) reason=frame ids are intrusive-list indices bounded by capacity
            let old = std::mem::replace(&mut self.frames[victim as usize], frame);
            self.unlink_at(LRU, old.links[LRU]);
            self.map(old.page, NIL);
            if old.dirty {
                self.unlink_at(DIRTY, old.links[DIRTY]);
                self.dirty -= 1;
                self.pages_flushed += 1;
                evicted_dirty = true;
            }
            victim
        } else {
            self.frames.push(frame);
            (self.frames.len() - 1) as u32
        };
        self.map(page, idx);
        self.push_front(LRU, idx);
        if dirty {
            self.dirty += 1;
            self.push_front(DIRTY, idx);
        }
        evicted_dirty
    }

    /// The frame holding `page`, or `NIL`.
    fn frame_of(&self, page: PageId) -> u32 {
        let slots = self.page_table.get(page.table());
        slots.and_then(|s| s.get(page.page_no() as usize)).copied().unwrap_or(NIL)
    }

    /// Points `page` at `frame` (`NIL` = not resident), growing the page
    /// table to cover it.
    fn map(&mut self, page: PageId, frame: u32) {
        let (table, page_no) = (page.table(), page.page_no() as usize);
        if self.page_table.len() <= table {
            self.page_table.resize_with(table + 1, Vec::new);
        }
        // lint:allow(panic) reason=the table's slot array was created just above
        let slots = &mut self.page_table[table];
        if slots.len() <= page_no {
            slots.resize(page_no + 1, NIL);
        }
        // lint:allow(panic) reason=slots was grown past page_no just above
        slots[page_no] = frame;
    }

    fn ends(&mut self, list: usize) -> &mut Ends {
        // lint:allow(panic) reason=list is LRU or DIRTY
        &mut self.lists[list]
    }

    fn link(&mut self, list: usize, idx: u32) -> &mut Link {
        // lint:allow(panic) reason=frame ids are intrusive-list indices bounded by capacity
        &mut self.frames[idx as usize].links[list]
    }

    fn unlink(&mut self, list: usize, idx: u32) {
        let at = *self.link(list, idx);
        self.unlink_at(list, at);
    }

    /// Closes `list` over the position `at` (the link of the frame leaving).
    fn unlink_at(&mut self, list: usize, at: Link) {
        if at.prev != NIL {
            self.link(list, at.prev).next = at.next;
        } else {
            self.ends(list).head = at.next;
        }
        if at.next != NIL {
            self.link(list, at.next).prev = at.prev;
        } else {
            self.ends(list).tail = at.prev;
        }
    }

    fn push_front(&mut self, list: usize, idx: u32) {
        let head = std::mem::replace(&mut self.ends(list).head, idx);
        *self.link(list, idx) = Link { prev: NIL, next: head };
        if head != NIL {
            self.link(list, head).prev = idx;
        } else {
            self.ends(list).tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashSet, VecDeque};

    fn p(n: u64) -> PageId {
        PageId::new(0, n)
    }

    #[test]
    fn hits_after_fault() {
        let mut bp = BufferPool::new(4);
        assert!(!bp.access(p(1), false).hit);
        assert!(bp.access(p(1), false).hit);
        assert_eq!(bp.miss_count(), 1);
        assert_eq!(bp.read_requests(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut bp = BufferPool::new(2);
        bp.access(p(1), false);
        bp.access(p(2), false);
        bp.access(p(1), false); // 2 is now LRU
        bp.access(p(3), false); // evicts 2
        assert!(bp.contains(p(1)));
        assert!(!bp.contains(p(2)));
        assert!(bp.contains(p(3)));
    }

    #[test]
    fn dirty_eviction_reported_and_flushed() {
        let mut bp = BufferPool::new(1);
        bp.access(p(1), true);
        assert_eq!(bp.dirty_count(), 1);
        let out = bp.access(p(2), false);
        assert!(out.evicted_dirty);
        assert_eq!(bp.dirty_count(), 0);
        assert_eq!(bp.pages_flushed(), 1);
    }

    #[test]
    fn write_to_resident_page_marks_dirty_once() {
        let mut bp = BufferPool::new(4);
        bp.access(p(1), false);
        bp.access(p(1), true);
        bp.access(p(1), true);
        assert_eq!(bp.dirty_count(), 1);
    }

    #[test]
    fn flush_some_cleans_from_lru_end() {
        let mut bp = BufferPool::new(4);
        for i in 0..4 {
            bp.access(p(i), true);
        }
        let flushed = bp.flush_some(2);
        assert_eq!(flushed, 2);
        assert_eq!(bp.dirty_count(), 2);
        assert_eq!(bp.flush_all(), 2);
        assert_eq!(bp.dirty_count(), 0);
    }

    #[test]
    fn prewarm_fills_to_capacity() {
        let mut bp = BufferPool::new(100);
        let mut n = 0u64;
        bp.prewarm(|| {
            n += 1;
            Some(p(n))
        });
        assert_eq!(bp.len(), 100);
        assert_eq!(bp.dirty_count(), 0);
        // `fill` stops at the same page, in the same order.
        let mut filled = BufferPool::new(100);
        filled.fill((1..=150).map(p), false);
        assert_eq!(filled.lru_pages(), bp.lru_pages());
        assert_eq!(filled.dirty_count(), 0);
    }

    #[test]
    fn prewarm_stops_when_generator_dries_up() {
        let mut bp = BufferPool::new(100);
        let mut n = 0u64;
        bp.prewarm(|| {
            n += 1;
            if n <= 10 {
                Some(p(n))
            } else {
                None
            }
        });
        assert_eq!(bp.len(), 10);
        let mut filled = BufferPool::new(100);
        filled.fill((1..=10).map(p), false);
        assert_eq!(filled.lru_pages(), bp.lru_pages());
    }

    #[test]
    fn len_never_exceeds_capacity() {
        let mut bp = BufferPool::new(8);
        for i in 0..1000u64 {
            bp.access(p(i % 37), i % 3 == 0);
            assert!(bp.len() <= 8);
        }
    }

    #[test]
    fn hit_rate_scales_with_capacity_under_uniform_access() {
        // The emergent behaviour the cost model relies on: bigger pool,
        // higher hit rate, for the same access stream.
        // Pseudo-random (non-cyclic) access over 1000 distinct pages — a
        // strictly cyclic stream would be LRU's pathological worst case.
        let mut x = 0x243F_6A88_85A3_08D3u64;
        let stream: Vec<u64> = (0..20_000u64)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 33) % 1000
            })
            .collect();
        let mut rates = Vec::new();
        for cap in [100usize, 400, 900] {
            let mut bp = BufferPool::new(cap);
            // Warm.
            for &k in &stream {
                bp.access(p(k), false);
            }
            let (r0, m0) = (bp.read_requests(), bp.miss_count());
            for &k in &stream {
                bp.access(p(k), false);
            }
            let hits = (bp.read_requests() - r0) - (bp.miss_count() - m0);
            rates.push(hits as f64 / (bp.read_requests() - r0) as f64);
        }
        assert!(rates[0] < rates[1] && rates[1] < rates[2], "rates {rates:?}");
        assert!(rates[2] > 0.85, "pool ≈ working set should mostly hit: {rates:?}");
    }

    /// Reference pool: a deque in LRU order (front = most recent) plus a
    /// dirty set, every operation a linear search.
    #[derive(Default)]
    struct Model {
        lru: VecDeque<PageId>,
        dirty: HashSet<PageId>,
        capacity: usize,
        counters: [u64; 4], // read requests, misses, write requests, pages flushed
    }

    impl Model {
        fn new(capacity: usize) -> Self {
            Self { capacity: capacity.max(1), ..Self::default() }
        }

        fn access(&mut self, page: PageId, write: bool) -> AccessOutcome {
            self.counters[if write { 2 } else { 0 }] += 1;
            let hit = self.lru.iter().position(|&p| p == page).map(|i| self.lru.remove(i));
            let mut evicted_dirty = false;
            if hit.is_none() {
                self.counters[1] += u64::from(!write);
                if self.lru.len() == self.capacity {
                    let victim = self.lru.pop_back().unwrap();
                    evicted_dirty = self.dirty.remove(&victim);
                    self.counters[3] += u64::from(evicted_dirty);
                }
            }
            self.lru.push_front(page);
            if write {
                self.dirty.insert(page);
            }
            AccessOutcome { hit: hit.is_some(), evicted_dirty }
        }

        /// The dirty pages in the order the flusher must take them.
        fn dirty_from_tail(&self) -> Vec<PageId> {
            self.lru.iter().rev().filter(|p| self.dirty.contains(p)).copied().collect()
        }

        fn flush_some(&mut self, n: usize) -> Vec<PageId> {
            let cleaned: Vec<PageId> = self.dirty_from_tail().into_iter().take(n).collect();
            for p in &cleaned {
                self.dirty.remove(p);
            }
            self.counters[3] += cleaned.len() as u64;
            cleaned
        }
    }

    /// Walks one of the pool's lists from its tail.
    fn from_tail(bp: &BufferPool, list: usize) -> Vec<PageId> {
        let mut out = Vec::new();
        let mut idx = bp.lists[list].tail;
        while idx != NIL {
            let f = &bp.frames[idx as usize];
            out.push(f.page);
            idx = f.links[list].prev;
        }
        out
    }

    fn assert_agrees(bp: &BufferPool, m: &Model, ctx: &str) {
        assert_eq!(from_tail(bp, LRU), m.lru.iter().rev().copied().collect::<Vec<_>>(), "{ctx}");
        assert_eq!(from_tail(bp, DIRTY), m.dirty_from_tail(), "{ctx}");
        assert_eq!(bp.len(), m.lru.len(), "{ctx}");
        assert_eq!(bp.dirty_count(), m.dirty.len(), "{ctx}");
        assert_eq!(bp.free_count(), m.capacity - m.lru.len(), "{ctx}");
        assert_eq!(bp.capacity(), m.capacity, "{ctx}");
        let counters =
            [bp.read_requests(), bp.miss_count(), bp.write_requests(), bp.pages_flushed()];
        assert_eq!(counters, m.counters, "{ctx}");
    }

    /// Drives `bp` and a fresh model of `capacity` through `steps` seeded
    /// random operations over `tables` × `pages` page ids, comparing every
    /// answer and the full pool state after every step.
    fn run_script(
        bp: &mut BufferPool,
        capacity: usize,
        tables: usize,
        pages: u64,
        seed: u64,
        steps: usize,
    ) {
        run_script_from(bp, Model::new(capacity), tables, pages, seed, steps);
    }

    /// [`run_script`] from a pool that `m` already describes.
    fn run_script_from(
        bp: &mut BufferPool,
        mut m: Model,
        tables: usize,
        pages: u64,
        seed: u64,
        steps: usize,
    ) {
        let capacity = m.capacity;
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 33
        };
        for step in 0..steps {
            let ctx =
                format!("capacity {capacity}, {tables}x{pages} pages, seed {seed}, step {step}");
            let page = PageId::new(next() as usize % tables, next() % pages);
            match next() % 16 {
                0 => {
                    let n = next() as usize % (capacity + 2);
                    let before = from_tail(bp, DIRTY);
                    let cleaned = m.flush_some(n);
                    assert_eq!(bp.flush_some(n), cleaned.len(), "{ctx}");
                    // What left the pool's dirty list is the model's choice, in order.
                    assert_eq!(before[..cleaned.len()], cleaned[..], "{ctx}");
                }
                1 if next() % 8 == 0 => {
                    assert_eq!(bp.flush_all(), m.flush_some(usize::MAX).len(), "{ctx}");
                }
                2 => assert_eq!(bp.contains(page), m.lru.contains(&page), "{ctx}"),
                op => {
                    assert_eq!(bp.access(page, op % 3 == 0), m.access(page, op % 3 == 0), "{ctx}")
                }
            }
            assert_agrees(bp, &m, &ctx);
        }
    }

    #[test]
    fn matches_reference_lru_under_random_operations() {
        for (capacity, tables, pages) in
            [(1, 1, 3), (2, 1, 5), (2, 3, 2), (7, 1, 10), (7, 2, 40), (64, 1, 50), (64, 4, 60)]
        {
            for seed in 1..=2 {
                run_script(&mut BufferPool::new(capacity), capacity, tables, pages, seed, 2_500);
            }
        }
    }

    #[test]
    fn reset_behaves_like_new() {
        // One pool reused across scripts of different capacities, tables and
        // page universes must be indistinguishable from a fresh pool each time.
        let mut bp = BufferPool::new(5);
        run_script(&mut bp, 5, 2, 20, 9, 1_500);
        for (i, (capacity, tables, pages)) in
            [(7, 3, 30), (2, 1, 9), (64, 4, 40), (1, 2, 4), (7, 1, 100), (0, 1, 3)]
                .into_iter()
                .enumerate()
        {
            bp.reset(capacity);
            assert_agrees(&bp, &Model::new(capacity), "after reset");
            for t in 0..4 {
                for p in 0..100 {
                    assert!(!bp.contains(PageId::new(t, p)), "page ({t}, {p}) survived reset");
                }
            }
            run_script(&mut bp, capacity.max(1), tables, pages, 10 + i as u64, 1_500);
        }
    }

    #[test]
    fn fill_equals_faulting_the_pages_in() {
        // A reused pool filled with distinct pages is the pool a run of
        // read misses on them leaves (counters aside without `as_reads`),
        // and it keeps behaving like the reference afterwards.
        for (i, (capacity, tables, pages, n)) in
            [(1, 1, 3, 1), (1, 2, 4, 3), (5, 2, 20, 3), (7, 3, 30, 7), (64, 4, 60, 200)]
                .into_iter()
                .enumerate()
        {
            for as_reads in [false, true] {
                let seed = 40 + i as u64;
                let mut bp = BufferPool::new(3);
                run_script(&mut bp, 3, tables, pages, seed, 300);
                bp.reset(capacity);
                // A seeded shuffle of every page id.
                let mut all: Vec<PageId> = (0..tables)
                    .flat_map(|t| (0..pages).map(move |n| PageId::new(t, n)))
                    .collect();
                let mut x = seed;
                for k in (1..all.len()).rev() {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    all.swap(k, (x >> 33) as usize % (k + 1));
                }
                all.truncate(n);
                let mut m = Model::new(capacity);
                for &page in all.iter().take(capacity) {
                    m.access(page, false);
                }
                if !as_reads {
                    m.counters = [0; 4];
                }
                bp.fill(all.iter().copied(), as_reads);
                let ctx = format!("capacity {capacity}, {n} pages, as_reads {as_reads}");
                assert_agrees(&bp, &m, &ctx);
                run_script_from(&mut bp, m, tables, pages, seed, 1_000);
            }
        }
    }
}

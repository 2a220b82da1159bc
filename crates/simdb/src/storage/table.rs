//! Tables: row placement over pages plus a primary-key B+tree index.
//!
//! Page numbers are dense (`0..page_count()`), which is what lets the
//! buffer pool map pages to frames by position. A table is loaded once, in
//! O(rows), by [`Table::bulk_load`]; range scans report their pages, rows
//! and index leaves from one walk of the leaf chain into a caller-owned
//! buffer.

use super::btree::BPlusTree;
use super::page::{PageId, PAGE_SIZE_BYTES};

/// Table identifier within an engine.
pub type TableId = usize;

/// Index fanout; with [`BPlusTree`]'s split rule it fixes the depth and the
/// leaves per scan the cost model sees.
const INDEX_FANOUT: usize = 64;

/// A heap table with a primary-key index.
///
/// Row payloads are not materialized; the table tracks which page each key
/// lives on (via the index) and how full pages are, which is all the buffer
/// pool and cost model need.
#[derive(Debug)]
pub struct Table {
    id: TableId,
    name: String,
    rows_per_page: u64,
    index: BPlusTree,
    next_page: u64,
    rows_in_last_page: u64,
    /// Pages with reclaimable slots (deletes push, inserts pop), so
    /// delete/insert churn — sysbench's steady-state pattern — does not
    /// bloat the table.
    free_slots: Vec<u64>,
}

impl Table {
    /// Creates an empty table. `row_width_bytes` sets rows-per-page
    /// (sysbench's padded rows are ~2.7 KiB; TPC-C rows are smaller).
    pub fn new(id: TableId, name: impl Into<String>, row_width_bytes: u64) -> Self {
        let rows_per_page = (PAGE_SIZE_BYTES / row_width_bytes.max(1)).max(1);
        Self {
            id,
            name: name.into(),
            rows_per_page,
            index: BPlusTree::new(INDEX_FANOUT),
            next_page: 0,
            rows_in_last_page: 0,
            free_slots: Vec::new(),
        }
    }

    /// Table id.
    pub fn id(&self) -> TableId {
        self.id
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rows currently stored.
    pub fn row_count(&self) -> usize {
        self.index.len()
    }

    /// Allocated data pages.
    pub fn page_count(&self) -> u64 {
        self.next_page
    }

    /// Rows per page for this table's row width.
    pub fn rows_per_page(&self) -> u64 {
        self.rows_per_page
    }

    /// On-disk footprint in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.next_page * PAGE_SIZE_BYTES
    }

    /// Index depth (CPU cost per lookup is proportional to this).
    pub fn index_depth(&self) -> usize {
        self.index.depth()
    }

    /// Bulk-loads `count` rows with keys `0..count` into an empty table
    /// (benchmark-tool table setup; sysbench/TPC-C/YCSB all load dense
    /// keys). Rows fill pages in key order, exactly as `count` calls of
    /// [`Table::insert`] would place them.
    pub fn bulk_load(&mut self, count: u64) {
        assert_eq!(self.next_page, 0, "bulk_load needs an empty table");
        let per_page = self.rows_per_page;
        self.index = BPlusTree::bulk_load(INDEX_FANOUT, count, per_page);
        self.next_page = count.div_ceil(per_page);
        self.rows_in_last_page = count - self.next_page.saturating_sub(1) * per_page;
    }

    /// Looks up the page holding `key`.
    pub fn lookup(&self, key: u64) -> Option<PageId> {
        self.index.get(key).map(|p| PageId::new(self.id, p))
    }

    /// Inserts a row, allocating a new page when the current one fills.
    /// Returns `(page, page_was_created)`. Re-inserting an existing key is
    /// an in-place overwrite of that row's page. One index descent either
    /// way: the page is chosen only once the key is known to be new.
    pub fn insert(&mut self, key: u64) -> (PageId, bool) {
        let mut created = false;
        let page_no = self.index.get_or_insert_with(key, || {
            if let Some(page_no) = self.free_slots.pop() {
                return page_no;
            }
            if self.next_page == 0 || self.rows_in_last_page >= self.rows_per_page {
                self.next_page += 1;
                self.rows_in_last_page = 1;
                created = true;
            } else {
                self.rows_in_last_page += 1;
            }
            self.next_page - 1
        });
        (PageId::new(self.id, page_no), created)
    }

    /// Deletes a row; returns the page it lived on. The slot becomes
    /// reusable by a later insert.
    pub fn delete(&mut self, key: u64) -> Option<PageId> {
        self.index.remove(key).map(|p| {
            self.free_slots.push(p);
            PageId::new(self.id, p)
        })
    }

    /// Replaces the contents of `pages` with the distinct pages a range
    /// scan of up to `limit` rows from `start` touches, in scan order.
    /// Returns `(rows_scanned, leaves_touched)`.
    pub fn range_pages(&self, start: u64, limit: usize, pages: &mut Vec<PageId>) -> (usize, usize) {
        pages.clear();
        let mut last = u64::MAX;
        self.index.scan_from(start, limit, |_, p| {
            if p != last {
                pages.push(PageId::new(self.id, p));
                last = p;
            }
        })
    }

    /// A uniformly random existing page (for pre-warming), or `None` for an
    /// empty table.
    pub fn page_at(&self, page_no: u64) -> Option<PageId> {
        if page_no < self.next_page {
            Some(PageId::new(self.id, page_no))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_pack_into_pages_by_width() {
        let mut t = Table::new(0, "sbtest1", 2700); // ~6 rows per 16 KiB page
        assert_eq!(t.rows_per_page(), 6);
        t.bulk_load(13);
        assert_eq!(t.page_count(), 3); // 6 + 6 + 1
        assert_eq!(t.row_count(), 13);
    }

    #[test]
    fn lookup_finds_the_right_page() {
        let mut t = Table::new(2, "t", 8192); // 2 rows per page
        t.bulk_load(10);
        assert_eq!(t.lookup(0).unwrap().page_no(), 0);
        assert_eq!(t.lookup(1).unwrap().page_no(), 0);
        assert_eq!(t.lookup(2).unwrap().page_no(), 1);
        assert_eq!(t.lookup(9).unwrap().page_no(), 4);
        assert!(t.lookup(10).is_none());
        assert_eq!(t.lookup(5).unwrap().table(), 2);
    }

    #[test]
    fn reinsert_is_in_place() {
        let mut t = Table::new(0, "t", 8192);
        t.bulk_load(4);
        let pages_before = t.page_count();
        let (p, created) = t.insert(1);
        assert!(!created);
        assert_eq!(p, t.lookup(1).unwrap());
        assert_eq!(t.page_count(), pages_before);
        assert_eq!(t.row_count(), 4);
    }

    #[test]
    fn delete_then_reinsert() {
        let mut t = Table::new(0, "t", 8192);
        t.bulk_load(4);
        let p = t.delete(2).unwrap();
        assert_eq!(p.page_no(), 1);
        assert_eq!(t.row_count(), 3);
        assert!(t.lookup(2).is_none());
        let (_, _) = t.insert(2);
        assert_eq!(t.row_count(), 4);
    }

    #[test]
    fn range_pages_dedupes_consecutive() {
        let mut t = Table::new(0, "t", 4096); // 4 rows/page
        t.bulk_load(40);
        let mut pages = Vec::new();
        let (rows, leaves) = t.range_pages(0, 16, &mut pages);
        assert_eq!(rows, 16);
        assert_eq!(pages.len(), 4); // 16 rows / 4 per page
        assert!(leaves >= 1);
        let (rows, _) = t.range_pages(38, 100, &mut pages);
        assert_eq!(rows, 2);
        assert_eq!(pages, [PageId::new(0, 9)]); // the buffer is replaced, not appended to
    }

    #[test]
    fn bulk_load_equals_row_by_row_insert() {
        for width in [2700u64, 4096, 8192, 300] {
            for n in [0u64, 1, 5, 6, 7, 64, 65, 1_000, 6_000] {
                let mut bulk = Table::new(3, "t", width);
                bulk.bulk_load(n);
                let mut seq = Table::new(3, "t", width);
                for k in 0..n {
                    seq.insert(k);
                }
                let ctx = format!("width {width}, n {n}");
                assert_eq!(bulk.page_count(), seq.page_count(), "{ctx}");
                assert_eq!(bulk.row_count(), seq.row_count(), "{ctx}");
                assert_eq!(bulk.rows_in_last_page, seq.rows_in_last_page, "{ctx}");
                assert_eq!(bulk.index_depth(), seq.index_depth(), "{ctx}");
                for k in 0..=n {
                    assert_eq!(bulk.lookup(k), seq.lookup(k), "{ctx}, key {k}");
                }
                // The next insert lands where it would have without the bulk load.
                assert_eq!(bulk.insert(n), seq.insert(n), "{ctx}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "bulk_load needs an empty table")]
    fn bulk_load_refuses_a_loaded_table() {
        let mut t = Table::new(0, "t", 2700);
        t.insert(0);
        t.bulk_load(10);
    }

    #[test]
    fn delete_insert_churn_does_not_bloat() {
        // Sysbench's steady-state delete+reinsert pattern must keep the
        // table size stable.
        let mut t = Table::new(0, "t", 2700);
        t.bulk_load(600);
        let pages = t.page_count();
        for round in 0..50u64 {
            for k in 0..20u64 {
                let victim = (round * 37 + k * 13) % 600;
                if t.delete(victim).is_some() {
                    let _ = t.insert(victim);
                }
            }
        }
        assert_eq!(t.page_count(), pages, "churn must not allocate new pages");
        assert_eq!(t.row_count(), 600);
    }

    #[test]
    fn size_accounts_pages() {
        let mut t = Table::new(0, "t", 2700);
        t.bulk_load(600);
        assert_eq!(t.size_bytes(), t.page_count() * PAGE_SIZE_BYTES);
        assert_eq!(t.page_count(), 100);
    }
}

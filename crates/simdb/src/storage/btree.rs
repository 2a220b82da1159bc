//! A from-scratch B+tree mapping `u64` keys to `u64` values.
//!
//! Tables index primary keys with this tree (key → page number). Leaves are
//! chained for range scans. Fanout is fixed at construction; the engine uses
//! a fanout that makes tree depth realistic for the simulated table sizes so
//! per-lookup CPU cost (proportional to depth) behaves like a real index.
//!
//! Depth and leaves touched feed the cost model, so the tree's *shape* is
//! part of the simulation: [`BPlusTree::bulk_load`] builds dense keys level
//! by level in O(n) but lands on exactly the nodes a sequential
//! [`BPlusTree::insert`] loop leaves behind, [`BPlusTree::depth`] is a
//! counter bumped when the root splits, and [`BPlusTree::scan_from`] reports
//! rows and leaves touched from a single walk of the leaf chain.
//!
//! The layout is flat, the way a storage engine lays out index pages: every
//! node is a fixed-size slot of one `Vec` addressed by `u32`, and a node's
//! keys and values (child ids, in an internal node) are one extent of a
//! single word pool. A bulk-loaded leaf has no extent at all: its keys are a
//! run `first..first + len` (leaf `i` starts at `i * ⌈fanout / 2⌉`, the fill
//! a sequential load leaves) and its values follow from the key, so loading
//! an index writes only its internal nodes — a few allocations whatever its
//! size, a few percent of the words — and a lookup reads no leaf memory.
//! Extents are sized to what the node holds when it is written: a bulk-loaded
//! internal node, or a dense leaf at its first remove or overwrite, gets room
//! for exactly its keys; a node that must take one more key moves once to an
//! extent with room for the `fanout + 1` keys a split resolves, leaving its
//! old extent unused until the index is rebuilt. Nodes carry no leaf flag:
//! the leaves are the nodes `depth - 1` levels below the root, and the only
//! ones with a `next`. [`BPlusTree::insert`] and
//! [`BPlusTree::get_or_insert_with`] descend once, remember the path, and
//! split back up along it.

const MIN_FANOUT: usize = 4;

/// No node (the end of the leaf chain), or no extent (a dense leaf).
const NIL: u32 = u32::MAX;

/// Most levels a tree can have. Every internal node has at least two
/// children and lazy deletion never merges, so level `k` below the root
/// holds at least `2^k` nodes, and node ids are `u32`.
const MAX_DEPTH: usize = 33;

/// A node's fixed-size slot.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Offset of the node's extent in the word pool: `cap` keys, then
    /// `cap + 1` values (a leaf's values; an internal node's child ids).
    /// `NIL` for a dense leaf.
    start: u32,
    /// Keys held; an internal node holds `len + 1` children.
    len: u32,
    /// Keys the extent has room for.
    cap: u32,
    /// The next leaf in key order; `NIL` for the last leaf and internal nodes.
    next: u32,
}

impl Node {
    /// Offset of a written node's first value.
    fn value_start(self) -> usize {
        self.start as usize + self.cap as usize
    }
}

/// A B+tree with `u64` keys and values.
#[derive(Debug)]
pub struct BPlusTree {
    nodes: Vec<Node>,
    /// Every written node's keys and values, one extent per node.
    words: Vec<u64>,
    root: u32,
    fanout: usize,
    len: usize,
    /// Levels from root to leaf (1 = a single leaf); grows on root splits.
    depth: usize,
    /// A dense leaf maps key `k` to `k / keys_per_value`.
    keys_per_value: u64,
}

/// Splits `items` into the node sizes a level reaches when its items arrive
/// in ascending order: a node overflows at `cap + 1` items and leaves `left`
/// of them behind, so every node but the last holds `left` and the last
/// holds the remaining `cap + 1 - left ..= cap`. Yields `(start, len)`.
fn ascending_fill(items: usize, cap: usize, left: usize) -> impl Iterator<Item = (usize, usize)> {
    let full = if items > cap { (items - (cap + 1 - left)) / left } else { 0 };
    (0..full)
        .map(move |i| (i * left, left))
        .chain(std::iter::once((full * left, items - full * left)))
}

/// A node id or pool offset as the arena's `u32` address.
fn address(at: usize) -> u32 {
    // lint:allow(panic) reason=2^32 pool words is 32 GiB of index, past any simulated instance
    u32::try_from(at).ok().filter(|&a| a != NIL).expect("B+tree arena outgrew u32 addressing")
}

impl BPlusTree {
    /// Creates an empty tree with the given maximum fanout (≥ 4).
    pub fn new(fanout: usize) -> Self {
        assert!(fanout >= MIN_FANOUT, "fanout must be at least {MIN_FANOUT}");
        let mut tree = Self {
            nodes: Vec::new(),
            words: Vec::new(),
            root: 0,
            fanout,
            len: 0,
            depth: 1,
            keys_per_value: 1,
        };
        tree.root = tree.alloc(NIL);
        tree
    }

    /// Builds the tree over dense keys `0..count`, entry `k` holding
    /// `k / keys_per_value` (a table's page number when that many rows fit
    /// a page), level by level and without a search per key. The result is
    /// node for node the tree that inserting `0..count` in order into an
    /// empty tree produces (same occupancy of every leaf and internal node,
    /// hence same depth, node count and leaves per scan).
    pub fn bulk_load(fanout: usize, count: u64, keys_per_value: u64) -> Self {
        assert!(keys_per_value > 0, "keys_per_value must be positive");
        let mut tree = Self { keys_per_value, ..Self::new(fanout) };
        if count == 0 {
            return tree;
        }
        let (mid, len) = (tree.dense_leaf_keys(), count as usize);
        // Size both arrays first: a slot per node, and an extent per
        // internal node. A node of `k` keys takes `2k + 1` words, so a level
        // of `p` internal nodes over `c` children takes `2c - p`.
        let leaves = ascending_fill(len, fanout, mid).count();
        let (mut nodes, mut words, mut below) = (leaves, 0, leaves);
        while below > 1 {
            let above = ascending_fill(below, fanout + 1, mid + 1).count();
            (nodes, words, below) = (nodes + above, words + 2 * below - above, above);
        }
        tree.nodes = Vec::with_capacity(nodes);
        // Leave room for every leaf to be written out at its size as well:
        // the pool then never moves while a write-heavy run touches every
        // leaf, and the room becomes resident only as leaves are written.
        tree.words = Vec::with_capacity(words + 2 * len + leaves);
        tree.len = len;
        for (start, n) in ascending_fill(len, fanout, mid) {
            let next = if start + n < len { address(tree.nodes.len() + 1) } else { NIL };
            tree.nodes.push(Node { start: NIL, len: n as u32, cap: 0, next });
        }
        // An internal node with k keys has k + 1 children, so in children
        // the capacity and the left share of a split are each one larger.
        // `mins[i]` is the smallest key beneath node `first + i` of the level
        // just built; a level's nodes have consecutive ids.
        let mut mins: Vec<u64> = ascending_fill(len, fanout, mid).map(|(s, _)| s as u64).collect();
        let mut first = 0;
        while mins.len() > 1 {
            let level = tree.nodes.len();
            let mut parents = 0;
            for (start, n) in ascending_fill(mins.len(), fanout + 1, mid + 1) {
                // lint:allow(panic) reason=ascending_fill yields non-empty ranges within 0..mins.len()
                let (min, keys) = (mins[start], &mins[start + 1..start + n]);
                let children = (first + start..first + start + n).map(|c| u64::from(address(c)));
                let at = address(tree.words.len());
                tree.words.extend(keys.iter().copied().chain(children));
                let len = (n - 1) as u32;
                tree.nodes.push(Node { start: at, len, cap: len, next: NIL });
                // lint:allow(panic) reason=parents <= start, as every group is non-empty
                mins[parents] = min;
                parents += 1;
            }
            mins.truncate(parents);
            first = level;
            tree.depth += 1;
        }
        tree.root = address(first); // the last level built is the root alone
        tree
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree depth (1 = a single leaf).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Point lookup.
    pub fn get(&self, key: u64) -> Option<u64> {
        let leaf = self.find_leaf(key);
        let (slot, found) = self.leaf_slot(leaf, key);
        found.then(|| self.leaf_value(leaf, slot))
    }

    /// Inserts or overwrites; returns the previous value if any.
    pub fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        let mut path = [(0, 0); MAX_DEPTH];
        let (leaf, slot, found) = self.descend(key, &mut path);
        if found {
            let n = self.written(leaf);
            let at = n.value_start() + slot;
            // lint:allow(panic) reason=slot < len values
            return Some(std::mem::replace(&mut self.words[at], value));
        }
        self.insert_at(&path, leaf, slot, key, value);
        None
    }

    /// The value under `key`, inserting `value()` first when the key is
    /// absent. One descent either way, where `get` then `insert` would take
    /// two.
    pub fn get_or_insert_with(&mut self, key: u64, value: impl FnOnce() -> u64) -> u64 {
        let mut path = [(0, 0); MAX_DEPTH];
        let (leaf, slot, found) = self.descend(key, &mut path);
        if found {
            return self.leaf_value(leaf, slot);
        }
        let value = value();
        self.insert_at(&path, leaf, slot, key, value);
        value
    }

    /// Removes a key; returns its value if present.
    ///
    /// Underflowed leaves are left in place (lazy deletion) — acceptable for
    /// the simulator's workloads, where deletes are a small fraction of ops.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        let leaf = self.find_leaf(key);
        let (slot, found) = self.leaf_slot(leaf, key);
        if !found {
            return None;
        }
        let n = self.written(leaf);
        let (start, values, len) = (n.start as usize, n.value_start(), n.len as usize);
        // lint:allow(panic) reason=slot < len values
        let value = self.words[values + slot];
        self.words.copy_within(start + slot + 1..start + len, start + slot);
        self.words.copy_within(values + slot + 1..values + len, values + slot);
        self.node_mut(leaf).len -= 1;
        self.len -= 1;
        Some(value)
    }

    /// Returns up to `limit` `(key, value)` pairs with `key >= start`, in
    /// key order, following the leaf chain.
    pub fn range_from(&self, start: u64, limit: usize) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(limit.min(1024));
        self.scan_from(start, limit, |k, v| out.push((k, v)));
        out
    }

    /// Visits up to `limit` entries with `key >= start` in key order along
    /// the leaf chain and returns `(entries visited, leaves touched)`. The
    /// walk stops *in* the leaf that satisfies the limit (so `limit == 0`
    /// still touches the leaf `start` lands in), which is the leaf count
    /// scan cost accounting charges.
    pub fn scan_from(
        &self,
        start: u64,
        limit: usize,
        mut visit: impl FnMut(u64, u64),
    ) -> (usize, usize) {
        let mut remaining = limit;
        let mut leaves = 0;
        let mut id = self.find_leaf(start);
        loop {
            leaves += 1;
            let n = self.node(id);
            let begin = self.leaf_slot(id, start).0;
            let take = (n.len as usize - begin).min(remaining);
            if n.start == NIL {
                // `k / per` for a run of keys, one division per leaf.
                let (first, per) = (self.dense_first(id) + begin as u64, self.keys_per_value);
                let (mut value, mut left) = (first / per, per - first % per);
                for k in first..first + take as u64 {
                    visit(k, value);
                    left -= 1;
                    if left == 0 {
                        (value, left) = (value + 1, per);
                    }
                }
            } else {
                let (keys, values) = (n.start as usize + begin, n.value_start() + begin);
                // lint:allow(panic) reason=begin + take <= len keys and values
                let run = self.words[keys..keys + take].iter().zip(&self.words[values..values + take]);
                for (&k, &v) in run {
                    visit(k, v);
                }
            }
            remaining -= take;
            if remaining == 0 || n.next == NIL {
                return (limit - remaining, leaves);
            }
            id = n.next;
        }
    }

    fn node(&self, id: u32) -> Node {
        // lint:allow(panic) reason=node ids are arena indices maintained by insert/split
        self.nodes[id as usize]
    }

    fn node_mut(&mut self, id: u32) -> &mut Node {
        // lint:allow(panic) reason=node ids are arena indices maintained by insert/split
        &mut self.nodes[id as usize]
    }

    /// Keys a dense leaf holds when it is not the last: the left share of a
    /// leaf split.
    fn dense_leaf_keys(&self) -> usize {
        self.fanout.div_ceil(2)
    }

    /// The first key of dense leaf `id`.
    fn dense_first(&self, id: u32) -> u64 {
        u64::from(id) * self.dense_leaf_keys() as u64
    }

    /// `key`'s slot in leaf `id` (the keys below it) and whether it is there.
    fn leaf_slot(&self, id: u32, key: u64) -> (usize, bool) {
        let n = self.node(id);
        if n.start == NIL {
            let first = self.dense_first(id);
            let slot = key.saturating_sub(first).min(u64::from(n.len)) as usize;
            return (slot, key >= first && slot < n.len as usize);
        }
        let at = n.start as usize;
        // lint:allow(panic) reason=a node's extent lies within the word pool
        let keys = &self.words[at..at + n.len as usize];
        let slot = keys.partition_point(|&k| k < key);
        (slot, keys.get(slot) == Some(&key))
    }

    /// The value at `slot` (< len) of leaf `id`.
    fn leaf_value(&self, id: u32, slot: usize) -> u64 {
        let n = self.node(id);
        if n.start == NIL {
            return (self.dense_first(id) + slot as u64) / self.keys_per_value;
        }
        // lint:allow(panic) reason=slot < len values
        self.words[n.value_start() + slot]
    }

    /// Node `id` with an extent, a dense leaf written out into one sized to
    /// its keys.
    fn written(&mut self, id: u32) -> Node {
        let n = self.node(id);
        if n.start == NIL {
            return self.move_to_extent(id, n.len as usize);
        }
        n
    }

    /// Moves node `id` to a new extent with room for `cap` keys, writing a
    /// dense leaf's keys and values out; an old extent stays behind unused.
    fn move_to_extent(&mut self, id: u32, cap: usize) -> Node {
        let old = self.node(id);
        let new = Node { start: self.extent(cap), cap: cap as u32, ..old };
        let (at, values, len) = (new.start as usize, new.value_start(), old.len as usize);
        if old.start == NIL {
            let (first, per) = (self.dense_first(id), self.keys_per_value);
            // lint:allow(panic) reason=len <= cap keys and values fit the extent made above
            for (slot, k) in self.words[at..at + len].iter_mut().zip(first..) {
                *slot = k;
            }
            // lint:allow(panic) reason=as above
            for (slot, k) in self.words[values..values + len].iter_mut().zip(first..) {
                *slot = k / per;
            }
        } else {
            // An internal node's values are its len + 1 children.
            self.words.copy_within(old.start as usize..old.start as usize + len, at);
            let from = old.value_start();
            self.words.copy_within(from..from + len + 1, values);
        }
        *self.node_mut(id) = new;
        new
    }

    /// The slot and id of the child of internal node `id` that `key` takes.
    fn child(&self, id: u32, key: u64) -> (usize, u32) {
        let n = self.node(id);
        let at = n.start as usize;
        // lint:allow(panic) reason=a node's extent lies within the word pool
        let slot = self.words[at..at + n.len as usize].partition_point(|&k| k <= key);
        // lint:allow(panic) reason=slot <= len and an internal node has len + 1 children
        (slot, self.words[n.value_start() + slot] as u32)
    }

    fn find_leaf(&self, key: u64) -> u32 {
        let mut id = self.root;
        for _ in 1..self.depth {
            id = self.child(id, key).1;
        }
        id
    }

    /// One root-to-leaf descent: fills `path[..depth - 1]` with every
    /// internal node passed and the child slot taken, and returns the leaf,
    /// `key`'s slot in it, and whether `key` is there.
    fn descend(&self, key: u64, path: &mut [(u32, usize); MAX_DEPTH]) -> (u32, usize, bool) {
        let mut id = self.root;
        for step in path.iter_mut().take(self.depth - 1) {
            let (slot, child) = self.child(id, key);
            *step = (id, slot);
            id = child;
        }
        let (slot, found) = self.leaf_slot(id, key);
        (id, slot, found)
    }

    /// Puts `key → value` at `slot` of `leaf`, where [`Self::descend`] found
    /// the key missing, then splits overflowing nodes back up `path`.
    fn insert_at(
        &mut self,
        path: &[(u32, usize); MAX_DEPTH],
        leaf: u32,
        slot: usize,
        key: u64,
        value: u64,
    ) {
        self.len += 1;
        let (mut id, mut slot, mut key, mut value) = (leaf, slot, key, value);
        let mut internal = false;
        let mut level = self.depth - 1;
        loop {
            self.put(id, slot, key, value, internal);
            if self.node(id).len as usize <= self.fanout {
                return;
            }
            (key, value) = self.split(id, internal);
            if level == 0 {
                let root = self.alloc(NIL);
                self.put(root, 0, key, value, true);
                let left = self.node(root).value_start();
                // lint:allow(panic) reason=alloc made the extent for fanout + 2 children
                self.words[left] = u64::from(id);
                self.root = root;
                self.depth += 1;
                return;
            }
            // A child's separator lands in the slot the descent took there,
            // and the new right child just after it.
            level -= 1;
            // lint:allow(panic) reason=level < depth - 1, the entries descend filled
            (id, slot) = path[level];
            internal = true;
        }
    }

    /// Shifts `key` into key slot `slot` of node `id` and `value` into value
    /// slot `slot` (a leaf) or `slot + 1` (an internal node, whose new child
    /// goes right of its separator), moving a dense or full node to an
    /// extent with room for a split's overflow first.
    fn put(&mut self, id: u32, slot: usize, key: u64, value: u64, internal: bool) {
        let mut n = self.node(id);
        if n.start == NIL || n.len == n.cap {
            n = self.move_to_extent(id, self.fanout + 1);
        }
        let (start, values, len) = (n.start as usize, n.value_start(), n.len as usize);
        let (k, v) = (start + slot, values + slot + usize::from(internal));
        self.words.copy_within(k..start + len, k + 1);
        self.words.copy_within(v..values + len + usize::from(internal), v + 1);
        // lint:allow(panic) reason=len < cap, so both slots lie within the extent
        (self.words[k], self.words[v]) = (key, value);
        self.node_mut(id).len += 1;
    }

    /// Moves the upper half of overflowing node `id` to a new right sibling
    /// and returns the separator and the sibling's id. A leaf keeps its
    /// lower half and copies its first right key up; an internal node moves
    /// its middle key up and keeps the keys and children left of it.
    fn split(&mut self, id: u32, internal: bool) -> (u64, u64) {
        let left = self.node(id);
        let right = self.alloc(if internal { NIL } else { left.next });
        let r = self.node(right);
        let (start, len) = (left.start as usize, left.len as usize);
        let (mid, up) = (len / 2, usize::from(internal));
        // lint:allow(panic) reason=mid < len
        let separator = self.words[start + mid];
        let (values, right_values) = (left.value_start(), r.value_start());
        let moved = len - mid - up;
        self.words.copy_within(start + mid + up..start + len, r.start as usize);
        self.words.copy_within(values + mid + up..values + len + up, right_values);
        self.node_mut(right).len = moved as u32;
        let next = if internal { NIL } else { right };
        *self.node_mut(id) = Node { len: mid as u32, next, ..left };
        (separator, u64::from(right))
    }

    /// Appends an extent with room for `cap` keys; returns its offset.
    fn extent(&mut self, cap: usize) -> u32 {
        let start = self.words.len();
        self.words.resize(start + 2 * cap + 1, 0);
        address(start)
    }

    /// Appends an empty node with room for a split's overflow.
    fn alloc(&mut self, next: u32) -> u32 {
        let cap = self.fanout + 1;
        let start = self.extent(cap);
        self.nodes.push(Node { start, len: 0, cap: cap as u32, next });
        address(self.nodes.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn lcg(x: &mut u64) -> u64 {
        *x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *x >> 33
    }

    /// The keys of leaf `id`, dense or written.
    fn leaf_keys(t: &BPlusTree, id: u32) -> Vec<u64> {
        let n = t.node(id);
        match n.start {
            NIL => (t.dense_first(id)..).take(n.len as usize).collect(),
            start => t.words[start as usize..][..n.len as usize].to_vec(),
        }
    }

    /// The leaves in chain order, from the leftmost.
    fn leaf_chain(t: &BPlusTree) -> Vec<u32> {
        let mut id = t.root;
        for _ in 1..t.depth {
            id = t.words[t.node(id).value_start()] as u32;
        }
        let mut chain = vec![id];
        while t.node(id).next != NIL {
            id = t.node(id).next;
            chain.push(id);
        }
        chain
    }

    /// The two-descent definition `scan_from`'s leaf count must keep: count
    /// leaves until the one that satisfies the limit.
    fn reference_leaves_touched(t: &BPlusTree, start: u64, limit: usize) -> usize {
        let mut touched = 0;
        let mut remaining = limit;
        let mut node = t.find_leaf(start);
        loop {
            touched += 1;
            let keys = leaf_keys(t, node);
            let here = keys.len() - keys.partition_point(|&k| k < start);
            if here >= remaining {
                return touched;
            }
            remaining -= here;
            match t.node(node).next {
                NIL => return touched,
                n => node = n,
            }
        }
    }

    /// Key count of every node, level by level from the root, left to right.
    /// The walk also checks what the layout leaves implicit: every node is
    /// reached exactly once, internal nodes have extents and no next, and
    /// the bottom level is the leaf chain in order.
    fn shape(t: &BPlusTree) -> Vec<Vec<usize>> {
        let mut levels = Vec::new();
        let mut level = vec![t.root];
        for depth in 1..=t.depth {
            let mut below = Vec::new();
            for &id in &level {
                let n = t.node(id);
                assert!(n.len as usize <= t.fanout, "node {id} overflows");
                assert!(n.start == NIL || n.len <= n.cap, "node {id} overflows its extent");
                if depth < t.depth {
                    assert_ne!(n.start, NIL, "internal node {id} has no extent");
                    assert_eq!(n.next, NIL, "internal node {id} links a next");
                    let children = &t.words[n.value_start()..=n.value_start() + n.len as usize];
                    below.extend(children.iter().map(|&c| c as u32));
                }
            }
            levels.push(level.iter().map(|&id| t.node(id).len as usize).collect());
            if depth == t.depth {
                assert_eq!(level, leaf_chain(t), "the bottom level is the leaf chain");
            } else {
                level = below;
            }
        }
        assert_eq!(levels.iter().map(Vec::len).sum::<usize>(), t.nodes.len());
        levels
    }

    fn collect_scan(t: &BPlusTree, start: u64, limit: usize) -> (Vec<(u64, u64)>, usize) {
        let mut out = Vec::new();
        let (rows, leaves) = t.scan_from(start, limit, |k, v| out.push((k, v)));
        assert_eq!(rows, out.len());
        (out, leaves)
    }

    #[test]
    fn insert_get_small() {
        let mut t = BPlusTree::new(4);
        for k in [5u64, 1, 9, 3, 7] {
            assert_eq!(t.insert(k, k * 10), None);
        }
        for k in [5u64, 1, 9, 3, 7] {
            assert_eq!(t.get(k), Some(k * 10));
        }
        assert_eq!(t.get(2), None);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn overwrite_returns_previous() {
        let mut t = BPlusTree::new(4);
        t.insert(1, 10);
        assert_eq!(t.insert(1, 20), Some(10));
        assert_eq!(t.get(1), Some(20));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn matches_btreemap_on_mixed_sequences() {
        let mut t = BPlusTree::new(8);
        let mut m = BTreeMap::new();
        // Deterministic pseudo-random mixed workload.
        let mut x: u64 = 0x9E37_79B9;
        for i in 0..5000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let k = x % 1000;
            match x % 5 {
                0 => {
                    assert_eq!(t.remove(k), m.remove(&k));
                }
                _ => {
                    assert_eq!(t.insert(k, i), m.insert(k, i));
                }
            }
            assert_eq!(t.len(), m.len());
        }
        for k in 0..1000u64 {
            assert_eq!(t.get(k), m.get(&k).copied(), "key {k}");
        }
    }

    #[test]
    fn get_or_insert_with_inserts_only_the_absent() {
        for fanout in [4usize, 7, 64] {
            let mut t = BPlusTree::bulk_load(fanout, 300, 3);
            let mut m: BTreeMap<u64, u64> = (0..300).map(|k| (k, k / 3)).collect();
            let mut x = 5 + fanout as u64;
            for i in 0..6_000u64 {
                let k = lcg(&mut x) % 900;
                let mut called = false;
                let got = t.get_or_insert_with(k, || {
                    called = true;
                    i
                });
                let absent = !m.contains_key(&k);
                assert_eq!(got, *m.entry(k).or_insert(i), "fanout {fanout}, key {k}");
                assert_eq!(called, absent, "the value is made only for an insert");
                if lcg(&mut x).is_multiple_of(4) {
                    let k = lcg(&mut x) % 900;
                    assert_eq!(t.remove(k), m.remove(&k));
                }
            }
            assert_eq!(t.len(), m.len());
            assert_eq!(t.range_from(0, usize::MAX), m.into_iter().collect::<Vec<_>>());
            assert_eq!(t.depth(), shape(&t).len());
        }
    }

    #[test]
    fn range_scans_in_order() {
        let mut t = BPlusTree::new(4);
        for k in (0..100u64).rev() {
            t.insert(k * 2, k);
        }
        let r = t.range_from(51, 10);
        let keys: Vec<u64> = r.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![52, 54, 56, 58, 60, 62, 64, 66, 68, 70]);
    }

    #[test]
    fn range_stops_at_end() {
        let mut t = BPlusTree::new(4);
        for k in 0..10u64 {
            t.insert(k, k);
        }
        assert_eq!(t.range_from(8, 100).len(), 2);
        assert_eq!(t.range_from(100, 5).len(), 0);
    }

    #[test]
    fn depth_grows_logarithmically() {
        let mut t = BPlusTree::new(16);
        for k in 0..10_000u64 {
            t.insert(k, k);
        }
        let d = t.depth();
        assert!((3..=5).contains(&d), "depth {d} unexpected for 10k keys at fanout 16");
    }

    #[test]
    fn scan_counts_chain_hops() {
        let mut t = BPlusTree::new(4);
        for k in 0..100u64 {
            t.insert(k, k);
        }
        // Scanning 20 keys with ≤ 4 keys per leaf touches at least 5 leaves.
        let (rows, leaves) = t.scan_from(0, 20, |_, _| {});
        assert_eq!(rows, 20);
        assert!(leaves >= 5);
        assert_eq!(t.scan_from(99, 1, |_, _| {}), (1, 1));
    }

    #[test]
    fn sequential_bulk_insert_keeps_order() {
        let mut t = BPlusTree::new(64);
        for k in 0..50_000u64 {
            t.insert(k, k + 1);
        }
        assert_eq!(t.len(), 50_000);
        let all = t.range_from(0, 50_000);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(all.len(), 50_000);
    }

    #[test]
    #[should_panic(expected = "fanout must be at least")]
    fn tiny_fanout_rejected() {
        let _ = BPlusTree::new(2);
    }

    #[test]
    fn bulk_load_equals_sequential_insert() {
        for fanout in [4usize, 5, 8, 64] {
            for n in [0, 1, fanout, fanout + 1, 2 * fanout + 1, 1_000, 6_000, 100_000] {
                let bulk = BPlusTree::bulk_load(fanout, n as u64, 6);
                let mut seq = BPlusTree::new(fanout);
                for k in 0..n as u64 {
                    seq.insert(k, k / 6);
                }
                let ctx = format!("fanout {fanout}, n {n}");
                assert_eq!(bulk.len(), seq.len(), "{ctx}");
                assert_eq!(bulk.depth(), seq.depth(), "{ctx}");
                assert_eq!(bulk.nodes.len(), seq.nodes.len(), "{ctx}");
                assert_eq!(shape(&bulk), shape(&seq), "{ctx}");
                for k in 0..=n as u64 {
                    assert_eq!(bulk.get(k), seq.get(k), "{ctx}, key {k}");
                }
                // A strided sweep of scans pins per-leaf occupancy through
                // the public surface as well.
                let stride = (n / 257).max(1);
                for start in (0..=n).step_by(stride) {
                    for limit in [0, 1, fanout / 2, fanout, 3 * fanout + 1] {
                        assert_eq!(
                            collect_scan(&bulk, start as u64, limit),
                            collect_scan(&seq, start as u64, limit),
                            "{ctx}, scan ({start}, {limit})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bulk_load_writes_internal_nodes_only_into_exact_arrays() {
        for fanout in [4usize, 5, 64] {
            for n in [1u64, 2, 65, 6_000, 100_000] {
                let mut t = BPlusTree::bulk_load(fanout, n, 1);
                let ctx = format!("fanout {fanout}, n {n}");
                assert_eq!(t.nodes.capacity(), t.nodes.len(), "{ctx}: nodes grew");
                let leaves = leaf_chain(&t);
                assert!(leaves.iter().all(|&id| t.node(id).start == NIL), "{ctx}");
                // Every internal node's extent is exactly its keys and children.
                let internal = t.nodes.iter().filter(|n| n.start != NIL);
                assert!(internal.clone().all(|n| n.len == n.cap), "{ctx}");
                let words: usize = internal.map(|n| 2 * n.len as usize + 1).sum();
                assert_eq!(t.words.len(), words, "{ctx}");
                // Writing every leaf out at its size fills the pool's room exactly.
                let room = t.words.capacity();
                for k in (0..n).step_by(t.dense_leaf_keys()) {
                    assert_eq!(t.remove(k), Some(k), "{ctx}");
                }
                assert!(leaves.iter().all(|&id| t.node(id).start != NIL), "{ctx}");
                assert_eq!((t.words.len(), t.words.capacity()), (room, room), "{ctx}");
            }
        }
    }

    #[test]
    fn bulk_loaded_tree_keeps_working_under_mutation() {
        let mut t = BPlusTree::bulk_load(4, 500, 1);
        let mut m: BTreeMap<u64, u64> = (0..500).map(|k| (k, k)).collect();
        let mut x = 7u64;
        for i in 0..5_000u64 {
            let k = lcg(&mut x) % 1_000;
            if lcg(&mut x).is_multiple_of(3) {
                assert_eq!(t.remove(k), m.remove(&k));
            } else {
                assert_eq!(t.insert(k, i), m.insert(k, i));
            }
        }
        assert_eq!(t.range_from(0, usize::MAX), m.into_iter().collect::<Vec<_>>());
        assert_eq!(t.depth(), shape(&t).len());
    }

    #[test]
    fn written_dense_leaves_keep_the_shape_of_a_tree_built_by_inserts() {
        // A bulk-loaded leaf gets an extent at its first write; neither that
        // nor which leaves are still dense may show in the tree.
        for fanout in [4usize, 5, 64] {
            let n = 40 * fanout as u64;
            let mut bulk = BPlusTree::bulk_load(fanout, n, 7);
            let mut seq = BPlusTree::new(fanout);
            for k in 0..n {
                seq.insert(k, k / 7);
            }
            let mut x = 11u64;
            for i in 0..4_000u64 {
                let k = lcg(&mut x) % (2 * n);
                match lcg(&mut x) % 8 {
                    0 | 1 => assert_eq!(bulk.remove(k), seq.remove(k)),
                    2 => assert_eq!(bulk.get(k), seq.get(k)),
                    _ => assert_eq!(bulk.insert(k, i), seq.insert(k, i)),
                }
                if i % 500 == 0 {
                    assert_eq!(shape(&bulk), shape(&seq), "fanout {fanout}, op {i}");
                    assert_eq!(bulk.range_from(0, usize::MAX), seq.range_from(0, usize::MAX));
                }
            }
            assert_eq!(shape(&bulk), shape(&seq), "fanout {fanout}");
            assert_eq!(bulk.range_from(0, usize::MAX), seq.range_from(0, usize::MAX));
        }
    }

    #[test]
    fn one_pass_scan_equals_model_rows_and_two_descent_leaves() {
        for fanout in [4usize, 7, 64] {
            let mut t = BPlusTree::new(fanout);
            let mut m = BTreeMap::new();
            let mut x = 0xC0FFEE ^ fanout as u64;
            for _ in 0..4_000 {
                let k = lcg(&mut x) % 3_000;
                t.insert(k, k * 3);
                m.insert(k, k * 3);
            }
            let check = |t: &BPlusTree, m: &BTreeMap<u64, u64>, start: u64, limit: usize| {
                let (rows, leaves) = collect_scan(t, start, limit);
                let want: Vec<(u64, u64)> =
                    m.range(start..).take(limit).map(|(&k, &v)| (k, v)).collect();
                assert_eq!(rows, want, "fanout {fanout}, scan ({start}, {limit})");
                assert_eq!(
                    leaves,
                    reference_leaves_touched(t, start, limit),
                    "fanout {fanout}, scan ({start}, {limit})"
                );
                assert_eq!(t.range_from(start, limit), want);
            };
            for round in 0..2 {
                for _ in 0..2_000 {
                    let start = lcg(&mut x) % 3_200; // some starts lie past the last key
                    let limit = (lcg(&mut x) % 200) as usize;
                    check(&t, &m, start, limit);
                }
                // limit == 0, a start past the end, and limits that end
                // exactly on a leaf boundary (the first key of every leaf is
                // where the previous leaf's scan must stop, not continue).
                check(&t, &m, 0, 0);
                check(&t, &m, 1_500, 0);
                check(&t, &m, 5_000, 10);
                let mut before = 0usize;
                for leaf in leaf_chain(&t) {
                    let keys = leaf_keys(&t, leaf);
                    before += keys.len();
                    check(&t, &m, 0, before);
                    if let Some(&first) = keys.first() {
                        check(&t, &m, first, keys.len());
                        check(&t, &m, first, keys.len() + 1);
                    }
                }
                if round == 0 {
                    // Lazy deletion leaves short and empty leaves behind.
                    for _ in 0..2_500 {
                        let k = lcg(&mut x) % 3_000;
                        assert_eq!(t.remove(k), m.remove(&k));
                    }
                    for k in 1_000..1_400 {
                        assert_eq!(t.remove(k), m.remove(&k));
                    }
                }
            }
        }
    }

    #[test]
    fn depth_counter_equals_a_root_to_leaf_walk() {
        let mut t = BPlusTree::new(4);
        let mut x = 99u64;
        let mut splits = 0;
        for i in 0..10_000u64 {
            let root = t.root;
            t.insert(lcg(&mut x), i);
            if t.root != root {
                splits += 1;
                assert_eq!(t.depth(), shape(&t).len(), "after root split {splits}");
            }
        }
        assert!(splits >= 5, "10k keys at fanout 4 split the root repeatedly");
        assert_eq!(t.depth(), shape(&t).len());
        assert_eq!(BPlusTree::new(4).depth(), 1);
    }
}

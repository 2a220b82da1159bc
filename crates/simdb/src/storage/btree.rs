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

const MIN_FANOUT: usize = 4;

#[derive(Debug)]
enum Node {
    Internal {
        /// Separator keys; child `i` holds keys `< keys[i]`, the last child
        /// holds the rest.
        keys: Vec<u64>,
        children: Vec<usize>,
    },
    Leaf {
        keys: Vec<u64>,
        values: Vec<u64>,
        next: Option<usize>,
    },
}

/// A B+tree with `u64` keys and values.
#[derive(Debug)]
pub struct BPlusTree {
    nodes: Vec<Node>,
    root: usize,
    fanout: usize,
    len: usize,
    /// Levels from root to leaf (1 = a single leaf); grows on root splits.
    depth: usize,
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

impl BPlusTree {
    /// Creates an empty tree with the given maximum fanout (≥ 4).
    pub fn new(fanout: usize) -> Self {
        assert!(fanout >= MIN_FANOUT, "fanout must be at least {MIN_FANOUT}");
        Self {
            nodes: vec![Node::Leaf { keys: Vec::new(), values: Vec::new(), next: None }],
            root: 0,
            fanout,
            len: 0,
            depth: 1,
        }
    }

    /// Builds the tree over dense keys `0..count` with `value(key)` as each
    /// entry's value, level by level and without a search per key. The
    /// result is node for node the tree that inserting `0..count` in order
    /// into an empty tree produces (same occupancy of every leaf and
    /// internal node, hence same depth, node count and leaves per scan).
    pub fn bulk_load(fanout: usize, count: u64, value: impl Fn(u64) -> u64) -> Self {
        let mut tree = Self::new(fanout);
        if count == 0 {
            return tree;
        }
        // An overflowing node (fanout + 1 keys) keeps `mid` keys on the left.
        let mid = fanout.div_ceil(2);
        tree.nodes.clear();
        tree.len = count as usize;
        // (node, smallest key beneath it) for each node of the level just built.
        let mut level: Vec<(usize, u64)> = Vec::new();
        for (start, len) in ascending_fill(tree.len, fanout, mid) {
            let keys = start as u64..(start + len) as u64;
            let index = tree.nodes.len();
            tree.nodes.push(Node::Leaf {
                values: keys.clone().map(&value).collect(),
                keys: keys.collect(),
                next: (start + len < tree.len).then_some(index + 1),
            });
            level.push((index, start as u64));
        }
        // An internal node with k keys has k + 1 children, so in children
        // the capacity and the left share of a split are each one larger.
        while level.len() > 1 {
            let mut parents = Vec::new();
            for (start, len) in ascending_fill(level.len(), fanout + 1, mid + 1) {
                // lint:allow(panic) reason=ascending_fill yields non-empty ranges within 0..level.len()
                let group = &level[start..start + len];
                // lint:allow(panic) reason=group is non-empty, see above
                let (min, right) = (group[0].1, &group[1..]);
                parents.push((tree.nodes.len(), min));
                tree.nodes.push(Node::Internal {
                    keys: right.iter().map(|&(_, min)| min).collect(),
                    children: group.iter().map(|&(node, _)| node).collect(),
                });
            }
            level = parents;
            tree.depth += 1;
        }
        tree.root = tree.nodes.len() - 1; // each level ends in one node; the last is the root
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

    /// Total node count (internal + leaf).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Tree depth (1 = a single leaf).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Point lookup.
    pub fn get(&self, key: u64) -> Option<u64> {
        let leaf = self.find_leaf(key);
        match &self.nodes[leaf] {
            Node::Leaf { keys, values, .. } => {
                keys.binary_search(&key).ok().map(|i| values[i])
            }
            Node::Internal { .. } => unreachable!("find_leaf returns a leaf"),
        }
    }

    /// Inserts or overwrites; returns the previous value if any.
    pub fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        let (split, prev) = self.insert_rec(self.root, key, value);
        if let Some((sep, right)) = split {
            let new_root = Node::Internal { keys: vec![sep], children: vec![self.root, right] };
            self.nodes.push(new_root);
            self.root = self.nodes.len() - 1;
            self.depth += 1;
        }
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Removes a key; returns its value if present.
    ///
    /// Underflowed leaves are left in place (lazy deletion) — acceptable for
    /// the simulator's workloads, where deletes are a small fraction of ops.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        let leaf = self.find_leaf(key);
        match &mut self.nodes[leaf] {
            Node::Leaf { keys, values, .. } => match keys.binary_search(&key) {
                Ok(i) => {
                    keys.remove(i);
                    let v = values.remove(i);
                    self.len -= 1;
                    Some(v)
                }
                Err(_) => None,
            },
            Node::Internal { .. } => unreachable!("find_leaf returns a leaf"),
        }
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
        let mut node = self.find_leaf(start);
        loop {
            leaves += 1;
            // lint:allow(panic) reason=node ids are arena indices maintained by insert/split
            let Node::Leaf { keys, values, next } = &self.nodes[node] else {
                unreachable!("leaf chain only links leaves")
            };
            let begin = keys.partition_point(|&k| k < start);
            let take = (keys.len() - begin).min(remaining);
            // lint:allow(panic) reason=begin + take <= keys.len() and values parallels keys
            for (&k, &v) in keys[begin..begin + take].iter().zip(&values[begin..begin + take]) {
                visit(k, v);
            }
            remaining -= take;
            match next {
                Some(n) if remaining > 0 => node = *n,
                _ => return (limit - remaining, leaves),
            }
        }
    }

    fn find_leaf(&self, key: u64) -> usize {
        let mut n = self.root;
        loop {
            // lint:allow(panic) reason=node ids are arena indices maintained by insert/split
            match &self.nodes[n] {
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|&k| k <= key);
                    // lint:allow(panic) reason=partition_point <= keys.len() and children.len() == keys.len() + 1
                    n = children[idx];
                }
                Node::Leaf { .. } => return n,
            }
        }
    }

    /// Recursive insert; returns `(split, previous value)` where `split` is
    /// `Some((separator, right node index))` when this node split.
    fn insert_rec(
        &mut self,
        node: usize,
        key: u64,
        value: u64,
    ) -> (Option<(u64, usize)>, Option<u64>) {
        match &mut self.nodes[node] {
            Node::Leaf { keys, values, .. } => {
                let prev = match keys.binary_search(&key) {
                    Ok(i) => {
                        let old = values[i];
                        values[i] = value;
                        return (None, Some(old));
                    }
                    Err(i) => {
                        keys.insert(i, key);
                        values.insert(i, value);
                        None
                    }
                };
                if keys.len() > self.fanout {
                    (Some(self.split_leaf(node)), prev)
                } else {
                    (None, prev)
                }
            }
            Node::Internal { keys, children } => {
                let idx = keys.partition_point(|&k| k <= key);
                let child = children[idx];
                let (split, prev) = self.insert_rec(child, key, value);
                if let Some((sep, right)) = split {
                    if let Node::Internal { keys, children } = &mut self.nodes[node] {
                        let idx = keys.partition_point(|&k| k <= sep);
                        keys.insert(idx, sep);
                        children.insert(idx + 1, right);
                        if keys.len() > self.fanout {
                            return (Some(self.split_internal(node)), prev);
                        }
                    }
                }
                (None, prev)
            }
        }
    }

    fn split_leaf(&mut self, node: usize) -> (u64, usize) {
        let new_index = self.nodes.len();
        if let Node::Leaf { keys, values, next } = &mut self.nodes[node] {
            let mid = keys.len() / 2;
            let right_keys = keys.split_off(mid);
            let right_values = values.split_off(mid);
            let sep = right_keys[0];
            let right = Node::Leaf { keys: right_keys, values: right_values, next: *next };
            *next = Some(new_index);
            self.nodes.push(right);
            (sep, new_index)
        } else {
            unreachable!("split_leaf on non-leaf")
        }
    }

    fn split_internal(&mut self, node: usize) -> (u64, usize) {
        let new_index = self.nodes.len();
        if let Node::Internal { keys, children } = &mut self.nodes[node] {
            let mid = keys.len() / 2;
            let sep = keys[mid];
            let right_keys = keys.split_off(mid + 1);
            keys.pop(); // drop the separator that moves up
            let right_children = children.split_off(mid + 1);
            let right = Node::Internal { keys: right_keys, children: right_children };
            self.nodes.push(right);
            (sep, new_index)
        } else {
            unreachable!("split_internal on non-internal")
        }
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

    /// The two-descent definition `scan_from`'s leaf count must keep: count
    /// leaves until the one that satisfies the limit.
    fn reference_leaves_touched(t: &BPlusTree, start: u64, limit: usize) -> usize {
        let mut touched = 0;
        let mut remaining = limit;
        let mut node = t.find_leaf(start);
        loop {
            touched += 1;
            let Node::Leaf { keys, next, .. } = &t.nodes[node] else { unreachable!() };
            let here = keys.len() - keys.partition_point(|&k| k < start);
            if here >= remaining {
                return touched;
            }
            remaining -= here;
            match next {
                Some(n) => node = *n,
                None => return touched,
            }
        }
    }

    /// Key count of every node, level by level from the root, left to right.
    fn shape(t: &BPlusTree) -> Vec<Vec<usize>> {
        let mut levels = Vec::new();
        let mut level = vec![t.root];
        while !level.is_empty() {
            let mut below = Vec::new();
            levels.push(
                level
                    .iter()
                    .map(|&n| match &t.nodes[n] {
                        Node::Internal { keys, children } => {
                            assert_eq!(children.len(), keys.len() + 1);
                            below.extend_from_slice(children);
                            keys.len()
                        }
                        Node::Leaf { keys, .. } => keys.len(),
                    })
                    .collect(),
            );
            level = below;
        }
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
                let value = |k: u64| k / 6;
                let bulk = BPlusTree::bulk_load(fanout, n as u64, value);
                let mut seq = BPlusTree::new(fanout);
                for k in 0..n as u64 {
                    seq.insert(k, value(k));
                }
                let ctx = format!("fanout {fanout}, n {n}");
                assert_eq!(bulk.len(), seq.len(), "{ctx}");
                assert_eq!(bulk.depth(), seq.depth(), "{ctx}");
                assert_eq!(bulk.node_count(), seq.node_count(), "{ctx}");
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
    fn bulk_loaded_tree_keeps_working_under_mutation() {
        let mut t = BPlusTree::bulk_load(4, 500, |k| k);
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
                let mut leaf = t.find_leaf(0);
                let mut before = 0usize;
                loop {
                    let Node::Leaf { keys, next, .. } = &t.nodes[leaf] else { unreachable!() };
                    before += keys.len();
                    check(&t, &m, 0, before);
                    if let Some(&first) = keys.first() {
                        check(&t, &m, first, keys.len());
                        check(&t, &m, first, keys.len() + 1);
                    }
                    match next {
                        Some(n) => leaf = *n,
                        None => break,
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

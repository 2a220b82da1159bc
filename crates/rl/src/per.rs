//! Prioritized experience replay (Schaul et al. \[38\]).
//!
//! Section 5.1: "to improve the offline training performance, we add the
//! method of priority experience replay to accelerate the convergence,
//! which increases the convergence speed by a factor of two". Implemented
//! with a sum-tree for O(log n) proportional sampling and importance
//! weights annealed by β.
//!
//! The transitions live in the uniform pool's ring ([`ReplayBuffer`]): a
//! push lands in slot `len` until the ring is full, then overwrites the
//! oldest slot, and storage grows with the data. A pool sized for 100 000
//! transitions that holds 120 keeps 120.
//!
//! The sum tree is allocated zeroed at full capacity (2·capacity − 1 nodes)
//! and never grows: its shape fixes the order in which the f64 priorities
//! are added, so a tree grown with the data would round its sums
//! differently and move every proportional draw. The pages of the zeroed
//! allocation that no set leaf reaches are never written, because both an
//! incremental set and the periodic exact rebuild touch only the ancestors
//! of leaves that were ever set (`SumTree::rebuild`).

use crate::batch::TransitionBatch;
use crate::env::Transition;
use crate::replay::{ReplayBuffer, RingState};
use rand::Rng;
use std::ops::RangeInclusive;

/// How many incremental `set`s a [`SumTree`] tolerates before recomputing
/// its internal nodes exactly. Incremental `+=` propagation accumulates
/// float error (catastrophically so when priorities of very different
/// magnitudes alternate on one path), and a drifted root lets `find(mass)`
/// walk into an empty/zero-priority region. A periodic exact rebuild
/// recomputes the ancestors of the leaves ever set, O(len + log capacity)
/// nodes, once every 4096 sets — noise in the training loop — and bounds
/// the drift to what at most 4095 sets can produce.
const REBUILD_INTERVAL: u32 = 4096;

/// A fixed-capacity sum-tree over priorities.
#[derive(Debug, Clone)]
struct SumTree {
    /// Complete binary tree in an array; leaves start at `capacity - 1`.
    nodes: Vec<f64>,
    capacity: usize,
    /// One past the highest leaf ever set: leaves from here on, and every
    /// internal node that is not an ancestor of a lower leaf, still hold
    /// the 0.0 they were allocated with.
    leaves_set: usize,
    /// Incremental updates since the last exact rebuild.
    sets_since_rebuild: u32,
    /// Lifetime exact rebuilds (telemetry).
    rebuilds: u64,
}

impl SumTree {
    fn new(capacity: usize) -> Self {
        Self {
            nodes: vec![0.0; 2 * capacity - 1],
            capacity,
            leaves_set: 0,
            sets_since_rebuild: 0,
            rebuilds: 0,
        }
    }

    fn total(&self) -> f64 {
        self.nodes[0]
    }

    /// Exact leaf sum, bypassing the incrementally-maintained internal
    /// nodes (test/diagnostic reference).
    #[cfg(test)]
    fn leaf_sum(&self) -> f64 {
        self.nodes[self.capacity - 1..].iter().sum()
    }

    fn set(&mut self, leaf: usize, priority: f64) {
        debug_assert!(leaf < self.capacity);
        let mut idx = leaf + self.capacity - 1;
        let delta = priority - self.nodes[idx];
        self.nodes[idx] = priority;
        self.leaves_set = self.leaves_set.max(leaf + 1);
        self.sets_since_rebuild += 1;
        if self.sets_since_rebuild >= REBUILD_INTERVAL {
            self.rebuild();
            return;
        }
        while idx > 0 {
            idx = (idx - 1) / 2;
            self.nodes[idx] += delta;
        }
    }

    /// Recomputes the internal nodes bottom-up from the (exact) leaves,
    /// discarding accumulated incremental-update drift.
    ///
    /// Only the ancestors of leaves `0..leaves_set` are written. Every other
    /// internal node has only ever held 0.0, which recomputing it would
    /// write back as 0.0 + 0.0, so the nodes equal a rebuild of all
    /// `capacity - 1` internal nodes bit for bit. The parents of a
    /// contiguous index range are the contiguous range of its endpoints'
    /// parents, so the walk goes one range per step up the tree. The leaf
    /// range spans at most two adjacent depths, hence so does each range
    /// above it, and a node's children are always recomputed before it:
    /// they sit in the same range at a higher index, or in an earlier one.
    fn rebuild(&mut self) {
        for range in Self::ancestors(self.capacity, self.leaves_set) {
            for idx in range.rev() {
                self.nodes[idx] = self.nodes[2 * idx + 1] + self.nodes[2 * idx + 2];
            }
        }
        self.sets_since_rebuild = 0;
        self.rebuilds += 1;
    }

    /// The internal nodes above leaves `0..leaves_set` of a tree of
    /// `capacity` leaves, one index range per level from the leaves up (the
    /// walk [`Self::rebuild`] documents). With those leaves, they are every
    /// node that may hold something other than 0.0.
    fn ancestors(
        capacity: usize,
        leaves_set: usize,
    ) -> impl Iterator<Item = RangeInclusive<usize>> {
        let leaves = (capacity - 1, capacity - 2 + leaves_set);
        let parents =
            |&(lo, hi): &(usize, usize)| (hi > 0).then(|| (lo.saturating_sub(1) / 2, (hi - 1) / 2));
        std::iter::successors(Some(leaves), parents).skip(1).map(|(lo, hi)| lo..=hi)
    }

    /// The set leaves, and the internal nodes [`Self::ancestors`] names in
    /// its order.
    fn live_nodes(&self) -> (Vec<f64>, Vec<f64>) {
        let first_leaf = self.capacity - 1;
        let leaves = self.nodes[first_leaf..first_leaf + self.leaves_set].to_vec();
        let ancestors = Self::ancestors(self.capacity, self.leaves_set).flatten();
        let sums = ancestors.map(|i| self.nodes[i]).collect();
        (leaves, sums)
    }

    /// Writes the live nodes [`Self::live_nodes`] returned into a fresh
    /// tree, whose other nodes hold 0.0 as in the tree they came from.
    fn load_live_nodes(&mut self, leaves: &[f64], sums: &[f64]) -> Result<(), String> {
        let (capacity, set) = (self.capacity, leaves.len());
        let slots = self.nodes.get_mut(capacity - 1..capacity - 1 + set);
        let slots = slots.ok_or_else(|| format!("{set} leaf priorities in a tree of {capacity}"))?;
        slots.copy_from_slice(leaves);
        self.leaves_set = set;
        let ancestors: Vec<usize> = Self::ancestors(capacity, set).flatten().collect();
        if ancestors.len() != sums.len() {
            let (found, want) = (sums.len(), ancestors.len());
            return Err(format!("{found} sums for the {want} ancestors of the set leaves"));
        }
        for (node, &sum) in ancestors.into_iter().zip(sums) {
            if let Some(node) = self.nodes.get_mut(node) {
                *node = sum;
            }
        }
        Ok(())
    }

    /// The exact rebuild over every internal node: the reference
    /// [`Self::rebuild`] must equal bit for bit.
    #[cfg(test)]
    fn rebuild_full(&mut self) {
        for idx in (0..self.capacity - 1).rev() {
            self.nodes[idx] = self.nodes[2 * idx + 1] + self.nodes[2 * idx + 2];
        }
        self.sets_since_rebuild = 0;
        self.rebuilds += 1;
    }

    fn get(&self, leaf: usize) -> f64 {
        self.nodes[leaf + self.capacity - 1]
    }

    /// Finds the leaf whose cumulative range contains `mass`.
    fn find(&self, mut mass: f64) -> usize {
        let mut idx = 0;
        while idx < self.capacity - 1 {
            let left = 2 * idx + 1;
            if mass <= self.nodes[left] || self.nodes[left + 1] <= 0.0 {
                idx = left;
            } else {
                mass -= self.nodes[left];
                idx = left + 1;
            }
        }
        idx - (self.capacity - 1)
    }
}

/// Observability counters of a [`PrioritizedReplay`] buffer, exposed for
/// the telemetry layer.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PerStats {
    /// Stored transitions.
    pub len: usize,
    /// Prioritization exponent α.
    pub alpha: f64,
    /// Current IS exponent β (annealed toward 1).
    pub beta: f64,
    /// Maximum priority seen so far.
    pub max_priority: f64,
    /// Proportional draws that walked into an empty slot (one at or past
    /// `len`) and were resampled uniformly. Nonzero means the sum-tree and
    /// the stored data disagree — the failure mode the periodic exact
    /// rebuild exists to prevent.
    pub fallback_hits: u64,
    /// Exact rebuilds of the sum-tree's internal nodes.
    pub tree_rebuilds: u64,
}

/// A [`PrioritizedReplay`]'s sampling state beside its ring: the sum tree
/// as it stands (incremental sets add deltas, so its sums are not a fresh
/// rebuild of its leaves), β as annealed so far, and the counters.
#[derive(Debug, Clone, PartialEq)]
pub struct PriorityState {
    /// Priorities of the leaves ever set; leaf `i` is ring slot `i`.
    pub leaves: Vec<f64>,
    /// The internal nodes above those leaves, level by level upward.
    pub sums: Vec<f64>,
    /// Incremental sets since the last exact rebuild.
    pub sets_since_rebuild: u32,
    /// Exact rebuilds so far.
    pub rebuilds: u64,
    /// The IS exponent β.
    pub beta: f64,
    /// The largest priority seen, which a push is stored at.
    pub max_priority: f64,
    /// Draws that fell back to uniform.
    pub fallback_hits: u64,
}

/// Proportional prioritized replay buffer.
#[derive(Debug, Clone)]
pub struct PrioritizedReplay {
    tree: SumTree,
    /// The transitions; a ring slot is the sum tree's leaf of the same
    /// number.
    ring: ReplayBuffer,
    alpha: f64,
    beta: f64,
    beta_increment: f64,
    max_priority: f64,
    eps: f64,
    fallback_hits: u64,
}

impl PrioritizedReplay {
    /// Creates a buffer with prioritization exponent `alpha` (0 = uniform)
    /// and initial IS exponent `beta` annealing toward 1.
    pub fn new(capacity: usize, alpha: f64, beta: f64) -> Self {
        assert!(capacity > 1, "capacity must exceed 1");
        Self {
            tree: SumTree::new(capacity),
            ring: ReplayBuffer::new(capacity),
            alpha,
            beta,
            beta_increment: 1e-4,
            max_priority: 1.0,
            eps: 1e-3,
            fallback_hits: 0,
        }
    }

    /// The ring and the sampling state, exactly
    /// ([`PrioritizedReplay::from_state`] takes them back).
    pub fn state(&self) -> (RingState, PriorityState) {
        let (leaves, sums) = self.tree.live_nodes();
        let priorities = PriorityState {
            leaves,
            sums,
            sets_since_rebuild: self.tree.sets_since_rebuild,
            rebuilds: self.tree.rebuilds,
            beta: self.beta,
            max_priority: self.max_priority,
            fallback_hits: self.fallback_hits,
        };
        (self.ring.state(), priorities)
    }

    /// The buffer of `capacity` slots with exponent `alpha` that
    /// [`PrioritizedReplay::state`] described: it draws the same indices and
    /// IS weights as the buffer it came from. Refused when the ring or the
    /// tree does not fit `capacity`.
    pub fn from_state(
        capacity: usize,
        alpha: f64,
        ring: RingState,
        priorities: PriorityState,
    ) -> Result<Self, String> {
        if capacity < 2 {
            return Err(format!("a prioritized buffer of {capacity} slots"));
        }
        let PriorityState {
            leaves, sums, sets_since_rebuild, rebuilds, beta, max_priority, fallback_hits,
        } = priorities;
        let mut buf = Self::new(capacity, alpha, beta);
        buf.tree.load_live_nodes(&leaves, &sums)?;
        buf.tree.sets_since_rebuild = sets_since_rebuild;
        buf.tree.rebuilds = rebuilds;
        buf.ring = ReplayBuffer::from_state(capacity, ring)?;
        buf.max_priority = max_priority;
        buf.fallback_hits = fallback_hits;
        Ok(buf)
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Current β (annealed toward 1 as sampling proceeds).
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Observability counters (see [`PerStats`]).
    pub fn stats(&self) -> PerStats {
        PerStats {
            len: self.len(),
            alpha: self.alpha,
            beta: self.beta,
            max_priority: self.max_priority,
            fallback_hits: self.fallback_hits,
            tree_rebuilds: self.tree.rebuilds,
        }
    }

    /// Adds a transition with the maximum seen priority (new experience is
    /// always replayed at least once).
    pub fn push(&mut self, t: Transition) {
        let slot = self.ring.push_slot(t);
        self.tree.set(slot, self.max_priority.powf(self.alpha));
    }

    /// The proportional draw of [`Self::sample_into`]: fills
    /// `indices`/`weights` (cleared first) and anneals β. Caller-owned
    /// vectors make the hot path allocation-free.
    fn draw(
        &mut self,
        n: usize,
        rng: &mut impl Rng,
        indices: &mut Vec<usize>,
        weights: &mut Vec<f32>,
    ) {
        let len = self.len();
        assert!(len > 0, "cannot sample an empty prioritized buffer");
        indices.clear();
        weights.clear();
        indices.reserve(n);
        weights.reserve(n);
        let total = self.tree.total().max(1e-12);
        let segment = total / n as f64;
        for i in 0..n {
            let lo = segment * i as f64;
            let mass = lo + rng.gen::<f64>() * segment;
            let mut leaf = self.tree.find(mass.min(total - 1e-9));
            let p = if leaf >= len {
                // The proportional walk reached an empty slot: the tree and
                // the data disagree. Recover by drawing uniformly — and use
                // the uniform probability 1/len for the IS weight (the old
                // code kept the leaf's proportional priority, silently
                // corrupting the weight of the fallback sample).
                self.fallback_hits += 1;
                leaf = rng.gen_range(0..len);
                1.0 / len as f64
            } else {
                (self.tree.get(leaf) / total).max(1e-12)
            };
            let w = (len as f64 * p).powf(-self.beta);
            indices.push(leaf);
            weights.push(w as f32);
        }
        let max_w = weights.iter().cloned().fold(f32::MIN, f32::max).max(1e-12);
        for w in weights.iter_mut() {
            *w /= max_w;
        }
        self.beta = (self.beta + self.beta_increment).min(1.0);
    }

    /// Samples `n` transitions proportionally to priority directly into
    /// caller-owned buffers: the packed minibatch plus the slot indices and
    /// IS weights needed for [`Self::update_priorities`]. Steady state
    /// touches no allocator.
    pub fn sample_into(
        &mut self,
        n: usize,
        rng: &mut impl Rng,
        batch: &mut TransitionBatch,
        indices: &mut Vec<usize>,
        weights: &mut Vec<f32>,
    ) {
        assert!(n > 0, "cannot sample an empty minibatch");
        self.draw(n, rng, indices, weights);
        let first = self.ring.get(indices[0]);
        batch.begin(n, first.state.len(), first.action.len());
        for &i in indices.iter() {
            batch.push(self.ring.get(i));
        }
    }

    /// Updates priorities from fresh TD errors after a training step.
    pub fn update_priorities(&mut self, indices: &[usize], td_errors: &[f32]) {
        for (&i, &e) in indices.iter().zip(td_errors) {
            let p = (f64::from(e.abs()) + self.eps).min(100.0);
            self.max_priority = self.max_priority.max(p);
            self.tree.set(i, p.powf(self.alpha));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn t(r: f32) -> Transition {
        Transition {
            state: vec![r],
            action: vec![0.0],
            reward: r,
            next_state: vec![r],
            done: false,
        }
    }

    /// [`PrioritizedReplay::sample_into`] into fresh buffers: the sampled
    /// rewards, slots and IS weights.
    fn sample(buf: &mut PrioritizedReplay, n: usize, rng: &mut StdRng) -> (Vec<f32>, Vec<usize>, Vec<f32>) {
        let (mut batch, mut indices, mut weights) = (TransitionBatch::new(), Vec::new(), Vec::new());
        buf.sample_into(n, rng, &mut batch, &mut indices, &mut weights);
        (batch.rewards().to_vec(), indices, weights)
    }

    #[test]
    fn sumtree_total_tracks_sets() {
        let mut s = SumTree::new(8);
        s.set(0, 3.0);
        s.set(5, 2.0);
        assert!((s.total() - 5.0).abs() < 1e-12);
        s.set(0, 1.0);
        assert!((s.total() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn sumtree_find_respects_mass() {
        let mut s = SumTree::new(4);
        s.set(0, 1.0);
        s.set(1, 2.0);
        s.set(2, 3.0);
        s.set(3, 4.0);
        assert_eq!(s.find(0.5), 0);
        assert_eq!(s.find(2.5), 1);
        assert_eq!(s.find(5.0), 2);
        assert_eq!(s.find(9.5), 3);
    }

    #[test]
    fn high_priority_items_sampled_more() {
        let mut buf = PrioritizedReplay::new(64, 0.6, 0.4);
        for i in 0..64 {
            buf.push(t(i as f32));
        }
        // Make item with reward 7 overwhelmingly important.
        let mut tds = vec![0.01f32; 64];
        tds[7] = 50.0;
        let indices: Vec<usize> = (0..64).collect();
        buf.update_priorities(&indices, &tds);
        let mut rng = StdRng::seed_from_u64(1);
        let mut hot = 0;
        for _ in 0..50 {
            let (rewards, _, _) = sample(&mut buf, 16, &mut rng);
            hot += rewards.iter().filter(|&&r| r == 7.0).count();
        }
        assert!(hot > 300, "hot item sampled {hot}/800 times");
    }

    #[test]
    fn weights_penalize_over_sampled_items() {
        let mut buf = PrioritizedReplay::new(16, 1.0, 0.8);
        for i in 0..16 {
            buf.push(t(i as f32));
        }
        let mut tds = vec![0.1f32; 16];
        tds[3] = 10.0;
        buf.update_priorities(&(0..16).collect::<Vec<_>>(), &tds);
        let mut rng = StdRng::seed_from_u64(2);
        let (_, indices, weights) = sample(&mut buf, 64, &mut rng);
        // Weights of the hot item must be the smallest (it is over-sampled).
        let mut hot_w = f32::MAX;
        let mut cold_w: f32 = 0.0;
        for (&i, &w) in indices.iter().zip(&weights) {
            if i == 3 {
                hot_w = hot_w.min(w);
            } else {
                cold_w = cold_w.max(w);
            }
        }
        assert!(hot_w < cold_w, "hot {hot_w} vs cold {cold_w}");
        assert!(weights.iter().all(|&w| w <= 1.0 + 1e-6));
    }

    #[test]
    fn beta_anneals_toward_one() {
        let mut buf = PrioritizedReplay::new(8, 0.6, 0.4);
        buf.push(t(0.0));
        let mut rng = StdRng::seed_from_u64(3);
        let b0 = buf.beta();
        for _ in 0..100 {
            let _ = sample(&mut buf, 4, &mut rng);
        }
        assert!(buf.beta() > b0);
        assert!(buf.beta() <= 1.0);
    }

    #[test]
    fn sumtree_rebuild_cancels_adversarial_drift() {
        // Pump one leaf up to 1e17 and back down to 1.0, repeatedly. While
        // the root sits at ~1e17 its ulp is 16, so the +1e17/-1e17 deltas
        // flowing through `+=` round away the small leaves entirely (e.g.
        // fl(7 + 1e17) = 1e17, then subtracting 1e17-1 leaves ~0, not 8).
        // The true leaf sum at the end is 8.0 but the incrementally-kept
        // root is off by O(1) — pre-rebuild code fails this assertion.
        // 8 initial sets + the loop = exactly 2·REBUILD_INTERVAL sets, so
        // the final down-set lands on an exact rebuild.
        let mut s = SumTree::new(8);
        for leaf in 0..8 {
            s.set(leaf, 1.0);
        }
        let sets = u64::from(REBUILD_INTERVAL) * 2 - 8;
        for i in 0..sets {
            let p = if i % 2 == 0 { 1e17 } else { 1.0 };
            s.set(0, p);
        }
        let drift = (s.total() - s.leaf_sum()).abs();
        assert!(
            drift <= 1e-6 * s.leaf_sum().max(1.0),
            "total {} vs leaf sum {} (drift {drift})",
            s.total(),
            s.leaf_sum()
        );
        assert!(s.rebuilds >= 2, "rebuilds = {}", s.rebuilds);
    }

    #[test]
    fn sumtree_total_matches_leaf_sum_after_1m_randomized_sets() {
        // Property regression for the §5.1 replay path: after 1M randomized
        // priority updates in the realistic (eps..=100)^alpha range, the
        // root must still equal the true leaf sum to within 1e-6.
        let mut s = SumTree::new(1024);
        let mut rng = StdRng::seed_from_u64(0xD1F7);
        for _ in 0..1_000_000 {
            let leaf = rng.gen_range(0..1024);
            let p: f64 = (1e-3 + rng.gen::<f64>() * 100.0).powf(0.6);
            s.set(leaf, p);
        }
        let leaf_sum = s.leaf_sum();
        let drift = (s.total() - leaf_sum).abs();
        assert!(
            drift <= 1e-6 * leaf_sum.max(1.0),
            "total {} vs leaf sum {leaf_sum} (drift {drift})",
            s.total()
        );
    }

    #[test]
    fn healthy_sampling_never_falls_back_and_rebuilds_are_counted() {
        let mut buf = PrioritizedReplay::new(64, 0.6, 0.4);
        for i in 0..64 {
            buf.push(t(i as f32));
        }
        let mut rng = StdRng::seed_from_u64(11);
        let indices: Vec<usize> = (0..64).collect();
        for round in 0..200 {
            let _ = sample(&mut buf, 32, &mut rng);
            let tds: Vec<f32> = (0..64).map(|i| 0.01 + ((i + round) % 7) as f32).collect();
            buf.update_priorities(&indices, &tds);
        }
        let stats = buf.stats();
        assert_eq!(
            stats.fallback_hits, 0,
            "an exact tree must never send a proportional draw into an empty leaf"
        );
        // 64 pushes + 200×64 updates = 12 864 sets → 3 rebuilds.
        assert!(stats.tree_rebuilds >= 3, "rebuilds = {}", stats.tree_rebuilds);
        assert_eq!(stats.len, 64);
        assert!((stats.alpha - 0.6).abs() < 1e-12);
        assert!(stats.beta > 0.4 && stats.max_priority >= 6.0);
    }

    #[test]
    fn fallback_uses_uniform_is_weight() {
        // Force the tree/data disagreement the fallback path guards:
        // a leaf with positive priority but no stored transition.
        let mut buf = PrioritizedReplay::new(8, 1.0, 0.5);
        for i in 0..4 {
            buf.push(t(i as f32));
        }
        buf.tree.set(6, 1000.0); // empty slot, dominant priority
        let mut rng = StdRng::seed_from_u64(5);
        let (_, indices, weights) = sample(&mut buf, 16, &mut rng);
        // Every sampled index must point at real data (the pre-fix contract),
        // and weights stay in the normalized (0, 1] range.
        assert!(indices.iter().all(|&i| i < 4));
        assert!(weights.iter().all(|&w| w > 0.0 && w <= 1.0 + 1e-6));
        assert!(buf.stats().fallback_hits > 0, "dominant empty leaf must trigger fallbacks");
    }

    #[test]
    fn sample_into_matches_sample_semantics() {
        let mut buf = PrioritizedReplay::new(64, 0.6, 0.4);
        for i in 0..64 {
            buf.push(t(i as f32));
        }
        let mut tds = vec![0.01f32; 64];
        tds[7] = 50.0;
        buf.update_priorities(&(0..64).collect::<Vec<_>>(), &tds);
        let mut rng = StdRng::seed_from_u64(6);
        let mut batch = TransitionBatch::new();
        let mut indices = Vec::new();
        let mut weights = Vec::new();
        let mut hot = 0;
        for _ in 0..50 {
            buf.sample_into(16, &mut rng, &mut batch, &mut indices, &mut weights);
            assert_eq!(batch.len(), 16);
            assert_eq!(indices.len(), 16);
            assert_eq!(weights.len(), 16);
            assert!(weights.iter().all(|&w| w > 0.0 && w <= 1.0 + 1e-6));
            // The packed rows must be the transitions the indices point at.
            for (row, &slot) in indices.iter().enumerate() {
                assert_eq!(batch.rewards()[row], buf.ring.get(slot).reward);
            }
            hot += batch.rewards().iter().filter(|&&r| r == 7.0).count();
        }
        assert!(hot > 300, "hot item sampled {hot}/800 times");
    }

    #[test]
    fn wraps_at_capacity() {
        let mut buf = PrioritizedReplay::new(4, 0.6, 0.4);
        for i in 0..10 {
            buf.push(t(i as f32));
        }
        assert_eq!(buf.len(), 4);
        let mut rng = StdRng::seed_from_u64(4);
        let (rewards, _, _) = sample(&mut buf, 8, &mut rng);
        assert!(rewards.iter().all(|&r| r >= 6.0));
    }

    #[test]
    fn a_reloaded_buffer_draws_what_the_original_draws() {
        // Reload mid-run, past a wrap and before the second exact rebuild:
        // the reloaded buffer draws the same slots and IS weights and
        // reports the same stats as the original, through that rebuild.
        let capacity = 50;
        let mut original = PrioritizedReplay::new(capacity, 0.6, 0.4);
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        let mut td = StdRng::seed_from_u64(0xC0DF);
        let step = |buf: &mut PrioritizedReplay, rng: &mut StdRng, td: &mut StdRng, i: usize| {
            buf.push(t(i as f32));
            let (_, idx, w) = sample(buf, 16, rng);
            let errors: Vec<f32> = (0..16).map(|_| td.gen::<f32>() * 3.0).collect();
            buf.update_priorities(&idx, &errors);
            (idx, w.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), buf.stats())
        };
        for i in 0..300 {
            let _ = step(&mut original, &mut rng, &mut td, i);
        }
        assert_eq!(original.stats().tree_rebuilds, 1);
        let (ring, priorities) = original.state();
        assert!(priorities.sets_since_rebuild > 0 && priorities.beta > 0.4);
        let mut reloaded = PrioritizedReplay::from_state(capacity, 0.6, ring, priorities).unwrap();
        assert_eq!(node_bits(&reloaded.tree), node_bits(&original.tree), "the sums as they stood");
        let (mut rng2, mut td2) = (rng.clone(), td.clone());
        for i in 300..500 {
            let ours = step(&mut reloaded, &mut rng2, &mut td2, i);
            assert_eq!(ours, step(&mut original, &mut rng, &mut td, i), "step {i}");
        }
        assert_eq!(original.stats().tree_rebuilds, 2, "the second rebuild fell after the reload");
        assert_eq!(node_bits(&reloaded.tree), node_bits(&original.tree));
        assert_eq!(reloaded.state(), original.state());
    }

    #[test]
    fn a_state_that_does_not_fit_the_capacity_is_refused() {
        let mut buf = PrioritizedReplay::new(8, 0.6, 0.4);
        for i in 0..5 {
            buf.push(t(i as f32));
        }
        let (ring, priorities) = buf.state();
        assert!(PrioritizedReplay::from_state(4, 0.6, ring.clone(), priorities.clone()).is_err());
        assert!(PrioritizedReplay::from_state(16, 0.6, ring.clone(), priorities.clone()).is_err());
        let mut short = priorities.clone();
        short.sums.pop();
        assert!(PrioritizedReplay::from_state(8, 0.6, ring.clone(), short).is_err());
        let mut long = priorities.clone();
        long.sums.push(0.0);
        assert!(PrioritizedReplay::from_state(8, 0.6, ring.clone(), long).is_err());
        let moved = RingState { write: 2, ..ring.clone() };
        assert!(PrioritizedReplay::from_state(8, 0.6, moved, priorities.clone()).is_err());
        assert!(PrioritizedReplay::from_state(8, 0.6, ring, priorities).is_ok());
    }

    /// Internal nodes that are ancestors of leaves `0..k`, found by walking
    /// each leaf to the root.
    fn ancestors(capacity: usize, k: usize) -> Vec<bool> {
        let mut anc = vec![false; 2 * capacity - 1];
        for leaf in 0..k {
            let mut idx = leaf + capacity - 1;
            while idx > 0 {
                idx = (idx - 1) / 2;
                anc[idx] = true;
            }
        }
        anc
    }

    fn node_bits(s: &SumTree) -> Vec<u64> {
        s.nodes.iter().map(|v| v.to_bits()).collect()
    }

    /// A tree of `capacity` leaves after `sets` random sets among the
    /// first `k` leaves (always including leaf `k - 1`); no set reaches a
    /// rebuild.
    fn random_tree(capacity: usize, k: usize, sets: usize, rng: &mut StdRng) -> SumTree {
        let mut s = SumTree::new(capacity);
        s.set(k - 1, 0.5);
        for _ in 0..sets {
            let p = match rng.gen_range(0..8) {
                0 => 1e12 * rng.gen::<f64>(),
                1 => 0.0,
                _ => (1e-3 + rng.gen::<f64>() * 100.0).powf(0.6),
            };
            s.set(rng.gen_range(0..k), p);
        }
        s
    }

    #[test]
    fn ancestor_rebuild_equals_the_full_rebuild_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0xA11);
        let mut capacities = vec![2, 3, 4, 5, 7, 8, 9, 64, 100, 1000, 1023, 1024, 1025, 100_000];
        capacities.extend((0..12).map(|_| rng.gen_range(2..5000)));
        for capacity in capacities {
            let mut fills = vec![1, capacity, rng.gen_range(1..=capacity)];
            fills.push((capacity / 2).max(1));
            for k in fills {
                let sets = rng.gen_range(1..3 * k.min(500) + 2);
                let mut fast = random_tree(capacity, k, sets, &mut rng);
                let mut full = fast.clone();
                // Scribble over every ancestor of a set leaf, so a node the
                // rebuild skips keeps a wrong value instead of a sum that
                // the incremental sets happened to get exactly right.
                let anc = ancestors(capacity, fast.leaves_set);
                for (node, _) in fast.nodes.iter_mut().zip(&anc).filter(|(_, &a)| a) {
                    *node = -12345.0;
                }
                fast.rebuild();
                full.rebuild_full();
                assert_eq!(node_bits(&fast), node_bits(&full), "capacity {capacity}, {k} leaves set");
                // A second round on top of the rebuilt tree.
                for _ in 0..sets {
                    let leaf = rng.gen_range(0..k);
                    let p = rng.gen::<f64>() * 7.0;
                    fast.set(leaf, p);
                    full.set(leaf, p);
                }
                fast.rebuild();
                full.rebuild_full();
                assert_eq!(node_bits(&fast), node_bits(&full), "capacity {capacity}, {k} leaves, round 2");
            }
        }
    }

    #[test]
    fn rebuild_writes_no_node_outside_the_ancestors_of_set_leaves_and_their_children() {
        let poison = f64::from_bits(0x7FF8_DEAD_BEEF_0001);
        let mut rng = StdRng::seed_from_u64(0xA12);
        for capacity in [2, 3, 5, 8, 100, 1000, 4099, 100_000] {
            for k in [1, 2.min(capacity), capacity / 3 + 1, capacity] {
                let mut s = random_tree(capacity, k, 2 * k, &mut rng);
                let mut reference = s.clone();
                reference.rebuild_full();
                // Read set: the ancestors and their children.
                let anc = ancestors(capacity, s.leaves_set);
                let mut read = anc.clone();
                for idx in (0..capacity - 1).filter(|&i| anc[i]) {
                    read[2 * idx + 1] = true;
                    read[2 * idx + 2] = true;
                }
                let untouched: Vec<usize> = (0..s.nodes.len()).filter(|&i| !read[i]).collect();
                for &i in &untouched {
                    s.nodes[i] = poison;
                }
                s.rebuild();
                for &i in &untouched {
                    assert_eq!(s.nodes[i].to_bits(), poison.to_bits(), "capacity {capacity}: node {i} written");
                }
                for i in (0..s.nodes.len()).filter(|&i| read[i]) {
                    assert_eq!(s.nodes[i].to_bits(), reference.nodes[i].to_bits(), "capacity {capacity}: node {i}");
                }
            }
        }
    }

    /// The layout the ring replaced: every slot of a `Vec<Option<_>>`
    /// written up front, a `write`/`len` pair, and a sum tree that rebuilds
    /// all its internal nodes — what the ring and the ancestor-only rebuild
    /// must reproduce draw for draw.
    struct Prefilled {
        tree: SumTree,
        data: Vec<Option<Transition>>,
        write: usize,
        len: usize,
        alpha: f64,
        beta: f64,
        max_priority: f64,
        fallback_hits: u64,
    }

    impl Prefilled {
        fn new(capacity: usize, alpha: f64, beta: f64) -> Self {
            let tree = SumTree::new(capacity);
            Self { tree, data: vec![None; capacity], write: 0, len: 0, alpha, beta, max_priority: 1.0, fallback_hits: 0 }
        }

        fn set(&mut self, leaf: usize, priority: f64) {
            let tree = &mut self.tree;
            let mut idx = leaf + tree.capacity - 1;
            let delta = priority - tree.nodes[idx];
            tree.nodes[idx] = priority;
            tree.sets_since_rebuild += 1;
            if tree.sets_since_rebuild >= REBUILD_INTERVAL {
                tree.rebuild_full();
                return;
            }
            while idx > 0 {
                idx = (idx - 1) / 2;
                tree.nodes[idx] += delta;
            }
        }

        fn push(&mut self, t: Transition) {
            let slot = self.write;
            self.data[slot] = Some(t);
            self.set(slot, self.max_priority.powf(self.alpha));
            self.write = (self.write + 1) % self.data.len();
            self.len = (self.len + 1).min(self.data.len());
        }

        fn draw(&mut self, n: usize, rng: &mut StdRng) -> (Vec<usize>, Vec<f32>) {
            let (mut indices, mut weights) = (Vec::new(), Vec::new());
            let total = self.tree.total().max(1e-12);
            let segment = total / n as f64;
            for i in 0..n {
                let mass = segment * i as f64 + rng.gen::<f64>() * segment;
                let mut leaf = self.tree.find(mass.min(total - 1e-9));
                let p = if self.data[leaf].is_none() {
                    self.fallback_hits += 1;
                    leaf = rng.gen_range(0..self.len);
                    1.0 / self.len as f64
                } else {
                    (self.tree.get(leaf) / total).max(1e-12)
                };
                indices.push(leaf);
                weights.push((self.len as f64 * p).powf(-self.beta) as f32);
            }
            let max_w = weights.iter().cloned().fold(f32::MIN, f32::max).max(1e-12);
            for w in weights.iter_mut() {
                *w /= max_w;
            }
            self.beta = (self.beta + 1e-4).min(1.0);
            (indices, weights)
        }

        fn update_priorities(&mut self, indices: &[usize], td_errors: &[f32]) {
            for (&i, &e) in indices.iter().zip(td_errors) {
                let p = (f64::from(e.abs()) + 1e-3).min(100.0);
                self.max_priority = self.max_priority.max(p);
                self.set(i, p.powf(self.alpha));
            }
        }
    }

    #[test]
    fn ring_draws_equal_the_prefilled_layout_through_a_wrap() {
        let capacity = 50;
        let (mut ring, mut old) = (PrioritizedReplay::new(capacity, 0.6, 0.4), Prefilled::new(capacity, 0.6, 0.4));
        let (mut rng_ring, mut rng_old) = (StdRng::seed_from_u64(0xB0B), StdRng::seed_from_u64(0xB0B));
        let mut td = StdRng::seed_from_u64(0xB0C);
        for step in 0..400 {
            ring.push(t(step as f32));
            old.push(t(step as f32));
            if step == 10 {
                // An empty slot with a dominant priority: draws fall back.
                ring.tree.set(capacity - 1, 1e3);
                old.set(capacity - 1, 1e3);
            }
            let (_, idx, w) = sample(&mut ring, 16, &mut rng_ring);
            let (old_idx, old_w) = old.draw(16, &mut rng_old);
            assert_eq!(idx, old_idx, "step {step}: slots");
            let bits = |w: &[f32]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&w), bits(&old_w), "step {step}: IS weights");
            let errors: Vec<f32> = (0..16).map(|_| td.gen::<f32>() * 3.0).collect();
            ring.update_priorities(&idx, &errors);
            old.update_priorities(&idx, &errors);
        }
        assert_eq!(node_bits(&ring.tree), node_bits(&old.tree));
        // 400 pushes + 400 × 16 priority updates = 6 800 sets: one rebuild.
        assert_eq!((ring.tree.rebuilds, old.tree.rebuilds), (1, 1));
        let stats = ring.stats();
        assert!(stats.fallback_hits > 0, "the planted empty slot drew no fallback");
        assert_eq!((stats.fallback_hits, stats.len), (old.fallback_hits, old.len));
        let order: Vec<f32> = ring.ring.iter().map(|x| x.reward).collect();
        let old_order: Vec<f32> = old.data.iter().flatten().map(|x| x.reward).collect();
        assert_eq!(order, old_order, "slot-ordered iteration");
        assert_eq!(order[0], 350.0, "slot 0 holds the eighth lap's first push");
    }
}

//! Uniform experience replay memory (§2.2.4).
//!
//! "We will randomly extract some batches of samples each time and update
//! the model in order to eliminate the correlations between samples" — a
//! bounded ring buffer with uniform sampling. The ring is also the storage
//! of [`crate::PrioritizedReplay`]: a push lands in slot `len` until the ring
//! is full, then overwrites the oldest slot, and holds only what it stores
//! (the `Vec` grows with the data and never past `capacity`).

use crate::batch::TransitionBatch;
use crate::env::Transition;
use rand::Rng;

/// A bounded uniform-sampling replay buffer.
#[derive(Debug, Clone)]
pub struct ReplayBuffer {
    capacity: usize,
    data: Vec<Transition>,
    write: usize,
}

/// A ring's exact contents: what [`ReplayBuffer::from_state`] needs to
/// continue it push for push and draw for draw.
#[derive(Debug, Clone, PartialEq)]
pub struct RingState {
    /// The stored transitions, slot by slot.
    pub slots: Vec<Transition>,
    /// The slot the next push lands in.
    pub write: usize,
}

impl ReplayBuffer {
    /// Creates a buffer holding at most `capacity` transitions.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay capacity must be positive");
        Self { capacity, data: Vec::new(), write: 0 }
    }

    /// The slots and the write position ([`ReplayBuffer::from_state`]
    /// takes them back).
    pub fn state(&self) -> RingState {
        RingState { slots: self.data.clone(), write: self.write }
    }

    /// The ring of `capacity` slots holding `state`. Refused when the slots
    /// overflow the capacity, or when the write position is not where the
    /// next push of such a ring lands.
    pub fn from_state(capacity: usize, state: RingState) -> Result<Self, String> {
        let RingState { slots, write } = state;
        let len = slots.len();
        let fits = if len < capacity { write == len } else { len == capacity && write < capacity };
        if capacity == 0 || !fits {
            let ring = format!("{len} slots with the next write at {write}");
            return Err(format!("{ring} do not fit a ring of {capacity}"));
        }
        Ok(Self { capacity, data: slots, write })
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Maximum capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Adds a transition, evicting the oldest once full.
    pub fn push(&mut self, t: Transition) {
        self.push_slot(t);
    }

    /// [`Self::push`], returning the slot the transition landed in:
    /// `0, 1, …, capacity - 1, 0, 1, …`.
    pub(crate) fn push_slot(&mut self, t: Transition) -> usize {
        let slot = self.write;
        if self.data.len() < self.capacity {
            // Doubling growth, capped so a full ring holds exactly
            // `capacity` transitions.
            if self.data.len() == self.data.capacity() {
                self.data.reserve_exact(self.data.len().max(4).min(self.capacity - self.data.len()));
            }
            self.data.push(t);
        } else {
            self.data[slot] = t;
        }
        self.write = (slot + 1) % self.capacity;
        slot
    }

    /// The transition in `slot` (a value [`Self::push_slot`] returned).
    pub(crate) fn get(&self, slot: usize) -> &Transition {
        &self.data[slot]
    }

    /// Samples `n` transitions uniformly with replacement.
    pub fn sample(&self, n: usize, rng: &mut impl Rng) -> Vec<&Transition> {
        assert!(!self.data.is_empty(), "cannot sample an empty replay buffer");
        (0..n).map(|_| &self.data[rng.gen_range(0..self.data.len())]).collect()
    }

    /// Samples `n` transitions uniformly with replacement, packing them
    /// into a caller-owned [`TransitionBatch`] (no per-step allocation).
    pub fn sample_into(&self, n: usize, rng: &mut impl Rng, out: &mut TransitionBatch) {
        assert!(!self.data.is_empty(), "cannot sample an empty replay buffer");
        let (ds, da) = (self.data[0].state.len(), self.data[0].action.len());
        out.begin(n, ds, da);
        for _ in 0..n {
            out.push(&self.data[rng.gen_range(0..self.data.len())]);
        }
    }

    /// Iterates over stored transitions in slot order (oldest-first only
    /// until the ring wraps).
    pub fn iter(&self) -> impl Iterator<Item = &Transition> {
        self.data.iter()
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
            next_state: vec![r + 1.0],
            done: false,
        }
    }

    #[test]
    fn fills_then_wraps() {
        let mut b = ReplayBuffer::new(3);
        for i in 0..5 {
            b.push(t(i as f32));
        }
        assert_eq!(b.len(), 3);
        let rewards: Vec<f32> = b.iter().map(|x| x.reward).collect();
        // 0 and 1 were overwritten by 3 and 4.
        assert!(rewards.contains(&2.0) && rewards.contains(&3.0) && rewards.contains(&4.0));
    }

    #[test]
    fn push_reports_ring_slots_and_storage_never_exceeds_capacity() {
        let mut b = ReplayBuffer::new(5);
        let slots: Vec<usize> = (0..12).map(|i| b.push_slot(t(i as f32))).collect();
        assert_eq!(slots, [0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1]);
        assert_eq!(b.data.capacity(), 5, "a full ring holds exactly its capacity");
        // Slot order: 10, 11 overwrote slots 0 and 1.
        let rewards: Vec<f32> = b.iter().map(|x| x.reward).collect();
        assert_eq!(rewards, [10.0, 11.0, 7.0, 8.0, 9.0]);
        let mut big = ReplayBuffer::new(100_000);
        big.push(t(0.0));
        assert!(big.data.capacity() < 16, "an empty ring reserves nothing up front");
    }

    #[test]
    fn sample_returns_requested_count() {
        let mut b = ReplayBuffer::new(10);
        for i in 0..4 {
            b.push(t(i as f32));
        }
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(b.sample(32, &mut rng).len(), 32);
    }

    #[test]
    fn sampling_covers_the_buffer() {
        let mut b = ReplayBuffer::new(16);
        for i in 0..16 {
            b.push(t(i as f32));
        }
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = std::collections::HashSet::new();
        for s in b.sample(500, &mut rng) {
            seen.insert(s.reward as i32);
        }
        assert!(seen.len() >= 14, "uniform sampling should hit most slots: {}", seen.len());
    }

    #[test]
    fn sample_into_packs_stored_transitions() {
        let mut b = ReplayBuffer::new(8);
        for i in 0..8 {
            b.push(t(i as f32));
        }
        let mut rng = StdRng::seed_from_u64(5);
        let mut batch = TransitionBatch::new();
        b.sample_into(16, &mut rng, &mut batch);
        assert_eq!(batch.len(), 16);
        for i in 0..16 {
            let r = batch.rewards()[i];
            assert_eq!(batch.states().row(i), &[r]);
            assert_eq!(batch.next_states().row(i), &[r + 1.0]);
        }
    }

    #[test]
    #[should_panic(expected = "empty replay buffer")]
    fn sampling_empty_panics() {
        let b = ReplayBuffer::new(4);
        let mut rng = StdRng::seed_from_u64(3);
        let _ = b.sample(1, &mut rng);
    }
}

use crate::{LinearAnneal, RlError};
use twig_stats::rng::Rng;

/// Prioritised experience replay (Schaul et al. 2015), as used by the paper:
/// buffer size 10⁶, `pr_α = 0.6`, `pr_β` annealed linearly from 0.4 to 1.
///
/// Priorities are stored in a sum tree for O(log n) proportional sampling;
/// [`sample`](Self::sample) returns importance-sampling weights normalised
/// by the batch maximum, and [`update_priorities`](Self::update_priorities)
/// feeds TD errors back after each train step.
///
/// # Examples
///
/// ```
/// use twig_stats::rng::Xoshiro256;
/// use twig_rl::PrioritizedReplay;
///
/// let mut per = PrioritizedReplay::new(8, 0.6, 0.4, 100);
/// for i in 0..6 {
///     per.push(i);
/// }
/// let mut rng = Xoshiro256::seed_from_u64(0);
/// let batch = per.sample(4, &mut rng).unwrap();
/// assert_eq!(batch.indices.len(), 4);
/// assert!(batch.weights.iter().all(|&w| w > 0.0 && w <= 1.0 + 1e-6));
/// ```
#[derive(Debug, Clone)]
pub struct PrioritizedReplay<T> {
    items: Vec<T>,
    tree: SumTree,
    capacity: usize,
    next: usize,
    alpha: f64,
    beta: LinearAnneal,
    step: u64,
    max_priority: f64,
}

/// One prioritised sample batch: buffer indices and importance weights.
///
/// Reusable: pass the same instance to
/// [`PrioritizedReplay::sample_into`] every step and the contained vectors
/// keep their capacity, making steady-state sampling allocation-free.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PerBatch {
    /// Indices into the buffer (pass back to `update_priorities`).
    pub indices: Vec<usize>,
    /// Importance-sampling weights, normalised to max 1.
    pub weights: Vec<f32>,
}

impl<T> PrioritizedReplay<T> {
    /// Creates a prioritised buffer.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, alpha: f64, beta0: f64, beta_steps: u64) -> Self {
        assert!(capacity > 0, "PER capacity must be positive");
        PrioritizedReplay {
            items: Vec::new(),
            tree: SumTree::new(capacity),
            capacity,
            next: 0,
            alpha,
            beta: LinearAnneal::new(beta0, 1.0, beta_steps),
            step: 0,
            max_priority: 1.0,
        }
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Adds an item with the current maximum priority (so new experiences
    /// are replayed at least once) and returns its slot index. Once the
    /// buffer is full, slots are reused oldest-first, so the returned index
    /// names the slot whose previous item was just overwritten.
    pub fn push(&mut self, item: T) -> usize {
        let slot = if self.items.len() < self.capacity {
            self.items.push(item);
            self.items.len() - 1
        } else {
            let slot = self.next;
            self.items[slot] = item;
            self.next = (self.next + 1) % self.capacity;
            slot
        };
        self.tree.set(slot, self.max_priority.powf(self.alpha));
        slot
    }

    /// Reads an item by buffer index.
    pub fn get(&self, index: usize) -> Option<&T> {
        self.items.get(index)
    }

    /// Samples `n` indices proportionally to priority and advances the β
    /// annealing by one step.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::NotEnoughData`] when the buffer is empty.
    pub fn sample<R: Rng>(&mut self, n: usize, rng: &mut R) -> Result<PerBatch, RlError> {
        let mut batch = PerBatch::default();
        self.sample_into(n, rng, &mut batch)?;
        Ok(batch)
    }

    /// Samples `n` indices into a reusable [`PerBatch`], clearing it first.
    /// Identical draws and arithmetic to [`sample`](Self::sample) (which
    /// delegates here), but allocation-free once `batch` has capacity.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::NotEnoughData`] when the buffer is empty.
    pub fn sample_into<R: Rng>(
        &mut self,
        n: usize,
        rng: &mut R,
        batch: &mut PerBatch,
    ) -> Result<(), RlError> {
        batch.indices.clear();
        batch.weights.clear();
        if self.items.is_empty() {
            return Err(RlError::NotEnoughData {
                needed: n,
                available: 0,
            });
        }
        let beta = self.beta.value_at(self.step);
        self.step += 1;
        let total = self.tree.total();
        let len = self.items.len() as f64;
        for _ in 0..n {
            let target = rng.range_f64(0.0, total.max(f64::MIN_POSITIVE));
            let idx = self.tree.find(target).min(self.items.len() - 1);
            let p = self.tree.get(idx) / total;
            let w = (len * p).powf(-beta);
            batch.indices.push(idx);
            batch.weights.push(w as f32);
        }
        let max_w = batch
            .weights
            .iter()
            .cloned()
            .fold(f32::MIN_POSITIVE, f32::max);
        for w in &mut batch.weights {
            *w /= max_w;
        }
        Ok(())
    }

    /// Updates priorities after a train step. `errors` are absolute TD
    /// errors aligned with `indices`.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn update_priorities(&mut self, indices: &[usize], errors: &[f64]) {
        assert_eq!(
            indices.len(),
            errors.len(),
            "indices/errors length mismatch"
        );
        const EPS: f64 = 1e-6;
        for (&idx, &err) in indices.iter().zip(errors) {
            if idx >= self.items.len() {
                continue;
            }
            let p = err.abs() + EPS;
            self.max_priority = self.max_priority.max(p);
            self.tree.set(idx, p.powf(self.alpha));
        }
    }

    /// The β-anneal step counter (advances once per sample call).
    pub fn anneal_step(&self) -> u64 {
        self.step
    }

    /// Restores the β-anneal step counter from a checkpoint.
    pub fn set_anneal_step(&mut self, step: u64) {
        self.step = step;
    }

    /// The running maximum raw priority assigned to new items.
    pub fn max_priority(&self) -> f64 {
        self.max_priority
    }

    /// Restores the running maximum priority from a checkpoint. Non-finite
    /// or non-positive values are ignored (the default of 1.0 is kept).
    pub fn set_max_priority(&mut self, p: f64) {
        if p.is_finite() && p > 0.0 {
            self.max_priority = p;
        }
    }

    /// The stored (already α-exponentiated) sampling weight of every item,
    /// in buffer order — the exact sum-tree leaves, so a
    /// [`restore_priorities`](Self::restore_priorities) round trip is
    /// lossless.
    pub fn priorities(&self) -> Vec<f64> {
        (0..self.items.len()).map(|i| self.tree.get(i)).collect()
    }

    /// Restores sum-tree leaves saved by [`priorities`](Self::priorities).
    /// Entries beyond the current item count are ignored (after a crash the
    /// buffer restarts empty, so a checkpointed priority vector may be
    /// longer than the live buffer).
    pub fn restore_priorities(&mut self, priorities: &[f64]) {
        for (i, &p) in priorities.iter().enumerate().take(self.items.len()) {
            self.tree.set(i, p);
        }
    }
}

/// Flat-array binary sum tree over `capacity` leaves.
#[derive(Debug, Clone)]
struct SumTree {
    nodes: Vec<f64>,
    leaves: usize,
}

impl SumTree {
    fn new(capacity: usize) -> Self {
        let leaves = capacity.next_power_of_two();
        SumTree {
            nodes: vec![0.0; 2 * leaves],
            leaves,
        }
    }

    fn total(&self) -> f64 {
        self.nodes[1]
    }

    fn get(&self, leaf: usize) -> f64 {
        self.nodes[self.leaves + leaf]
    }

    fn set(&mut self, leaf: usize, value: f64) {
        let mut i = self.leaves + leaf;
        self.nodes[i] = value;
        while i > 1 {
            i /= 2;
            self.nodes[i] = self.nodes[2 * i] + self.nodes[2 * i + 1];
        }
    }

    /// Finds the leaf where the prefix sum reaches `target`.
    fn find(&self, mut target: f64) -> usize {
        let mut i = 1;
        while i < self.leaves {
            let left = self.nodes[2 * i];
            if target < left {
                i *= 2;
            } else {
                target -= left;
                i = 2 * i + 1;
            }
        }
        i - self.leaves
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_stats::rng::Xoshiro256;

    #[test]
    fn sum_tree_total_tracks_sets() {
        let mut t = SumTree::new(5);
        t.set(0, 1.0);
        t.set(3, 2.0);
        assert_eq!(t.total(), 3.0);
        t.set(0, 0.5);
        assert_eq!(t.total(), 2.5);
        assert_eq!(t.get(3), 2.0);
    }

    #[test]
    fn sum_tree_find_respects_proportions() {
        let mut t = SumTree::new(4);
        t.set(0, 1.0);
        t.set(1, 3.0);
        assert_eq!(t.find(0.5), 0);
        assert_eq!(t.find(1.5), 1);
        assert_eq!(t.find(3.9), 1);
    }

    #[test]
    fn high_priority_items_sampled_more() {
        let mut per = PrioritizedReplay::new(16, 1.0, 0.4, 10);
        for i in 0..10 {
            per.push(i);
        }
        // Give item 7 overwhelming priority.
        per.update_priorities(&[7], &[100.0]);
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut count7 = 0;
        let mut total = 0;
        for _ in 0..50 {
            let b = per.sample(8, &mut rng).unwrap();
            count7 += b.indices.iter().filter(|&&i| i == 7).count();
            total += b.indices.len();
        }
        assert!(
            count7 as f64 / total as f64 > 0.8,
            "item 7 sampled only {count7}/{total}"
        );
    }

    #[test]
    fn weights_penalise_frequent_samples() {
        let mut per = PrioritizedReplay::new(8, 1.0, 1.0, 1);
        for i in 0..4 {
            per.push(i);
        }
        per.update_priorities(&[0, 1, 2, 3], &[10.0, 1.0, 1.0, 1.0]);
        let mut rng = Xoshiro256::seed_from_u64(4);
        let b = per.sample(64, &mut rng).unwrap();
        // The high-priority item must carry the smallest IS weight.
        let mut w_hi = f32::INFINITY;
        let mut w_lo = 0.0f32;
        for (&i, &w) in b.indices.iter().zip(&b.weights) {
            if i == 0 {
                w_hi = w_hi.min(w);
            } else {
                w_lo = w_lo.max(w);
            }
        }
        assert!(w_hi < w_lo, "w_hi {w_hi} vs w_lo {w_lo}");
    }

    #[test]
    fn eviction_reuses_slots() {
        let mut per = PrioritizedReplay::new(2, 0.6, 0.4, 10);
        assert_eq!(per.push("a"), 0);
        assert_eq!(per.push("b"), 1);
        assert_eq!(per.push("c"), 0); // evicts slot 0
        assert_eq!(per.push("d"), 1);
        assert_eq!(per.push("e"), 0);
        assert_eq!(per.len(), 2);
        assert_eq!(per.get(0), Some(&"e"));
        assert_eq!(per.get(1), Some(&"d"));
        assert_eq!(per.get(2), None);
    }

    #[test]
    fn empty_sample_errors() {
        let mut per: PrioritizedReplay<u8> = PrioritizedReplay::new(4, 0.6, 0.4, 10);
        let mut rng = Xoshiro256::seed_from_u64(0);
        assert!(per.sample(2, &mut rng).is_err());
    }

    #[test]
    fn update_ignores_stale_indices() {
        let mut per = PrioritizedReplay::new(4, 0.6, 0.4, 10);
        per.push(1);
        per.update_priorities(&[3], &[5.0]); // index 3 does not exist yet
        assert_eq!(per.len(), 1);
    }

    #[test]
    fn find_always_in_range() {
        use twig_stats::rng::Rng;
        let mut rng = Xoshiro256::seed_from_u64(0xf1ad);
        for _ in 0..200 {
            let n = rng.range_usize(1, 20);
            let prios: Vec<f64> = (0..n).map(|_| rng.range_f64(0.01, 10.0)).collect();
            let frac = rng.next_f64();
            let mut t = SumTree::new(prios.len());
            for (i, &p) in prios.iter().enumerate() {
                t.set(i, p);
            }
            let idx = t.find(frac * t.total() * 0.999);
            assert!(idx < prios.len());
        }
    }

    #[test]
    fn priorities_roundtrip_is_lossless() {
        let mut per = PrioritizedReplay::new(8, 0.6, 0.4, 10);
        for i in 0..5 {
            per.push(i);
        }
        per.update_priorities(&[1, 3], &[2.5, 9.0]);
        let saved = per.priorities();
        assert_eq!(saved.len(), 5);
        let mut restored = PrioritizedReplay::new(8, 0.6, 0.4, 10);
        for i in 0..5 {
            restored.push(i);
        }
        restored.set_anneal_step(per.anneal_step());
        restored.set_max_priority(per.max_priority());
        restored.restore_priorities(&saved);
        assert_eq!(restored.priorities(), saved);
        assert_eq!(restored.max_priority(), per.max_priority());
    }

    #[test]
    fn restore_priorities_ignores_excess_entries() {
        let mut per = PrioritizedReplay::new(8, 0.6, 0.4, 10);
        per.push(0);
        per.restore_priorities(&[2.0, 3.0, 4.0]);
        assert_eq!(per.priorities(), vec![2.0]);
    }

    #[test]
    fn set_max_priority_rejects_invalid() {
        let mut per: PrioritizedReplay<u8> = PrioritizedReplay::new(4, 0.6, 0.4, 10);
        per.set_max_priority(f64::NAN);
        assert_eq!(per.max_priority(), 1.0);
        per.set_max_priority(-2.0);
        assert_eq!(per.max_priority(), 1.0);
        per.set_max_priority(3.0);
        assert_eq!(per.max_priority(), 3.0);
    }

    #[test]
    fn weights_bounded_by_one() {
        for seed in 0u64..100 {
            let mut per = PrioritizedReplay::new(32, 0.6, 0.4, 50);
            for i in 0..20 {
                per.push(i);
            }
            per.update_priorities(&[1, 5], &[3.0, 7.0]);
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let b = per.sample(16, &mut rng).unwrap();
            for &w in &b.weights {
                assert!(w > 0.0 && w <= 1.0 + 1e-6, "seed {seed}: weight {w}");
            }
        }
    }
}

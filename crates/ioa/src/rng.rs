//! Seeded, reproducible randomness for simulations.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A deterministic random source for schedules, latencies, and faults.
///
/// Every nondeterministic choice a simulation makes flows through one
/// `SimRng`, so a `(scenario, seed)` pair fully determines the execution —
/// failed property-test cases replay exactly.
///
/// ```
/// use vsgm_ioa::SimRng;
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.range(0, 100), b.range(0, 100));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
    seed: u64,
}

impl SimRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SimRng { inner: SmallRng::seed_from_u64(seed), seed }
    }

    /// The seed this generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child generator (e.g. one per component) so
    /// adding draws in one component does not perturb another.
    pub fn fork(&mut self, label: u64) -> SimRng {
        let child_seed =
            self.inner.gen::<u64>().wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(label);
        SimRng::new(child_seed)
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        self.inner.gen_range(lo..hi)
    }

    /// Bernoulli draw with probability `p` (clamped to `\[0, 1\]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.inner.gen_bool(p)
    }

    /// Picks a uniformly random element index for a slice of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "cannot pick from an empty collection");
        self.inner.gen_range(0..len)
    }

    /// Picks a uniformly random element of a slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        items.choose(&mut self.inner)
    }

    /// Shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        items.shuffle(&mut self.inner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_per_seed() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        let xs: Vec<u64> = (0..20).map(|_| a.range(0, 1000)).collect();
        let ys: Vec<u64> = (0..20).map(|_| b.range(0, 1000)).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let xs: Vec<u64> = (0..20).map(|_| a.range(0, u64::MAX)).collect();
        let ys: Vec<u64> = (0..20).map(|_| b.range(0, u64::MAX)).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn forked_children_are_deterministic() {
        let mut root1 = SimRng::new(9);
        let mut root2 = SimRng::new(9);
        let mut c1 = root1.fork(1);
        let mut c2 = root2.fork(1);
        assert_eq!(c1.range(0, 100), c2.range(0, 100));
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        // Out-of-range probabilities are clamped, not panicking.
        assert!(r.chance(2.0));
        assert!(!r.chance(-1.0));
    }

    #[test]
    fn choose_and_shuffle() {
        let mut r = SimRng::new(4);
        let items = [1, 2, 3];
        assert!(items.contains(r.choose(&items).unwrap()));
        assert_eq!(r.choose::<u32>(&[]), None);
        let mut v: Vec<u32> = (0..50).collect();
        let orig = v.clone();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, orig);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        SimRng::new(0).range(5, 5);
    }
}

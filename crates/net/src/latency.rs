//! Message latency models for the simulated network.

use vsgm_ioa::{SimRng, SimTime};

/// How long a message spends in transit on the simulated network.
///
/// The paper's model is fully asynchronous, so latency never affects
/// correctness — only the timing numbers experiments report. `Uniform`
/// jitter also exercises more interleavings (messages on different
/// channels overtake each other).
///
/// ```
/// use vsgm_net::LatencyModel;
/// use vsgm_ioa::{SimRng, SimTime};
/// let mut rng = SimRng::new(1);
/// let d = LatencyModel::Fixed(SimTime::from_micros(100)).sample(&mut rng);
/// assert_eq!(d, SimTime::from_micros(100));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Fixed(SimTime),
    /// Uniformly random in `[lo, hi]` (inclusive).
    Uniform {
        /// Minimum latency.
        lo: SimTime,
        /// Maximum latency.
        hi: SimTime,
    },
}

impl LatencyModel {
    /// A LAN-ish default: 50–200 µs.
    pub fn lan() -> Self {
        LatencyModel::Uniform { lo: SimTime::from_micros(50), hi: SimTime::from_micros(200) }
    }

    /// A WAN-ish profile: 20–80 ms, matching the paper's target
    /// environment of membership servers spread over a wide-area network.
    pub fn wan() -> Self {
        LatencyModel::Uniform { lo: SimTime::from_millis(20), hi: SimTime::from_millis(80) }
    }

    /// Draws one transit duration.
    ///
    /// # Panics
    ///
    /// Panics if a `Uniform` model has `lo > hi`.
    pub fn sample(&self, rng: &mut SimRng) -> SimTime {
        match *self {
            LatencyModel::Fixed(d) => d,
            LatencyModel::Uniform { lo, hi } => {
                assert!(lo <= hi, "uniform latency with lo > hi");
                SimTime::from_micros(rng.range(lo.as_micros(), hi.as_micros() + 1))
            }
        }
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::lan()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_is_constant() {
        let mut rng = SimRng::new(0);
        let m = LatencyModel::Fixed(SimTime::from_micros(7));
        for _ in 0..5 {
            assert_eq!(m.sample(&mut rng).as_micros(), 7);
        }
    }

    #[test]
    fn uniform_within_bounds() {
        let mut rng = SimRng::new(1);
        let m =
            LatencyModel::Uniform { lo: SimTime::from_micros(10), hi: SimTime::from_micros(20) };
        for _ in 0..100 {
            let d = m.sample(&mut rng).as_micros();
            assert!((10..=20).contains(&d), "{d}");
        }
    }

    #[test]
    fn uniform_hits_both_endpoints() {
        let mut rng = SimRng::new(2);
        let m = LatencyModel::Uniform { lo: SimTime::from_micros(0), hi: SimTime::from_micros(1) };
        let draws: std::collections::BTreeSet<u64> =
            (0..64).map(|_| m.sample(&mut rng).as_micros()).collect();
        assert_eq!(draws.len(), 2);
    }

    #[test]
    #[should_panic(expected = "lo > hi")]
    fn inverted_uniform_panics() {
        let mut rng = SimRng::new(3);
        LatencyModel::Uniform { lo: SimTime::from_micros(5), hi: SimTime::from_micros(1) }
            .sample(&mut rng);
    }

    #[test]
    fn presets_are_ordered() {
        let mut rng = SimRng::new(4);
        let lan = LatencyModel::lan().sample(&mut rng);
        let wan = LatencyModel::wan().sample(&mut rng);
        assert!(wan > lan);
    }
}

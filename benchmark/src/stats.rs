//! Percentiles: a timing is reported as its median and the highest
//! percentile that still has at least ten samples beyond it, with the
//! sample count beside it.

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: f64 = 10.0;
/// Percentiles tried from the top when looking for the highest supported.
const LADDER: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0];

/// Nearest-rank percentile of an ascending slice; `None` when empty.
pub fn percentile(sorted: &[f64], pct: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len()) - 1).copied()
}

/// Whether `n` samples leave at least ten beyond percentile `pct`.
pub fn supports(n: usize, pct: f64) -> bool {
    n as f64 * (1.0 - pct / 100.0) >= MIN_BEYOND - 1e-9
}

/// The highest percentile of the ladder that `n` samples support.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().copied().find(|p| supports(n, *p))
}

/// Samples of one kind (latencies in microseconds, mostly).
#[derive(Default)]
pub struct Samples {
    values: Vec<f64>,
    /// Whether `values` is in ascending order.
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sorted(&mut self) -> &[f64] {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        &self.values
    }

    /// The median, or why there is none: fewer than `min` samples.
    pub fn p50(&mut self, what: &str, min: usize) -> Result<f64, String> {
        self.pct(what, 50.0, min)
    }

    /// Percentile `pct`, refused unless at least `min` samples exist and
    /// ten of them lie beyond it. A `min` of 0 waives both (`--smoke`).
    pub fn pct(&mut self, what: &str, pct: f64, min: usize) -> Result<f64, String> {
        let n = self.len();
        if n < min || (min > 0 && !supports(n, pct)) {
            return Err(format!(
                "{what}: {n} samples do not support p{pct} (need {min})"
            ));
        }
        percentile(self.sorted(), pct).ok_or_else(|| format!("{what}: no samples"))
    }

    pub fn max(&mut self) -> Option<f64> {
        self.sorted().last().copied()
    }

    /// Share of samples above `limit`, `extra_misses` counted as above.
    pub fn share_above(&self, limit: f64, extra_misses: u64) -> f64 {
        let above = self.values.iter().filter(|v| **v > limit).count() as u64 + extra_misses;
        above as f64 / (self.values.len() as u64 + extra_misses).max(1) as f64
    }

    /// `p50 <tail> max (n)` for the human-readable report.
    pub fn describe(&mut self) -> String {
        let n = self.len();
        let p = |s: &mut Samples, q| percentile(s.sorted(), q).unwrap_or(f64::NAN);
        let tail = match highest_supported(n) {
            Some(q) => format!("p{q} {:.1}", p(self, q)),
            None => "no tail (under 40 samples)".to_string(),
        };
        format!(
            "p50 {:.1}  {tail}  max {:.1}  (n={n})",
            p(self, 50.0),
            p(self, 100.0)
        )
    }
}

pub fn median(values: &mut [f64]) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    percentile(values, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.9), Some(7.0));
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported(39), None);
        assert_eq!(highest_supported(40), Some(75.0));
        assert_eq!(highest_supported(199), Some(90.0));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(999), Some(95.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(100_000), Some(99.99));
        assert!(supports(20, 50.0) && !supports(19, 50.0));
    }

    #[test]
    fn percentiles_are_refused_without_the_samples() {
        let mut s = Samples::default();
        for i in 0..999 {
            s.push(f64::from(i));
        }
        assert!(s.p50("x", 1000).is_err(), "below the floor");
        assert!(s.p50("x", 100).is_ok());
        assert!(s.pct("x", 99.0, 100).is_err(), "p99 needs 1000 samples");
        assert_eq!(s.pct("x", 99.0, 0), Ok(989.0), "unless the floor is waived");
        s.push(999.0);
        assert_eq!(s.pct("x", 99.0, 100), Ok(989.0));
        assert_eq!(s.p50("x", 1000), Ok(499.0));
        assert_eq!(s.max(), Some(999.0));
    }

    #[test]
    fn failures_count_as_misses() {
        let mut s = Samples::default();
        for v in [1.0, 2.0, 30.0] {
            s.push(v);
        }
        assert_eq!(s.share_above(10.0, 0), 1.0 / 3.0);
        assert_eq!(s.share_above(10.0, 1), 0.5);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
    }
}

//! Weighted streaming moments: the one accumulator behind every estimate.
//!
//! A plain replication contributes its value with weight 1. Importance
//! splitting (RESTART) produces observations that carry likelihood
//! weights: a branch that survived `k` splits of factor `R` contributes
//! its value with weight `R^-k`. [`WeightedStats`] accumulates such
//! `(value, weight)` pairs with a weighted Welford recurrence and reports
//! the weighted mean, the reliability-weights sample variance, and the
//! effective sample size `n_eff = (Σw)² / Σw²` used for t-intervals.
//!
//! At weight 1 the recurrence is the classical unweighted Welford update:
//! `w * delta / w1` multiplies by an exact `1.0` and divides by `Σw`,
//! which equals the count exactly, and `n_eff = n·n/n` is exactly `n`
//! while `n² < 2⁵³`. Plain replications therefore get the textbook
//! `n − 1` degrees of freedom with no separate unweighted code path.

/// Streaming weighted mean/variance/min/max accumulator.
///
/// # Example
///
/// ```
/// use itua_stats::weighted::WeightedStats;
///
/// let mut s = WeightedStats::new();
/// s.push(1.0, 0.25);
/// s.push(0.0, 0.75);
/// assert!((s.mean() - 0.25).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedStats {
    count: u64,
    w1: f64,
    w2: f64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl WeightedStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        WeightedStats {
            count: 0,
            w1: 0.0,
            w2: 0.0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation of `x` carrying weight `w`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN or `w` is not a finite positive number (a NaN
    /// observation or a bad weight silently corrupts every later
    /// statistic, so it is rejected loudly).
    pub fn push(&mut self, x: f64, w: f64) {
        assert!(!x.is_nan(), "NaN observation");
        assert!(
            w.is_finite() && w > 0.0,
            "weight must be finite and > 0, got {w}"
        );
        self.count += 1;
        self.w1 += w;
        self.w2 += w * w;
        let delta = x - self.mean;
        self.mean += w * delta / self.w1;
        let delta2 = x - self.mean;
        self.m2 += w * delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations pushed so far (unweighted count).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Effective sample size `(Σw)² / Σw²` (0 when empty). Equals
    /// [`WeightedStats::count`] when every weight is identical.
    pub fn n_eff(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.w1 * self.w1 / self.w2
        }
    }

    /// Weighted sample mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased (reliability-weights) sample variance
    /// `Σw(x-mean)² / (Σw − Σw²/Σw)`; `None` with fewer than two
    /// observations. At weight 1 this is `Σ(x-mean)² / (n − 1)`.
    pub fn sample_variance(&self) -> Option<f64> {
        if self.count < 2 {
            None
        } else {
            Some(self.m2 / (self.w1 - self.w2 / self.w1))
        }
    }

    /// Standard error of the weighted mean, `sqrt(variance / n_eff)`;
    /// `None` with fewer than two observations.
    pub fn std_error(&self) -> Option<f64> {
        self.sample_variance().map(|v| (v / self.n_eff()).sqrt())
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

impl Default for WeightedStats {
    fn default() -> Self {
        // Careful: a derived Default would set min/max to 0.0 rather than
        // the identity elements of min/max.
        WeightedStats::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats() {
        let s = WeightedStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.n_eff(), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn weighted_mean_matches_direct_computation() {
        let data = [(2.0, 0.5), (4.0, 1.5), (10.0, 0.25), (-1.0, 3.0)];
        let mut s = WeightedStats::new();
        for (x, w) in data {
            s.push(x, w);
        }
        let wsum: f64 = data.iter().map(|(_, w)| w).sum();
        let mean = data.iter().map(|(x, w)| x * w).sum::<f64>() / wsum;
        assert!((s.mean() - mean).abs() < 1e-12);
        let m2 = data
            .iter()
            .map(|(x, w)| w * (x - mean).powi(2))
            .sum::<f64>();
        let w2: f64 = data.iter().map(|(_, w)| w * w).sum();
        let var = m2 / (wsum - w2 / wsum);
        assert!((s.sample_variance().unwrap() - var).abs() < 1e-12);
    }

    #[test]
    fn n_eff_equals_count_for_equal_weights() {
        let mut s = WeightedStats::new();
        for i in 0..100 {
            s.push(i as f64, 0.25);
        }
        assert!((s.n_eff() - 100.0).abs() < 1e-9);
    }

    /// Pushes every value at weight 1, as a plain replication does.
    fn unit_weights(xs: impl IntoIterator<Item = f64>) -> WeightedStats {
        let mut s = WeightedStats::new();
        for x in xs {
            s.push(x, 1.0);
        }
        s
    }

    #[test]
    fn single_observation() {
        let s = unit_weights([3.5]);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.sample_variance(), None);
        assert_eq!(s.std_error(), None);
        assert_eq!(s.n_eff(), 1.0);
        assert_eq!(s.min(), Some(3.5));
        assert_eq!(s.max(), Some(3.5));
    }

    #[test]
    fn matches_naive_two_pass() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).sin() + 10.0).collect();
        let s = unit_weights(xs.iter().copied());
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.sample_variance().unwrap() - var).abs() < 1e-12);
        assert_eq!(s.n_eff(), 1000.0);
    }

    #[test]
    fn stable_for_large_offset() {
        // Classic catastrophic-cancellation case for naive algorithms.
        let offset = 1e9;
        let s = unit_weights([offset + 4.0, offset + 7.0, offset + 13.0, offset + 16.0]);
        assert!((s.sample_variance().unwrap() - 30.0).abs() < 1e-6);
    }

    #[test]
    fn std_error_shrinks_with_n() {
        let mut s = unit_weights((0..100).map(|i| (i % 2) as f64));
        let se100 = s.std_error().unwrap();
        for i in 0..900 {
            s.push((i % 2) as f64, 1.0);
        }
        let se1000 = s.std_error().unwrap();
        assert!(se1000 < se100);
    }

    #[test]
    #[should_panic]
    fn nan_rejected() {
        WeightedStats::new().push(f64::NAN, 1.0);
    }

    #[test]
    #[should_panic]
    fn zero_weight_rejected() {
        WeightedStats::new().push(1.0, 0.0);
    }

    #[test]
    #[should_panic]
    fn negative_weight_rejected() {
        WeightedStats::new().push(1.0, -0.5);
    }

    #[test]
    #[should_panic]
    fn infinite_weight_rejected() {
        WeightedStats::new().push(1.0, f64::INFINITY);
    }
}

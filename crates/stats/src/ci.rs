//! Confidence intervals over replicate observations.

use crate::tdist::t_quantile;
use crate::weighted::WeightedStats;
use std::fmt;

/// Error returned when a confidence interval cannot be formed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CiError {
    /// Fewer than two observations.
    TooFewObservations,
    /// Confidence level outside (0, 1).
    BadLevel,
}

impl fmt::Display for CiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CiError::TooFewObservations => write!(f, "need at least two observations"),
            CiError::BadLevel => write!(f, "confidence level must be in (0, 1)"),
        }
    }
}

impl std::error::Error for CiError {}

/// A Student-t confidence interval for a mean.
///
/// # Example
///
/// ```
/// use itua_stats::ci::ConfidenceInterval;
/// let ci = ConfidenceInterval::from_observations(&[1.0, 2.0, 3.0], 0.95).unwrap();
/// assert_eq!(ci.mean, 2.0);
/// assert!(ci.contains(2.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate (sample mean).
    pub mean: f64,
    /// Half-width of the interval at the requested level.
    pub half_width: f64,
    /// Number of observations.
    pub n: u64,
    /// Confidence level, e.g. `0.95`.
    pub level: f64,
}

impl ConfidenceInterval {
    /// Builds an interval from raw observations, each counted once
    /// (weight 1).
    ///
    /// # Errors
    ///
    /// Returns [`CiError::TooFewObservations`] with fewer than two
    /// observations and [`CiError::BadLevel`] for a level outside `(0, 1)`.
    pub fn from_observations(obs: &[f64], level: f64) -> Result<Self, CiError> {
        let mut stats = WeightedStats::new();
        for &x in obs {
            stats.push(x, 1.0);
        }
        Self::from_stats(&stats, level)
    }

    /// Builds an interval from an accumulated [`WeightedStats`], using the
    /// effective sample size `n_eff = (Σw)² / Σw²` for the t-distribution's
    /// degrees of freedom (clamped to at least 1). `n` reports the raw
    /// observation count. At weight 1, `n_eff` is the count exactly, so
    /// this is the classical interval with `n − 1` degrees of freedom (the
    /// clamp is inactive since `n − 1 >= 1` at `n >= 2`).
    ///
    /// # Errors
    ///
    /// Same as [`ConfidenceInterval::from_observations`].
    pub fn from_stats(stats: &WeightedStats, level: f64) -> Result<Self, CiError> {
        if !(0.0..1.0).contains(&level) || level <= 0.0 {
            return Err(CiError::BadLevel);
        }
        let n = stats.count();
        if n < 2 {
            return Err(CiError::TooFewObservations);
        }
        let se = stats.std_error().expect("n >= 2");
        let df = (stats.n_eff() - 1.0).max(1.0);
        let t = t_quantile(0.5 + level / 2.0, df);
        Ok(ConfidenceInterval {
            mean: stats.mean(),
            half_width: t * se,
            n,
            level,
        })
    }

    /// Lower endpoint.
    pub fn low(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper endpoint.
    pub fn high(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Whether `value` lies within the interval.
    pub fn contains(&self, value: f64) -> bool {
        value >= self.low() && value <= self.high()
    }

    /// Whether this interval overlaps `other`.
    pub fn overlaps(&self, other: &ConfidenceInterval) -> bool {
        self.low() <= other.high() && other.low() <= self.high()
    }
}

impl fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.6} ± {:.6} ({}% CI, n = {})",
            self.mean,
            self.half_width,
            self.level * 100.0,
            self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_interval() {
        // Sample 1..=5: mean 3, sd sqrt(2.5), se sqrt(0.5), t(0.975, 4) ≈ 2.7764
        let ci = ConfidenceInterval::from_observations(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.95).unwrap();
        assert_eq!(ci.mean, 3.0);
        let expected_hw = 2.776_445_104_9 * (0.5f64).sqrt();
        assert!((ci.half_width - expected_hw).abs() < 1e-6);
        assert!(ci.contains(3.0));
        assert!(!ci.contains(10.0));
    }

    #[test]
    fn rejects_bad_inputs() {
        assert_eq!(
            ConfidenceInterval::from_observations(&[1.0], 0.95),
            Err(CiError::TooFewObservations)
        );
        assert_eq!(
            ConfidenceInterval::from_observations(&[1.0, 2.0], 1.5),
            Err(CiError::BadLevel)
        );
        assert_eq!(
            ConfidenceInterval::from_observations(&[1.0, 2.0], 0.0),
            Err(CiError::BadLevel)
        );
    }

    #[test]
    fn wider_at_higher_level() {
        let obs = [1.0, 2.0, 3.0, 4.0];
        let c90 = ConfidenceInterval::from_observations(&obs, 0.90).unwrap();
        let c99 = ConfidenceInterval::from_observations(&obs, 0.99).unwrap();
        assert!(c99.half_width > c90.half_width);
    }

    #[test]
    fn overlap_logic() {
        let a = ConfidenceInterval {
            mean: 1.0,
            half_width: 0.5,
            n: 10,
            level: 0.95,
        };
        let b = ConfidenceInterval {
            mean: 1.4,
            half_width: 0.2,
            n: 10,
            level: 0.95,
        };
        let c = ConfidenceInterval {
            mean: 3.0,
            half_width: 0.5,
            n: 10,
            level: 0.95,
        };
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn zero_variance_interval_is_degenerate() {
        let ci = ConfidenceInterval::from_observations(&[2.0, 2.0, 2.0], 0.95).unwrap();
        assert_eq!(ci.mean, 2.0);
        assert_eq!(ci.half_width, 0.0);
        assert!(ci.contains(2.0));
    }

    #[test]
    fn coverage_simulation() {
        // 95% CI over exponential samples should cover the true mean ~95%
        // of the time. Crude check with wide tolerance.
        use itua_sim::rng::Rng;
        let mut covered = 0;
        let trials = 400;
        for t in 0..trials {
            let mut rng = Rng::seed_from_u64(1000 + t);
            let obs: Vec<f64> = (0..30).map(|_| -rng.next_f64_open().ln()).collect();
            let ci = ConfidenceInterval::from_observations(&obs, 0.95).unwrap();
            if ci.contains(1.0) {
                covered += 1;
            }
        }
        let rate = covered as f64 / trials as f64;
        assert!(rate > 0.90 && rate <= 1.0, "coverage {rate}");
    }

    #[test]
    fn display_is_informative() {
        let ci = ConfidenceInterval::from_observations(&[1.0, 2.0, 3.0], 0.95).unwrap();
        let s = format!("{ci}");
        assert!(s.contains("95%"));
        assert!(s.contains("n = 3"));
    }
}

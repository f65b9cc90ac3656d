//! Replication-based estimation of many measures at once.
//!
//! Möbius estimates every reward variable of a study from `n` independent
//! simulation replications and reports mean ± t-interval. The
//! [`ReplicationEstimator`] does the same: each replication produces one
//! observation per named measure (or none, for event-conditioned measures
//! such as "fraction of corrupt hosts in an excluded domain", which produce
//! an observation only if the triggering event happened). A plain
//! replication records at weight 1; an importance-splitting tree records
//! its weighted observations into the same [`WeightedStats`] accumulators.

use crate::ci::{CiError, ConfidenceInterval};
use crate::weighted::WeightedStats;
use std::collections::BTreeMap;

/// A finished estimate for one measure.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Measure name.
    pub name: String,
    /// Point estimate and interval.
    pub ci: ConfidenceInterval,
    /// Smallest observation seen.
    pub min: f64,
    /// Largest observation seen.
    pub max: f64,
}

/// Collects per-replication observations for a set of named measures.
///
/// # Example
///
/// ```
/// use itua_stats::replication::ReplicationEstimator;
///
/// let mut est = ReplicationEstimator::new(0.95);
/// for rep in 0..100 {
///     est.record("throughput", 10.0 + (rep % 5) as f64);
/// }
/// let estimate = est.estimate("throughput").unwrap();
/// assert!((estimate.ci.mean - 12.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct ReplicationEstimator {
    level: f64,
    measures: BTreeMap<String, WeightedStats>,
}

impl ReplicationEstimator {
    /// Creates an estimator that reports intervals at `level` confidence
    /// (e.g. `0.95`).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < level < 1`.
    pub fn new(level: f64) -> Self {
        assert!(level > 0.0 && level < 1.0, "confidence level in (0,1)");
        ReplicationEstimator {
            level,
            measures: BTreeMap::new(),
        }
    }

    /// Records one observation of `measure` (weight 1).
    pub fn record(&mut self, measure: &str, value: f64) {
        self.record_weighted(measure, value, 1.0);
    }

    /// Records one observation of `measure` carrying likelihood `weight`.
    /// The name is copied only the first time `measure` is seen.
    ///
    /// # Panics
    ///
    /// Panics when `weight` is not a finite positive number.
    pub fn record_weighted(&mut self, measure: &str, value: f64, weight: f64) {
        if let Some(stats) = self.measures.get_mut(measure) {
            stats.push(value, weight);
        } else {
            self.measures
                .entry(measure.to_owned())
                .or_default()
                .push(value, weight);
        }
    }

    /// Records an exact (zero-variance) value for `measure`, as produced by
    /// an analytic solver rather than a stochastic replication.
    ///
    /// The value is recorded twice: [`ConfidenceInterval`] requires n ≥ 2,
    /// and a repeated observation makes Welford's variance accumulator
    /// exactly zero, so the estimate comes out as `value ± 0` with
    /// `min == max == value` bitwise. Downstream consumers need no special
    /// case — the degenerate `n == 2` sample flags the estimate as exact.
    pub fn record_exact(&mut self, measure: &str, value: f64) {
        self.record(measure, value);
        self.record(measure, value);
    }

    /// Number of observations recorded for `measure`.
    pub fn count(&self, measure: &str) -> u64 {
        self.measures.get(measure).map_or(0, WeightedStats::count)
    }

    /// Computes the estimate for one measure.
    ///
    /// # Errors
    ///
    /// Returns [`CiError::TooFewObservations`] if the measure has fewer than
    /// two observations (or none at all).
    pub fn estimate(&self, measure: &str) -> Result<Estimate, CiError> {
        let stats = self
            .measures
            .get(measure)
            .ok_or(CiError::TooFewObservations)?;
        let ci = ConfidenceInterval::from_stats(stats, self.level)?;
        Ok(Estimate {
            name: measure.to_owned(),
            ci,
            min: stats.min().expect("n >= 2"),
            max: stats.max().expect("n >= 2"),
        })
    }

    /// Computes estimates for every measure with at least two observations,
    /// sorted by name.
    pub fn estimates(&self) -> Vec<Estimate> {
        self.measures
            .keys()
            .filter_map(|name| self.estimate(name).ok())
            .collect()
    }

    /// The confidence level used for all intervals.
    pub fn level(&self) -> f64 {
        self.level
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_estimates() {
        let mut est = ReplicationEstimator::new(0.95);
        for x in [1.0, 2.0, 3.0] {
            est.record("m", x);
        }
        let e = est.estimate("m").unwrap();
        assert_eq!(e.ci.mean, 2.0);
        assert_eq!(e.min, 1.0);
        assert_eq!(e.max, 3.0);
        assert_eq!(e.ci.n, 3);
    }

    #[test]
    fn record_exact_yields_zero_width_interval() {
        let mut est = ReplicationEstimator::new(0.95);
        let value = 0.123_456_789_012_345f64;
        est.record_exact("exact", value);
        let e = est.estimate("exact").unwrap();
        assert_eq!(e.ci.mean, value);
        assert_eq!(e.ci.half_width, 0.0);
        assert_eq!(e.min, value);
        assert_eq!(e.max, value);
        assert_eq!(e.ci.n, 2);
    }

    #[test]
    fn missing_measure_errors() {
        let est = ReplicationEstimator::new(0.95);
        assert!(est.estimate("nope").is_err());
        assert_eq!(est.count("nope"), 0);
    }

    #[test]
    fn conditional_measures_can_have_fewer_observations() {
        let mut est = ReplicationEstimator::new(0.95);
        for i in 0..10 {
            est.record("always", i as f64);
            if i % 3 == 0 {
                est.record("sometimes", 1.0);
            }
        }
        assert_eq!(est.count("always"), 10);
        assert_eq!(est.count("sometimes"), 4);
    }

    #[test]
    fn estimates_sorted_by_name() {
        let mut est = ReplicationEstimator::new(0.9);
        for x in [1.0, 2.0] {
            est.record("zeta", x);
            est.record("alpha", x);
        }
        let all = est.estimates();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].name, "alpha");
        assert_eq!(all[1].name, "zeta");
    }

    #[test]
    #[should_panic]
    fn bad_level_panics() {
        let _ = ReplicationEstimator::new(1.0);
    }

    #[test]
    fn weighted_estimator_records_and_estimates() {
        let mut est = ReplicationEstimator::new(0.95);
        est.record_weighted("m", 1.0, 0.5);
        est.record_weighted("m", 2.0, 1.0);
        est.record_weighted("m", 3.0, 0.5);
        let e = est.estimate("m").unwrap();
        assert_eq!(e.ci.mean, 2.0);
        assert_eq!(e.min, 1.0);
        assert_eq!(e.max, 3.0);
        assert_eq!(e.ci.n, 3);
        assert_eq!(est.count("m"), 3);
        assert_eq!(est.estimates().len(), 1);
    }
}

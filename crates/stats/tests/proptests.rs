//! Property-based tests for the statistics crate.

use itua_stats::tdist::{t_cdf, t_quantile};
use itua_stats::timeweighted::TimeWeighted;
use itua_stats::weighted::WeightedStats;
use proptest::prelude::*;

proptest! {
    /// Welford at weight 1 matches the naive two-pass computation.
    #[test]
    fn welford_matches_two_pass(xs in prop::collection::vec(-1e6f64..1e6, 2..200)) {
        let mut s = WeightedStats::new();
        for &x in &xs {
            s.push(x, 1.0);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        let scale = 1.0 + mean.abs() + var.abs();
        prop_assert!((s.mean() - mean).abs() / scale < 1e-9);
        prop_assert!((s.sample_variance().unwrap() - var).abs() / scale.powi(2) < 1e-6);
        prop_assert_eq!(s.n_eff(), xs.len() as f64);
        prop_assert_eq!(s.min().unwrap(), xs.iter().copied().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(s.max().unwrap(), xs.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    }

    /// Weighted Welford under random weights matches the two-pass
    /// weighted mean, reliability-weights variance and effective sample
    /// size.
    #[test]
    fn weighted_welford_matches_two_pass(
        data in prop::collection::vec((-1e6f64..1e6, 1e-3f64..1e3), 2..200),
    ) {
        let mut s = WeightedStats::new();
        for &(x, w) in &data {
            s.push(x, w);
        }
        let w1: f64 = data.iter().map(|(_, w)| w).sum();
        let w2: f64 = data.iter().map(|(_, w)| w * w).sum();
        let mean = data.iter().map(|(x, w)| w * x).sum::<f64>() / w1;
        let m2: f64 = data.iter().map(|(x, w)| w * (x - mean).powi(2)).sum();
        let var = m2 / (w1 - w2 / w1);
        let scale = 1.0 + mean.abs() + var.abs();
        prop_assert!((s.mean() - mean).abs() / scale < 1e-9);
        prop_assert!((s.sample_variance().unwrap() - var).abs() / scale.powi(2) < 1e-6);
        prop_assert!((s.n_eff() - w1 * w1 / w2).abs() < 1e-9 * data.len() as f64);
        prop_assert_eq!(s.count(), data.len() as u64);
    }

    /// The t quantile is monotone in p and inverts the CDF.
    #[test]
    fn t_quantile_monotone_and_inverse(df in 1.0f64..200.0, p in 0.01f64..0.99) {
        let q = t_quantile(p, df);
        prop_assert!((t_cdf(q, df) - p).abs() < 1e-8);
        let q2 = t_quantile((p + 0.005).min(0.995), df);
        prop_assert!(q2 >= q);
    }

    /// The time-weighted mean lies between the extreme levels.
    #[test]
    fn timeweighted_mean_bounded(
        levels in prop::collection::vec(0.0f64..100.0, 1..50),
        gaps in prop::collection::vec(1e-3f64..10.0, 1..50),
    ) {
        let mut tw = TimeWeighted::new(0.0, levels[0]);
        let mut t = 0.0;
        for (lvl, gap) in levels.iter().skip(1).zip(&gaps) {
            t += gap;
            tw.set(t, *lvl);
        }
        let end = t + 1.0;
        let mean = tw.mean_until(end);
        let lo = levels.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = levels.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(mean >= lo - 1e-9 && mean <= hi + 1e-9);
    }
}

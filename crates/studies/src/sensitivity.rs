//! Parameter-sensitivity study.
//!
//! Section 4 of the paper notes: "In the following studies, we have also
//! tried to explore the system's sensitivity to variations in these
//! parameters." This module makes that exploration a first-class study:
//! one-at-a-time sweeps of the main defense parameters around the paper's
//! baseline, reporting unavailability and unreliability at the 5-hour
//! horizon.
//!
//! Swept parameters:
//!
//! * IDS replica detection probability (paper baseline 0.80),
//! * IDS host detection probabilities (scaled jointly; baseline
//!   0.90/0.75/0.40),
//! * IDS detection latency rate (this repository's calibrated 0.15/h),
//! * misbehavior (group-conviction) rate (baseline 2/h),
//! * false-alarm rate (baseline 2/h cumulative).

use crate::study::Study;
use crate::sweep::{FigureResult, Panel, Series, SweepPoint};
use itua_core::measures::names;
use itua_core::params::Params;

/// Baseline configuration of the study (the paper's §4 defaults).
pub fn baseline() -> Params {
    Params::default()
        .with_domains(10, 3)
        .with_applications(4, 7)
}

/// Horizon of the study (hours).
pub const HORIZON: f64 = 5.0;

/// Relative scale factors applied to each swept parameter.
pub const SCALES: [f64; 5] = [0.25, 0.5, 1.0, 2.0, 4.0];

fn clamp_prob(p: f64) -> f64 {
    p.clamp(0.0, 1.0)
}

/// The sweep points: each series varies one parameter by the scale on the
/// x-axis, all else at baseline.
pub fn points() -> Vec<SweepPoint> {
    let mut pts = Vec::new();
    for &scale in &SCALES {
        // Replica detection probability.
        let mut p = baseline();
        p.detect_replica = clamp_prob(p.detect_replica * scale);
        pts.push(point(scale, "replica detection prob", p));

        // Host detection probabilities (all three categories jointly).
        let mut p = baseline();
        p.attack_mix.detect_script = clamp_prob(p.attack_mix.detect_script * scale);
        p.attack_mix.detect_exploratory = clamp_prob(p.attack_mix.detect_exploratory * scale);
        p.attack_mix.detect_innovative = clamp_prob(p.attack_mix.detect_innovative * scale);
        pts.push(point(scale, "host detection probs", p));

        // IDS latency rate.
        let mut p = baseline();
        p.ids_rate *= scale;
        pts.push(point(scale, "IDS detection rate", p));

        // Group-conviction (misbehavior) rate.
        let mut p = baseline();
        p.misbehave_rate *= scale;
        pts.push(point(scale, "misbehavior rate", p));

        // False-alarm rate.
        let mut p = baseline();
        p.false_alarm_rate *= scale;
        pts.push(point(scale, "false-alarm rate", p));
    }
    pts
}

fn point(scale: f64, series: &str, params: Params) -> SweepPoint {
    SweepPoint {
        x: scale,
        series: series.to_owned(),
        params,
        horizon: HORIZON,
        sample_times: vec![],
    }
}

/// The declarative descriptor of this study; the scenario registry runs
/// it as a built-in scenario.
pub const STUDY: Study = Study {
    id: "sensitivity",
    description: "One-at-a-time sensitivity of the §4 baseline parameters",
    points,
    micro_points: None,
    measures,
    render,
};

/// The measure keys the study extracts.
pub fn measures() -> Vec<String> {
    vec![
        names::UNAVAILABILITY.to_owned(),
        names::UNRELIABILITY.to_owned(),
    ]
}

/// Renders the extracted series as the study's two panels.
pub fn render(all: &[Series]) -> FigureResult {
    let take = |measure: &str| -> Vec<Series> {
        all.iter()
            .filter(|s| s.measure == measure)
            .cloned()
            .collect()
    };
    FigureResult {
        id: "Sensitivity".into(),
        title: "One-at-a-time sensitivity of the §4 baseline (first 5 hours)".into(),
        x_label: "Parameter scale (×baseline)".into(),
        panels: vec![
            Panel {
                id: "S-a".into(),
                title: "Unavailability".into(),
                series: take(names::UNAVAILABILITY),
            },
            Panel {
                id: "S-b".into(),
                title: "Unreliability".into(),
                series: take(names::UNRELIABILITY),
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_five_parameters() {
        let pts = points();
        assert_eq!(pts.len(), SCALES.len() * 5);
        for p in &pts {
            p.params.validate().unwrap();
        }
        let series: std::collections::BTreeSet<_> = pts.iter().map(|p| p.series.clone()).collect();
        assert_eq!(series.len(), 5);
    }

    #[test]
    fn probabilities_stay_clamped() {
        for p in points() {
            assert!(p.params.detect_replica <= 1.0);
            assert!(p.params.attack_mix.detect_script <= 1.0);
        }
    }

    #[test]
    fn small_run_has_two_panels() {
        let fig = STUDY.run_small(5);
        assert_eq!(fig.panels.len(), 2);
        assert_eq!(fig.panels[0].series.len(), 5);
    }

    #[test]
    fn baseline_scale_is_identical_across_series() {
        // At scale 1.0 every series uses the same parameters, so the
        // (seeded) estimates of a given measure must agree across series.
        use crate::sweep::{run_sweep, RunOpts, SweepConfig};
        let cfg = SweepConfig {
            replications: 40,
            ..Default::default()
        };
        let pts: Vec<_> = points().into_iter().filter(|p| p.x == 1.0).collect();
        let opts = RunOpts::default();
        let series = run_sweep(STUDY.id, &pts, &cfg, &["unavailability"], &[], &opts).unwrap();
        // Different series are run with different point indices (seeds),
        // so we only check they are close, not identical.
        let means: Vec<f64> = series.iter().map(|s| s.points[0].1.mean).collect();
        let lo = means.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = means.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            hi - lo < 0.05,
            "baseline estimates spread too far: {means:?}"
        );
    }
}

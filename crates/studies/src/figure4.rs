//! Figure 4 (§4.2): different numbers of hosts in a constant 10 domains.
//!
//! 10 domains with 1–4 hosts each, 4 applications × 7 replicas. Panels:
//!
//! * (a) unavailability for `[0,5]` and `[0,10]`,
//! * (b) unreliability for `[0,5]` and `[0,10]`,
//! * (c) fraction of corrupt hosts in an excluded domain (long-run),
//! * (d) fraction of domains excluded at t = 5 and t = 10.

use crate::study::Study;
use crate::sweep::{FigureResult, Panel, Series, SweepPoint};
use itua_core::measures::names;
use itua_core::params::Params;

/// Number of security domains.
pub const NUM_DOMAINS: usize = 10;
/// Hosts-per-domain values on the x-axis.
pub const HOSTS_PER_DOMAIN: [usize; 4] = [1, 2, 3, 4];
/// Applications in the study.
pub const NUM_APPS: usize = 4;
/// Replicas per application.
pub const REPS_PER_APP: usize = 7;
/// The two intervals compared (hours). The long horizon also serves as the
/// "steady state" proxy for panel (c).
pub const HORIZONS: [f64; 2] = [5.0, 10.0];
/// Horizon used for the long-run (steady-state proxy) panel (c).
pub const LONG_HORIZON: f64 = 30.0;

/// Sweep points: one per (hosts-per-domain, horizon), plus a long-horizon
/// point per hosts-per-domain for panel (c).
pub fn points() -> Vec<SweepPoint> {
    let mut pts = Vec::new();
    for &hpd in &HOSTS_PER_DOMAIN {
        let params = Params::default()
            .with_domains(NUM_DOMAINS, hpd)
            .with_applications(NUM_APPS, REPS_PER_APP);
        for &h in &HORIZONS {
            pts.push(SweepPoint {
                x: hpd as f64,
                series: format!("for interval [0, {h:.0}]"),
                params: params.clone(),
                horizon: h,
                sample_times: vec![h],
            });
        }
        pts.push(SweepPoint {
            x: hpd as f64,
            series: "steady state".into(),
            params,
            horizon: LONG_HORIZON,
            sample_times: vec![],
        });
    }
    pts
}

/// Domains in the exact/exhaustive micro variant.
pub const MICRO_NUM_DOMAINS: usize = 1;
/// Hosts-per-domain values in the micro variant.
pub const MICRO_HOSTS_PER_DOMAIN: [usize; 2] = [1, 2];

/// Figure-4-shaped micro variant: 1–2 hosts in a constant single domain
/// with one application of two replicas. Same x-axis meaning, horizons,
/// and measures as the full study, but small enough for the analytic
/// backend to solve exactly and for the exhaustive reachability checker
/// to prove properties over every reachable marking (two hosts in two
/// domains is already past a million states).
pub fn micro_points() -> Vec<SweepPoint> {
    let mut pts = Vec::new();
    for &hpd in &MICRO_HOSTS_PER_DOMAIN {
        let params = Params::default()
            .with_domains(MICRO_NUM_DOMAINS, hpd)
            .with_applications(1, 2);
        for &h in &HORIZONS {
            pts.push(SweepPoint {
                x: hpd as f64,
                series: format!("for interval [0, {h:.0}]"),
                params: params.clone(),
                horizon: h,
                sample_times: vec![h],
            });
        }
        pts.push(SweepPoint {
            x: hpd as f64,
            series: "steady state".into(),
            params,
            horizon: LONG_HORIZON,
            sample_times: vec![],
        });
    }
    pts
}

/// The declarative descriptor of this study; the scenario registry runs
/// it as a built-in scenario.
pub const STUDY: Study = Study {
    id: "figure4",
    description: "Figure 4 (§4.2): 1–4 hosts in a constant 10 domains",
    points,
    micro_points: Some(micro_points),
    measures,
    render,
};

/// The measure keys the study extracts.
pub fn measures() -> Vec<String> {
    vec![
        names::UNAVAILABILITY.to_owned(),
        names::UNRELIABILITY.to_owned(),
        names::FRAC_CORRUPT_AT_EXCLUSION.to_owned(),
        format!("{}@{}", names::FRAC_DOMAINS_EXCLUDED, HORIZONS[0]),
        format!("{}@{}", names::FRAC_DOMAINS_EXCLUDED, HORIZONS[1]),
    ]
}

/// Renders the extracted series as the figure's four panels.
pub fn render(all: &[Series]) -> FigureResult {
    let excl5 = format!("{}@{}", names::FRAC_DOMAINS_EXCLUDED, HORIZONS[0]);
    let excl10 = format!("{}@{}", names::FRAC_DOMAINS_EXCLUDED, HORIZONS[1]);

    let take = |measure: &str, series_filter: &dyn Fn(&str) -> bool| -> Vec<Series> {
        all.iter()
            .filter(|s| s.measure == measure && series_filter(&s.name))
            .cloned()
            .collect()
    };
    let intervals = |name: &str| name.starts_with("for interval");

    // Panel (d): each interval series samples at its own horizon, so the
    // t = 5 samples live in the [0,5] runs and t = 10 in the [0,10] runs.
    let mut excluded_series = take(&excl5, &intervals);
    excluded_series.extend(take(&excl10, &intervals));
    for s in &mut excluded_series {
        s.name = if s.measure.ends_with("@5") {
            "at time 5".into()
        } else {
            "at time 10".into()
        };
    }

    FigureResult {
        id: "Figure 4".into(),
        title: "Variations in measures for different numbers of hosts in 10 domains".into(),
        x_label: "Number of hosts per domain".into(),
        panels: vec![
            Panel {
                id: "4a".into(),
                title: "Unavailability".into(),
                series: take(names::UNAVAILABILITY, &intervals),
            },
            Panel {
                id: "4b".into(),
                title: "Unreliability".into(),
                series: take(names::UNRELIABILITY, &intervals),
            },
            Panel {
                id: "4c".into(),
                title: "Fraction of hosts corrupt in excluded domains (steady state)".into(),
                series: take(names::FRAC_CORRUPT_AT_EXCLUSION, &|n| n == "steady state"),
            },
            Panel {
                id: "4d".into(),
                title: "Fraction of domains excluded".into(),
                series: excluded_series,
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itua_runner::backend::BackendKind;

    #[test]
    fn study_covers_grid() {
        let pts = points();
        // 4 hosts-per-domain × (2 horizons + 1 long run).
        assert_eq!(pts.len(), 12);
        for p in &pts {
            assert_eq!(p.params.num_domains, NUM_DOMAINS);
            p.params.validate().unwrap();
        }
    }

    #[test]
    fn total_hosts_varies_with_x() {
        let pts = points();
        let hosts: Vec<usize> = pts
            .iter()
            .filter(|p| p.series == "steady state")
            .map(|p| p.params.total_hosts())
            .collect();
        assert_eq!(hosts, vec![10, 20, 30, 40]);
    }

    #[test]
    fn micro_variant_is_figure_shaped_and_tiny() {
        let pts = micro_points();
        // 2 hosts-per-domain values × (2 horizons + 1 long run).
        assert_eq!(pts.len(), 6);
        for p in &pts {
            assert_eq!(p.params.num_domains, MICRO_NUM_DOMAINS);
            assert!(p.params.total_hosts() <= 2);
            p.params.validate().unwrap();
        }
        assert_eq!(STUDY.points_for(BackendKind::Analytic).len(), 6);
        assert_eq!(STUDY.points_for(BackendKind::Des).len(), 12);
    }

    #[test]
    fn small_run_produces_panels() {
        let fig = STUDY.run_small(5);
        assert_eq!(fig.panels.len(), 4);
        assert_eq!(fig.panels[0].series.len(), 2); // [0,5] and [0,10]
        assert_eq!(fig.panels[3].series.len(), 2); // t=5 and t=10
        for s in &fig.panels[3].series {
            assert!(s.name == "at time 5" || s.name == "at time 10");
        }
    }
}

//! Figure 3 (§4.1): different distributions of 12 hosts into domains.
//!
//! 12 hosts are split into 12, 6, 4, 3, 2, or 1 domains (x-axis: hosts per
//! domain = 1, 2, 3, 4, 6, 12) for 2, 4, 6, and 8 applications of 7
//! replicas each. Four panels over the first 5 hours:
//!
//! * (a) unavailability,
//! * (b) unreliability,
//! * (c) fraction of corrupt hosts in an excluded domain,
//! * (d) fraction of domains excluded at t = 5.

use crate::study::Study;
use crate::sweep::{FigureResult, Panel, Series, SweepPoint};
use itua_core::measures::names;
use itua_core::params::Params;

/// Total hosts in the study.
pub const TOTAL_HOSTS: usize = 12;
/// Hosts-per-domain values on the x-axis.
pub const HOSTS_PER_DOMAIN: [usize; 6] = [1, 2, 3, 4, 6, 12];
/// Application counts (one series each).
pub const APP_COUNTS: [usize; 4] = [2, 4, 6, 8];
/// Replicas per application.
pub const REPS_PER_APP: usize = 7;
/// Study horizon (hours).
pub const HORIZON: f64 = 5.0;

/// The sweep points of the study.
pub fn points() -> Vec<SweepPoint> {
    let mut pts = Vec::new();
    for &apps in &APP_COUNTS {
        for &hpd in &HOSTS_PER_DOMAIN {
            let domains = TOTAL_HOSTS / hpd;
            pts.push(SweepPoint {
                x: hpd as f64,
                series: format!("{apps} applications"),
                params: Params::default()
                    .with_domains(domains, hpd)
                    .with_applications(apps, REPS_PER_APP),
                horizon: HORIZON,
                sample_times: vec![HORIZON],
            });
        }
    }
    pts
}

/// Total hosts in the analytic (exact CTMC) variant of the study.
pub const MICRO_TOTAL_HOSTS: usize = 2;

/// The sweep points of the exact-solution variant: 2 hosts split into 2
/// or 1 domains, for 1 application of 2 replicas and 2 applications of 1
/// replica. Figure-3-shaped in every way — same measures, same horizon,
/// same x-axis meaning — but small enough for the analytic backend to
/// flatten into a tangible CTMC (tens of thousands of states) and solve
/// exactly. The full 12-host study is far beyond any exact solver; that
/// is what the simulation backends are for.
pub fn micro_points() -> Vec<SweepPoint> {
    let mut pts = Vec::new();
    for (apps, reps) in [(1, 2), (2, 1)] {
        for hpd in [1, 2] {
            let domains = MICRO_TOTAL_HOSTS / hpd;
            pts.push(SweepPoint {
                x: hpd as f64,
                series: format!("{apps} application{}", if apps == 1 { "" } else { "s" }),
                params: Params::default()
                    .with_domains(domains, hpd)
                    .with_applications(apps, reps),
                horizon: HORIZON,
                sample_times: vec![HORIZON],
            });
        }
    }
    pts
}

/// The declarative descriptor of this study; the scenario registry runs
/// it as a built-in scenario.
pub const STUDY: Study = Study {
    id: "figure3",
    description: "Figure 3 (§4.1): distributions of 12 hosts into domains",
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
        format!("{}@{}", names::FRAC_DOMAINS_EXCLUDED, HORIZON),
    ]
}

/// Renders the extracted series as the figure's four panels.
pub fn render(all: &[Series]) -> FigureResult {
    let excluded_at_5 = format!("{}@{}", names::FRAC_DOMAINS_EXCLUDED, HORIZON);
    let take = |measure: &str| -> Vec<Series> {
        all.iter()
            .filter(|s| s.measure == measure)
            .cloned()
            .collect()
    };
    FigureResult {
        id: "Figure 3".into(),
        title: "Variations in measures for different distributions of 12 hosts (first 5 hours)"
            .into(),
        x_label: "Hosts per domain".into(),
        panels: vec![
            Panel {
                id: "3a".into(),
                title: "Unavailability for first 5 time units".into(),
                series: take(names::UNAVAILABILITY),
            },
            Panel {
                id: "3b".into(),
                title: "Unreliability for first 5 time units".into(),
                series: take(names::UNRELIABILITY),
            },
            Panel {
                id: "3c".into(),
                title: "Fraction of corrupt hosts in an excluded domain".into(),
                series: take(names::FRAC_CORRUPT_AT_EXCLUSION),
            },
            Panel {
                id: "3d".into(),
                title: "Fraction of domains excluded at 5 time units".into(),
                series: take(&excluded_at_5),
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_has_24_points() {
        let pts = points();
        assert_eq!(pts.len(), 24);
        for p in &pts {
            // Constant total hosts.
            assert_eq!(p.params.total_hosts(), TOTAL_HOSTS);
            p.params.validate().unwrap();
        }
    }

    #[test]
    fn micro_study_has_4_points() {
        let pts = micro_points();
        assert_eq!(pts.len(), 4);
        for p in &pts {
            assert_eq!(p.params.total_hosts(), MICRO_TOTAL_HOSTS);
            p.params.validate().unwrap();
        }
        let series: Vec<&str> = pts.iter().map(|p| p.series.as_str()).collect();
        assert!(series.contains(&"1 application"));
        assert!(series.contains(&"2 applications"));
    }

    #[test]
    fn x_axis_is_hosts_per_domain() {
        let xs: Vec<f64> = points()
            .iter()
            .filter(|p| p.series == "2 applications")
            .map(|p| p.x)
            .collect();
        assert_eq!(xs, vec![1.0, 2.0, 3.0, 4.0, 6.0, 12.0]);
    }

    #[test]
    fn small_run_produces_all_panels() {
        let fig = STUDY.run_small(5);
        assert_eq!(fig.panels.len(), 4);
        // Panels (a), (b), (d) have one series per app count; (c) may drop
        // series that never observed an exclusion with so few reps.
        assert_eq!(fig.panels[0].series.len(), APP_COUNTS.len());
        assert_eq!(fig.panels[1].series.len(), APP_COUNTS.len());
        assert_eq!(fig.panels[3].series.len(), APP_COUNTS.len());
    }
}

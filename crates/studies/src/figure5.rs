//! Figure 5 (§4.3): domain-exclusion vs host-exclusion management under
//! varying within-domain attack-spread rates.
//!
//! 10 domains × 3 hosts, 4 applications × 7 replicas, host corruption
//! multiplies replica/manager attack rates fivefold. The within-domain
//! spread rate sweeps 0–10. Panels:
//!
//! * (a) unavailability for the first 5 hours,
//! * (b) unavailability for the first 10 hours,
//! * (c) unreliability for the first 5 hours,
//! * (d) unreliability for the first 10 hours,
//!
//! each comparing the two exclusion schemes.

use crate::study::Study;
use crate::sweep::{FigureResult, Panel, Series, SweepPoint};
use itua_core::measures::names;
use itua_core::params::{ManagementScheme, Params};

/// Number of security domains.
pub const NUM_DOMAINS: usize = 10;
/// Hosts per domain.
pub const HOSTS_PER_DOMAIN: usize = 3;
/// Applications × replicas.
pub const NUM_APPS: usize = 4;
/// Replicas per application.
pub const REPS_PER_APP: usize = 7;
/// Host-corruption multiplier for this study (paper: fivefold).
pub const CORRUPTION_MULTIPLIER: f64 = 5.0;
/// Attack-spread rates on the x-axis.
pub const SPREAD_RATES: [f64; 6] = [0.0, 2.0, 4.0, 6.0, 8.0, 10.0];
/// The two horizons (hours).
pub const HORIZONS: [f64; 2] = [5.0, 10.0];

/// Sweep points: scheme × spread × horizon.
pub fn points() -> Vec<SweepPoint> {
    let mut pts = Vec::new();
    for &scheme in &[
        ManagementScheme::HostExclusion,
        ManagementScheme::DomainExclusion,
    ] {
        for &spread in &SPREAD_RATES {
            let params = Params::default()
                .with_domains(NUM_DOMAINS, HOSTS_PER_DOMAIN)
                .with_applications(NUM_APPS, REPS_PER_APP)
                .with_scheme(scheme)
                .with_host_corruption_multiplier(CORRUPTION_MULTIPLIER)
                .with_spread_rate(spread);
            for &h in &HORIZONS {
                pts.push(SweepPoint {
                    x: spread,
                    series: format!(
                        "{} [0,{h:.0}]",
                        match scheme {
                            ManagementScheme::HostExclusion => "Host exclusion",
                            ManagementScheme::DomainExclusion => "Domain exclusion",
                        }
                    ),
                    params: params.clone(),
                    horizon: h,
                    sample_times: vec![],
                });
            }
        }
    }
    pts
}

/// Attack-spread rates in the exact/exhaustive micro variant.
pub const MICRO_SPREAD_RATES: [f64; 2] = [0.0, 4.0];

/// Figure-5-shaped micro variant: both exclusion schemes under zero and
/// nonzero within-domain spread on 1 domain × 2 hosts with one
/// application of two replicas, keeping the study's fivefold
/// host-corruption multiplier. Same series structure and measures as
/// the full study, small enough for exact solution and for the
/// exhaustive reachability checker.
pub fn micro_points() -> Vec<SweepPoint> {
    let mut pts = Vec::new();
    for &scheme in &[
        ManagementScheme::HostExclusion,
        ManagementScheme::DomainExclusion,
    ] {
        for &spread in &MICRO_SPREAD_RATES {
            let params = Params::default()
                .with_domains(1, 2)
                .with_applications(1, 2)
                .with_scheme(scheme)
                .with_host_corruption_multiplier(CORRUPTION_MULTIPLIER)
                .with_spread_rate(spread);
            for &h in &HORIZONS {
                pts.push(SweepPoint {
                    x: spread,
                    series: format!(
                        "{} [0,{h:.0}]",
                        match scheme {
                            ManagementScheme::HostExclusion => "Host exclusion",
                            ManagementScheme::DomainExclusion => "Domain exclusion",
                        }
                    ),
                    params: params.clone(),
                    horizon: h,
                    sample_times: vec![],
                });
            }
        }
    }
    pts
}

/// The declarative descriptor of this study; the scenario registry runs
/// it as a built-in scenario.
pub const STUDY: Study = Study {
    id: "figure5",
    description: "Figure 5 (§4.3): domain- vs host-exclusion under attack spread",
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
    ]
}

/// Renders the extracted series as the figure's four panels.
pub fn render(all: &[Series]) -> FigureResult {
    let take = |measure: &str, horizon_tag: &str| -> Vec<Series> {
        all.iter()
            .filter(|s| s.measure == measure && s.name.ends_with(horizon_tag))
            .cloned()
            .map(|mut s| {
                s.name = s.name.trim_end_matches(horizon_tag).trim().to_owned();
                s
            })
            .collect()
    };
    FigureResult {
        id: "Figure 5".into(),
        title: "Unavailability and unreliability for different exclusion algorithms".into(),
        x_label: "Rate of attack spread".into(),
        panels: vec![
            Panel {
                id: "5a".into(),
                title: "Unavailability for the first 5 hours".into(),
                series: take(names::UNAVAILABILITY, "[0,5]"),
            },
            Panel {
                id: "5b".into(),
                title: "Unavailability for the first 10 hours".into(),
                series: take(names::UNAVAILABILITY, "[0,10]"),
            },
            Panel {
                id: "5c".into(),
                title: "Unreliability for the first 5 hours".into(),
                series: take(names::UNRELIABILITY, "[0,5]"),
            },
            Panel {
                id: "5d".into(),
                title: "Unreliability for the first 10 hours".into(),
                series: take(names::UNRELIABILITY, "[0,10]"),
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_covers_grid() {
        let pts = points();
        // 2 schemes × 6 spreads × 2 horizons.
        assert_eq!(pts.len(), 24);
        for p in &pts {
            assert_eq!(p.params.host_corruption_multiplier, CORRUPTION_MULTIPLIER);
            p.params.validate().unwrap();
        }
    }

    #[test]
    fn both_schemes_present() {
        let pts = points();
        assert!(pts.iter().any(|p| p.series.starts_with("Host exclusion")));
        assert!(pts.iter().any(|p| p.series.starts_with("Domain exclusion")));
    }

    #[test]
    fn micro_variant_is_figure_shaped_and_tiny() {
        use itua_runner::backend::BackendKind;
        let pts = micro_points();
        // 2 schemes × 2 spreads × 2 horizons.
        assert_eq!(pts.len(), 8);
        for p in &pts {
            assert_eq!(p.params.host_corruption_multiplier, CORRUPTION_MULTIPLIER);
            assert_eq!(p.params.total_hosts(), 2);
            p.params.validate().unwrap();
        }
        assert_eq!(STUDY.points_for(BackendKind::Analytic).len(), 8);
        assert_eq!(STUDY.points_for(BackendKind::Des).len(), 24);
    }

    #[test]
    fn small_run_produces_two_series_per_panel() {
        let fig = STUDY.run_small(5);
        assert_eq!(fig.panels.len(), 4);
        for panel in &fig.panels {
            assert_eq!(panel.series.len(), 2, "panel {}", panel.id);
            for s in &panel.series {
                assert_eq!(s.points.len(), SPREAD_RATES.len());
                assert!(s.name == "Host exclusion" || s.name == "Domain exclusion");
            }
        }
    }
}

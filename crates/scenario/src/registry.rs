//! Built-in scenarios: the shipped studies as [`Scenario`]s.
//!
//! Every [`itua_studies::study::Study`] descriptor is a scenario — same
//! sweep id, same points, same renderer, empty
//! [`Scenario::fingerprint_parts`] — so `itua run figure3` writes the
//! store the study has always written. The `all-figures` composite runs
//! Figures 3–5 sequentially under shared options.

use crate::Scenario;
use itua_runner::backend::BackendKind;
use itua_studies::study::{self, Study};
use itua_studies::sweep::{FigureResult, RunOpts, Series, SweepConfig, SweepPoint};
use std::io;

impl Scenario for Study {
    fn name(&self) -> &str {
        self.id
    }

    fn description(&self) -> &str {
        self.description
    }

    fn points(&self, backend: BackendKind) -> Vec<SweepPoint> {
        self.points_for(backend)
    }

    fn measures(&self) -> Vec<String> {
        (self.measures)()
    }

    fn render(&self, series: &[Series]) -> FigureResult {
        (self.render)(series)
    }
}

/// The composite scenario running Figures 3, 4, and 5 in sequence with
/// shared execution options (one result store per figure, exactly as if
/// each were run alone).
#[derive(Debug, Clone, Copy, Default)]
pub struct AllFigures;

impl AllFigures {
    fn figures() -> impl Iterator<Item = &'static Study> {
        ["figure3", "figure4", "figure5"]
            .into_iter()
            .map(|id| study::by_id(id).expect("shipped figure study"))
    }
}

impl Scenario for AllFigures {
    fn name(&self) -> &str {
        "all-figures"
    }

    fn description(&self) -> &str {
        "Figures 3, 4, and 5 in sequence (shared options, separate stores)"
    }

    /// The union of the figures' points — what `itua check all-figures`
    /// verifies.
    fn points(&self, backend: BackendKind) -> Vec<SweepPoint> {
        Self::figures().flat_map(|f| f.points(backend)).collect()
    }

    fn measures(&self) -> Vec<String> {
        Self::figures().flat_map(Scenario::measures).collect()
    }

    fn render(&self, series: &[Series]) -> FigureResult {
        // Only reachable through the per-figure `run`, which renders via
        // each figure's own Study; keep a sane fallback anyway.
        (study::by_id("figure3").expect("shipped").render)(series)
    }

    fn run(&self, cfg: &SweepConfig, opts: &RunOpts<'_>) -> io::Result<Vec<FigureResult>> {
        let mut out = Vec::new();
        for figure in Self::figures() {
            out.extend(figure.run(cfg, opts)?);
        }
        Ok(out)
    }
}

/// All built-in scenarios, in presentation order.
pub fn registry() -> Vec<Box<dyn Scenario>> {
    let mut all: Vec<Box<dyn Scenario>> = study::all()
        .iter()
        .map(|study| Box::new(*study) as Box<dyn Scenario>)
        .collect();
    all.push(Box::new(AllFigures));
    all
}

/// Looks up a built-in scenario by name.
pub fn find(name: &str) -> Option<Box<dyn Scenario>> {
    registry().into_iter().find(|s| s.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_holds_the_five_shipped_scenarios() {
        let names: Vec<String> = registry().iter().map(|s| s.name().to_owned()).collect();
        assert_eq!(
            names,
            [
                "figure3",
                "figure4",
                "figure5",
                "sensitivity",
                "all-figures"
            ]
        );
    }

    #[test]
    fn builtins_carry_no_extra_fingerprint_parts() {
        for s in registry() {
            assert!(
                s.fingerprint_parts().is_empty(),
                "{} would change the fingerprint of its existing stores",
                s.name()
            );
        }
    }

    #[test]
    fn builtin_points_match_their_study() {
        let s = find("figure3").unwrap();
        let study = study::by_id("figure3").unwrap();
        let a = s.points(BackendKind::Des);
        let b = study.points_for(BackendKind::Des);
        assert_eq!(a.len(), b.len());
        assert_eq!(a[0].series, b[0].series);
        // The analytic backend substitutes the micro variant.
        let micro = s.points(BackendKind::Analytic);
        assert_ne!(micro.len(), a.len());
    }

    #[test]
    fn all_figures_unions_the_three_figures() {
        let all = find("all-figures").unwrap();
        let per_figure: usize = ["figure3", "figure4", "figure5"]
            .iter()
            .map(|id| find(id).unwrap().points(BackendKind::Des).len())
            .sum();
        assert_eq!(all.points(BackendKind::Des).len(), per_figure);
        assert!(find("figure6").is_none());
    }
}

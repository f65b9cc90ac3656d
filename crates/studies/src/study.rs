//! Declarative study descriptors: one [`Study`] per shipped figure.
//!
//! A [`Study`] captures a figure declaratively: the sweep id, the point
//! constructors (with the optional exact-solvable micro variant the
//! analytic backend substitutes), the measure list, and the renderer
//! that turns extracted series into a [`FigureResult`]. The figure
//! modules expose one `STUDY` constant each, and the scenario layer
//! (`itua-scenario`) implements its `Scenario` trait for [`Study`], so
//! `itua run figure3` runs this table through the one sweep path.

use crate::sweep::{FigureResult, Series, SweepPoint};
use itua_runner::backend::BackendKind;

/// A declarative descriptor of one shipped study.
///
/// All behavior is carried by plain function pointers so descriptors can
/// be `const` and the registry can hold them in a static table.
#[derive(Clone, Copy)]
pub struct Study {
    /// Sweep/store identifier (e.g. `"figure3"`); the result store file
    /// is `<id>.json` with the backend/split suffixes of
    /// [`crate::sweep::run_sweep`].
    pub id: &'static str,
    /// One-line description (shown by `itua list`).
    pub description: &'static str,
    /// Constructor of the full sweep points.
    pub points: fn() -> Vec<SweepPoint>,
    /// Exact-solvable micro variant substituted for the analytic
    /// backend, if the full study is beyond exact solution but a
    /// figure-shaped micro study exists (Figure 3). `None` runs the full
    /// points on every backend.
    pub micro_points: Option<fn() -> Vec<SweepPoint>>,
    /// Measure keys to extract from the sweep (possibly `@t`-suffixed).
    pub measures: fn() -> Vec<String>,
    /// Renderer from extracted series to the figure's panels.
    pub render: fn(&[Series]) -> FigureResult,
}

impl Study {
    /// The points this study runs on `backend` (the analytic backend
    /// gets the micro variant when one exists).
    pub fn points_for(&self, backend: BackendKind) -> Vec<SweepPoint> {
        match (backend, self.micro_points) {
            (BackendKind::Analytic, Some(micro)) => micro(),
            _ => (self.points)(),
        }
    }
}

#[cfg(test)]
impl Study {
    /// The figure modules' test path: the full points, storeless on the
    /// DES backend at `replications` per point, rendered.
    pub(crate) fn run_small(&self, replications: u32) -> FigureResult {
        use crate::sweep::{run_sweep, RunOpts, SweepConfig};
        let cfg = SweepConfig {
            replications,
            ..SweepConfig::default()
        };
        let measures = (self.measures)();
        let refs: Vec<&str> = measures.iter().map(String::as_str).collect();
        let series = run_sweep(
            self.id,
            &(self.points)(),
            &cfg,
            &refs,
            &[],
            &RunOpts::default(),
        )
        .expect("a storeless DES run of a shipped study cannot fail");
        (self.render)(&series)
    }
}

impl std::fmt::Debug for Study {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Study")
            .field("id", &self.id)
            .field("description", &self.description)
            .field("has_micro", &self.micro_points.is_some())
            .finish()
    }
}

/// Every shipped study, in presentation order. The scenario registry
/// builds its built-in entries from this table.
pub fn all() -> &'static [Study] {
    &[
        crate::figure3::STUDY,
        crate::figure4::STUDY,
        crate::figure5::STUDY,
        crate::sensitivity::STUDY,
    ]
}

/// The shipped study with this sweep id, if any.
pub fn by_id(id: &str) -> Option<&'static Study> {
    all().iter().find(|s| s.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_studies_are_registered_with_unique_ids() {
        let ids: Vec<&str> = all().iter().map(|s| s.id).collect();
        assert_eq!(ids, vec!["figure3", "figure4", "figure5", "sensitivity"]);
        for s in all() {
            assert!(!s.description.is_empty(), "{}: needs a description", s.id);
            assert!(!(s.points)().is_empty(), "{}: no points", s.id);
            assert!(!(s.measures)().is_empty(), "{}: no measures", s.id);
        }
        assert!(by_id("figure3").is_some());
        assert!(by_id("figure9").is_none());
    }

    #[test]
    fn analytic_backend_substitutes_micro_variant_only_where_defined() {
        // All three figure studies carry an exact-solvable micro variant
        // (also the exhaustive checker's target); every micro point stays
        // within two hosts.
        for id in ["figure3", "figure4", "figure5"] {
            let study = by_id(id).unwrap();
            let full = study.points_for(BackendKind::Des);
            let micro = study.points_for(BackendKind::Analytic);
            assert_ne!(full.len(), micro.len(), "{id}");
            assert!(micro.iter().all(|p| p.params.total_hosts() <= 2), "{id}");
        }

        let sens = by_id("sensitivity").unwrap();
        assert_eq!(
            sens.points_for(BackendKind::Des).len(),
            sens.points_for(BackendKind::Analytic).len()
        );
    }
}

//! The paper's validation studies (Figures 3, 4, and 5).
//!
//! Each figure is a parameter sweep over the ITUA model with the measures
//! of Section 4. The modules here define the exact sweeps, run them with
//! replication-based estimation, and render the resulting series as text
//! tables (the same rows the paper plots).
//!
//! * [`figure3`] — 12 hosts distributed into 1–12 domains, for 2/4/6/8
//!   applications (§4.1).
//! * [`figure4`] — 10 domains with 1–4 hosts each (§4.2).
//! * [`figure5`] — domain- vs host-exclusion under attack-spread rates
//!   0–10 (§4.3).
//! * [`sensitivity`] — one-at-a-time sensitivity of the baseline to the
//!   defense parameters (the exploration §4 mentions).
//! * [`study`] — declarative [`study::Study`] descriptors: every shipped
//!   figure reduced to (id, points, measures, renderer), the table behind
//!   the `itua` CLI's scenario registry.
//! * [`sweep`] — the generic sweep/estimation machinery ([`sweep::run_sweep`]).
//! * [`table`] — plain-text rendering of figure series.
//!
//! # Example
//!
//! ```no_run
//! use itua_studies::figure3::STUDY;
//! use itua_studies::sweep::{run_sweep, RunOpts, SweepConfig};
//!
//! let cfg = SweepConfig { replications: 2000, ..SweepConfig::default() };
//! let measures = (STUDY.measures)();
//! let refs: Vec<&str> = measures.iter().map(String::as_str).collect();
//! let series = run_sweep(STUDY.id, &(STUDY.points)(), &cfg, &refs, &[], &RunOpts::default())?;
//! println!("{}", itua_studies::table::render(&(STUDY.render)(&series)));
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! The `itua` CLI (crate `itua-bench`) runs the same descriptors as
//! built-in scenarios: `itua run figure3`.

pub mod figure3;
pub mod figure4;
pub mod figure5;
pub mod sensitivity;
pub mod study;
pub mod sweep;
pub mod table;

pub use study::Study;
pub use sweep::{FigureResult, RunOpts, Series, SweepConfig};

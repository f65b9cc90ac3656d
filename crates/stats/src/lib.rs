//! Statistical estimation for simulation output analysis.
//!
//! Möbius reports each reward variable as a point estimate with a
//! confidence interval computed over independent replications. This crate
//! provides the same machinery:
//!
//! * [`weighted`] — numerically stable streaming moments (weighted
//!   Welford), the one accumulator behind every estimate: a plain
//!   replication is a weight-1 observation, an importance-splitting one
//!   carries its likelihood weight.
//! * [`timeweighted`] — integrals of piecewise-constant sample paths, for
//!   interval-of-time (time-averaged) reward variables.
//! * [`special`] — special functions (log-gamma, incomplete beta, normal
//!   quantile) implemented from scratch.
//! * [`tdist`] — Student-t CDF and quantiles built on [`special`].
//! * [`ci`] — confidence intervals over replicate observations.
//! * [`replication`] — a multi-measure replication estimator.
//!
//! # Example
//!
//! ```
//! use itua_stats::ci::ConfidenceInterval;
//!
//! let obs = [0.9, 1.1, 1.0, 0.95, 1.05];
//! let ci = ConfidenceInterval::from_observations(&obs, 0.95).unwrap();
//! assert!((ci.mean - 1.0).abs() < 1e-12);
//! assert!(ci.half_width > 0.0 && ci.half_width < 0.2);
//! ```

pub mod ci;
pub mod replication;
pub mod special;
pub mod tdist;
pub mod timeweighted;
pub mod weighted;

pub use ci::ConfidenceInterval;
pub use replication::{Estimate, ReplicationEstimator};
pub use timeweighted::TimeWeighted;
pub use weighted::WeightedStats;

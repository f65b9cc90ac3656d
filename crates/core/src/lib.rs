//! The ITUA intrusion-tolerant replication model.
//!
//! This crate is the reproduction's *object of study*: the replication
//! management system of the ITUA architecture (Intrusion Tolerance by
//! Unpredictable Adaptation), as modeled in
//! *Probabilistic Validation of an Intrusion-Tolerant Replication System*
//! (Singh, Cukier, Sanders — DSN 2003).
//!
//! The system: hosts grouped into security domains, one ITUA *manager* per
//! host, applications replicated with at most one replica per domain,
//! attackers who corrupt hosts / replicas / managers (with attack spread
//! and learning), intrusion-detection software with imperfect coverage and
//! false alarms, Byzantine-agreement-based conviction of corrupt replicas,
//! and a decentralized recovery algorithm that restarts killed replicas in
//! randomly chosen domains. Two management policies are modeled:
//! excluding the whole domain that housed a corrupt entity, or excluding
//! only the corrupt host.
//!
//! Two independent encodings of the same stochastic process are provided:
//!
//! * [`san_model`] — the composed **stochastic activity network** of the
//!   paper's Figure 2 (Replica, Host, and Management atomic SANs composed
//!   with Replicate/Join), built on the `itua-san` formalism. This is the
//!   faithful reproduction artifact.
//! * [`des`] — a direct discrete-event simulation of the same process,
//!   roughly an order of magnitude faster; used for the large parameter
//!   sweeps of the paper's studies and cross-validated against the SAN
//!   encoding in the integration tests.
//!
//! Shared vocabulary lives in [`params`] (every rate and probability from
//! the paper's Section 4, with the paper's defaults) and [`measures`] (the
//! reward variables of the studies).
//!
//! # Example
//!
//! ```
//! use itua_core::params::Params;
//! use itua_core::des::ItuaDes;
//!
//! // Ten domains of three hosts, four applications with seven replicas,
//! // paper-default attack and detection rates.
//! let params = Params::default()
//!     .with_domains(10, 3)
//!     .with_applications(4, 7);
//! let des = ItuaDes::new(params).unwrap();
//! let out = des.run(42, 5.0, &[5.0]);
//! assert!(out.unavailability(5.0) >= 0.0);
//! ```

pub mod analysis;
pub mod analytic;
pub mod des;
pub mod measures;
pub mod params;
pub mod san_exec;
pub mod san_model;

pub use analytic::ItuaAnalytic;
pub use des::ItuaDes;
pub use params::{ManagementScheme, Params};
pub use san_exec::ItuaSanRunner;

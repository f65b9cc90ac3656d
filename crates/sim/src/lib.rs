//! Discrete-event simulation kernel for the ITUA reproduction.
//!
//! This crate provides the low-level machinery every stochastic model in the
//! workspace is built on:
//!
//! * [`rng`] — a deterministic, seedable pseudo-random number generator
//!   (xoshiro256\*\* seeded through splitmix64) with support for independent
//!   sub-streams, so that every replication of an experiment is exactly
//!   reproducible from a single `u64` seed on every platform.
//! * [`dist`] — random-variate generators (exponential, uniform, Erlang,
//!   Weibull, lognormal, deterministic, discrete …) used as activity
//!   firing-time distributions.
//! * [`queue`] — a pending-event set: a time-ordered priority queue with
//!   deterministic FIFO tie-breaking and O(log n) cancellation.
//!
//! Each simulator (the SAN simulator in `itua-san`, the direct ITUA
//! discrete-event model in `itua-core`) runs its own event loop over
//! these pieces.
//!
//! # Example
//!
//! Estimate the mean of an exponential distribution:
//!
//! ```
//! use itua_sim::rng::Rng;
//! use itua_sim::dist::{Distribution, Exponential};
//!
//! # fn main() -> Result<(), itua_sim::dist::ParamError> {
//! let mut rng = Rng::seed_from_u64(42);
//! let exp = Exponential::new(2.0)?; // rate 2 → mean 0.5
//! let mean: f64 = (0..10_000).map(|_| exp.sample(&mut rng)).sum::<f64>() / 10_000.0;
//! assert!((mean - 0.5).abs() < 0.02);
//! # Ok(())
//! # }
//! ```

pub mod dist;
pub mod queue;
pub mod rng;

pub use dist::{Distribution, Exponential, ParamError};
pub use queue::{EventKey, EventQueue};
pub use rng::Rng;

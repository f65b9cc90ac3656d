//! Discrete-event simulation kernel for the ITUA reproduction.
//!
//! This crate provides the low-level machinery every stochastic model in the
//! workspace is built on:
//!
//! * [`rng`] — a deterministic, seedable pseudo-random number generator
//!   (xoshiro256\*\* seeded through splitmix64) with support for independent
//!   sub-streams, so that every replication of an experiment is exactly
//!   reproducible from a single `u64` seed on every platform.
//! * [`queue`] — a pending-event set: a time-ordered priority queue with
//!   deterministic FIFO tie-breaking and O(log n) cancellation.
//!
//! Each simulator (the SAN simulator in `itua-san`, the direct ITUA
//! discrete-event model in `itua-core`) runs its own event loop over
//! these pieces and draws its exponential delays as `-ln(u) / rate` from
//! [`Rng::next_f64_open`] or [`Rng::fill_f64_open`].

pub mod queue;
pub mod rng;

pub use queue::{EventKey, EventQueue};
pub use rng::Rng;

//! Numerical Markov-chain solvers for the ITUA reproduction.
//!
//! Möbius solves stochastic activity networks analytically "by converting
//! them into equivalent continuous time Markov chains". This crate is that
//! analytical back end:
//!
//! * [`sparse`] — compressed sparse row matrices with the operations the
//!   solvers need (built from triplets, transposition, mat-vec).
//! * [`ctmc`] — continuous-time Markov chains: transient distribution by
//!   **uniformization** with truncated Poisson weights, expected
//!   time-averaged/accumulated rewards over an interval, and steady state.
//! * [`poisson`] — truncated Poisson weight computation used by
//!   uniformization.
//! * [`uniformize`] — the fused uniformization walk behind the transient
//!   and reward solvers: several requests on several chains in one step
//!   loop, on a worker team spawned once per solve.
//!
//! # Example
//!
//! A two-state repairable system (fail rate 1, repair rate 9) has
//! steady-state availability 0.9:
//!
//! ```
//! use itua_markov::ctmc::Ctmc;
//!
//! let q = vec![
//!     (0, 1, 1.0), // up → down
//!     (1, 0, 9.0), // down → up
//! ];
//! let ctmc = Ctmc::from_rates(2, &q).unwrap();
//! let pi = ctmc.steady_state(1e-12, 100_000).unwrap();
//! assert!((pi[0] - 0.9).abs() < 1e-9);
//! ```

pub mod ctmc;
pub mod poisson;
pub mod sparse;
pub mod uniformize;

pub use ctmc::Ctmc;
pub use sparse::CsrMatrix;

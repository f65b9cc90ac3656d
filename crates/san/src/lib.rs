//! Stochastic Activity Networks (SANs), in the style of Möbius.
//!
//! This crate implements the modeling formalism of Sanders & Meyer,
//! *Stochastic Activity Networks: Formal Definitions and Concepts* — the
//! formalism the ITUA paper uses — together with the composition and
//! solution machinery that the (closed-source) Möbius tool provided:
//!
//! * [`marking`] — places and markings (the state of a SAN).
//! * [`model`] — activities (exponentially timed and instantaneous),
//!   cases, input and output gates, and the [`model::SanBuilder`].
//! * [`compose`] — **Replicate/Join composed models** with shared places,
//!   flattened into a single SAN for solution.
//! * [`simulator`] — a discrete-event simulator implementing SAN execution
//!   semantics (activity races, reactivation, instantaneous stabilization).
//! * [`reward`] — reward variables: instant-of-time, interval-of-time
//!   (time-averaged) and sticky indicators.
//! * [`statespace`] — exhaustive state-space generation that flattens a
//!   SAN into a CTMC for `itua-markov` (with on-the-fly elimination of
//!   vanishing markings), plain or symmetry-lumped.
//! * [`sym`] — wreath-product marking symmetries: canonicalization and
//!   orbit sizes, shared by the lumped generator and the analyzer's
//!   quotient explorer.
//!
//! # Example
//!
//! A machine that fails and gets repaired, with availability estimated two
//! ways (simulation and numerical CTMC solution):
//!
//! ```
//! use itua_san::model::SanBuilder;
//! use itua_san::simulator::SanSimulator;
//! use itua_san::reward::TimeAveraged;
//! use itua_san::statespace::StateSpace;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = SanBuilder::new("machine");
//! let up = b.place("up", 1);
//! let down = b.place("down", 0);
//! b.timed_activity("fail", 1.0)
//!     .input_arc(up, 1)
//!     .output_arc(down, 1)
//!     .build()?;
//! b.timed_activity("repair", 9.0)
//!     .input_arc(down, 1)
//!     .output_arc(up, 1)
//!     .build()?;
//! let san = b.finish()?;
//!
//! // Simulation estimate of unavailability over [0, 50].
//! let sim = SanSimulator::new(san.clone());
//! let mut unavailability = TimeAveraged::new(move |m| m.get(down) as f64);
//! sim.run(1, 50.0, &mut unavailability)?;
//! let simulated = unavailability.value().expect("the run has ended");
//!
//! // Exact CTMC solution.
//! let ss = StateSpace::generate(&san, 10_000)?;
//! let ctmc = ss.to_ctmc()?;
//! let pi = ctmc.steady_state(1e-12, 100_000)?;
//! let exact: f64 = (0..ss.num_states())
//!     .map(|s| pi[s] * ss.marking(s).get(down) as f64)
//!     .sum();
//! assert!((exact - 0.1).abs() < 1e-6);
//! assert!((simulated - exact).abs() < 0.1);
//! # Ok(())
//! # }
//! ```

pub mod compose;
pub mod marking;
pub mod model;
pub mod reward;
pub mod simulator;
pub mod statespace;
pub mod sym;

pub use compose::{ComposedModel, Node};
pub use marking::{Marking, PlaceId};
pub use model::{San, SanBuilder, SanError};
pub use simulator::SanSimulator;

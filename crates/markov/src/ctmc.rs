//! Continuous-time Markov chains.
//!
//! A CTMC is stored as its infinitesimal generator `Q` (CSR). Provided
//! solvers:
//!
//! * [`Ctmc::transient`] — state distribution at time `t` by
//!   uniformization.
//! * [`Ctmc::expected_accumulated_reward`] — `E[∫₀ᵗ r(X(s)) ds]`, the
//!   quantity behind interval-of-time reward variables such as
//!   unavailability.
//! * [`Ctmc::steady_state`] — stationary distribution by Gauss–Seidel /
//!   power iteration on the uniformized chain.
//!
//! Every uniformization step, in the steady-state iteration and in the
//! fused walk alike, runs one sparse kernel (`StepKernel`): a *gather*
//! formulation of `y = xᵀ(I + Q/Λ)` over the transposed (incoming) CSR
//! structure. Each row is split once at its diagonal position; an output
//! element sums its incoming terms from sources below it, adds the
//! precomputed self-loop term, then sums the terms from sources above it
//! — the exact floating-point order the classic scatter formulation
//! produces — so results are bit-identical to the scatter kernel, and to
//! themselves at any thread count. The kernel has no data-dependent
//! branch: zero terms are added, not skipped, which changes no bit (see
//! `StepKernel::step_rows`). The transient and reward solvers are thin
//! wrappers over the fused walk of [`crate::uniformize`], which runs the
//! kernel on a worker team spawned once per solve
//! ([`Ctmc::with_threads`]).

use crate::sparse::{CsrMatrix, SparseError};
use crate::uniformize::{self, load, Walk};
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Error from CTMC construction or solving.
#[derive(Debug, Clone, PartialEq)]
pub enum CtmcError {
    /// Underlying matrix problem.
    Sparse(SparseError),
    /// A transition rate was negative or non-finite.
    BadRate {
        /// Source state.
        from: usize,
        /// Destination state.
        to: usize,
        /// Offending rate.
        rate: f64,
    },
    /// A self-loop was supplied (diagonal entries are derived, not given).
    SelfLoop(usize),
    /// An iterative solver failed to converge.
    NoConvergence {
        /// Iterations performed.
        iterations: usize,
        /// Residual when giving up.
        residual: f64,
    },
    /// The initial distribution was invalid (wrong length or not a
    /// probability vector).
    BadInitialDistribution,
    /// A time point was negative or non-finite, or so large that the
    /// uniformized Poisson mean `Λ·t` exceeds
    /// [`crate::poisson::MAX_LAMBDA_T`].
    BadTime(f64),
}

impl fmt::Display for CtmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtmcError::Sparse(e) => write!(f, "sparse matrix error: {e}"),
            CtmcError::BadRate { from, to, rate } => {
                write!(f, "invalid rate {rate} for transition {from} → {to}")
            }
            CtmcError::SelfLoop(s) => write!(f, "self-loop on state {s} not allowed"),
            CtmcError::NoConvergence {
                iterations,
                residual,
            } => {
                write!(
                    f,
                    "no convergence after {iterations} iterations (residual {residual:e})"
                )
            }
            CtmcError::BadInitialDistribution => write!(f, "invalid initial distribution"),
            CtmcError::BadTime(t) => write!(
                f,
                "time {t:?} is negative, not finite, or too long to uniformize \
                 (Λ·t above {:e})",
                crate::poisson::MAX_LAMBDA_T
            ),
        }
    }
}

impl std::error::Error for CtmcError {}

impl From<SparseError> for CtmcError {
    fn from(e: SparseError) -> Self {
        CtmcError::Sparse(e)
    }
}

/// A continuous-time Markov chain over states `0..n`.
///
/// # Example
///
/// ```
/// use itua_markov::ctmc::Ctmc;
///
/// // Pure birth chain 0 → 1 → 2 (absorbing), rate 1.
/// let ctmc = Ctmc::from_rates(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
/// let p = ctmc.transient(&[1.0, 0.0, 0.0], 1.0, 1e-12).unwrap();
/// // P[still in 0 at t=1] = e^{-1}
/// assert!((p[0] - (-1.0f64).exp()).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct Ctmc {
    n: usize,
    /// Off-diagonal rate matrix (diagonal implicit).
    rates: CsrMatrix,
    /// Transpose of `rates`: row `t` lists the *incoming* `(source, rate)`
    /// entries of state `t` in ascending source order — the structure the
    /// gather kernel walks.
    incoming: CsrMatrix,
    /// Exit rate of each state (sum of outgoing rates).
    exit_rates: Vec<f64>,
    /// Worker threads for uniformization walks (1 = inline). Never
    /// influences results: the gather kernel computes each output element
    /// independently in a fixed per-element order.
    threads: usize,
}

impl Ctmc {
    /// Builds a CTMC from off-diagonal transition rates
    /// `(from, to, rate)`. Duplicate transitions are summed in input
    /// order ([`CsrMatrix::from_triplets`]).
    ///
    /// # Errors
    ///
    /// Rejects self-loops, negative or non-finite rates, and out-of-bounds
    /// states.
    pub fn from_rates(n: usize, transitions: &[(usize, usize, f64)]) -> Result<Self, CtmcError> {
        for &(from, to, rate) in transitions {
            if from == to {
                return Err(CtmcError::SelfLoop(from));
            }
            if !rate.is_finite() || rate < 0.0 {
                return Err(CtmcError::BadRate { from, to, rate });
            }
        }
        Ok(Self::from_matrix(
            CsrMatrix::from_triplets(n, n, transitions)?,
            1,
        ))
    }

    /// Builds a CTMC row by row: `row(s, out)` appends the outgoing
    /// `(to, rate)` transitions of state `s` to the emptied `out`.
    /// Bit for bit [`Ctmc::from_rates`] on every row's transitions in
    /// state order, with no transition list held ([`CsrMatrix::from_rows`]);
    /// `capacity` bounds the total transition count from above.
    ///
    /// # Errors
    ///
    /// As [`Ctmc::from_rates`], for the first invalid transition in
    /// state order.
    pub fn from_rows(
        n: usize,
        capacity: usize,
        mut row: impl FnMut(usize, &mut Vec<(usize, f64)>),
    ) -> Result<Self, CtmcError> {
        let rates = CsrMatrix::from_rows(n, n, capacity, |from, out| {
            row(from, out);
            for &(to, rate) in out.iter() {
                if from == to {
                    return Err(CtmcError::SelfLoop(from));
                }
                if !rate.is_finite() || rate < 0.0 {
                    return Err(CtmcError::BadRate { from, to, rate });
                }
            }
            Ok(())
        })?;
        Ok(Self::from_matrix(rates, 1))
    }

    /// This chain with every state flagged in `absorbing` made absorbing
    /// (its outgoing transitions dropped), on the same worker-team size.
    /// Bit for bit [`Ctmc::from_rates`] on the transitions out of the
    /// other states: their rows are copied as they are
    /// ([`CsrMatrix::with_rows_cleared`]).
    ///
    /// # Panics
    ///
    /// Panics unless `absorbing` has one flag per state.
    pub fn absorbing(&self, absorbing: &[bool]) -> Ctmc {
        Self::from_matrix(self.rates.with_rows_cleared(absorbing), self.threads)
    }

    /// The chain with off-diagonal rate matrix `rates`.
    fn from_matrix(rates: CsrMatrix, threads: usize) -> Ctmc {
        let n = rates.rows();
        let incoming = rates.transpose();
        let exit_rates = (0..n).map(|s| rates.row_sum(s)).collect();
        Ctmc {
            n,
            rates,
            incoming,
            exit_rates,
            threads,
        }
    }

    /// Sets the worker-team size for uniformization walks and returns the
    /// chain. A value of 0 or 1 keeps the walk inline; larger walks run on
    /// up to this many workers (see [`crate::uniformize::solve`]). Thread
    /// count never influences results — each output element is computed
    /// by exactly one thread in a fixed per-element floating-point order —
    /// so solutions are byte-identical at any setting.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Worker threads configured for uniformization walks.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.n
    }

    /// The off-diagonal rate matrix.
    pub fn rates(&self) -> &CsrMatrix {
        &self.rates
    }

    /// Exit rate of state `s`.
    pub fn exit_rate(&self, s: usize) -> f64 {
        self.exit_rates[s]
    }

    /// The uniformization rate `Λ` (strictly larger than every exit rate so
    /// the uniformized DTMC is aperiodic).
    pub fn uniformization_rate(&self) -> f64 {
        let max_exit = self.exit_rates.iter().copied().fold(0.0, f64::max);
        if max_exit == 0.0 {
            1.0 // all-absorbing chain; any Λ works
        } else {
            max_exit * 1.02
        }
    }

    /// The transposed rate matrix: row `t` lists the incoming
    /// `(source, rate)` entries of state `t` in ascending source order.
    pub(crate) fn incoming(&self) -> &CsrMatrix {
        &self.incoming
    }

    /// The original scatter formulation of the uniformized step, kept as
    /// the oracle the gather kernel is tested against bit for bit.
    #[cfg(test)]
    fn uniformized_step_scatter(&self, x: &[f64], lambda: f64) -> Vec<f64> {
        let mut y = vec![0.0; self.n];
        for (s, &xs) in x.iter().enumerate() {
            if xs == 0.0 {
                continue;
            }
            // Self-transition probability.
            y[s] += xs * (1.0 - self.exit_rates[s] / lambda);
            for (t, r) in self.rates.row(s) {
                y[t] += xs * r / lambda;
            }
        }
        y
    }

    /// Transient state distribution at time `t` from `initial`, to
    /// truncation accuracy `epsilon`.
    ///
    /// # Errors
    ///
    /// * [`CtmcError::BadInitialDistribution`] if `initial` does not sum
    ///   to ~1 or has the wrong length;
    /// * [`CtmcError::BadTime`] if `t` is negative or not finite, or
    ///   `Λ·t` exceeds [`crate::poisson::MAX_LAMBDA_T`].
    pub fn transient(&self, initial: &[f64], t: f64, epsilon: f64) -> Result<Vec<f64>, CtmcError> {
        let mut multi = self.transient_multi(initial, &[t], epsilon)?;
        Ok(multi
            .pop()
            .expect("one time point in, one distribution out"))
    }

    /// Transient state distributions at several time points from one
    /// uniformization: the DTMC iterates `xᵏ = π₀ Pᵏ` are walked once up to
    /// the largest right-truncation point, and each requested time
    /// accumulates its own Poisson-weighted window along the way.
    ///
    /// Equivalent to calling [`Ctmc::transient`] per time (bit-identical
    /// results — the same floating-point operations run in the same order),
    /// but the dominant cost (the vector–matrix products) is paid once
    /// instead of once per time point.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Ctmc::transient`], for every time.
    pub fn transient_multi(
        &self,
        initial: &[f64],
        times: &[f64],
        epsilon: f64,
    ) -> Result<Vec<Vec<f64>>, CtmcError> {
        let walk = Walk {
            chain: self,
            initial,
            reward: None,
            times,
        };
        let mut out = uniformize::solve(&[walk], epsilon, self.threads)?;
        Ok(out.pop().expect("one walk in, one output out").transients)
    }

    /// Expected accumulated reward `E[∫₀ᵗ r(X(s)) ds]` for per-state reward
    /// rates `reward`, via the standard uniformization summation.
    ///
    /// Dividing by `t` yields the interval-of-time (time-averaged) reward —
    /// e.g. unavailability when `reward` is the indicator of improper
    /// states.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Ctmc::transient`].
    ///
    /// # Panics
    ///
    /// Panics if `reward` does not have one entry per state.
    pub fn expected_accumulated_reward(
        &self,
        initial: &[f64],
        reward: &[f64],
        t: f64,
        epsilon: f64,
    ) -> Result<f64, CtmcError> {
        let walk = Walk {
            chain: self,
            initial,
            reward: Some((reward, t)),
            times: &[],
        };
        let mut out = uniformize::solve(&[walk], epsilon, self.threads)?;
        Ok(out
            .pop()
            .and_then(|o| o.reward)
            .expect("a reward walk reports its reward"))
    }

    /// Stationary distribution `π` with `πQ = 0`, `Σπ = 1`, by power
    /// iteration on the uniformized DTMC.
    ///
    /// For a chain with absorbing states this converges to an absorbing
    /// distribution (which is a valid stationary distribution).
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::NoConvergence`] if the L1 change between
    /// iterations has not dropped below `tol` within `max_iter` steps.
    pub fn steady_state(&self, tol: f64, max_iter: usize) -> Result<Vec<f64>, CtmcError> {
        let kernel = StepKernel::new(self, self.uniformization_rate());
        let uniform = (1.0 / self.n as f64).to_bits();
        let mut x: Vec<AtomicU64> = (0..self.n).map(|_| AtomicU64::new(uniform)).collect();
        let mut y: Vec<AtomicU64> = (0..self.n).map(|_| AtomicU64::new(0)).collect();
        let mut residual = f64::INFINITY;
        for _ in 0..max_iter {
            kernel.step_rows(0..self.n, &x, &y);
            residual = (0..self.n)
                .map(|s| (load(&x, s) - load(&y, s)).abs())
                .sum::<f64>();
            std::mem::swap(&mut x, &mut y);
            if residual < tol {
                // Renormalize against drift.
                let mut x: Vec<f64> = x
                    .into_iter()
                    .map(|a| f64::from_bits(a.into_inner()))
                    .collect();
                let s: f64 = x.iter().sum();
                for v in &mut x {
                    *v /= s;
                }
                return Ok(x);
            }
        }
        Err(CtmcError::NoConvergence {
            iterations: max_iter,
            residual,
        })
    }

    /// Expected time to absorption (mean time to failure when the
    /// absorbing states are failure states), starting from `initial`.
    ///
    /// Solves `(I − P) m = 1/Λ` on the transient states of the uniformized
    /// chain by Gauss–Seidel, where `m[s]` is the expected remaining time.
    ///
    /// # Errors
    ///
    /// * [`CtmcError::BadInitialDistribution`] for an invalid `initial`;
    /// * [`CtmcError::NoConvergence`] if some transient state cannot reach
    ///   an absorbing state (expected time infinite) or the solver stalls.
    pub fn mean_time_to_absorption(
        &self,
        initial: &[f64],
        tol: f64,
        max_iter: usize,
    ) -> Result<f64, CtmcError> {
        self.check_initial(initial)?;
        let absorbing: Vec<bool> = (0..self.n).map(|s| self.exit_rates[s] == 0.0).collect();
        if absorbing.iter().all(|&a| a) {
            return Ok(0.0);
        }
        let lambda = self.uniformization_rate();
        // m[s] = 1/Λ + Σ_t P[s→t] m[t] for transient s; m = 0 on absorbing.
        let mut m = vec![0.0; self.n];
        for iter in 0..max_iter {
            let mut delta = 0.0f64;
            for s in 0..self.n {
                if absorbing[s] {
                    continue;
                }
                let mut acc = 1.0 / lambda;
                // Self-loop probability of the uniformized chain.
                let p_self = 1.0 - self.exit_rates[s] / lambda;
                for (t, r) in self.rates.row(s) {
                    acc += (r / lambda) * m[t];
                }
                // Solve for m[s] with the self-loop folded in:
                // m[s] = acc + p_self·m[s]  ⇒  m[s] = acc / (1 − p_self).
                let new = acc / (1.0 - p_self);
                delta = delta.max((new - m[s]).abs());
                m[s] = new;
            }
            if delta < tol {
                let mtta: f64 = initial.iter().zip(&m).map(|(p, mi)| p * mi).sum();
                if !mtta.is_finite() {
                    return Err(CtmcError::NoConvergence {
                        iterations: iter,
                        residual: f64::INFINITY,
                    });
                }
                return Ok(mtta);
            }
        }
        Err(CtmcError::NoConvergence {
            iterations: max_iter,
            residual: f64::INFINITY,
        })
    }

    /// Probability of having been absorbed by time `t`, starting from
    /// `initial` (the transient mass on absorbing states).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Ctmc::transient`].
    pub fn absorption_by(&self, initial: &[f64], t: f64, epsilon: f64) -> Result<f64, CtmcError> {
        let p = self.transient(initial, t, epsilon)?;
        Ok(p.iter()
            .enumerate()
            .filter(|&(s, _)| self.exit_rates[s] == 0.0)
            .map(|(_, &pi)| pi)
            .sum())
    }

    pub(crate) fn check_initial(&self, initial: &[f64]) -> Result<(), CtmcError> {
        if initial.len() != self.n {
            return Err(CtmcError::BadInitialDistribution);
        }
        let sum: f64 = initial.iter().sum();
        if (sum - 1.0).abs() > 1e-9 || initial.iter().any(|&p| !(0.0..=1.0 + 1e-12).contains(&p)) {
            return Err(CtmcError::BadInitialDistribution);
        }
        Ok(())
    }
}

/// One chain's uniformized step `y = xᵀP`, `P = I + Q/Λ`, laid out for
/// the gather kernel [`StepKernel::step_rows`]: the incoming CSR, each
/// row's split at its diagonal position and each state's self-loop
/// probability. Built per walk (or per steady-state solve) and dropped
/// with it.
pub(crate) struct StepKernel<'a> {
    row_ptr: &'a [usize],
    /// Incoming sources, ascending within each row.
    sources: &'a [usize],
    /// Incoming rates, aligned with `sources`.
    rates: &'a [f64],
    lambda: f64,
    /// Per row `t`: the position of its first incoming entry whose source
    /// is above `t`. No source equals `t`: [`Ctmc::from_rates`] rejects
    /// self-loops.
    split: Vec<usize>,
    /// Per state `t`: `1.0 - exit_rates[t] / lambda`, the self-loop
    /// probability of the uniformized chain.
    self_prob: Vec<f64>,
}

impl<'a> StepKernel<'a> {
    /// The kernel for `chain`'s step at uniformization rate `lambda`.
    pub(crate) fn new(chain: &'a Ctmc, lambda: f64) -> Self {
        let (row_ptr, sources, rates) = chain.incoming.parts();
        let split = row_ptr
            .windows(2)
            .enumerate()
            .map(|(t, w)| w[0] + sources[w[0]..w[1]].partition_point(|&s| s < t))
            .collect();
        let self_prob = chain.exit_rates.iter().map(|e| 1.0 - e / lambda).collect();
        StepKernel {
            row_ptr,
            sources,
            rates,
            lambda,
            split,
            self_prob,
        }
    }

    /// Writes rows `rows` of `y = xᵀP`, reading the iterate `x` (f64
    /// bits, as the walk's team shares them).
    ///
    /// Row `t` sums `x[s]·r/Λ` over its incoming entries with `s < t`,
    /// adds `x[t]·self_prob[t]`, then sums the entries with `s > t`:
    /// ascending-source order with the self term at the diagonal, which
    /// is the order in which the scatter formulation (outer loop over
    /// sources) adds contributions to `y[t]`. Identical term order means
    /// identical rounding, so gather and scatter agree bit for bit.
    ///
    /// The scatter formulation skips a zero source; this kernel adds its
    /// term instead, and no bit changes:
    ///
    /// * every stored rate `r` is positive and finite — the CSR drops
    ///   zeros, and [`Ctmc::from_rates`] rejects negative and non-finite
    ///   rates;
    /// * `Λ = 1.02 · max exit` (1 for an all-absorbing chain) is positive,
    ///   and finite on every path that takes a step and returns: the walk
    ///   rejects an infinite `Λ·t`, and a steady-state iteration whose
    ///   exit rates overflow turns NaN and fails to converge, skips or no
    ///   skips;
    /// * so a zero source contributes a zero term (`0·r/Λ`), and so does a
    ///   zero `x[t]`, because `self_prob[t] ≥ 1 − 1/1.02 > 0`;
    /// * iterates are nonnegative, so the accumulator starts at `+0.0`
    ///   and only ever adds nonnegative terms: it is never `-0.0`, and
    ///   adding a zero of either sign to it is exact.
    ///
    /// The test oracle and the proptests' reference step keep their skips.
    pub(crate) fn step_rows(&self, rows: Range<usize>, x: &[AtomicU64], y: &[AtomicU64]) {
        let lambda = self.lambda;
        let per_row = self.row_ptr[rows.start..=rows.end]
            .windows(2)
            .zip(&self.split[rows.clone()])
            .zip(&self.self_prob[rows.clone()])
            .zip(&x[rows.clone()])
            .zip(&y[rows]);
        for ((((ends, &split), &self_prob), xt), yt) in per_row {
            let (lo, hi) = (ends[0], ends[1]);
            let (below, above) = self.sources[lo..hi].split_at(split - lo);
            let (rates_below, rates_above) = self.rates[lo..hi].split_at(split - lo);
            let mut acc = 0.0;
            for (&s, &r) in below.iter().zip(rates_below) {
                acc += load(x, s) * r / lambda;
            }
            acc += f64::from_bits(xt.load(Relaxed)) * self_prob;
            for (&s, &r) in above.iter().zip(rates_above) {
                acc += load(x, s) * r / lambda;
            }
            yt.store(acc.to_bits(), Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Two-state repairable system: failure rate λ, repair rate μ.
    fn two_state(lambda: f64, mu: f64) -> Ctmc {
        Ctmc::from_rates(2, &[(0, 1, lambda), (1, 0, mu)]).unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(matches!(
            Ctmc::from_rates(2, &[(0, 0, 1.0)]),
            Err(CtmcError::SelfLoop(0))
        ));
        assert!(matches!(
            Ctmc::from_rates(2, &[(0, 1, -1.0)]),
            Err(CtmcError::BadRate { .. })
        ));
        assert!(Ctmc::from_rates(2, &[(0, 3, 1.0)]).is_err());
        let rows = |edges: &'static [(usize, usize, f64)]| {
            Ctmc::from_rows(2, edges.len(), |s, out| {
                out.extend(edges.iter().filter(|e| e.0 == s).map(|e| (e.1, e.2)));
            })
        };
        assert_eq!(rows(&[(1, 1, 1.0)]).unwrap_err(), CtmcError::SelfLoop(1));
        assert!(matches!(
            rows(&[(0, 1, f64::NAN)]),
            Err(CtmcError::BadRate { from: 0, to: 1, .. })
        ));
        assert!(rows(&[(0, 3, 1.0)]).is_err());
    }

    #[test]
    fn rows_and_absorbing_chains_match_the_transition_list() {
        let edges = [
            (0, 2, 0.1),
            (0, 1, 2.0),
            (0, 2, 0.2),
            (1, 0, 3.0),
            (2, 1, 0.7),
        ];
        let same = |a: &Ctmc, b: &Ctmc| {
            assert_eq!(a.rates(), b.rates());
            assert_eq!(a.incoming(), b.incoming());
            let exits = |c: &Ctmc| (0..3).map(|s| c.exit_rate(s).to_bits()).collect::<Vec<_>>();
            assert_eq!(exits(a), exits(b));
        };
        let base = Ctmc::from_rows(3, edges.len(), |s, out| {
            out.extend(edges.iter().filter(|e| e.0 == s).map(|e| (e.1, e.2)));
        })
        .unwrap()
        .with_threads(3);
        same(&base, &Ctmc::from_rates(3, &edges).unwrap());
        let flags = [false, false, true];
        let kept: Vec<_> = edges.iter().copied().filter(|e| !flags[e.0]).collect();
        let absorbed = base.absorbing(&flags);
        same(&absorbed, &Ctmc::from_rates(3, &kept).unwrap());
        assert_eq!(absorbed.threads(), 3);
    }

    #[test]
    fn transient_two_state_closed_form() {
        // P00(t) = μ/(λ+μ) + λ/(λ+μ) e^{-(λ+μ)t}
        let (l, m) = (1.0, 3.0);
        let ctmc = two_state(l, m);
        for &t in &[0.0, 0.1, 0.5, 1.0, 5.0] {
            let p = ctmc.transient(&[1.0, 0.0], t, 1e-13).unwrap();
            let expected = m / (l + m) + l / (l + m) * (-(l + m) * t).exp();
            assert!((p[0] - expected).abs() < 1e-9, "t = {t}: {p:?}");
            assert!((p[0] + p[1] - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn transient_pure_birth() {
        let ctmc = Ctmc::from_rates(3, &[(0, 1, 2.0), (1, 2, 2.0)]).unwrap();
        let t = 0.7;
        let p = ctmc.transient(&[1.0, 0.0, 0.0], t, 1e-13).unwrap();
        // Erlang stages: p0 = e^{-2t}, p1 = 2t e^{-2t}, p2 = rest.
        let e = (-2.0 * t).exp();
        assert!((p[0] - e).abs() < 1e-9);
        assert!((p[1] - 2.0 * t * e).abs() < 1e-9);
        assert!((p[2] - (1.0 - e - 2.0 * t * e)).abs() < 1e-9);
    }

    #[test]
    fn steady_state_two_state() {
        let ctmc = two_state(1.0, 9.0);
        let pi = ctmc.steady_state(1e-13, 100_000).unwrap();
        assert!((pi[0] - 0.9).abs() < 1e-9);
        assert!((pi[1] - 0.1).abs() < 1e-9);
    }

    #[test]
    fn steady_state_birth_death() {
        // M/M/1-like truncated queue with arrival 1, service 2, 4 states.
        // π_k ∝ (1/2)^k.
        let ctmc = Ctmc::from_rates(
            4,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (1, 0, 2.0),
                (2, 1, 2.0),
                (3, 2, 2.0),
            ],
        )
        .unwrap();
        let pi = ctmc.steady_state(1e-13, 200_000).unwrap();
        let z: f64 = (0..4).map(|k| 0.5f64.powi(k)).sum();
        for (k, pik) in pi.iter().enumerate() {
            assert!((pik - 0.5f64.powi(k as i32) / z).abs() < 1e-8, "k = {k}");
        }
    }

    #[test]
    fn accumulated_reward_matches_integral() {
        // Two-state system, reward = 1 in down state → expected downtime.
        let (l, m) = (1.0, 3.0);
        let ctmc = two_state(l, m);
        let t = 2.0;
        let down = ctmc
            .expected_accumulated_reward(&[1.0, 0.0], &[0.0, 1.0], t, 1e-13)
            .unwrap();
        // ∫ P01(s) ds with P01(s) = λ/(λ+μ)(1 − e^{-(λ+μ)s})
        let rate = l + m;
        let expected = l / rate * (t - (1.0 - (-rate * t).exp()) / rate);
        assert!((down - expected).abs() < 1e-7, "{down} vs {expected}");
    }

    #[test]
    fn accumulated_reward_zero_time() {
        let ctmc = two_state(1.0, 1.0);
        let r = ctmc
            .expected_accumulated_reward(&[1.0, 0.0], &[1.0, 1.0], 0.0, 1e-10)
            .unwrap();
        assert_eq!(r, 0.0);
    }

    #[test]
    fn reward_of_constant_one_equals_t() {
        let ctmc = two_state(0.7, 1.3);
        let t = 3.21;
        let r = ctmc
            .expected_accumulated_reward(&[0.5, 0.5], &[1.0, 1.0], t, 1e-13)
            .unwrap();
        assert!((r - t).abs() < 1e-8, "{r}");
    }

    #[test]
    fn bad_initial_rejected() {
        let ctmc = two_state(1.0, 1.0);
        assert!(matches!(
            ctmc.transient(&[0.5, 0.4], 1.0, 1e-10),
            Err(CtmcError::BadInitialDistribution)
        ));
        assert!(matches!(
            ctmc.transient(&[1.0], 1.0, 1e-10),
            Err(CtmcError::BadInitialDistribution)
        ));
    }

    #[test]
    fn absorbing_chain_steady_state() {
        let ctmc = Ctmc::from_rates(2, &[(0, 1, 1.0)]).unwrap();
        let pi = ctmc.steady_state(1e-12, 100_000).unwrap();
        assert!((pi[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mtta_of_pure_death_chain() {
        // 2 → 1 → 0 with rates 2 and 1: MTTA = 1/2 + 1 = 1.5.
        let ctmc = Ctmc::from_rates(3, &[(2, 1, 2.0), (1, 0, 1.0)]).unwrap();
        let mut init = vec![0.0, 0.0, 1.0];
        let mtta = ctmc.mean_time_to_absorption(&init, 1e-12, 100_000).unwrap();
        assert!((mtta - 1.5).abs() < 1e-9, "{mtta}");
        // Starting from state 1, only the second stage remains.
        init = vec![0.0, 1.0, 0.0];
        let mtta = ctmc.mean_time_to_absorption(&init, 1e-12, 100_000).unwrap();
        assert!((mtta - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mtta_with_repair_loop() {
        // 0 ⇄ 1 → 2(absorbing): classic MTTF formula.
        // From 0: m0 = 1/λ0 + m1; m1 = 1/(μ+f) + μ/(μ+f)·m0.
        let (l0, mu, f) = (1.0, 3.0, 0.5);
        let ctmc = Ctmc::from_rates(3, &[(0, 1, l0), (1, 0, mu), (1, 2, f)]).unwrap();
        let m1 = |m0: f64| (1.0 + mu * m0) / (mu + f);
        // Solve the 2×2 system exactly.
        // m0 = 1/l0 + m1(m0) ⇒ m0 (1 − mu/(mu+f)) = 1/l0 + 1/(mu+f)
        let m0 = (1.0 / l0 + 1.0 / (mu + f)) / (1.0 - mu / (mu + f));
        let mtta = ctmc
            .mean_time_to_absorption(&[1.0, 0.0, 0.0], 1e-13, 1_000_000)
            .unwrap();
        assert!((mtta - m0).abs() < 1e-7, "{mtta} vs {m0}");
        let _ = m1; // documented derivation
    }

    #[test]
    fn mtta_zero_when_starting_absorbed() {
        let ctmc = Ctmc::from_rates(2, &[(0, 1, 1.0)]).unwrap();
        let mtta = ctmc
            .mean_time_to_absorption(&[0.0, 1.0], 1e-12, 1000)
            .unwrap();
        assert!(mtta.abs() < 1e-9);
    }

    #[test]
    fn absorption_probability_by_time() {
        // 0 → 1 (absorbing) at rate 2: P[absorbed by t] = 1 − e^{−2t}.
        let ctmc = Ctmc::from_rates(2, &[(0, 1, 2.0)]).unwrap();
        for &t in &[0.1, 0.5, 2.0] {
            let p = ctmc.absorption_by(&[1.0, 0.0], t, 1e-12).unwrap();
            let expected = 1.0 - (-2.0f64 * t).exp();
            assert!((p - expected).abs() < 1e-9, "t = {t}");
        }
    }

    #[test]
    fn erlang_absorption_closed_form() {
        // k exponential stages of rate λ in series: absorption time is
        // Erlang(k, λ), so P[absorbed by t] = 1 − e^{−λt} Σ_{i<k} (λt)^i/i!
        // and the mean time to absorption is k/λ.
        let (k, lambda) = (4usize, 2.5f64);
        let rates: Vec<(usize, usize, f64)> = (0..k).map(|i| (i, i + 1, lambda)).collect();
        let ctmc = Ctmc::from_rates(k + 1, &rates).unwrap();
        let mut init = vec![0.0; k + 1];
        init[0] = 1.0;
        for &t in &[0.2, 0.8, 1.5, 4.0] {
            let p = ctmc.absorption_by(&init, t, 1e-13).unwrap();
            let partial: f64 = (0..k)
                .map(|i| (lambda * t).powi(i as i32) / (1..=i).product::<usize>() as f64)
                .sum();
            let closed = 1.0 - (-lambda * t).exp() * partial;
            assert!((p - closed).abs() < 1e-9, "t = {t}: {p} vs {closed}");
        }
        let mtta = ctmc.mean_time_to_absorption(&init, 1e-13, 100_000).unwrap();
        assert!((mtta - k as f64 / lambda).abs() < 1e-9, "{mtta}");
    }

    #[test]
    fn transient_multi_matches_closed_form_and_single_time() {
        // Two-state availability at several times from one uniformization:
        // values must hit the closed form AND be bitwise identical to the
        // per-time transient() results.
        let (l, m) = (1.0, 3.0);
        let ctmc = two_state(l, m);
        let times = [0.0, 0.1, 0.5, 1.0, 5.0];
        let multi = ctmc.transient_multi(&[1.0, 0.0], &times, 1e-13).unwrap();
        assert_eq!(multi.len(), times.len());
        for (&t, dist) in times.iter().zip(&multi) {
            let expected = m / (l + m) + l / (l + m) * (-(l + m) * t).exp();
            assert!((dist[0] - expected).abs() < 1e-9, "t = {t}: {dist:?}");
            let single = ctmc.transient(&[1.0, 0.0], t, 1e-13).unwrap();
            assert_eq!(dist, &single, "t = {t} differs from single-time solve");
        }
    }

    #[test]
    fn transient_multi_all_zero_times() {
        let ctmc = two_state(1.0, 1.0);
        let multi = ctmc
            .transient_multi(&[0.25, 0.75], &[0.0, 0.0], 1e-12)
            .unwrap();
        assert_eq!(multi, vec![vec![0.25, 0.75]; 2]);
    }

    #[test]
    fn transient_long_horizon_approaches_steady_state() {
        let ctmc = two_state(2.0, 5.0);
        let p = ctmc.transient(&[1.0, 0.0], 100.0, 1e-12).unwrap();
        let pi = ctmc.steady_state(1e-13, 100_000).unwrap();
        assert!((p[0] - pi[0]).abs() < 1e-9);
    }

    /// A pseudo-random chain on `n` states with up to `deg` outgoing edges
    /// per state and rates spread over seven decades, shaped to reach
    /// every case of the split-row kernel: each state keeps all of its
    /// incoming edges, none, only those from sources below it (the split
    /// at the row's end) or only those from above (the split at its
    /// start), and about one state in four is absorbing.
    fn shaped_chain(n: usize, deg: usize, seed: u64) -> Ctmc {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let keep: Vec<usize> = (0..n).map(|_| next() % 4).collect();
        let absorbing: Vec<bool> = (0..n).map(|_| next() % 4 == 0).collect();
        let mut rates = Vec::new();
        for (s, &absorbing) in absorbing.iter().enumerate() {
            for _ in 0..deg {
                let t = next() % n;
                let r =
                    10f64.powi((next() % 7) as i32 - 3) * (1.0 + (next() % 1000) as f64 / 999.0);
                let kept = match keep[t] {
                    0 => true,
                    1 => false,
                    2 => s < t,
                    _ => s > t,
                };
                if s != t && kept && !absorbing {
                    rates.push((s, t, r));
                }
            }
        }
        Ctmc::from_rates(n, &rates).unwrap()
    }

    /// One step `xᵀP` through the kernel, computed as two row ranges split
    /// at `cut`, as two workers of a team would.
    fn kernel_step(kernel: &StepKernel, x: &[f64], cut: usize) -> Vec<f64> {
        let x: Vec<AtomicU64> = x.iter().map(|p| AtomicU64::new(p.to_bits())).collect();
        let y: Vec<AtomicU64> = x.iter().map(|_| AtomicU64::new(0)).collect();
        kernel.step_rows(0..cut, &x, &y);
        kernel.step_rows(cut..x.len(), &x, &y);
        y.into_iter()
            .map(|a| f64::from_bits(a.into_inner()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The split-row kernel is bit-identical to the scatter oracle,
        /// which skips zero terms, on chains with states that have no
        /// incoming edges, only incoming edges from below or from above,
        /// and absorbing states, from an all-zero start, a point mass, or
        /// a vector with exact zeros of both signs.
        #[test]
        fn gather_step_is_bit_identical_to_scatter_oracle(
            n in 1usize..48,
            deg in 0usize..7,
            seed in any::<u64>(),
            start in 0u8..3,
            mass in prop::collection::vec(prop_oneof![Just(0.0), Just(-0.0), 0.0f64..1.0], 48),
        ) {
            let ctmc = shaped_chain(n, deg, seed);
            let lambda = ctmc.uniformization_rate();
            let kernel = StepKernel::new(&ctmc, lambda);
            let mut x = match start {
                0 => vec![0.0; n],
                1 => {
                    let mut x = vec![0.0; n];
                    x[seed as usize % n] = 1.0;
                    x
                }
                _ => mass[..n].to_vec(),
            };
            for step in 0..12 {
                let scatter = ctmc.uniformized_step_scatter(&x, lambda);
                let gather = kernel_step(&kernel, &x, (seed >> 32) as usize % (n + 1));
                for (s, (a, b)) in scatter.iter().zip(&gather).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "step {step}, state {s}: {a} vs {b}"
                    );
                }
                x = gather;
            }
        }
    }

    #[test]
    fn threaded_solve_is_byte_identical_to_inline() {
        // A birth–death chain and a copy with its top tenth made
        // absorbing (a lower Λ, so a different step count), walked by the
        // inline wrappers and by one fused solve on a team of 8 workers.
        // Birth rates grow with the state, so the top states set Λ.
        let n = 5000;
        let rates: Vec<(usize, usize, f64)> = (0..n - 1)
            .flat_map(|s| {
                [
                    (s, s + 1, 1.0 + (s % 7) as f64 / 3.0 + s as f64 / n as f64),
                    (s + 1, s, 2.0 + (s % 5) as f64 / 4.0),
                ]
            })
            .collect();
        let base = Ctmc::from_rates(n, &rates).unwrap();
        let pruned: Vec<_> = rates
            .iter()
            .copied()
            .filter(|&(s, _, _)| s < n - n / 10)
            .collect();
        let absorbed = Ctmc::from_rates(n, &pruned).unwrap();
        assert!(absorbed.uniformization_rate() < base.uniformization_rate());
        let mut init = vec![0.0; n];
        init[0] = 0.25;
        init[n / 2] = 0.75;
        let reward: Vec<f64> = (0..n).map(|s| (s % 3) as f64).collect();
        let times = [0.4, 1.7];
        let walks = [
            Walk {
                chain: &base,
                initial: &init,
                reward: Some((&reward, 0.9)),
                times: &times,
            },
            Walk {
                chain: &absorbed,
                initial: &init,
                reward: None,
                times: &[1.7],
            },
        ];
        let team = uniformize::solve_on_team(&walks, 1e-12, |_| 8).unwrap();
        let separate = [
            uniformize::WalkOutput {
                reward: Some(
                    base.expected_accumulated_reward(&init, &reward, 0.9, 1e-12)
                        .unwrap(),
                ),
                transients: base.transient_multi(&init, &times, 1e-12).unwrap(),
            },
            uniformize::WalkOutput {
                reward: None,
                transients: vec![absorbed.transient(&init, 1.7, 1e-12).unwrap()],
            },
        ];
        let threaded = base.clone().with_threads(8);
        let public = threaded.transient_multi(&init, &times, 1e-12).unwrap();
        for (a, b) in team.iter().zip(&separate) {
            assert_eq!(a.reward.map(f64::to_bits), b.reward.map(f64::to_bits));
            for (da, db) in a.transients.iter().zip(&b.transients) {
                for (x, y) in da.iter().zip(db) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
        for (da, db) in public.iter().zip(&separate[0].transients) {
            for (x, y) in da.iter().zip(db) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn bad_times_are_errors_not_panics() {
        let ctmc = two_state(1.0, 1.0);
        for t in [f64::NAN, f64::INFINITY, -1.0, f64::MAX] {
            assert!(matches!(
                ctmc.transient(&[1.0, 0.0], t, 1e-10),
                Err(CtmcError::BadTime(_))
            ));
            assert!(matches!(
                ctmc.transient_multi(&[1.0, 0.0], &[1.0, t], 1e-10),
                Err(CtmcError::BadTime(_))
            ));
            assert!(matches!(
                ctmc.expected_accumulated_reward(&[1.0, 0.0], &[0.0, 1.0], t, 1e-10),
                Err(CtmcError::BadTime(_))
            ));
        }
    }
}

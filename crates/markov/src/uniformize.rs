//! Fused uniformization: every request on every chain in one step loop.
//!
//! A solve that needs an accumulated reward and transient distributions
//! on one chain, plus transient distributions on a few related chains,
//! would otherwise walk the DTMC iterates `xᵏ = π₀Pᵏ` once per request.
//! [`solve`] walks each chain **once**: the reward's tail-weighted dot
//! products and every sample time's Poisson window read the same iterate,
//! and all chains advance in the same step loop — each with its own
//! uniformization rate `Λ`, Poisson windows and step count, stopping when
//! its last consumer is satisfied.
//!
//! Each walk builds its chain's step kernel once (`ctmc::StepKernel`:
//! every row's split at its diagonal position and every state's
//! self-loop probability at the walk's `Λ`) and drops it with the solve.
//! The loop runs on a worker team spawned once per solve
//! (`std::thread::scope`), synchronized by one [`Barrier`] per step. Each
//! worker owns one contiguous range of output rows per chain: it computes
//! those rows of the next iterate with the kernel — branch-free and
//! bit-identical to the scatter formulation — and adds its rows'
//! Poisson-weighted terms into the transient accumulators. The reward dot
//! product is one sequential sum over the whole iterate, in index order,
//! computed by worker 0 while the others step; its row range is shortened
//! to pay for it. The iterate buffers are shared as `AtomicU64` f64 bits
//! with relaxed ordering — the barrier orders every write before every
//! read — which keeps the crate free of `unsafe`.
//!
//! Every output element sees the same floating-point operations in the
//! same order as a separate [`Ctmc::expected_accumulated_reward`],
//! [`Ctmc::transient`] or [`Ctmc::transient_multi`] call — those are thin
//! wrappers over this module — so results are bit-identical to the
//! separate calls and to themselves at any thread count.

use crate::ctmc::{Ctmc, CtmcError, StepKernel};
use crate::poisson::{PoissonWeights, MAX_LAMBDA_T};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Barrier;

/// Work (incoming nonzeros plus rows, summed over the stepped chains) a
/// team member must have per step before [`solve`] spawns it; below this
/// the whole walk runs inline on the calling thread.
///
/// Measured with the split-row kernel on a 2-vCPU x86-64 host (release
/// build, ε = 1e-10): random chains with five outgoing edges per state,
/// about 200 steps per solve, 31 interleaved inline/team solves per size.
/// A team of two loses at 6 000 and 7 800 units (it won at most 1 of 31
/// pairs), breaks even near 12 000 (median ratio 1.06, 19 of 31 won) and
/// wins by 1.5–1.6× from 15 000 up; a round with a loaded second vCPU
/// put the team behind up to 15 000. The old kernel,
/// with its per-element branches, broke even near 6 000 under the same
/// protocol: a faster step makes the per-step barrier relatively dearer.
/// A second worker still joins at 12 000, the new break-even; raising the
/// constant would only move chains of 12 000–15 000 units inline, where
/// the two measured within noise. The Figure 4 micro chains stay on
/// their sides: 1 094 units (162 orbits) solve in 0.09 ms inline and
/// 0.40 ms on a team of two; 49 212 units (4 509 orbits) in 5.9 ms inline
/// and 4.5 ms on the team (medians). The `exact-stiff` benchmark point —
/// 5 823 orbits, a 35 478-nonzero base chain and a 9 333-nonzero absorbed
/// chain, 56 457 units over 5 576 steps — solves in 0.80 s inline and
/// 0.48 s on two workers (medians of 7).
pub const MIN_WORK_PER_WORKER: usize = 6_000;

/// What one chain contributes to a fused solve.
#[derive(Debug, Clone, Copy)]
pub struct Walk<'a> {
    /// The chain to walk; its [`Ctmc::uniformization_rate`] sets `Λ`.
    pub chain: &'a Ctmc,
    /// Initial distribution `π₀`.
    pub initial: &'a [f64],
    /// `Some((r, t))` requests the expected accumulated reward
    /// `E[∫₀ᵗ r(X(s)) ds]` (see [`Ctmc::expected_accumulated_reward`]).
    pub reward: Option<(&'a [f64], f64)>,
    /// Times at which to report the transient distribution.
    pub times: &'a [f64],
}

/// The results of one [`Walk`].
#[derive(Debug, Clone, PartialEq)]
pub struct WalkOutput {
    /// The expected accumulated reward, when requested.
    pub reward: Option<f64>,
    /// One distribution per requested time, in request order.
    pub transients: Vec<Vec<f64>>,
}

/// Solves every walk in one fused sweep on up to `threads` workers (see
/// the module docs), never more than the machine's available
/// parallelism: a barrier step waits for its slowest worker, so an
/// oversubscribed team only adds context switches. Results are
/// bit-identical at any thread count.
///
/// # Errors
///
/// * [`CtmcError::BadInitialDistribution`] if an initial distribution has
///   the wrong length or is not a probability vector;
/// * [`CtmcError::BadTime`] for a negative or non-finite time, or one so
///   large that `Λ·t` exceeds [`MAX_LAMBDA_T`].
///
/// # Panics
///
/// Panics if a reward vector's length differs from its chain's state
/// count, or `epsilon` is not in `(0, 1)`.
pub fn solve(
    walks: &[Walk<'_>],
    epsilon: f64,
    threads: usize,
) -> Result<Vec<WalkOutput>, CtmcError> {
    let max_team = if threads > 1 {
        threads.min(std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
    } else {
        1
    };
    solve_on_team(walks, epsilon, |work| {
        max_team.min(work / MIN_WORK_PER_WORKER)
    })
}

/// [`solve`] on a team of `team_for(work)` workers (at least one), where
/// `work` is the per-step work of the chains that take a step.
pub(crate) fn solve_on_team(
    walks: &[Walk<'_>],
    epsilon: f64,
    team_for: impl FnOnce(usize) -> usize,
) -> Result<Vec<WalkOutput>, CtmcError> {
    let mut plans = walks
        .iter()
        .map(|w| Plan::new(w, epsilon))
        .collect::<Result<Vec<_>, _>>()?;
    let mut rewards = vec![0.0; plans.len()];
    if let Some(k_max) = plans.iter().filter_map(|p| p.last).max() {
        let work: usize = plans
            .iter()
            .filter(|p| p.last > Some(0))
            .map(Plan::work)
            .sum();
        let team = team_for(work).max(1);
        for p in &mut plans {
            p.partition(team);
        }
        if team == 1 {
            rewards = run_worker(&plans, 0, k_max, None);
        } else {
            let barrier = Barrier::new(team);
            std::thread::scope(|scope| {
                for w in 1..team {
                    let (plans, barrier) = (&plans, &barrier);
                    scope.spawn(move || run_worker(plans, w, k_max, Some(barrier)));
                }
                rewards = run_worker(&plans, 0, k_max, Some(&barrier));
            });
        }
    }
    Ok(plans
        .into_iter()
        .zip(rewards)
        .map(|(p, r)| p.finish(r))
        .collect())
}

/// One walk, validated and laid out for the team.
struct Plan<'a> {
    chain: &'a Ctmc,
    initial: &'a [f64],
    lambda: f64,
    /// The chain's step at rate `lambda`.
    kernel: StepKernel<'a>,
    /// The reward vector and its coefficient per iterate: `P[N ≥ k+1]`
    /// for iterate `k` (exactly 1 left of the Poisson window), ending
    /// where the tail mass reaches zero.
    reward: Option<(&'a [f64], Vec<f64>)>,
    /// Poisson window per requested time (`None` for `t = 0`).
    windows: Vec<Option<PoissonWeights>>,
    /// Last iterate any consumer reads; `None` when none is read.
    last: Option<usize>,
    /// Row range boundaries per worker (`team + 1` entries).
    bounds: Vec<usize>,
    /// Ping-pong iterate buffers, f64 bits.
    bufs: [Vec<AtomicU64>; 2],
    /// Transient accumulator per requested time (empty for `t = 0`).
    acc: Vec<Vec<AtomicU64>>,
}

impl<'a> Plan<'a> {
    fn new(walk: &Walk<'a>, epsilon: f64) -> Result<Self, CtmcError> {
        let chain = walk.chain;
        chain.check_initial(walk.initial)?;
        let lambda = chain.uniformization_rate();
        let weights = |t: f64| -> Result<Option<PoissonWeights>, CtmcError> {
            if !(t >= 0.0 && lambda * t <= MAX_LAMBDA_T) {
                return Err(CtmcError::BadTime(t));
            }
            Ok((t > 0.0).then(|| PoissonWeights::new(lambda * t, epsilon)))
        };
        let reward = match walk.reward {
            None => None,
            Some((r, t)) => {
                assert_eq!(r.len(), chain.num_states(), "reward vector length");
                // E[∫₀ᵗ r ds] = (1/Λ) Σ_{k≥0} P[N ≥ k+1] · xᵏ·r, with the
                // tail probabilities taken from the truncated window
                // (mass outside it is ~ε) and ≈ 1 left of it.
                let coef = weights(t)?.map_or_else(Vec::new, |w| {
                    let mut suffix = vec![0.0; w.weights.len() + 1];
                    for i in (0..w.weights.len()).rev() {
                        suffix[i] = suffix[i + 1] + w.weights[i];
                    }
                    let mut coef = vec![1.0; w.left];
                    coef.extend(suffix[1..].iter().take_while(|&&tail| tail > 0.0));
                    coef
                });
                Some((r, coef))
            }
        };
        let windows = walk
            .times
            .iter()
            .map(|&t| weights(t))
            .collect::<Result<Vec<_>, _>>()?;
        let last = windows
            .iter()
            .flatten()
            .map(|w| w.right)
            .chain(reward.as_ref().and_then(|(_, c)| c.len().checked_sub(1)))
            .max();
        let n = chain.num_states();
        let zeros = |len: usize| (0..len).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        let bufs = if last.is_some() {
            let x0 = walk.initial.iter().map(|p| AtomicU64::new(p.to_bits()));
            [x0.collect(), zeros(n)]
        } else {
            [Vec::new(), Vec::new()]
        };
        let acc = windows
            .iter()
            .map(|w| zeros(if w.is_some() { n } else { 0 }))
            .collect();
        Ok(Plan {
            chain,
            initial: walk.initial,
            lambda,
            kernel: StepKernel::new(chain, lambda),
            reward,
            windows,
            last,
            bounds: Vec::new(),
            bufs,
            acc,
        })
    }

    /// Per-step work of one step of this chain: incoming entries plus rows.
    fn work(&self) -> usize {
        self.chain.incoming().nnz() + self.chain.num_states()
    }

    /// Splits the rows into `team` contiguous ranges of about equal work,
    /// where row `t` costs its incoming entries plus one and worker 0
    /// starts pre-loaded with the reward dot product (one unit per row).
    fn partition(&mut self, team: usize) {
        let n = self.chain.num_states();
        let dot = if self.reward.is_some() { n } else { 0 };
        let total = self.work() + dot;
        let mut bounds = vec![n; team + 1];
        bounds[0] = 0;
        let (mut done, mut w) = (dot, 1);
        for t in 0..n {
            while w < team && done * team >= w * total {
                bounds[w] = t;
                w += 1;
            }
            done += self.chain.incoming().row(t).count() + 1;
        }
        self.bounds = bounds;
    }

    /// Scales the reward sum by `1/Λ` and unpacks the accumulators.
    fn finish(self, reward_sum: f64) -> WalkOutput {
        let transients = self
            .windows
            .iter()
            .zip(self.acc)
            .map(|(w, acc)| match w {
                None => self.initial.to_vec(),
                Some(_) => acc
                    .into_iter()
                    .map(|a| f64::from_bits(a.into_inner()))
                    .collect(),
            })
            .collect();
        WalkOutput {
            reward: self.reward.map(|_| reward_sum / self.lambda),
            transients,
        }
    }
}

/// Reads one element of a shared buffer. `Relaxed` suffices: within a
/// step each element is written by one worker and read by others only
/// after the next [`Barrier::wait`], whose internal mutex orders every
/// access before the wait ahead of every access after it.
pub(crate) fn load(x: &[AtomicU64], s: usize) -> f64 {
    f64::from_bits(x[s].load(Relaxed))
}

/// Worker `w`'s share of the step loop over iterates `0..=k_max`; returns
/// the unscaled reward sums (only worker 0 computes them).
fn run_worker(plans: &[Plan], w: usize, k_max: usize, barrier: Option<&Barrier>) -> Vec<f64> {
    let mut rewards = vec![0.0; plans.len()];
    for k in 0..=k_max {
        let (x_idx, y_idx) = (k % 2, 1 - k % 2);
        for (p, reward) in plans.iter().zip(&mut rewards) {
            let Some(last) = p.last.filter(|&last| k <= last) else {
                continue;
            };
            let x = &p.bufs[x_idx];
            let rows = p.bounds[w]..p.bounds[w + 1];
            for (win, acc) in p.windows.iter().zip(&p.acc) {
                let Some(win) = win
                    .as_ref()
                    .filter(|win| (win.left..=win.right).contains(&k))
                else {
                    continue;
                };
                let wk = win.weights[k - win.left];
                for s in rows.clone() {
                    let sum = load(acc, s) + wk * load(x, s);
                    acc[s].store(sum.to_bits(), Relaxed);
                }
            }
            if let Some((r, coef)) = p.reward.as_ref().filter(|_| w == 0) {
                if let Some(&c) = coef.get(k) {
                    let dot: f64 = x
                        .iter()
                        .zip(*r)
                        .map(|(p, r)| f64::from_bits(p.load(Relaxed)) * r)
                        .sum();
                    *reward += c * dot;
                }
            }
            if k < last {
                p.kernel.step_rows(rows, x, &p.bufs[y_idx]);
            }
        }
        if k < k_max {
            if let Some(b) = barrier {
                b.wait();
            }
        }
    }
    rewards
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn huge_horizon_is_bad_time_not_a_hang() {
        // Λ·t = 1.02e300: rejected before any Poisson window is built.
        let chain = Ctmc::from_rates(2, &[(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        let initial = [1.0, 0.0];
        let reward = [0.0, 1.0];
        let walks = [
            Walk {
                chain: &chain,
                initial: &initial,
                reward: None,
                times: &[1.0, 1e300],
            },
            Walk {
                chain: &chain,
                initial: &initial,
                reward: Some((&reward, 1e300)),
                times: &[],
            },
        ];
        for walk in walks {
            assert_eq!(solve(&[walk], 1e-10, 1), Err(CtmcError::BadTime(1e300)));
        }
        // So is a time just past the bound.
        let just_over = MAX_LAMBDA_T / chain.uniformization_rate() * 1.000_001;
        let walk = Walk {
            chain: &chain,
            initial: &initial,
            reward: None,
            times: &[just_over],
        };
        assert_eq!(solve(&[walk], 1e-10, 1), Err(CtmcError::BadTime(just_over)));
    }
}

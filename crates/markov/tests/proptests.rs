//! Property-based tests for the Markov solvers.

use itua_markov::ctmc::Ctmc;
use itua_markov::poisson::PoissonWeights;
use itua_markov::sparse::CsrMatrix;
use itua_markov::uniformize::{self, Walk, WalkOutput, MIN_WORK_PER_WORKER};
use proptest::prelude::*;

fn arb_triplets(n: usize) -> impl Strategy<Value = Vec<(usize, usize, f64)>> {
    prop::collection::vec((0..n, 0..n, -100.0f64..100.0), 0..(n * n))
}

proptest! {
    /// Transposing twice is the identity.
    #[test]
    fn transpose_involution(triplets in arb_triplets(8)) {
        let m = CsrMatrix::from_triplets(8, 8, &triplets).unwrap();
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    /// `get` agrees bit for bit with a dense accumulator that sums
    /// duplicates in input order, every nonzero cell is stored and no
    /// other, and the transpose holds the same bits at the mirrored cells.
    #[test]
    fn csr_matches_dense(triplets in arb_triplets(6)) {
        let m = CsrMatrix::from_triplets(6, 6, &triplets).unwrap();
        let t = m.transpose();
        let mut dense = [[0.0f64; 6]; 6];
        for &(r, c, v) in &triplets {
            dense[r][c] += v;
        }
        for (r, row) in dense.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                prop_assert_eq!(m.get(r, c).to_bits(), v.to_bits(), "({}, {})", r, c);
                prop_assert_eq!(t.get(c, r).to_bits(), v.to_bits(), "transpose ({}, {})", c, r);
            }
        }
        let nonzero = dense.iter().flatten().filter(|&&v| v != 0.0).count();
        prop_assert_eq!(m.nnz(), nonzero);
        prop_assert_eq!(t.nnz(), nonzero);
    }

    /// `xᵀA` and `Aᵀx` agree.
    #[test]
    fn vec_mul_matches_transpose(triplets in arb_triplets(6), x in prop::collection::vec(-10.0f64..10.0, 6)) {
        let m = CsrMatrix::from_triplets(6, 6, &triplets).unwrap();
        let a = m.vec_mul(&x);
        let b = m.transpose().mul_vec(&x);
        for (u, v) in a.iter().zip(&b) {
            prop_assert!((u - v).abs() < 1e-9);
        }
    }

    /// Poisson weights are a probability vector whose mean tracks λt.
    #[test]
    fn poisson_weights_normalized(lambda_t in 0.01f64..2000.0) {
        let w = PoissonWeights::new(lambda_t, 1e-12);
        let sum: f64 = w.weights.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        let mean: f64 = w.weights.iter().enumerate()
            .map(|(i, &p)| (w.left + i) as f64 * p)
            .sum();
        prop_assert!((mean - lambda_t).abs() < 1e-3 * (1.0 + lambda_t));
    }

    /// A CTMC transient solution is a probability distribution, and mass
    /// is conserved at every horizon.
    #[test]
    fn transient_is_distribution(
        rates in prop::collection::vec((0usize..5, 0usize..5, 0.01f64..10.0), 1..15),
        t in 0.0f64..20.0,
    ) {
        let rates: Vec<_> = rates.into_iter().filter(|&(f, g, _)| f != g).collect();
        prop_assume!(!rates.is_empty());
        let ctmc = Ctmc::from_rates(5, &rates).unwrap();
        let p = ctmc.transient(&[1.0, 0.0, 0.0, 0.0, 0.0], t, 1e-10).unwrap();
        let sum: f64 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "mass {sum}");
        for &pi in &p {
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&pi));
        }
    }

    /// For random birth–death chains, every multi-time transient
    /// distribution sums to 1 with nonnegative entries, and each one is
    /// bitwise identical to the corresponding single-time solve.
    #[test]
    fn birth_death_transient_multi_is_distribution(
        births in prop::collection::vec(0.01f64..10.0, 5),
        deaths in prop::collection::vec(0.01f64..10.0, 5),
        times in prop::collection::vec(0.0f64..15.0, 1..5),
    ) {
        let mut rates = Vec::new();
        for (i, &b) in births.iter().enumerate() {
            rates.push((i, i + 1, b));
        }
        for (i, &d) in deaths.iter().enumerate() {
            rates.push((i + 1, i, d));
        }
        let ctmc = Ctmc::from_rates(6, &rates).unwrap();
        let init = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let multi = ctmc.transient_multi(&init, &times, 1e-10).unwrap();
        prop_assert_eq!(multi.len(), times.len());
        for (&t, dist) in times.iter().zip(&multi) {
            let sum: f64 = dist.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-6, "t = {}: mass {}", t, sum);
            for &pi in dist {
                prop_assert!((-1e-9..=1.0 + 1e-9).contains(&pi));
            }
            let single = ctmc.transient(&init, t, 1e-10).unwrap();
            prop_assert_eq!(dist, &single);
        }
    }

    /// Accumulated reward of a constant unit reward equals the horizon.
    #[test]
    fn unit_reward_accumulates_time(
        rates in prop::collection::vec((0usize..4, 0usize..4, 0.01f64..5.0), 1..10),
        t in 0.0f64..10.0,
    ) {
        let rates: Vec<_> = rates.into_iter().filter(|&(f, g, _)| f != g).collect();
        prop_assume!(!rates.is_empty());
        let ctmc = Ctmc::from_rates(4, &rates).unwrap();
        let r = ctmc
            .expected_accumulated_reward(&[1.0, 0.0, 0.0, 0.0], &[1.0; 4], t, 1e-10)
            .unwrap();
        prop_assert!((r - t).abs() < 1e-5 * (1.0 + t), "{r} vs {t}");
    }
}

/// A pseudo-random chain on `n` states with up to `deg` outgoing edges
/// per state, and a copy of it in which the states picked by `mode` are
/// absorbing (outgoing edges dropped): 0 none, 1 all, 2 about a third at
/// random, 3 the states with the largest exit rates — which lowers `Λ`,
/// so the absorbed walk takes fewer steps than the base walk.
fn chain_pair(n: usize, deg: usize, seed: u64, mode: u8) -> (Ctmc, Ctmc) {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let mut rates = Vec::new();
    for s in 0..n {
        for _ in 0..deg {
            let t = next() % n;
            if t != s {
                rates.push((s, t, 0.01 + (next() % 1000) as f64 / 100.0));
            }
        }
    }
    let base = Ctmc::from_rates(n, &rates).unwrap();
    let max_exit = (0..n).map(|s| base.exit_rate(s)).fold(0.0, f64::max);
    let absorbing: Vec<bool> = (0..n)
        .map(|s| match mode {
            0 => false,
            1 => true,
            2 => next() % 3 == 0,
            _ => base.exit_rate(s) >= 0.7 * max_exit,
        })
        .collect();
    rates.retain(|&(s, _, _)| !absorbing[s]);
    (base, Ctmc::from_rates(n, &rates).unwrap())
}

/// Sample times relative to `horizon`: kind 0 is time 0, kind 1 the
/// horizon itself, kind 2 `f · horizon` (above the horizon for f > 1).
fn sample_times(horizon: f64, picks: &[(u8, f64)]) -> Vec<f64> {
    picks
        .iter()
        .map(|&(kind, f)| match kind {
            0 => 0.0,
            1 => horizon,
            _ => f * horizon,
        })
        .collect()
}

fn assert_bits_eq(a: &WalkOutput, b: &WalkOutput) {
    prop_assert_eq!(a.reward.map(f64::to_bits), b.reward.map(f64::to_bits));
    prop_assert_eq!(a.transients.len(), b.transients.len());
    for (da, db) in a.transients.iter().zip(&b.transients) {
        let (ba, bb): (Vec<u64>, Vec<u64>) = (
            da.iter().map(|x| x.to_bits()).collect(),
            db.iter().map(|x| x.to_bits()).collect(),
        );
        prop_assert_eq!(ba, bb);
    }
}

/// The pass-per-request algorithms the fused walk replaced, on the
/// scatter formulation of the uniformized step: a reference that shares
/// no code with `uniformize`, so the bit-identity checks below also catch
/// a change to the walk that the public wrappers would share.
mod reference {
    use itua_markov::ctmc::Ctmc;
    use itua_markov::poisson::PoissonWeights;

    /// `y = xᵀ(I + Q/Λ)`, scattering each source's mass in source order.
    fn step(c: &Ctmc, x: &[f64], lambda: f64) -> Vec<f64> {
        let mut y = vec![0.0; x.len()];
        for (s, &xs) in x.iter().enumerate() {
            if xs == 0.0 {
                continue;
            }
            y[s] += xs * (1.0 - c.exit_rate(s) / lambda);
            for (t, r) in c.rates().row(s) {
                y[t] += xs * r / lambda;
            }
        }
        y
    }

    pub fn transient(c: &Ctmc, initial: &[f64], t: f64, eps: f64) -> Vec<f64> {
        if t == 0.0 {
            return initial.to_vec();
        }
        let lambda = c.uniformization_rate();
        let w = PoissonWeights::new(lambda * t, eps);
        let mut acc = vec![0.0; initial.len()];
        let mut x = initial.to_vec();
        for k in 0..=w.right {
            if k >= w.left {
                for (a, xs) in acc.iter_mut().zip(&x) {
                    *a += w.weights[k - w.left] * xs;
                }
            }
            if k < w.right {
                x = step(c, &x, lambda);
            }
        }
        acc
    }

    pub fn accumulated_reward(c: &Ctmc, initial: &[f64], reward: &[f64], t: f64, eps: f64) -> f64 {
        if t == 0.0 {
            return 0.0;
        }
        let lambda = c.uniformization_rate();
        let w = PoissonWeights::new(lambda * t, eps);
        let mut suffix = vec![0.0; w.weights.len() + 1];
        for i in (0..w.weights.len()).rev() {
            suffix[i] = suffix[i + 1] + w.weights[i];
        }
        let dot = |x: &[f64]| -> f64 { x.iter().zip(reward).map(|(p, r)| p * r).sum() };
        let mut acc = 0.0;
        let mut x = initial.to_vec();
        for _ in 0..w.left {
            acc += dot(&x);
            x = step(c, &x, lambda);
        }
        for i in 0..w.weights.len() {
            let tail = suffix[i + 1];
            if tail <= 0.0 {
                break;
            }
            acc += tail * dot(&x);
            x = step(c, &x, lambda);
        }
        acc / lambda
    }
}

/// One fused solve — reward plus sample times on the base chain, the
/// horizon and the sample times on the absorbed chain — against the
/// separate public calls and the pre-fusion reference, bit for bit, at
/// each thread count.
fn check_fused_matches_separate(
    (base, absorbed): &(Ctmc, Ctmc),
    seed: u64,
    horizon: f64,
    samples: &[f64],
) {
    let n = base.num_states();
    let mut initial = vec![0.0; n];
    initial[seed as usize % n] += 0.5;
    initial[(seed >> 20) as usize % n] += 0.5;
    let reward: Vec<f64> = (0..n)
        .map(|s| ((s * 7 + seed as usize) % 5) as f64)
        .collect();
    let eps = 1e-10;
    let mut absorbed_times = vec![horizon];
    absorbed_times.extend_from_slice(samples);
    let separate = [
        WalkOutput {
            reward: Some(
                base.expected_accumulated_reward(&initial, &reward, horizon, eps)
                    .unwrap(),
            ),
            transients: base.transient_multi(&initial, samples, eps).unwrap(),
        },
        WalkOutput {
            reward: None,
            transients: absorbed_times
                .iter()
                .map(|&t| absorbed.transient(&initial, t, eps).unwrap())
                .collect(),
        },
    ];
    let walks = [
        Walk {
            chain: base,
            initial: &initial,
            reward: Some((&reward, horizon)),
            times: samples,
        },
        Walk {
            chain: absorbed,
            initial: &initial,
            reward: None,
            times: &absorbed_times,
        },
    ];
    let oracle = [
        WalkOutput {
            reward: Some(reference::accumulated_reward(
                base, &initial, &reward, horizon, eps,
            )),
            transients: samples
                .iter()
                .map(|&t| reference::transient(base, &initial, t, eps))
                .collect(),
        },
        WalkOutput {
            reward: None,
            transients: absorbed_times
                .iter()
                .map(|&t| reference::transient(absorbed, &initial, t, eps))
                .collect(),
        },
    ];
    for (a, b) in separate.iter().zip(&oracle) {
        assert_bits_eq(a, b);
    }
    for threads in [1, 2, 8] {
        let fused = uniformize::solve(&walks, eps, threads).unwrap();
        prop_assert_eq!(fused.len(), 2);
        for (a, b) in fused.iter().zip(&separate) {
            assert_bits_eq(a, b);
        }
    }
}

proptest! {
    /// Small chains, always below the inline cutoff: the fused walk is
    /// bit-identical to separate reward, transient and multi-time calls
    /// for every absorbing-set shape and sample-time placement.
    #[test]
    fn fused_walk_matches_separate_calls_small(
        n in 2usize..40,
        seed in any::<u64>(),
        mode in 0u8..4,
        horizon in prop_oneof![Just(0.0), 0.0f64..3.0],
        picks in prop::collection::vec((0u8..3, 0.0f64..1.6), 0..4),
    ) {
        let chains = chain_pair(n, 4, seed, mode);
        check_fused_matches_separate(&chains, seed, horizon, &sample_times(horizon, &picks));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Chains with enough work per step for a team of two: the walk runs
    /// on the worker team (given two cores) and still matches the inline
    /// separate calls bit for bit.
    #[test]
    fn fused_walk_matches_separate_calls_on_team(
        seed in any::<u64>(),
        mode in 0u8..4,
        horizon in 0.0f64..0.4,
        picks in prop::collection::vec((0u8..3, 0.0f64..1.6), 0..3),
    ) {
        let chains = chain_pair(2500, 5, seed, mode);
        let work = chains.0.rates().nnz() + chains.0.num_states();
        prop_assert!(work >= 2 * MIN_WORK_PER_WORKER, "work {}", work);
        check_fused_matches_separate(&chains, seed, horizon, &sample_times(horizon, &picks));
    }
}

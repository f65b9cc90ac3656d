//! Truncated Poisson weights for uniformization.
//!
//! Uniformization expresses the transient distribution of a CTMC as a
//! Poisson-weighted mixture of DTMC powers. For large `λt`, computing the
//! weights naively under/overflows, so we compute them in a numerically
//! safe way: start from the (log-domain) mode, recurse outward, and
//! truncate both tails at a requested mass `1 - ε` (the approach of Fox &
//! Glynn, in a simplified but robust form).

/// The largest Poisson mean `λt` that [`PoissonWeights::new`] accepts;
/// [`crate::uniformize::solve`] rejects a larger `Λ·t` as
/// [`crate::ctmc::CtmcError::BadTime`].
///
/// The right tail is expanded from the mode until a weight falls below
/// `1e-18` of the mode's, and may not run past `mode + 10⁷`
/// (`MAX_TAIL`). At `k = mode + d` that ratio is
/// `exp(−d²/(2λt) + O(d³/(λt)²))`, so the expansion stops near
/// `d = √(2 ln 10¹⁸ · λt) ≈ 9.1σ` with `σ = √(λt)`; the cubic term only
/// moves it by a relative `O(1/σ)`. The window is exact only if the
/// expansion stops before the limit: `9.1·√(λt) < 10⁷`, i.e.
/// `λt < 1.2·10¹²`. At this bound the tail ends at `mode + 9 104 577`
/// (9.1046σ, computed by the same recurrence), and the window holds
/// about `1.8·10⁷` weights (≈150 MB). A mean past it would also ask the
/// walk for more than `10¹²` steps.
pub const MAX_LAMBDA_T: f64 = 1e12;

/// How far right of the mode the tail expansion may run; below
/// [`MAX_LAMBDA_T`] it always stops short of this.
const MAX_TAIL: usize = 10_000_000;

/// Poisson weights `P[N = k]` for `k` in `[left, right]`, truncated so the
/// retained mass is at least `1 - epsilon`.
#[derive(Debug, Clone, PartialEq)]
pub struct PoissonWeights {
    /// First retained index.
    pub left: usize,
    /// Last retained index.
    pub right: usize,
    /// `weights[i]` is `P[N = left + i]`, renormalized to sum to exactly 1.
    pub weights: Vec<f64>,
}

impl PoissonWeights {
    /// Computes truncated weights for mean `lambda_t >= 0`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda_t` is negative, NaN or above [`MAX_LAMBDA_T`], or
    /// `epsilon` not in `(0, 1)`.
    pub fn new(lambda_t: f64, epsilon: f64) -> Self {
        assert!(
            (0.0..=MAX_LAMBDA_T).contains(&lambda_t),
            "lambda_t must be in [0, MAX_LAMBDA_T]"
        );
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon in (0,1)");

        if lambda_t == 0.0 {
            return PoissonWeights {
                left: 0,
                right: 0,
                weights: vec![1.0],
            };
        }

        #[expect(
            clippy::disallowed_methods,
            reason = "floor picks the Poisson mode as the stable-summation start index; exact below 2^53"
        )]
        let mode = lambda_t.floor() as usize;
        // log P[N = mode] via Stirling-free accumulation is fine; use
        // ln k! = lgamma(k+1) through the stable product for moderate k.
        let ln_mode_weight = -lambda_t + mode as f64 * lambda_t.ln() - ln_factorial(mode);

        // Walk outward from the mode, accumulating unnormalized weights
        // relative to the mode weight (=1).
        let mut right_weights = vec![1.0f64];
        let mut k = mode;
        let mut w = 1.0f64;
        // Expand right until the ratio-based tail bound is tiny.
        loop {
            k += 1;
            w *= lambda_t / k as f64;
            if w < 1e-18 && k > mode + 2 {
                break;
            }
            right_weights.push(w);
            assert!(k - mode <= MAX_TAIL, "lambda_t within MAX_LAMBDA_T");
        }
        let mut left_weights = vec![];
        let mut k = mode;
        let mut w = 1.0f64;
        while k > 0 {
            w *= k as f64 / lambda_t;
            if w < 1e-18 {
                break;
            }
            k -= 1;
            left_weights.push(w);
        }
        // Assemble in index order.
        let left = mode - left_weights.len();
        let mut weights: Vec<f64> = left_weights.into_iter().rev().collect();
        weights.extend(right_weights);

        // Scale by the mode weight in a protected way: if the mode weight
        // underflows (huge lambda_t), normalization below fixes the scale
        // anyway, so work with relative weights directly.
        let scale = ln_mode_weight.exp();
        if scale > 0.0 {
            for w in &mut weights {
                *w *= scale;
            }
        }

        // Trim tails to requested mass.
        let total: f64 = weights.iter().sum();
        let target = total * (1.0 - epsilon);
        let mut lo = 0usize;
        let mut hi = weights.len() - 1;
        let mut kept = total;
        while kept - weights[lo].min(weights[hi]) >= target && lo < hi {
            if weights[lo] <= weights[hi] {
                kept -= weights[lo];
                lo += 1;
            } else {
                kept -= weights[hi];
                hi -= 1;
            }
        }
        let mut trimmed: Vec<f64> = weights[lo..=hi].to_vec();
        let norm: f64 = trimmed.iter().sum();
        for w in &mut trimmed {
            *w /= norm;
        }
        PoissonWeights {
            left: left + lo,
            right: left + hi,
            weights: trimmed,
        }
    }
}

/// `ln(k!)` by direct summation (exact enough for the k ranges
/// uniformization visits; switchover to Stirling for large k).
fn ln_factorial(k: usize) -> f64 {
    if k < 256 {
        (1..=k).map(|i| (i as f64).ln()).sum()
    } else {
        // Stirling series with the 1/(12k) correction.
        let kf = k as f64;
        kf * kf.ln() - kf + 0.5 * (2.0 * std::f64::consts::PI * kf).ln() + 1.0 / (12.0 * kf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_pmf(lambda: f64, k: usize) -> f64 {
        (-lambda + k as f64 * lambda.ln() - ln_factorial(k)).exp()
    }

    #[test]
    fn zero_mean_is_point_mass() {
        let w = PoissonWeights::new(0.0, 1e-10);
        assert_eq!(w.left, 0);
        assert_eq!(w.right, 0);
        assert_eq!(w.weights, vec![1.0]);
    }

    #[test]
    fn weights_sum_to_one() {
        for &lt in &[0.1, 1.0, 5.0, 30.0, 500.0, 5000.0] {
            let w = PoissonWeights::new(lt, 1e-12);
            let sum: f64 = w.weights.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "lambda_t = {lt}: sum {sum}");
        }
    }

    #[test]
    fn matches_exact_pmf_small_lambda() {
        let lt = 3.0;
        let w = PoissonWeights::new(lt, 1e-14);
        for (i, &wi) in w.weights.iter().enumerate() {
            let k = w.left + i;
            let exact = exact_pmf(lt, k);
            assert!((wi - exact).abs() < 1e-10, "k = {k}: {wi} vs {exact}");
        }
    }

    #[test]
    fn mode_is_retained_and_maximal() {
        for &lt in &[2.5, 10.0, 100.0] {
            let w = PoissonWeights::new(lt, 1e-10);
            #[expect(
                clippy::disallowed_methods,
                reason = "recomputes the Poisson mode the weights are built around"
            )]
            let mode = lt.floor() as usize;
            assert!(w.left <= mode && mode <= w.right);
            let mode_w = w.weights[mode - w.left];
            for &wi in &w.weights {
                assert!(wi <= mode_w * (1.0 + 1e-12));
            }
        }
    }

    #[test]
    fn mean_recovered() {
        let lt = 42.0;
        let w = PoissonWeights::new(lt, 1e-13);
        let mean: f64 = w
            .weights
            .iter()
            .enumerate()
            .map(|(i, &wi)| (w.left + i) as f64 * wi)
            .sum();
        assert!((mean - lt).abs() < 1e-6, "mean {mean}");
    }

    #[test]
    fn truncation_window_shrinks_with_looser_epsilon() {
        let tight = PoissonWeights::new(100.0, 1e-14);
        let loose = PoissonWeights::new(100.0, 1e-3);
        assert!(loose.weights.len() <= tight.weights.len());
    }

    #[test]
    #[should_panic]
    fn negative_lambda_panics() {
        let _ = PoissonWeights::new(-1.0, 1e-6);
    }

    #[test]
    fn ln_factorial_consistent_across_switchover() {
        // The direct sum and Stirling branches must agree near k = 256.
        let direct: f64 = (1..=300usize).map(|i| (i as f64).ln()).sum();
        assert!((ln_factorial(300) - direct).abs() < 1e-9);
    }
}

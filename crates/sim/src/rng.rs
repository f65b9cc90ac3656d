//! Deterministic pseudo-random number generation.
//!
//! The workspace deliberately does not use the `rand` crate for simulation:
//! experiment reproducibility across platforms and across crate upgrades is a
//! hard requirement for a validation study, so the generator is implemented
//! here, frozen, and tested against published reference vectors.
//!
//! The generator is **xoshiro256\*\*** (Blackman & Vigna), seeded from a
//! single `u64` through **splitmix64** as its authors recommend. Independent
//! replication streams are seeded with [`stream_seed`], random access into
//! a splitmix64-style sequence, so that streams with nearby indices (or
//! nearby base seeds) are statistically unrelated.

/// The splitmix64 generator, used for seeding.
///
/// Passes through every `u64` state; its output function is a strong
/// 64-bit mixer (variant of MurmurHash3's finalizer).
///
/// # Example
///
/// ```
/// use itua_sim::rng::SplitMix64;
/// let mut sm = SplitMix64::new(0);
/// assert_eq!(sm.next_u64(), 0xe220a8397b1dcdaf);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a splitmix64 generator with the given seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

/// Derives the seed of an independent replication stream in O(1).
///
/// `stream_seed(base, index)` is random access into a splitmix64-style
/// sequence: the base seed is first diffused through the splitmix64
/// finalizer (so *nearby* base seeds yield unrelated stream families), and
/// the result is then advanced by `index` golden-ratio increments and
/// finalized again. Unlike the historical `base_seed + index` scheme, two
/// experiments whose base seeds differ by less than the replication count
/// do **not** share any replication seeds.
///
/// # Example
///
/// ```
/// use itua_sim::rng::stream_seed;
/// // Adjacent bases used to collide under `base + i`; streams don't.
/// assert_ne!(stream_seed(1, 1), stream_seed(2, 0));
/// // Deterministic and order-free: any replication's seed in O(1).
/// assert_eq!(stream_seed(7, 1000), stream_seed(7, 1000));
/// ```
pub fn stream_seed(base: u64, index: u64) -> u64 {
    let origin = mix64(base);
    mix64(origin.wrapping_add(index.wrapping_mul(0x9e3779b97f4a7c15)))
}

/// The splitmix64 output function (a strong 64-bit mixer).
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256\*\* pseudo-random number generator.
///
/// All simulation randomness in the workspace flows through this type.
/// Cloning an `Rng` clones its state, which is occasionally useful for
/// common-random-number variance reduction.
///
/// # Example
///
/// ```
/// use itua_sim::rng::Rng;
/// let mut a = Rng::seed_from_u64(7);
/// let mut b = Rng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // fully reproducible
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a single `u64` seed via splitmix64.
    ///
    /// This is the only constructor; it guarantees the internal state is
    /// never all-zero (which would be a fixed point of xoshiro).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Rng { s }
    }

    /// Returns the next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform `f64` in the open interval `(0, 1]`.
    ///
    /// Useful for `-ln(u)` style transforms where `u == 0` must not occur.
    #[inline]
    pub fn next_f64_open(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fills `out` with uniform draws from the open interval `(0, 1]`.
    ///
    /// Consumes exactly `out.len()` generator outputs in order: element
    /// `i` equals what the `i`-th call to [`Rng::next_f64_open`] would
    /// have returned, so batched and one-at-a-time sampling produce
    /// bit-identical streams.
    pub fn fill_f64_open(&mut self, out: &mut [f64]) {
        for slot in out.iter_mut() {
            *slot = self.next_f64_open();
        }
    }

    /// Returns a uniform integer in `[0, bound)` without modulo bias.
    ///
    /// Uses Lemire's multiply-shift rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn u64_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "u64_below: bound must be positive");
        // Lemire's method: multiply into 128 bits; reject the small biased
        // region at the bottom.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn usize_below(&mut self, bound: usize) -> usize {
        self.u64_below(bound as u64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Chooses an index in `[0, weights.len())` with probability
    /// proportional to `weights[i]`.
    ///
    /// Entries that are negative or NaN are treated as zero. If all weights
    /// are zero the choice is uniform.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty.
    pub fn weighted_choice(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weighted_choice: empty weights");
        let total: f64 = weights.iter().map(|&w| sanitize(w)).sum();
        if total <= 0.0 {
            return self.usize_below(weights.len());
        }
        let mut u = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            u -= sanitize(w);
            if u < 0.0 {
                return i;
            }
        }
        weights.len() - 1 // floating-point slack lands on the last index
    }

    /// Randomly permutes `slice` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.usize_below(i + 1);
            slice.swap(i, j);
        }
    }

    /// Chooses one element of `slice` uniformly, or `None` if it is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.usize_below(slice.len())])
        }
    }
}

#[inline]
fn sanitize(w: f64) -> f64 {
    if w.is_finite() && w > 0.0 {
        w
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_reference_vectors() {
        // Reference outputs for seed 1234567 from the public-domain
        // splitmix64.c by Sebastiano Vigna.
        let mut sm = SplitMix64::new(1234567);
        let expected = [
            6457827717110365317u64,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ];
        for &e in &expected {
            assert_eq!(sm.next_u64(), e);
        }
    }

    #[test]
    fn xoshiro_is_reproducible() {
        let mut a = Rng::seed_from_u64(99);
        let mut b = Rng::seed_from_u64(99);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xoshiro_differs_across_seeds() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            let y = rng.next_f64_open();
            assert!(y > 0.0 && y <= 1.0);
        }
    }

    #[test]
    fn u64_below_is_unbiased_enough() {
        let mut rng = Rng::seed_from_u64(5);
        let bound = 10u64;
        let mut counts = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[rng.u64_below(bound) as usize] += 1;
        }
        let expect = n as f64 / bound as f64;
        for &c in &counts {
            // 5-sigma band for a binomial count.
            let sigma = (expect * (1.0 - 1.0 / bound as f64)).sqrt();
            assert!(
                (c as f64 - expect).abs() < 5.0 * sigma,
                "count {c} vs {expect}"
            );
        }
    }

    #[test]
    #[should_panic]
    fn u64_below_zero_panics() {
        let mut rng = Rng::seed_from_u64(0);
        let _ = rng.u64_below(0);
    }

    #[test]
    fn weighted_choice_respects_weights() {
        let mut rng = Rng::seed_from_u64(11);
        let w = [0.8, 0.15, 0.05];
        let mut counts = [0u32; 3];
        let n = 100_000;
        for _ in 0..n {
            counts[rng.weighted_choice(&w)] += 1;
        }
        for i in 0..3 {
            let p = w[i];
            let freq = counts[i] as f64 / n as f64;
            assert!((freq - p).abs() < 0.01, "case {i}: {freq} vs {p}");
        }
    }

    #[test]
    fn weighted_choice_all_zero_is_uniform() {
        let mut rng = Rng::seed_from_u64(13);
        let w = [0.0, 0.0];
        let mut c0 = 0;
        for _ in 0..10_000 {
            if rng.weighted_choice(&w) == 0 {
                c0 += 1;
            }
        }
        assert!((c0 as f64 / 10_000.0 - 0.5).abs() < 0.05);
    }

    #[test]
    fn weighted_choice_ignores_nan_and_negative() {
        let mut rng = Rng::seed_from_u64(17);
        let w = [f64::NAN, -3.0, 1.0];
        for _ in 0..100 {
            assert_eq!(rng.weighted_choice(&w), 2);
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(19);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn choose_handles_empty_and_single() {
        let mut rng = Rng::seed_from_u64(23);
        let empty: [u8; 0] = [];
        assert_eq!(rng.choose(&empty), None);
        assert_eq!(rng.choose(&[42]), Some(&42));
    }

    #[test]
    fn stream_seeds_do_not_overlap_for_nearby_bases() {
        // The old `base + i` scheme made replication i of base b collide
        // with replication i-1 of base b+1. Streams must not.
        use std::collections::BTreeSet;
        let mut seen = BTreeSet::new();
        for base in 0..8u64 {
            for rep in 0..1000u64 {
                assert!(
                    seen.insert(stream_seed(base, rep)),
                    "collision at {base}/{rep}"
                );
            }
        }
    }

    #[test]
    fn stream_seed_is_random_access() {
        // Computing seeds out of order gives the same values.
        let forward: Vec<u64> = (0..16).map(|i| stream_seed(99, i)).collect();
        let backward: Vec<u64> = (0..16).rev().map(|i| stream_seed(99, i)).collect();
        assert_eq!(forward, backward.into_iter().rev().collect::<Vec<_>>());
    }

    #[test]
    fn bernoulli_frequency() {
        let mut rng = Rng::seed_from_u64(29);
        let hits = (0..100_000).filter(|_| rng.bernoulli(0.3)).count();
        assert!((hits as f64 / 100_000.0 - 0.3).abs() < 0.01);
    }
}

//! RESTART-style importance splitting for rare-event estimation.
//!
//! The paper's headline measures — unreliability and probability of domain
//! exhaustion — are tiny probabilities at realistic attack rates, where
//! naive Monte Carlo needs millions of replications per sweep point. This
//! crate implements the classic fixed-splitting variant of RESTART
//! (Villén-Altamirano & Villén-Altamirano): an *importance level* function
//! partitions the state space into nested regions that the rare event is
//! reached through; when a trajectory crosses a threshold upward it is
//! *split* into `factor` branches (each carrying `1/factor` of the parent's
//! likelihood weight), and when a branch falls back below the threshold it
//! spawned at it plays symmetric Russian roulette — it survives with
//! probability `1/factor` and multiplies its weight back by `factor`, or
//! dies. The weight process is a martingale, so any path functional
//! measured at the horizon is estimated without bias; splitting only
//! reallocates simulation effort toward the rare region, shrinking the
//! variance per simulated event.
//!
//! The crate is deliberately backend-agnostic: the scheduler in
//! [`run_tree`] drives anything implementing [`SplitBranch`] (one clonable
//! in-flight trajectory) and never looks inside the simulator. The ITUA
//! discrete-event and SAN backends implement `SplitBranch` on their
//! per-thread scratch states in `itua-core`, whose level is the
//! corrupt-domain count, and `itua-runner` runs every simulated
//! replication as one tree rooted in that scratch: with an empty spec the
//! tree is the plain replication itself.
//!
//! # Determinism
//!
//! Every branch created by a split is reseeded from a third tier of the
//! hierarchical splitmix64 streams: branch `b` of the replication with root
//! seed `s` runs on `stream_seed(s, b)` (branch 0 — the root — keeps its
//! original stream, so a run in which nothing crosses a threshold draws
//! exactly what the plain replication draws). Branch indices are
//! allocated in the deterministic depth-first order of the scheduler, so a
//! split tree is a pure function of `(root seed, splitting spec)` —
//! independent of thread count, batch size, and wall-clock.

use std::fmt;
use std::str::FromStr;

/// One in-flight trajectory that the splitting scheduler can step, clone,
/// reseed, and finish.
///
/// A branch owns everything a trajectory needs: simulator state, pending
/// events, its random stream, and its partially accumulated observations.
/// `Clone` must produce an independent deep copy — after a split the two
/// branches share no mutable state.
pub trait SplitBranch: Clone {
    /// The per-trajectory output produced when the branch reaches the
    /// horizon.
    type Output;
    /// Error type surfaced by [`SplitBranch::step`].
    type Error;

    /// Advances the trajectory by one event. Returns `Ok(false)` once the
    /// horizon is reached (after which [`SplitBranch::finish`] may be
    /// called), `Ok(true)` while events remain.
    fn step(&mut self) -> Result<bool, Self::Error>;

    /// The current importance level of the trajectory: a small integer,
    /// `0` in the initial region and higher "closer" to the rare event.
    /// It must be a pure function of the current state, because the
    /// scheduler reads it after each event, and reading it must draw
    /// nothing, because the scheduler skips it when the spec has no
    /// threshold.
    fn level(&self) -> u32;

    /// Replaces the branch's random stream with a fresh one derived from
    /// `seed`. Called exactly once on every branch created by a split;
    /// never called on the root branch.
    fn reseed(&mut self, seed: u64);

    /// Draws one Bernoulli(`p`) from the branch's own stream: the Russian
    /// roulette survival trial.
    fn survives(&mut self, p: f64) -> bool;

    /// Produces the output of a branch that has reached the horizon. The
    /// branch is not stepped again afterwards.
    fn finish(&mut self) -> Self::Output;
}

/// One splitting threshold: crossing `threshold` upward splits the
/// trajectory into `factor` branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitLevel {
    /// Importance level at or above which the split fires (crossing from
    /// `< threshold` to `>= threshold`).
    pub threshold: u32,
    /// Number of branches each crossing trajectory becomes (≥ 2).
    pub factor: u32,
}

/// A full splitting configuration: strictly increasing thresholds, each
/// with its splitting factor.
///
/// Parsed from the `--split-levels` command-line spec, e.g. `"1x8,2x4"`:
/// split 8-ways on reaching level 1 and a further 4-ways on reaching
/// level 2. The canonical [`fmt::Display`] form round-trips through
/// [`SplitSpec::from_str`] and is embedded verbatim in store fingerprints.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SplitSpec {
    levels: Vec<SplitLevel>,
}

/// Error produced when parsing a `--split-levels` spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSplitSpecError(String);

impl fmt::Display for ParseSplitSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad split spec: {}", self.0)
    }
}

impl std::error::Error for ParseSplitSpecError {}

impl SplitSpec {
    /// A spec with no thresholds: splitting degenerates to plain
    /// replication (single-branch trees, weight 1).
    pub fn none() -> Self {
        SplitSpec { levels: Vec::new() }
    }

    /// Builds a spec from explicit levels.
    ///
    /// # Errors
    ///
    /// Rejects factors below 2 (a factor-1 "split" would consume roulette
    /// randomness without splitting, breaking the no-split bit-identity
    /// guarantee) and thresholds that are zero or not strictly increasing.
    pub fn from_levels(levels: Vec<SplitLevel>) -> Result<Self, ParseSplitSpecError> {
        for pair in levels.windows(2) {
            if pair[1].threshold <= pair[0].threshold {
                return Err(ParseSplitSpecError(format!(
                    "thresholds must be strictly increasing ({} then {})",
                    pair[0].threshold, pair[1].threshold
                )));
            }
        }
        for l in &levels {
            if l.threshold == 0 {
                return Err(ParseSplitSpecError(
                    "threshold 0 is the initial region and cannot be crossed upward".to_owned(),
                ));
            }
            if l.factor < 2 {
                return Err(ParseSplitSpecError(format!(
                    "factor must be at least 2, got {}",
                    l.factor
                )));
            }
        }
        Ok(SplitSpec { levels })
    }

    /// The configured thresholds, in increasing order.
    pub fn levels(&self) -> &[SplitLevel] {
        &self.levels
    }

    /// Whether the spec has no thresholds (plain replication).
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }
}

impl FromStr for SplitSpec {
    type Err = ParseSplitSpecError;

    /// Parses `"<threshold>x<factor>[,<threshold>x<factor>...]"`, e.g.
    /// `"1x8,2x4"`. The empty string and `"none"` parse to the empty spec.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() || s == "none" {
            return Ok(SplitSpec::none());
        }
        let mut levels = Vec::new();
        for part in s.split(',') {
            let (t, f) = part
                .split_once('x')
                .ok_or_else(|| ParseSplitSpecError(format!("'{part}' is not <level>x<factor>")))?;
            let threshold: u32 = t
                .trim()
                .parse()
                .map_err(|_| ParseSplitSpecError(format!("'{t}' is not a level number")))?;
            let factor: u32 = f
                .trim()
                .parse()
                .map_err(|_| ParseSplitSpecError(format!("'{f}' is not a factor")))?;
            levels.push(SplitLevel { threshold, factor });
        }
        SplitSpec::from_levels(levels)
    }
}

impl fmt::Display for SplitSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.levels.is_empty() {
            return write!(f, "none");
        }
        for (i, l) in self.levels.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}x{}", l.threshold, l.factor)?;
        }
        Ok(())
    }
}

/// Hard cap on the number of branches a single split tree may create.
///
/// An over-aggressive spec (large factors, many thresholds) could otherwise
/// explode a single replication into millions of branches. Hitting the cap
/// suppresses further splitting — branches keep running with their weight
/// untouched, so the estimator stays unbiased; only the variance reduction
/// saturates.
pub const MAX_BRANCHES_PER_TREE: u32 = 4096;

/// Effort and shape accounting for one split tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeStats {
    /// Simulator events stepped, summed over all branches.
    pub steps: u64,
    /// Branches created (1 for a tree that never split).
    pub branches: u32,
    /// Branches that reached the horizon and produced an output.
    pub leaves: u32,
    /// Branches killed by Russian roulette.
    pub killed: u32,
}

/// The weight of one branch and the thresholds it has split through.
struct Lineage {
    weight: f64,
    /// Thresholds this branch has split through, innermost last. Falling
    /// below `spawn.last()` triggers roulette against that level's factor.
    spawn: Vec<SplitLevel>,
}

/// A tree being grown: its spec, its counters, and the branches split off
/// but not yet run, most recent last.
struct Tree<'a, B> {
    spec: &'a SplitSpec,
    rep_seed: u64,
    stats: TreeStats,
    next_branch: u64,
    pending: Vec<(B, Lineage)>,
}

impl<B: SplitBranch> Tree<'_, B> {
    /// Steps `branch` until it reaches the horizon (`Ok(true)`) or loses a
    /// roulette trial (`Ok(false)`), pushing every branch a split creates
    /// onto `pending`. The level is read only when the spec has a
    /// threshold to compare it with.
    fn grow(&mut self, branch: &mut B, lineage: &mut Lineage) -> Result<bool, B::Error> {
        let armed = !self.spec.is_empty();
        let mut before = if armed { branch.level() } else { 0 };
        loop {
            let running = branch.step()?;
            self.stats.steps += 1;
            if armed {
                let after = branch.level();
                if after > before {
                    self.split(branch, lineage, before, after);
                } else if after < before && !roulette(branch, lineage, after) {
                    self.stats.killed += 1;
                    return Ok(false);
                }
                before = after;
            }
            if !running {
                self.stats.leaves += 1;
                return Ok(true);
            }
        }
    }

    /// Splits `branch` once per threshold it crossed upward, lowest first.
    /// A multi-level jump multiplies the factors; the branch budget caps
    /// the expansion.
    fn split(&mut self, branch: &B, lineage: &mut Lineage, before: u32, after: u32) {
        let mut mult: u32 = 1;
        for level in &self.spec.levels {
            if before < level.threshold && level.threshold <= after {
                let next = mult.saturating_mul(level.factor);
                // Accepting this threshold means `next - 1` clones in
                // total for this crossing; stop splitting when that would
                // blow the tree's branch budget (the weight stays
                // untouched, so the estimator stays unbiased).
                if self.stats.branches.saturating_add(next - 1) > MAX_BRANCHES_PER_TREE {
                    break;
                }
                lineage.weight /= f64::from(level.factor);
                lineage.spawn.push(*level);
                mult = next;
            }
        }
        for _ in 1..mult {
            let mut clone = branch.clone();
            clone.reseed(itua_sim::rng::stream_seed(self.rep_seed, self.next_branch));
            self.next_branch += 1;
            self.stats.branches += 1;
            let lineage = Lineage {
                weight: lineage.weight,
                spawn: lineage.spawn.clone(),
            };
            self.pending.push((clone, lineage));
        }
    }
}

/// Symmetric Russian roulette on each threshold `branch` has fallen below
/// `level`, innermost first. Returns whether the branch survives.
fn roulette<B: SplitBranch>(branch: &mut B, lineage: &mut Lineage, level: u32) -> bool {
    while let Some(spawn) = lineage.spawn.last().copied() {
        if level >= spawn.threshold {
            break;
        }
        if !branch.survives(1.0 / f64::from(spawn.factor)) {
            return false;
        }
        lineage.weight *= f64::from(spawn.factor);
        lineage.spawn.pop();
    }
    true
}

/// Runs one complete split tree from `root` and appends each surviving
/// leaf's `(weight, output)` to `out`.
///
/// The root is stepped in place, so a caller can root every tree in one
/// reused state; only a split clones it. The root is branch 0 and keeps
/// its own stream; branch `b > 0` runs on `stream_seed(rep_seed, b)`,
/// where indices are assigned in the deterministic order branches are
/// created. Branches execute serially (the root first, then depth-first,
/// most recent split first) inside the caller's replication slot, so the
/// surrounding chunk-ordered reduction keeps results bit-identical at any
/// thread count.
///
/// With an empty `spec` the tree is exactly the root stepping to the
/// horizon: no level read, no clone, no reseed, no roulette draw.
///
/// # Errors
///
/// Propagates the first error returned by [`SplitBranch::step`].
pub fn run_tree<B: SplitBranch>(
    root: &mut B,
    rep_seed: u64,
    spec: &SplitSpec,
    out: &mut Vec<(f64, B::Output)>,
) -> Result<TreeStats, B::Error> {
    let mut tree = Tree {
        spec,
        rep_seed,
        stats: TreeStats {
            branches: 1,
            ..TreeStats::default()
        },
        next_branch: 1,
        pending: Vec::new(),
    };
    let mut lineage = Lineage {
        weight: 1.0,
        spawn: Vec::new(),
    };
    if tree.grow(root, &mut lineage)? {
        out.push((lineage.weight, root.finish()));
    }
    while let Some((mut branch, mut lineage)) = tree.pending.pop() {
        if tree.grow(&mut branch, &mut lineage)? {
            out.push((lineage.weight, branch.finish()));
        }
    }
    Ok(tree.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use itua_sim::rng::{stream_seed, Rng};

    /// A toy trajectory for exercising the scheduler: a deterministic
    /// level path driven by a shared script, plus its own RNG for roulette.
    #[derive(Clone)]
    struct ScriptBranch {
        script: Vec<u32>,
        pos: usize,
        rng: Rng,
        id_trail: Vec<u64>,
    }

    impl ScriptBranch {
        fn new(script: &[u32], seed: u64) -> Self {
            ScriptBranch {
                script: script.to_vec(),
                pos: 0,
                rng: Rng::seed_from_u64(seed),
                id_trail: vec![seed],
            }
        }
    }

    impl SplitBranch for ScriptBranch {
        type Output = (u32, Vec<u64>);
        type Error = std::convert::Infallible;

        fn step(&mut self) -> Result<bool, Self::Error> {
            self.pos += 1;
            Ok(self.pos < self.script.len())
        }

        fn level(&self) -> u32 {
            self.script[self.pos.min(self.script.len() - 1)]
        }

        fn reseed(&mut self, seed: u64) {
            self.rng = Rng::seed_from_u64(seed);
            self.id_trail.push(seed);
        }

        fn survives(&mut self, p: f64) -> bool {
            self.rng.bernoulli(p)
        }

        fn finish(&mut self) -> Self::Output {
            (self.level(), self.id_trail.clone())
        }
    }

    fn spec(s: &str) -> SplitSpec {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["1x8", "1x8,2x4", "2x16,5x2,9x3"] {
            assert_eq!(spec(s).to_string(), s);
        }
        assert!(spec("none").is_empty());
        assert!(spec("").is_empty());
        assert_eq!(SplitSpec::none().to_string(), "none");
    }

    #[test]
    fn parse_rejects_bad_specs() {
        for s in ["1", "x8", "1x1", "0x4", "2x4,1x4", "1x4,1x4", "ax4", "1xb"] {
            assert!(s.parse::<SplitSpec>().is_err(), "accepted '{s}'");
        }
    }

    #[test]
    fn empty_spec_is_single_leaf_weight_one() {
        let mut out = Vec::new();
        let stats = run_tree(
            &mut ScriptBranch::new(&[0, 1, 2, 1, 0], 7),
            7,
            &SplitSpec::none(),
            &mut out,
        )
        .unwrap();
        assert_eq!(stats.branches, 1);
        assert_eq!(stats.leaves, 1);
        assert_eq!(stats.killed, 0);
        assert_eq!(stats.steps, 5);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 1.0);
        // Root branch never reseeded.
        assert_eq!(out[0].1 .1, vec![7]);
    }

    /// A branch that counts down its remaining events and must never be
    /// asked for its level, reseeded, or rouletted.
    #[derive(Clone)]
    struct Blind {
        left: u32,
    }

    impl SplitBranch for Blind {
        type Output = u32;
        type Error = std::convert::Infallible;

        fn step(&mut self) -> Result<bool, Self::Error> {
            self.left -= 1;
            Ok(self.left > 0)
        }

        fn level(&self) -> u32 {
            panic!("level read without a threshold")
        }

        fn reseed(&mut self, _seed: u64) {
            panic!("root reseeded")
        }

        fn survives(&mut self, _p: f64) -> bool {
            panic!("roulette without a threshold")
        }

        fn finish(&mut self) -> u32 {
            self.left
        }
    }

    #[test]
    fn empty_spec_steps_the_root_in_place_without_reading_its_level() {
        let mut root = Blind { left: 5 };
        let mut out = Vec::new();
        let stats = run_tree(&mut root, 9, &SplitSpec::none(), &mut out).unwrap();
        assert_eq!(stats.steps, 5);
        assert_eq!(out, vec![(1.0, 0)]);
        assert_eq!(root.left, 0, "the caller's root was not stepped");
    }

    #[test]
    fn upward_crossing_splits_with_weight_division() {
        // Script rises to level 1 and stays: 4-way split, no roulette.
        let mut out = Vec::new();
        let stats = run_tree(
            &mut ScriptBranch::new(&[0, 1, 1], 3),
            3,
            &spec("1x4"),
            &mut out,
        )
        .unwrap();
        assert_eq!(stats.branches, 4);
        assert_eq!(stats.leaves, 4);
        assert_eq!(out.len(), 4);
        let total: f64 = out.iter().map(|(w, _)| w).sum();
        assert!((total - 1.0).abs() < 1e-12, "weights sum to 1, got {total}");
        for (w, _) in &out {
            assert_eq!(*w, 0.25);
        }
        // Clones got tier-3 seeds; the root kept its own.
        let trails: Vec<&Vec<u64>> = out.iter().map(|(_, o)| &o.1).collect();
        assert!(trails.contains(&&vec![3]));
        for b in 1..4u64 {
            assert!(trails.contains(&&vec![3, stream_seed(3, b)]));
        }
    }

    #[test]
    fn multi_level_jump_multiplies_factors() {
        // 0 → 2 in one step crosses both thresholds: 2 × 3 = 6 branches.
        let mut out = Vec::new();
        let stats = run_tree(
            &mut ScriptBranch::new(&[0, 2, 2], 11),
            11,
            &spec("1x2,2x3"),
            &mut out,
        )
        .unwrap();
        assert_eq!(stats.branches, 6);
        assert_eq!(out.len(), 6);
        let total: f64 = out.iter().map(|(w, _)| w).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn roulette_kills_or_reweights() {
        // Rise to 1 (split 8-ways), fall back to 0, then finish: every
        // branch faces one roulette trial at p = 1/8. Summed over survivors
        // the expected total weight is 1; check the martingale numerically
        // over many seeds.
        let mut grand_total = 0.0;
        let trees = 400;
        for seed in 0..trees {
            let mut out = Vec::new();
            run_tree(
                &mut ScriptBranch::new(&[0, 1, 0, 0], seed),
                seed,
                &spec("1x8"),
                &mut out,
            )
            .unwrap();
            grand_total += out.iter().map(|(w, _)| w).sum::<f64>();
        }
        let mean = grand_total / f64::from(trees as u32);
        assert!((mean - 1.0).abs() < 0.25, "roulette biased: mean {mean}");
    }

    #[test]
    fn tree_is_reproducible() {
        let run = |seed: u64| {
            let mut out = Vec::new();
            let stats = run_tree(
                &mut ScriptBranch::new(&[0, 1, 0, 1, 2, 0, 1], seed),
                seed,
                &spec("1x4,2x2"),
                &mut out,
            )
            .unwrap();
            let weights: Vec<u64> = out.iter().map(|(w, _)| w.to_bits()).collect();
            (stats, weights)
        };
        assert_eq!(run(42), run(42));
        assert!(!run(42).1.is_empty());
    }

    #[test]
    fn branch_cap_suppresses_splitting() {
        // An oscillating script with huge factors would explode without the
        // cap; with it, the tree stays bounded and weights stay positive.
        let script: Vec<u32> = (0..200).map(|i| [0, 1][i % 2]).collect();
        let mut out = Vec::new();
        let stats = run_tree(
            &mut ScriptBranch::new(&script, 5),
            5,
            &spec("1x64"),
            &mut out,
        )
        .unwrap();
        assert!(stats.branches <= MAX_BRANCHES_PER_TREE);
        for (w, _) in &out {
            assert!(*w > 0.0);
        }
    }
}

//! Exhaustive state-space generation: SAN → CTMC.
//!
//! Möbius "can solve SANs analytically by converting them into equivalent
//! continuous time Markov chains". This module performs that conversion for
//! SANs whose timed activities are all exponential (rates may be
//! marking-dependent). Instantaneous activities are handled by on-the-fly
//! elimination of *vanishing markings*: a firing that lands on a marking
//! with enabled instantaneous activities is followed through the
//! instantaneous firings (uniform choice among enabled activities, case
//! weights within an activity) until only *tangible* markings remain,
//! accumulating path probabilities.
//!
//! Generation runs on a team of workers, and the chain it produces does
//! not depend on the team size. States are numbered in breadth-first
//! first-encounter order and expanded in batches of already-numbered
//! states. Workers claim small sub-blocks of a batch. Each worker fires
//! every enabled timed case into a reused scratch [`Marking`], resolves
//! it with its own resolver (`Resolver`, a flat `i32` work stack, so a
//! tangible successor costs one pop), canonicalizes and hashes each
//! outcome, and writes it to the sub-block's buffer. Meanwhile the
//! calling thread interns the previous batch's successors in state order,
//! then helps with the batch. Interning in exactly the order a one-thread
//! loop meets the successors reproduces its numbering, its first error
//! and every floating-point operation: a cascade pops last in first out
//! and merges its outcomes in first-encounter order, and each rate is
//! `rate * (w / total) * p`. The interner (`Interner`) is an
//! open-addressing table of state numbers, probed with the workers'
//! hashes and compared against the stored markings, so each state's
//! values are stored once. No successor allocates once the buffers have
//! grown.
//!
//! A generated space is a *structure* and its *rates* ([`StateSpace`]).
//! The structure records, for each state, every timed firing it expanded
//! (activity and case, in expansion order) and each firing's tangible
//! outcomes with their path probabilities `p`; the rates are one share
//! `rate * (w / total)` per firing. Expansion enumerates a state's timed
//! firings through one function (`timed_firings`: enabled, rate, case
//! weights, share), and so does [`StateSpace::rerated`], which keeps the
//! structure and recomputes every share under another SAN: a sweep over
//! timed rates and case weights generates once and re-rates the rest,
//! bit for bit what generating each point afresh would give.

use crate::marking::Marking;
use crate::model::{Activity, ActivityId, San, SanError, Timing};
use crate::sym::SymmetrySpec;
use itua_markov::ctmc::{Ctmc, CtmcError};
use std::hash::{BuildHasher, RandomState};
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// Maximum depth of instantaneous-firing chains during vanishing-marking
/// elimination; beyond this the model is declared unstabilized.
const MAX_VANISHING_DEPTH: usize = 10_000;

/// Most states in one batch. Two batches of successors are buffered at a
/// time: the one the team expands and the one the calling thread interns.
const BATCH_STATES: usize = 256;

/// States in one sub-block, the unit of work a worker claims.
const SUB_BLOCK_STATES: usize = 16;

/// A batch of fewer states is expanded by the calling thread alone, after
/// it has interned the previous batch: the helpers are spawned per batch,
/// and a small batch does not pay for the spawn.
///
/// Measured on a 2-vCPU x86-64 host (release build, best of 40 runs per
/// setting): the 162-orbit Figure 4 micro chain generates in 0.24 ms on
/// one worker and 0.25 ms on two with this cutoff, but in 0.40 ms on two
/// with a cutoff of 16, where its batches of 16 to 63 states also spawn
/// a helper. The 4 509-orbit Figure 4 chain generates in 14.5 ms on one
/// worker and 11.7 ms on two (9.3 ms with a cutoff of 16). An
/// `exact-build` point, 17 388 orbits in mostly full batches, expands
/// 68 of its 73 batches on the team.
const MIN_TEAM_BATCH: usize = 64;

/// Work-item budget for one vanishing-marking resolution, scaled from the
/// caller's `max_states` bound. A wide instantaneous cascade (many
/// concurrently enabled zero-time activities) branches into a tree of
/// firing orders that can explode combinatorially before a single
/// tangible marking is interned — exceeding this budget is reported as
/// state-space explosion rather than being allowed to exhaust memory.
/// The floor keeps legitimate deep-but-narrow chains (and the livelock
/// detector, which needs `MAX_VANISHING_DEPTH` pops) unaffected by small
/// `max_states` values.
fn vanishing_budget(max_states: usize) -> usize {
    max_states.saturating_mul(10).max(2 * MAX_VANISHING_DEPTH)
}

/// The reachable tangible state space of a SAN, with transition rates.
///
/// A space is a *structure* and its *rates*. The structure is what the
/// firings do: the tangible markings, and for each state every timed
/// firing expanded there (activity and case, in expansion order) with the
/// firing's tangible outcomes, each with its path probability `p` through
/// the vanishing markings. The rates are one *share* per firing,
/// `rate * (w / total)` for the activity's rate and the case's weight `w`
/// among weights summing to `total`; a transition's rate is its firing's
/// share times `p`. An outcome in the state's own orbit is a self-loop, a
/// no-op for CTMC dynamics: it stays in the structure, and is left out of
/// the transitions. [`StateSpace::rerated`] keeps the structure and
/// recomputes the shares under another SAN.
#[derive(Debug, Clone)]
pub struct StateSpace {
    markings: Vec<Marking>,
    /// The firings and outcomes of every state, and their shares.
    transitions: Transitions,
    /// Distribution over tangible states equivalent to the (possibly
    /// vanishing) initial marking.
    initial: Vec<(usize, f64)>,
    /// Per-state orbit sizes when generated lumped
    /// ([`StateSpace::generate_lumped`]): state `i` represents
    /// `orbit_sizes[i]` markings of the unreduced chain. `None` for the
    /// plain generator.
    orbit_sizes: Option<Vec<u128>>,
    /// The number of activity `a`'s first case among all cases
    /// (`case_base[a]`), and the initial marking, of the SAN generated
    /// from: the shape [`StateSpace::rerated`] requires of another SAN.
    case_base: Vec<u32>,
    origin: Marking,
}

impl StateSpace {
    /// Explores the reachable state space of `san` on one worker:
    /// [`StateSpace::explore`] without a symmetry spec.
    ///
    /// # Errors
    ///
    /// * [`SanError::StateSpaceTooLarge`] if more than `max_states`
    ///   tangible markings are reachable, or a single vanishing-marking
    ///   resolution branches past its expansion budget (ten work items
    ///   per allowed state, with a floor) — both are forms of state-space
    ///   explosion, and both fail fast instead of exhausting memory.
    /// * [`SanError::Unstabilized`] if instantaneous activities livelock.
    /// * [`SanError::BadValue`] if a rate or case weight is NaN, infinite
    ///   or negative, or an activity's case weights sum to zero, at a
    ///   reachable marking.
    ///
    /// More than `u32::MAX` timed firings or transitions are reported as
    /// [`SanError::StateSpaceTooLarge`] too.
    pub fn generate(san: &Arc<San>, max_states: usize) -> Result<Self, SanError> {
        Self::explore(san, None, max_states, 1)
    }

    /// Explores the reachable tangible state space *in canonical form*
    /// under `sym`, producing the exactly-lumped CTMC: every state is the
    /// lexicographically least member of its orbit, and summing a
    /// representative's outgoing rates by target orbit (done when the
    /// transition list is assembled into a [`Ctmc`]) yields the quotient
    /// chain. Exact lumpability holds because a [`SymmetrySpec`] asserts
    /// the group action is a model automorphism; any orbit-invariant
    /// reward is then solved exactly on the quotient. Runs on one worker:
    /// [`StateSpace::explore`] with `Some(sym)`.
    ///
    /// [`StateSpace::orbit_sizes`] reports how many markings of the
    /// unreduced chain each representative stands for, so
    /// `Σ orbit_sizes = full tangible state count` — the cross-check the
    /// analyzer's unreduced explorer provides on micro configurations.
    ///
    /// # Errors
    ///
    /// The same family as [`StateSpace::generate`], with `max_states`
    /// bounding the number of *orbits* interned.
    pub fn generate_lumped(
        san: &Arc<San>,
        sym: &SymmetrySpec,
        max_states: usize,
    ) -> Result<Self, SanError> {
        Self::explore(san, Some(sym), max_states, 1)
    }

    /// The breadth-first generator behind [`StateSpace::generate`] and
    /// [`StateSpace::generate_lumped`], on a team of up to `threads`
    /// workers (see the module docs), never more than the machine's
    /// available parallelism. Under `Some(sym)` every tangible marking
    /// is canonicalized before interning (two successors in the same
    /// orbit merge into one state, and their rates sum when the
    /// transition list is assembled into a CTMC) and orbit sizes are
    /// recorded; under `None` markings are interned as they are. The
    /// result, or the error, is bit-identical at any thread count.
    ///
    /// # Errors
    ///
    /// As [`StateSpace::generate`]; under `Some(sym)`, `max_states`
    /// bounds the number of orbits.
    pub fn explore(
        san: &San,
        sym: Option<&SymmetrySpec>,
        max_states: usize,
        threads: usize,
    ) -> Result<Self, SanError> {
        let team = if threads > 1 {
            threads.min(std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
        } else {
            1
        };
        Self::explore_on_team(san, sym, max_states, team)
    }

    /// [`StateSpace::explore`] on a team of exactly `team` workers (at
    /// least one), whatever the machine's parallelism.
    pub(crate) fn explore_on_team(
        san: &San,
        sym: Option<&SymmetrySpec>,
        max_states: usize,
        team: usize,
    ) -> Result<Self, SanError> {
        let hasher = RandomState::new();
        let width = san.num_places();
        let case_base = case_base(san).ok_or(SanError::StateSpaceTooLarge(max_states))?;
        let mut workers: Vec<Expander<'_>> = (0..team.max(1))
            .map(|_| Expander::new(san, sym, &hasher, &case_base, max_states))
            .collect();
        let mut states = Interner::new(sym, max_states);

        let mut outcomes = Successors::new(width);
        workers[0].resolve_initial(&mut outcomes)?;
        let mut initial = Vec::with_capacity(outcomes.succ.len());
        for (i, &(hash, p)) in outcomes.succ.iter().enumerate() {
            initial.push((states.intern(outcomes.key(i), hash)?, p));
        }
        // Merge duplicate initial entries.
        initial.sort_by_key(|&(i, _)| i);
        initial.dedup_by(|a, b| {
            if a.0 == b.0 {
                b.1 += a.1;
                true
            } else {
                false
            }
        });

        // Each round the team expands `batches[0]` while the calling
        // thread interns `batches[1]`, the round before's; then they swap.
        // The loop ends when both are empty.
        let mut batches = [Batch::new(width), Batch::new(width)];
        let mut transitions = Transitions::default();
        // States before `expanded` are in a batch already.
        let mut expanded = 0;
        loop {
            let [front, back] = &mut batches;
            let end = states.markings.len().min(expanded + BATCH_STATES);
            if end == expanded && back.len == 0 {
                break;
            }
            front.load(expanded, &states.markings[expanded..end]);
            expanded = end;
            let helpers = if front.len >= MIN_TEAM_BATCH {
                workers.len() - 1
            } else {
                0
            };
            let (me, team) = workers.split_first_mut().expect("a team of at least one");
            let (front, claims) = (&*front, AtomicUsize::new(0));
            std::thread::scope(|scope| {
                for worker in team.iter_mut().take(helpers) {
                    let claims = &claims;
                    scope.spawn(move || worker.expand_batch(front, claims));
                }
                states.intern_batch(back, &mut transitions)?;
                me.expand_batch(front, &claims);
                Ok::<(), SanError>(())
            })?;
            batches.swap(0, 1);
        }

        Ok(StateSpace {
            markings: states.markings,
            transitions,
            initial,
            orbit_sizes: sym.map(|_| states.orbit_sizes),
            case_base,
            origin: san.initial_marking(),
        })
    }

    /// This chain under `san`'s timed rates and case weights: the
    /// structure kept, every share recomputed at every state by the
    /// enumeration generation uses, so each transition's rate is bit for
    /// bit what generating from `san` gives. A pass over the states' timed
    /// activities, with no firing, resolution or interning.
    ///
    /// `san` must be the SAN generated from up to timed rates and timed
    /// case weights: the same places, initial marking and activities, the
    /// same firing effects, enabling predicates and instantaneous
    /// activities. Re-rating checks the shape (place count, initial
    /// marking, every activity's case count) and that every state fires
    /// the same (activity, case) sequence; the rest is the caller's
    /// promise, which the ITUA model keeps by comparing structure keys.
    ///
    /// Returns `None` (refuses) when the shape differs, when a state fires
    /// another sequence (a rate or case weight turned zero there, or a
    /// zero-rate activity or zero-weight case turned on), or when a rate
    /// or weight is invalid. The caller then generates afresh, which
    /// reports any error.
    pub fn rerated(mut self, san: &San) -> Option<Self> {
        let same_shape = case_base(san).as_ref() == Some(&self.case_base)
            && san.num_places() == self.origin.values().len()
            && san.initial_marking().values() == self.origin.values();
        if !same_shape {
            return None;
        }
        let (chain, bases) = (&mut self.transitions, &self.case_base);
        let mut weights = Vec::new();
        let mut k = 0;
        for (s, marking) in self.markings.iter().enumerate() {
            let end = chain.state_ends[s] as usize;
            let fired = timed_firings(san, marking, &mut weights, |activity, _, case, share| {
                let f = chain.firings[..end].get_mut(k).ok_or(Refused)?;
                if f.code != bases[activity.index()] + case as u32 {
                    return Err(Refused);
                }
                f.share = share;
                k += 1;
                Ok(())
            });
            if fired.is_err() || k != end {
                return None;
            }
        }
        Some(self)
    }

    /// Number of tangible states.
    pub fn num_states(&self) -> usize {
        self.markings.len()
    }

    /// Per-state orbit sizes for a lumped space
    /// ([`StateSpace::generate_lumped`]); `None` for the plain generator.
    pub fn orbit_sizes(&self) -> Option<&[u128]> {
        self.orbit_sizes.as_deref()
    }

    /// For a lumped space, the tangible state count of the *unreduced*
    /// chain (`Σ orbit_sizes`, saturating); `None` for the plain
    /// generator (where it would equal [`StateSpace::num_states`]).
    pub fn full_state_total(&self) -> Option<u128> {
        self.orbit_sizes
            .as_ref()
            .map(|o| o.iter().fold(0u128, |acc, &x| acc.saturating_add(x)))
    }

    /// The marking of state `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn marking(&self, i: usize) -> &Marking {
        &self.markings[i]
    }

    /// The `(from, to, rate)` transitions in generation order (by state,
    /// then firing, then outcome), with no self-loops.
    pub fn transitions(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.num_states())
            .flat_map(move |s| self.transitions.row(s).map(move |(to, rate)| (s, to, rate)))
    }

    /// Number of transitions.
    pub fn num_transitions(&self) -> usize {
        self.transitions().count()
    }

    /// Initial distribution as a dense probability vector.
    pub fn initial_distribution(&self) -> Vec<f64> {
        let mut v = vec![0.0; self.markings.len()];
        for &(i, p) in &self.initial {
            v[i] += p;
        }
        v
    }

    /// Builds the equivalent CTMC.
    ///
    /// # Errors
    ///
    /// Propagates matrix construction failures.
    pub fn to_ctmc(&self) -> Result<Ctmc, CtmcError> {
        Ctmc::from_rows(
            self.num_states(),
            self.transitions.targets.len(),
            |s, row| {
                row.extend(self.transitions.row(s));
            },
        )
    }

    /// Evaluates `f` on every state, producing a reward vector aligned with
    /// the CTMC's state indices.
    pub fn reward_vector(&self, f: impl FnMut(&Marking) -> f64) -> Vec<f64> {
        self.markings.iter().map(f).collect()
    }

    /// Builds a CTMC in which every state satisfying `is_absorbing` is made
    /// absorbing (its outgoing transitions dropped), plus the per-state
    /// absorbing flags.
    ///
    /// Summing the transient mass over the flagged states then gives
    /// `P[the predicate has held at some point by time t]` — the analytic
    /// counterpart of a sticky ever-true reward variable such as
    /// per-application unreliability.
    ///
    /// # Errors
    ///
    /// Propagates matrix construction failures.
    pub fn absorbing_ctmc(
        &self,
        is_absorbing: impl FnMut(&Marking) -> bool,
    ) -> Result<(Ctmc, Vec<bool>), CtmcError> {
        let flags: Vec<bool> = self.markings.iter().map(is_absorbing).collect();
        Ok((self.to_ctmc()?.absorbing(&flags), flags))
    }

    /// Expected value of `f` under a distribution over states (e.g. a
    /// transient solution): `Σ_s p[s]·f(marking(s))`.
    ///
    /// # Panics
    ///
    /// Panics if `distribution` does not have one entry per state.
    pub fn expected_reward(&self, distribution: &[f64], mut f: impl FnMut(&Marking) -> f64) -> f64 {
        assert_eq!(
            distribution.len(),
            self.markings.len(),
            "distribution length must match the state count"
        );
        self.markings
            .iter()
            .zip(distribution)
            .map(|(m, &p)| p * f(m))
            .sum()
    }
}

/// The structure and rates of a chain's transitions (see [`StateSpace`]),
/// flat: state `s`'s firings are `firings[state_ends[s - 1]..state_ends[s]]`
/// (from 0 for state 0), and firing `k`'s outcomes are
/// `targets[..]` / `probs[..]` from the previous firing's `end` to its own.
/// The `u32` offsets hold 16 bytes per firing and 12 per outcome; more
/// than `u32::MAX` of either is [`SanError::StateSpaceTooLarge`].
#[derive(Debug, Clone, Default)]
struct Transitions {
    /// Per state, the end of its firings.
    state_ends: Vec<u32>,
    /// Each timed firing, in expansion order.
    firings: Vec<Firing>,
    /// Each outcome's target state and path probability.
    targets: Vec<u32>,
    probs: Vec<f64>,
}

/// One timed firing of a state.
#[derive(Debug, Clone, Copy)]
struct Firing {
    /// The firing's share, `rate * (w / total)`: its rate.
    share: f64,
    /// Its activity and case, numbered `case_base[activity] + case`.
    code: u32,
    /// The end of its outcomes.
    end: u32,
}

impl Transitions {
    /// The firings of state `s`.
    fn firings_of(&self, s: usize) -> Range<usize> {
        let start = if s == 0 { 0 } else { self.state_ends[s - 1] };
        start as usize..self.state_ends[s] as usize
    }

    /// The outcomes of firing `k`.
    fn outcomes(&self, k: usize) -> Range<usize> {
        let start = if k == 0 { 0 } else { self.firings[k - 1].end };
        start as usize..self.firings[k].end as usize
    }

    /// The `(to, rate)` transitions out of state `s`, in generation order,
    /// self-loops left out: each outcome's rate is its firing's share
    /// times its probability.
    fn row(&self, s: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.firings_of(s).flat_map(move |k| {
            let share = self.firings[k].share;
            self.outcomes(k)
                .filter(move |&i| self.targets[i] as usize != s)
                .map(move |i| (self.targets[i] as usize, share * self.probs[i]))
        })
    }
}

/// The number of each activity's first case among all cases of `san`, in
/// activity order: `(activity, case)` is case `base[activity] + case`.
/// `None` past `u32::MAX` cases.
fn case_base(san: &San) -> Option<Vec<u32>> {
    let mut next = 0u32;
    san.activities()
        .map(|(_, act)| {
            let base = next;
            next = next.checked_add(u32::try_from(act.num_cases()).ok()?)?;
            Some(base)
        })
        .collect()
}

/// Re-rating met a firing sequence or a value it cannot re-rate.
struct Refused;

impl From<SanError> for Refused {
    fn from(_: SanError) -> Self {
        Refused
    }
}

/// Calls `each(activity id, activity, case, share)` for every timed
/// firing of `state`, in expansion order: each enabled exponential
/// activity with a positive rate, in activity order, and each of its cases
/// with a positive weight, in case order, with share
/// `rate * (w / total)`. The one enumeration both generation and
/// re-rating use, so both compute every share alike.
///
/// # Errors
///
/// [`SanError::BadValue`] (converted) if a rate or case weight is NaN,
/// infinite or negative, or an activity's case weights sum to zero; the
/// first error `each` returns.
fn timed_firings<E: From<SanError>>(
    san: &San,
    state: &Marking,
    weights: &mut Vec<f64>,
    mut each: impl FnMut(ActivityId, &Activity, usize, f64) -> Result<(), E>,
) -> Result<(), E> {
    let bad = |act: &Activity| SanError::BadValue(act.name().to_owned());
    for (id, act) in san.activities() {
        let Timing::Exponential(rate_fn) = act.timing() else {
            continue;
        };
        if !act.enabled(state) {
            continue;
        }
        let rate = rate_fn(state);
        if !(rate.is_finite() && rate >= 0.0) {
            return Err(bad(act).into());
        }
        if rate == 0.0 {
            continue;
        }
        // A NaN or infinite weight poisons the total; a negative one is
        // caught where zero-weight cases are skipped, so the common path
        // runs no extra test.
        act.case_weights_into(state, weights);
        let total: f64 = weights.iter().sum();
        if !(total.is_finite() && total > 0.0) {
            return Err(bad(act).into());
        }
        for (case, &w) in weights.iter().enumerate() {
            if w <= 0.0 {
                if w < 0.0 {
                    return Err(bad(act).into());
                }
                continue;
            }
            each(id, act, case, rate * (w / total))?;
        }
    }
    Ok(())
}

/// Consecutive states handed to the team: copies of their markings, and
/// one successor buffer per sub-block.
struct Batch {
    /// Number of the first state.
    first: usize,
    /// Number of states.
    len: usize,
    width: usize,
    /// The states' markings, `width` values each.
    values: Vec<i32>,
    /// Sub-block `k` holds the successors of the batch's states
    /// `k·S .. (k+1)·S`, for `S` = `SUB_BLOCK_STATES`, written by
    /// whichever worker claims it.
    sub_blocks: Vec<Mutex<Successors>>,
}

impl Batch {
    fn new(width: usize) -> Self {
        Batch {
            first: 0,
            len: 0,
            width,
            values: Vec::new(),
            sub_blocks: (0..BATCH_STATES / SUB_BLOCK_STATES)
                .map(|_| Mutex::new(Successors::new(width)))
                .collect(),
        }
    }

    /// Makes `markings`, numbered from `first`, the batch's states.
    fn load(&mut self, first: usize, markings: &[Marking]) {
        self.first = first;
        self.len = markings.len();
        self.values.clear();
        for m in markings {
            self.values.extend_from_slice(m.values());
        }
    }
}

/// Tangible successors in the order a one-thread loop meets them: the
/// canonical marking and its hash, and its path probability, grouped by
/// the timed firing that reached it.
struct Successors {
    width: usize,
    /// The markings, `width` values each.
    keys: Vec<i32>,
    /// Hash and path probability of each.
    succ: Vec<(u64, f64)>,
    /// Each timed firing, with the end of its successors in `succ`.
    fired: Vec<Fired>,
    /// Per expanded state, the end of its firings in `fired`.
    ends: Vec<usize>,
    /// What stopped the expansion, after every successor met before it.
    error: Option<SanError>,
}

/// A timed firing a worker expanded: its activity and case (numbered as
/// in [`Firing`]), share, and the end of its successors.
struct Fired {
    code: u32,
    share: f64,
    end: usize,
}

impl Successors {
    fn new(width: usize) -> Self {
        Successors {
            width,
            keys: Vec::new(),
            succ: Vec::new(),
            fired: Vec::new(),
            ends: Vec::new(),
            error: None,
        }
    }

    fn clear(&mut self) {
        self.keys.clear();
        self.succ.clear();
        self.fired.clear();
        self.ends.clear();
        self.error = None;
    }

    /// The marking of successor `i`.
    fn key(&self, i: usize) -> &[i32] {
        &self.keys[i * self.width..(i + 1) * self.width]
    }

    /// Appends the outcomes of `resolver`'s last resolution with their
    /// path probabilities.
    fn push_outcomes(
        &mut self,
        resolver: &Resolver<'_>,
        sym: Option<&SymmetrySpec>,
        hasher: &RandomState,
    ) {
        for (values, p) in resolver.outcomes() {
            let start = self.keys.len();
            self.keys.extend_from_slice(values);
            let key = &mut self.keys[start..];
            if let Some(sym) = sym {
                sym.canonicalize(key);
            }
            self.succ.push((hasher.hash_one(&*key), p));
        }
    }
}

/// One team member: its resolver and scratch, reused across batches.
struct Expander<'a> {
    san: &'a San,
    sym: Option<&'a SymmetrySpec>,
    hasher: &'a RandomState,
    case_base: &'a [u32],
    resolver: Resolver<'a>,
    /// The state being expanded, and the scratch each of its firings
    /// starts from.
    state: Marking,
    next: Marking,
    /// Case weights of the activity being fired.
    weights: Vec<f64>,
}

impl<'a> Expander<'a> {
    fn new(
        san: &'a San,
        sym: Option<&'a SymmetrySpec>,
        hasher: &'a RandomState,
        case_base: &'a [u32],
        max_states: usize,
    ) -> Self {
        Expander {
            san,
            sym,
            hasher,
            case_base,
            resolver: Resolver::new(san, max_states),
            state: san.initial_marking(),
            next: san.initial_marking(),
            weights: Vec::new(),
        }
    }

    /// Resolves the initial marking into `out`, with probabilities.
    fn resolve_initial(&mut self, out: &mut Successors) -> Result<(), SanError> {
        self.resolver.resolve(self.san.initial_marking().values())?;
        out.push_outcomes(&self.resolver, self.sym, self.hasher);
        Ok(())
    }

    /// Claims sub-blocks of `batch` until none is left, expanding each
    /// state of a claimed sub-block into its buffer. A failing state
    /// records its error and ends its sub-block.
    fn expand_batch(&mut self, batch: &Batch, claims: &AtomicUsize) {
        let width = batch.width;
        loop {
            // `Relaxed`: the counter only hands out indices. A sub-block's
            // buffer is published by its mutex and by the scope's join.
            let k = claims.fetch_add(1, Relaxed);
            let lo = k * SUB_BLOCK_STATES;
            if lo >= batch.len {
                return;
            }
            let mut guard = batch.sub_blocks[k]
                .lock()
                .expect("a sub-block is locked once per batch, by its one claimant");
            let out = &mut *guard;
            out.clear();
            for i in lo..batch.len.min(lo + SUB_BLOCK_STATES) {
                let expanded = self.expand(&batch.values[i * width..(i + 1) * width], out);
                out.ends.push(out.fired.len());
                if let Err(e) = expanded {
                    out.error = Some(e);
                    break;
                }
            }
        }
    }

    /// Appends the timed firings of the state `values` to `out`, each
    /// after its tangible successors, in activity, case and outcome order.
    fn expand(&mut self, values: &[i32], out: &mut Successors) -> Result<(), SanError> {
        self.state.assign(values);
        let Expander {
            san,
            sym,
            hasher,
            case_base,
            resolver,
            state,
            next,
            weights,
        } = self;
        let (state, case_base) = (&*state, &**case_base);
        timed_firings(san, state, weights, |activity, act, case, share| {
            next.assign(state.values());
            act.fire(case, next);
            resolver.resolve(next.values())?;
            out.push_outcomes(resolver, *sym, hasher);
            out.fired.push(Fired {
                code: case_base[activity.index()] + case as u32,
                share,
                end: out.succ.len(),
            });
            Ok(())
        })
    }
}

/// The tangible states found so far, numbered in first-encounter order.
struct Interner<'a> {
    sym: Option<&'a SymmetrySpec>,
    max_states: usize,
    /// Open-addressing table (linear probing, at most half full) of
    /// `(tag, state)`: the top 32 bits of a state's hash, which also
    /// place it, and its number, [`Interner::FREE`] in an unused slot.
    /// Lookup-only: numbers are assigned from `markings.len()`.
    table: Vec<(u32, u32)>,
    markings: Vec<Marking>,
    /// Orbit size of each state, when lumped.
    orbit_sizes: Vec<u128>,
}

impl<'a> Interner<'a> {
    /// The state number of an unused slot.
    const FREE: u32 = u32::MAX;

    fn new(sym: Option<&'a SymmetrySpec>, max_states: usize) -> Self {
        Interner {
            sym,
            max_states,
            table: vec![(0, Self::FREE); 1024],
            markings: Vec::new(),
            orbit_sizes: Vec::new(),
        }
    }

    /// The number of the state `key` (canonical, when lumped, and hashed
    /// to `hash`), interning it first if it is new.
    fn intern(&mut self, key: &[i32], hash: u64) -> Result<usize, SanError> {
        let tag = (hash >> 32) as u32;
        let mask = self.table.len() - 1;
        let mut slot = tag as usize & mask;
        loop {
            let (t, s) = self.table[slot];
            if s == Self::FREE {
                break;
            }
            if t == tag && self.markings[s as usize].values() == key {
                return Ok(s as usize);
            }
            slot = (slot + 1) & mask;
        }
        let s = self.markings.len();
        let number = u32::try_from(s)
            .ok()
            .filter(|&n| n != Self::FREE && s < self.max_states)
            .ok_or(SanError::StateSpaceTooLarge(self.max_states))?;
        self.table[slot] = (tag, number);
        if let Some(sym) = self.sym {
            self.orbit_sizes.push(sym.canonical_orbit_size(key));
        }
        self.markings.push(Marking::new(key));
        if 2 * self.markings.len() > self.table.len() {
            self.grow();
        }
        Ok(s)
    }

    /// Doubles the table and re-inserts every entry by its tag.
    fn grow(&mut self) {
        let grown = vec![(0, Self::FREE); 2 * self.table.len()];
        let old = std::mem::replace(&mut self.table, grown);
        let mask = self.table.len() - 1;
        for entry in old.into_iter().filter(|&(_, s)| s != Self::FREE) {
            let mut slot = entry.0 as usize & mask;
            while self.table[slot].1 != Self::FREE {
                slot = (slot + 1) & mask;
            }
            self.table[slot] = entry;
        }
    }

    /// Interns the successors of `batch` in state order and records each
    /// state's firings and outcomes, self-loops included. The first error
    /// in that order wins: a sub-block's recorded error is returned after
    /// every successor met before it is interned, unless interning one of
    /// those fails first.
    fn intern_batch(
        &mut self,
        batch: &mut Batch,
        transitions: &mut Transitions,
    ) -> Result<(), SanError> {
        let used = batch.len.div_ceil(SUB_BLOCK_STATES);
        for sub_block in &mut batch.sub_blocks[..used] {
            let out = sub_block
                .get_mut()
                .expect("no worker panicked holding a sub-block");
            let (outcomes, firings) = (transitions.targets.len(), transitions.firings.len());
            for (i, &(hash, p)) in out.succ.iter().enumerate() {
                let to = self.intern(out.key(i), hash)?;
                // Interned numbers fit `u32` (`Interner::intern`).
                transitions.targets.push(to as u32);
                transitions.probs.push(p);
            }
            let offset = |n: usize| {
                u32::try_from(n).map_err(|_| SanError::StateSpaceTooLarge(self.max_states))
            };
            offset(transitions.targets.len())?;
            offset(firings + out.fired.len())?;
            transitions.firings.extend(out.fired.iter().map(|f| Firing {
                share: f.share,
                code: f.code,
                end: (outcomes + f.end) as u32,
            }));
            transitions
                .state_ends
                .extend(out.ends.iter().map(|&e| (firings + e) as u32));
            if let Some(e) = out.error.take() {
                return Err(e);
            }
        }
        Ok(())
    }
}

/// Distributes a marking over its tangible successors: follows enabled
/// instantaneous activities (uniform among activities, weight-proportional
/// among cases) until no instantaneous activity is enabled.
///
/// Every buffer is kept across calls, so a resolution allocates nothing
/// once the buffers have grown to the widest cascade seen.
struct Resolver<'a> {
    san: &'a San,
    max_states: usize,
    /// Pops allowed per resolution ([`vanishing_budget`]).
    budget: usize,
    /// Places per marking.
    width: usize,
    /// Pending markings, `width` values each, popped last in first out.
    stack: Vec<i32>,
    /// Probability and firing depth of each pending marking.
    pending: Vec<(f64, usize)>,
    /// The popped marking, and the scratch each of its firings starts from.
    popped: Marking,
    next: Marking,
    enabled: Vec<ActivityId>,
    weights: Vec<f64>,
    /// Tangible markings in the order they were popped, `width` values
    /// each, and the probability of the path to each.
    reached: Vec<i32>,
    reached_p: Vec<f64>,
    /// Indices into `reached`, sorted to find equal markings.
    order: Vec<usize>,
    /// The merged outcomes in first-encounter order: the index in
    /// `reached` of each distinct marking's first encounter, and its
    /// summed probability.
    merged: Vec<(usize, f64)>,
}

impl<'a> Resolver<'a> {
    fn new(san: &'a San, max_states: usize) -> Self {
        Resolver {
            san,
            max_states,
            budget: vanishing_budget(max_states),
            width: san.num_places(),
            stack: Vec::new(),
            pending: Vec::new(),
            popped: san.initial_marking(),
            next: san.initial_marking(),
            enabled: Vec::new(),
            weights: Vec::new(),
            reached: Vec::new(),
            reached_p: Vec::new(),
            order: Vec::new(),
            merged: Vec::new(),
        }
    }

    /// Resolves the marking `start`; [`Resolver::outcomes`] then lists
    /// its tangible outcomes.
    fn resolve(&mut self, start: &[i32]) -> Result<(), SanError> {
        let width = self.width;
        self.stack.clear();
        self.stack.extend_from_slice(start);
        self.pending.clear();
        self.pending.push((1.0, 0));
        self.reached.clear();
        self.reached_p.clear();
        let mut pops = 0usize;
        while let Some((p, depth)) = self.pending.pop() {
            let top = self.stack.len() - width;
            self.popped.assign(&self.stack[top..]);
            self.stack.truncate(top);
            pops += 1;
            if pops > self.budget {
                return Err(SanError::StateSpaceTooLarge(self.max_states));
            }
            if depth > MAX_VANISHING_DEPTH {
                return Err(SanError::Unstabilized {
                    marking: self.popped.values().to_vec(),
                });
            }
            // The same "enabled instantaneous activities of a marking"
            // definition the simulator's enabling index maintains.
            self.san
                .enabled_instantaneous_into(&self.popped, &mut self.enabled);
            if self.enabled.is_empty() {
                self.reached.extend_from_slice(self.popped.values());
                self.reached_p.push(p);
                continue;
            }
            let share = p / self.enabled.len() as f64;
            for &id in &self.enabled {
                let act = self.san.activity(id);
                act.case_weights_into(&self.popped, &mut self.weights);
                let total: f64 = self.weights.iter().sum();
                if !(total.is_finite() && total > 0.0) {
                    return Err(SanError::BadValue(act.name().to_owned()));
                }
                for (case, &w) in self.weights.iter().enumerate() {
                    if w <= 0.0 {
                        if w < 0.0 {
                            return Err(SanError::BadValue(act.name().to_owned()));
                        }
                        continue;
                    }
                    self.next.assign(self.popped.values());
                    act.fire(case, &mut self.next);
                    self.stack.extend_from_slice(self.next.values());
                    self.pending.push((share * (w / total), depth + 1));
                }
            }
        }
        self.merge();
        Ok(())
    }

    /// Merges identical reached markings, keeping first-encounter order
    /// and summing each marking's probabilities in encounter order. Both
    /// orders are load-bearing: outcomes are interned in this order, so
    /// it fixes the state numbering and with it every later summation
    /// order, which the byte-identical analytic stores rely on. Sorting
    /// the indices by (marking, index) puts each marking's encounters
    /// side by side in encounter order, so the merge is O(k log k) in the
    /// k markings reached.
    fn merge(&mut self) {
        let (width, reached) = (self.width, &self.reached);
        let at = |i: usize| &reached[i * width..(i + 1) * width];
        let n = self.reached_p.len();
        self.order.clear();
        self.order.extend(0..n);
        self.order
            .sort_unstable_by(|&a, &b| at(a).cmp(at(b)).then(a.cmp(&b)));
        self.merged.clear();
        let mut k = 0;
        while k < n {
            let first = self.order[k];
            let mut p = self.reached_p[first];
            k += 1;
            while k < n && at(self.order[k]) == at(first) {
                p += self.reached_p[self.order[k]];
                k += 1;
            }
            self.merged.push((first, p));
        }
        self.merged.sort_unstable_by_key(|&(first, _)| first);
    }

    /// The tangible outcomes of the last [`Resolver::resolve`]: distinct
    /// markings in first-encounter order, with their probabilities.
    fn outcomes(&self) -> impl Iterator<Item = (&[i32], f64)> + '_ {
        let width = self.width;
        self.merged
            .iter()
            .map(move |&(i, p)| (&self.reached[i * width..(i + 1) * width], p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::marking::PlaceId;
    use crate::model::SanBuilder;
    use std::sync::Arc as StdArc;

    fn repairable(fail: f64, fix: f64) -> StdArc<San> {
        let mut b = SanBuilder::new("m");
        let up = b.place("up", 1);
        let down = b.place("down", 0);
        b.timed_activity("fail", fail)
            .input_arc(up, 1)
            .output_arc(down, 1)
            .build()
            .unwrap();
        b.timed_activity("fix", fix)
            .input_arc(down, 1)
            .output_arc(up, 1)
            .build()
            .unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn two_state_space() {
        let san = repairable(1.0, 9.0);
        let ss = StateSpace::generate(&san, 100).unwrap();
        assert_eq!(ss.num_states(), 2);
        assert_eq!(ss.num_transitions(), 2);
        let ctmc = ss.to_ctmc().unwrap();
        let pi = ctmc.steady_state(1e-12, 100_000).unwrap();
        let down = san.place_id("down").unwrap();
        let unavail: f64 = (0..ss.num_states())
            .map(|s| pi[s] * ss.marking(s).get(down) as f64)
            .sum();
        assert!((unavail - 0.1).abs() < 1e-8);
    }

    #[test]
    fn initial_distribution_is_point_mass_for_tangible_start() {
        let san = repairable(1.0, 1.0);
        let ss = StateSpace::generate(&san, 100).unwrap();
        let d = ss.initial_distribution();
        assert_eq!(d.iter().filter(|&&p| p > 0.0).count(), 1);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vanishing_initial_marking_is_resolved() {
        // Instantaneous branch from the start: token goes to a or b with
        // probability 0.3 / 0.7, then a timed sink keeps the model alive.
        let mut bld = SanBuilder::new("v");
        let start = bld.place("start", 1);
        let a = bld.place("a", 0);
        let b = bld.place("b", 0);
        let sink = bld.place("sink", 0);
        bld.instantaneous_activity("branch")
            .input_arc(start, 1)
            .case(0.3, move |m| m.add(a, 1))
            .case(0.7, move |m| m.add(b, 1))
            .build()
            .unwrap();
        bld.timed_activity("tick", 1.0)
            .input_arc(a, 1)
            .output_arc(sink, 1)
            .build()
            .unwrap();
        let san = bld.finish().unwrap();
        let ss = StateSpace::generate(&san, 100).unwrap();
        let d = ss.initial_distribution();
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Two tangible initial states with probabilities 0.3 / 0.7.
        let mut probs: Vec<f64> = d.iter().copied().filter(|&p| p > 0.0).collect();
        probs.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(probs.len(), 2);
        assert!((probs[0] - 0.3).abs() < 1e-12);
        assert!((probs[1] - 0.7).abs() < 1e-12);
    }

    #[test]
    fn case_weights_split_rates() {
        // One timed activity with two cases 80/20 leading to different
        // states: the CTMC must have rates 0.8λ and 0.2λ.
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let hit = b.place("hit", 0);
        let miss = b.place("miss", 0);
        b.timed_activity("detect", 2.0)
            .input_arc(p, 1)
            .case(0.8, move |m| m.add(hit, 1))
            .case(0.2, move |m| m.add(miss, 1))
            .build()
            .unwrap();
        let san = b.finish().unwrap();
        let ss = StateSpace::generate(&san, 100).unwrap();
        assert_eq!(ss.num_states(), 3);
        let mut rates: Vec<f64> = ss.transitions().map(|(_, _, r)| r).collect();
        rates.sort_by(|a, c| a.partial_cmp(c).unwrap());
        assert!((rates[0] - 0.4).abs() < 1e-12);
        assert!((rates[1] - 1.6).abs() < 1e-12);
    }

    #[test]
    fn marking_dependent_rates_expand_correctly() {
        // Birth-death with rate depending on population.
        let mut b = SanBuilder::new("m");
        let n = b.place("n", 0);
        let nn = n;
        b.timed_activity_fn("birth", StdArc::new(move |m| 1.0 + m.get(nn) as f64), &[n])
            .predicate(&[n], move |m| m.get(n) < 3)
            .output_arc(n, 1)
            .build()
            .unwrap();
        b.timed_activity("death", 1.0)
            .input_arc(n, 1)
            .build()
            .unwrap();
        let san = b.finish().unwrap();
        let ss = StateSpace::generate(&san, 100).unwrap();
        assert_eq!(ss.num_states(), 4);
        // Find the 2→3 birth transition; its rate must be 1 + 2 = 3.
        let np = san.place_id("n").unwrap();
        let idx_of = |v: i32| {
            (0..ss.num_states())
                .find(|&s| ss.marking(s).get(np) == v)
                .unwrap()
        };
        let (s2, s3) = (idx_of(2), idx_of(3));
        let rate = ss
            .transitions()
            .find(|&(f, t, _)| f == s2 && t == s3)
            .map(|(_, _, r)| r)
            .unwrap();
        assert!((rate - 3.0).abs() < 1e-12);
    }

    #[test]
    fn state_space_limit_enforced() {
        // Unbounded birth process.
        let mut b = SanBuilder::new("m");
        let n = b.place("n", 0);
        b.timed_activity("birth", 1.0)
            .output_arc(n, 1)
            .build()
            .unwrap();
        let san = b.finish().unwrap();
        assert!(matches!(
            StateSpace::generate(&san, 50),
            Err(SanError::StateSpaceTooLarge(50))
        ));
    }

    #[test]
    fn wide_vanishing_cascade_reported_as_explosion() {
        // Ten concurrently enabled instantaneous activities: the firing
        // orders form a tree of >10! work items, all reaching the same
        // tangible marking. The expansion budget must report this as
        // state-space explosion in milliseconds instead of walking the
        // whole tree.
        let mut b = SanBuilder::new("wide");
        for i in 0..10 {
            let src = b.place(format!("src{i}"), 1);
            let dst = b.place(format!("dst{i}"), 0);
            b.instantaneous_activity(format!("move{i}"))
                .input_arc(src, 1)
                .output_arc(dst, 1)
                .build()
                .unwrap();
        }
        let san = b.finish().unwrap();
        assert!(matches!(
            StateSpace::generate(&san, 100),
            Err(SanError::StateSpaceTooLarge(100))
        ));
    }

    /// A timed `go` at rate `lambda` that puts a token on `x` and on `y`,
    /// enabling two instantaneous activities at once: `fx` moves `x` to
    /// `dx` and `fy` moves `y` to `dy`. With `contended`, both also need
    /// the single token on `lock`, so whichever fires first disables the
    /// other and the two firing orders reach different tangible markings.
    fn two_instantaneous(lambda: f64, contended: bool) -> StdArc<San> {
        let mut b = SanBuilder::new("pair");
        let start = b.place("start", 1);
        let x = b.place("x", 0);
        let y = b.place("y", 0);
        let dx = b.place("dx", 0);
        let dy = b.place("dy", 0);
        let lock = b.place("lock", 1);
        b.timed_activity("go", lambda)
            .input_arc(start, 1)
            .output_arc(x, 1)
            .output_arc(y, 1)
            .build()
            .unwrap();
        for (name, from, to) in [("fx", x, dx), ("fy", y, dy)] {
            let act = b.instantaneous_activity(name).input_arc(from, 1);
            let act = if contended {
                act.input_arc(lock, 1)
            } else {
                act
            };
            act.output_arc(to, 1).build().unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn commuting_cascade_merges_into_one_transition_at_the_full_rate() {
        // Both firing orders of `fx` and `fy` land on dx = dy = 1, each
        // with probability 1/2: the cascade merges them into one tangible
        // successor of probability exactly 1.
        let lambda = 0.3;
        let san = two_instantaneous(lambda, false);
        let ss = StateSpace::generate(&san, 100).unwrap();
        assert_eq!(ss.num_states(), 2);
        assert_eq!(ss.marking(1).values(), &[0, 0, 0, 1, 1, 1]);
        assert_eq!(ss.num_transitions(), 1);
        let (from, to, rate) = ss.transitions().next().unwrap();
        assert_eq!((from, to), (0, 1));
        assert_eq!(rate.to_bits(), lambda.to_bits());
    }

    #[test]
    fn diverging_cascade_keeps_first_encounter_order() {
        // The firing orders reach different markings. The cascade pops
        // last-in first-out and `fy` (the higher activity id) is pushed
        // last, so its outcome is met, interned and listed first.
        let lambda = 3.0;
        let san = two_instantaneous(lambda, true);
        let ss = StateSpace::generate(&san, 100).unwrap();
        assert_eq!(ss.num_states(), 3);
        assert_eq!(ss.marking(1).values(), &[0, 1, 0, 0, 1, 0]);
        assert_eq!(ss.marking(2).values(), &[0, 0, 1, 1, 0, 0]);
        // `rate * (w / total) * p` with one case (w / total = 1) and a
        // path probability of 1/2.
        let half = lambda * 0.5;
        let got: Vec<(usize, usize, u64)> = ss
            .transitions()
            .map(|(f, t, r)| (f, t, r.to_bits()))
            .collect();
        assert_eq!(got, vec![(0, 1, half.to_bits()), (0, 2, half.to_bits())]);
        assert_eq!(half + half, lambda);
    }

    /// One activity from `p` with `case_fn` weights `[2.0, -1.0]`: a
    /// negative weight must be rejected, not skipped (skipping it would
    /// turn the surviving case into a probability of 2).
    fn negative_case_weight(instantaneous: bool) -> StdArc<San> {
        let mut b = SanBuilder::new("neg");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        let r = b.place("r", 0);
        let act = if instantaneous {
            b.instantaneous_activity("split")
        } else {
            b.timed_activity("split", 1.0)
        };
        act.input_arc(p, 1)
            .case_fn(StdArc::new(|_| 2.0), move |m| m.add(q, 1))
            .case_fn(StdArc::new(|_| -1.0), move |m| m.add(r, 1))
            .build()
            .unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn negative_case_weight_is_rejected() {
        for instantaneous in [false, true] {
            let san = negative_case_weight(instantaneous);
            assert_eq!(
                StateSpace::generate(&san, 100).unwrap_err(),
                SanError::BadValue("split".to_owned()),
                "instantaneous = {instantaneous}"
            );
        }
    }

    #[test]
    fn vanishing_livelock_detected() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        // Two instantaneous activities that toggle forever.
        b.instantaneous_activity("ab")
            .input_arc(p, 1)
            .output_arc(q, 1)
            .build()
            .unwrap();
        b.instantaneous_activity("ba")
            .input_arc(q, 1)
            .output_arc(p, 1)
            .build()
            .unwrap();
        let san = b.finish().unwrap();
        assert!(matches!(
            StateSpace::generate(&san, 100),
            Err(SanError::Unstabilized { .. })
        ));
    }

    #[test]
    fn absorbing_ctmc_gives_first_passage_probability() {
        // Repairable system with "ever down by t": making the down state
        // absorbing turns the transient mass there into the first-passage
        // probability 1 − e^{−λt} (repair can no longer mask the visit).
        let (lambda, mu) = (0.5, 2.0);
        let san = repairable(lambda, mu);
        let ss = StateSpace::generate(&san, 10).unwrap();
        let down = san.place_id("down").unwrap();
        let (ctmc, flags) = ss.absorbing_ctmc(|m| m.get(down) > 0).unwrap();
        assert_eq!(flags.iter().filter(|&&f| f).count(), 1);
        for &t in &[0.3, 1.0, 4.0] {
            let p = ctmc
                .transient(&ss.initial_distribution(), t, 1e-12)
                .unwrap();
            let ever_down: f64 = flags
                .iter()
                .zip(&p)
                .filter(|&(&f, _)| f)
                .map(|(_, &pi)| pi)
                .sum();
            let closed = 1.0 - (-lambda * t).exp();
            assert!((ever_down - closed).abs() < 1e-9, "t = {t}");
        }
    }

    #[test]
    fn expected_reward_is_dot_product() {
        let san = repairable(1.0, 9.0);
        let ss = StateSpace::generate(&san, 10).unwrap();
        let down = san.place_id("down").unwrap();
        let pi = ss.to_ctmc().unwrap().steady_state(1e-12, 100_000).unwrap();
        let unavail = ss.expected_reward(&pi, |m| m.get(down) as f64);
        assert!((unavail - 0.1).abs() < 1e-8);
    }

    /// `n` independent repairable components, plus the spec making them
    /// exchangeable — full space 2^n, quotient n+1.
    fn n_components(n: usize) -> (StdArc<San>, crate::sym::SymmetrySpec) {
        use crate::sym::{SymmetryGroup, SymmetrySpec, SymmetryUnit};
        let mut b = SanBuilder::new("multi");
        for i in 0..n {
            let up = b.place(format!("c{i}/up"), 1);
            let down = b.place(format!("c{i}/down"), 0);
            b.timed_activity(format!("c{i}/fail"), 1.0)
                .input_arc(up, 1)
                .output_arc(down, 1)
                .build()
                .unwrap();
            b.timed_activity(format!("c{i}/fix"), 2.0)
                .input_arc(down, 1)
                .output_arc(up, 1)
                .build()
                .unwrap();
        }
        let units = (0..n)
            .map(|i| SymmetryUnit {
                shared: vec![2 * i, 2 * i + 1],
                blocks: vec![],
            })
            .collect();
        let spec = SymmetrySpec::new(2 * n, vec![SymmetryGroup { units }]).unwrap();
        (b.finish().unwrap(), spec)
    }

    #[test]
    fn lumped_counts_and_orbit_totals_match_full() {
        let n = 4;
        let (san, spec) = n_components(n);
        let full = StateSpace::generate(&san, 1 << 10).unwrap();
        let lumped = StateSpace::generate_lumped(&san, &spec, 1 << 10).unwrap();
        assert_eq!(full.num_states(), 1 << n);
        assert_eq!(lumped.num_states(), n + 1);
        assert_eq!(lumped.full_state_total(), Some((1 << n) as u128));
        assert!(full.orbit_sizes().is_none());
        assert!(full.full_state_total().is_none());
    }

    #[test]
    fn lumped_transient_measures_match_full() {
        // Expected number of down components at several horizons: the
        // orbit-invariant reward must come out (near) identical on the
        // quotient chain.
        let n = 5;
        let (san, spec) = n_components(n);
        let full = StateSpace::generate(&san, 1 << 10).unwrap();
        let lumped = StateSpace::generate_lumped(&san, &spec, 1 << 10).unwrap();
        let downs = |ss: &StateSpace, s: usize| {
            (0..n)
                .map(|i| {
                    ss.marking(s)
                        .get(crate::marking::PlaceId::from_index(2 * i + 1))
                        as f64
                })
                .sum::<f64>()
        };
        for &t in &[0.1, 0.7, 2.5] {
            let pf = full
                .to_ctmc()
                .unwrap()
                .transient(&full.initial_distribution(), t, 1e-12)
                .unwrap();
            let pl = lumped
                .to_ctmc()
                .unwrap()
                .transient(&lumped.initial_distribution(), t, 1e-12)
                .unwrap();
            let ef: f64 = (0..full.num_states())
                .map(|s| pf[s] * downs(&full, s))
                .sum();
            let el: f64 = (0..lumped.num_states())
                .map(|s| pl[s] * downs(&lumped, s))
                .sum();
            assert!(
                (ef - el).abs() <= 1e-12 * ef.abs().max(1.0),
                "t = {t}: {ef} vs {el}"
            );
        }
    }

    #[test]
    fn lumped_resolves_vanishing_through_canonical_form() {
        use crate::sym::{SymmetryGroup, SymmetrySpec, SymmetryUnit};
        // Two exchangeable lanes whose tokens pass through an
        // instantaneous stage: the vanishing resolution must land on the
        // same quotient regardless of which lane fires.
        let mut b = SanBuilder::new("lanes");
        let mut places = Vec::new();
        for i in 0..2 {
            let src = b.place(format!("l{i}/src"), 1);
            let mid = b.place(format!("l{i}/mid"), 0);
            let dst = b.place(format!("l{i}/dst"), 0);
            b.timed_activity(format!("l{i}/go"), 1.0)
                .input_arc(src, 1)
                .output_arc(mid, 1)
                .build()
                .unwrap();
            b.instantaneous_activity(format!("l{i}/land"))
                .input_arc(mid, 1)
                .output_arc(dst, 1)
                .build()
                .unwrap();
            b.timed_activity(format!("l{i}/back"), 3.0)
                .input_arc(dst, 1)
                .output_arc(src, 1)
                .build()
                .unwrap();
            places.push((src, mid, dst));
        }
        let san = b.finish().unwrap();
        let units = (0..2)
            .map(|i| SymmetryUnit {
                shared: vec![3 * i, 3 * i + 1, 3 * i + 2],
                blocks: vec![],
            })
            .collect();
        let spec = SymmetrySpec::new(6, vec![SymmetryGroup { units }]).unwrap();

        let full = StateSpace::generate(&san, 1 << 10).unwrap();
        let lumped = StateSpace::generate_lumped(&san, &spec, 1 << 10).unwrap();
        assert_eq!(full.num_states(), 4);
        assert_eq!(lumped.num_states(), 3);
        assert_eq!(lumped.full_state_total(), Some(4));

        // P(both landed by t) agrees between the chains.
        let both = |ss: &StateSpace, s: usize| {
            places
                .iter()
                .map(|&(_, _, d)| ss.marking(s).get(d))
                .sum::<i32>()
                == 2
        };
        let t = 1.3;
        let pf = full
            .to_ctmc()
            .unwrap()
            .transient(&full.initial_distribution(), t, 1e-12)
            .unwrap();
        let pl = lumped
            .to_ctmc()
            .unwrap()
            .transient(&lumped.initial_distribution(), t, 1e-12)
            .unwrap();
        let ef: f64 = (0..full.num_states())
            .filter(|&s| both(&full, s))
            .map(|s| pf[s])
            .sum();
        let el: f64 = (0..lumped.num_states())
            .filter(|&s| both(&lumped, s))
            .map(|s| pl[s])
            .sum();
        assert!((ef - el).abs() < 1e-12, "{ef} vs {el}");
    }

    #[test]
    fn lumped_with_empty_spec_matches_plain_bit_for_bit() {
        use crate::sym::SymmetrySpec;
        // An empty spec has only the identity: the "quotient" is the full
        // chain, and every operation runs in the same order as the plain
        // generator — states, rates, and initial mass must be bit-equal.
        let san = repairable(0.7, 2.3);
        let spec = SymmetrySpec::new(2, vec![]).unwrap();
        let plain = StateSpace::generate(&san, 100).unwrap();
        let lumped = StateSpace::generate_lumped(&san, &spec, 100).unwrap();
        assert_eq!(plain.num_states(), lumped.num_states());
        for s in 0..plain.num_states() {
            assert_eq!(plain.marking(s).values(), lumped.marking(s).values());
        }
        assert_eq!(plain.num_transitions(), lumped.num_transitions());
        for (a, b) in plain.transitions().zip(lumped.transitions()) {
            assert_eq!((a.0, a.1), (b.0, b.1));
            assert_eq!(a.2.to_bits(), b.2.to_bits());
        }
        assert_eq!(lumped.orbit_sizes().unwrap(), &[1, 1]);
    }

    #[test]
    fn lumped_state_budget_bounds_orbits() {
        let (san, spec) = n_components(6);
        // 7 orbits exist; a budget of 3 must trip.
        assert!(matches!(
            StateSpace::generate_lumped(&san, &spec, 3),
            Err(SanError::StateSpaceTooLarge(3))
        ));
    }

    #[test]
    fn transient_matches_simulation() {
        // Sanity: CTMC transient P(down at t) ≈ simulation estimate.
        let san = repairable(1.0, 3.0);
        let ss = StateSpace::generate(&san, 10).unwrap();
        let ctmc = ss.to_ctmc().unwrap();
        let down = san.place_id("down").unwrap();
        let t = 0.8;
        let p = ctmc
            .transient(&ss.initial_distribution(), t, 1e-12)
            .unwrap();
        let analytic: f64 = (0..ss.num_states())
            .map(|s| p[s] * ss.marking(s).get(down) as f64)
            .sum();

        use crate::reward::InstantOfTime;
        use crate::simulator::SanSimulator;
        let sim = SanSimulator::new(san);
        let mut hits = 0u32;
        let n = 3000;
        let mut rv = InstantOfTime::new(vec![t], move |m| m.get(down) as f64);
        for seed in 0..n {
            sim.run(seed as u64, 1.0, &mut rv).unwrap();
            if rv.samples()[0].1 > 0.5 {
                hits += 1;
            }
        }
        let est = hits as f64 / n as f64;
        assert!((est - analytic).abs() < 0.025, "{est} vs {analytic}");
    }

    /// `classes × size` components for tests that need a wide breadth-first
    /// frontier, and the spec making the components of each class
    /// exchangeable. A class-`c` component fails from `up` into `mid` at
    /// rate `1 + c`, lands instantaneously `down` (weight 1) or back `up`
    /// (weight 3), and is fixed at rate `2 + c`. Unlumped the chain has
    /// `2^(classes·size)` states, lumped `(size + 1)^classes`. `extra`
    /// adds activities, given every component's `down` place.
    fn components(
        classes: usize,
        size: usize,
        extra: impl FnOnce(&mut SanBuilder, &[PlaceId]),
    ) -> (StdArc<San>, crate::sym::SymmetrySpec) {
        use crate::sym::{SymmetryGroup, SymmetrySpec, SymmetryUnit};
        let mut b = SanBuilder::new("components");
        let mut groups = Vec::new();
        let mut downs = Vec::new();
        for c in 0..classes {
            let mut units = Vec::new();
            for i in 0..size {
                let up = b.place(format!("c{c}.{i}/up"), 1);
                let mid = b.place(format!("c{c}.{i}/mid"), 0);
                let down = b.place(format!("c{c}.{i}/down"), 0);
                b.timed_activity(format!("c{c}.{i}/fail"), 1.0 + c as f64)
                    .input_arc(up, 1)
                    .output_arc(mid, 1)
                    .build()
                    .unwrap();
                b.instantaneous_activity(format!("c{c}.{i}/land"))
                    .input_arc(mid, 1)
                    .case(1.0, move |m| m.add(down, 1))
                    .case(3.0, move |m| m.add(up, 1))
                    .build()
                    .unwrap();
                b.timed_activity(format!("c{c}.{i}/fix"), 2.0 + c as f64)
                    .input_arc(down, 1)
                    .output_arc(up, 1)
                    .build()
                    .unwrap();
                units.push(SymmetryUnit {
                    shared: vec![up.index(), mid.index(), down.index()],
                    blocks: vec![],
                });
                downs.push(down);
            }
            groups.push(SymmetryGroup { units });
        }
        extra(&mut b, &downs);
        let san = b.finish().unwrap();
        let spec = SymmetrySpec::new(san.num_places(), groups).unwrap();
        (san, spec)
    }

    /// Whether exactly the components `which` of `downs` are down.
    fn exactly_down(m: &Marking, downs: &[PlaceId], which: &[usize]) -> bool {
        downs
            .iter()
            .enumerate()
            .all(|(i, &d)| m.get(d) == i32::from(which.contains(&i)))
    }

    /// A timed activity `name` with no effect, whose rate is NaN where
    /// exactly the components `which` are down.
    fn nan_where(b: &mut SanBuilder, name: &str, downs: &[PlaceId], which: &'static [usize]) {
        let reads = downs.to_vec();
        b.timed_activity_fn(
            name,
            StdArc::new(move |m| {
                if exactly_down(m, &reads, which) {
                    f64::NAN
                } else {
                    1.0
                }
            }),
            downs,
        )
        .case(1.0, |_| {})
        .build()
        .unwrap();
    }

    /// FNV-1a over everything a chain hands the solver: states, markings,
    /// transitions with their rate bits, initial mass bits and orbit
    /// sizes.
    fn digest(ss: &StateSpace) -> (usize, u64) {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        let mut eat = |x: u128| {
            for b in x.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for s in 0..ss.num_states() {
            ss.marking(s).values().iter().for_each(|&v| eat(v as u128));
        }
        for (from, to, rate) in ss.transitions() {
            eat(from as u128);
            eat(to as u128);
            eat(u128::from(rate.to_bits()));
        }
        for p in ss.initial_distribution() {
            eat(u128::from(p.to_bits()));
        }
        ss.orbit_sizes().unwrap_or(&[]).iter().for_each(|&o| eat(o));
        (ss.num_states(), h)
    }

    /// Instantaneous `ab` and `ba` that pass a token between two places
    /// forever once the components `0..8` are all down.
    fn livelock_after_eight_down(b: &mut SanBuilder, downs: &[PlaceId]) {
        let (p, q) = (b.place("p", 1), b.place("q", 0));
        for (name, from, to) in [("ab", p, q), ("ba", q, p)] {
            let eight = downs[..8].to_vec();
            b.instantaneous_activity(name)
                .input_arc(from, 1)
                .output_arc(to, 1)
                .predicate(&downs[..8], move |m| eight.iter().all(|&d| m.get(d) == 1))
                .build()
                .unwrap();
        }
    }

    /// The digest of the chain `san` generates, or its error, on teams of
    /// one, two and four workers; all three must agree.
    fn on_every_team(
        san: &San,
        sym: Option<&crate::sym::SymmetrySpec>,
        max_states: usize,
    ) -> Result<(usize, u64), SanError> {
        let [one, two, four] = [1, 2, 4].map(|team| {
            StateSpace::explore_on_team(san, sym, max_states, team).map(|ss| digest(&ss))
        });
        assert_eq!(two, one, "team of 2");
        assert_eq!(four, one, "team of 4");
        one
    }

    /// The rates and case weights of [`pool`].
    #[derive(Clone, Copy)]
    struct PoolRates {
        fail: f64,
        slow: f64,
        detect: f64,
        fix: f64,
        extra: f64,
    }

    const POOL: PoolRates = PoolRates {
        fail: 1.0,
        slow: 0.5,
        detect: 0.75,
        fix: 2.0,
        extra: 0.0,
    };

    /// Three exchangeable components, and the spec that lumps them. A
    /// component fails from `up` at rate `fail` while none is down and
    /// `slow` once one is, into `mid` (weight `detect`) or `hidden`
    /// (weight `1 − detect`); from `mid` it lands instantaneously `down`
    /// (weight 1) or back `up` (weight 3). `hidden` is revealed into
    /// `down`, and `down` fixed, at rate `fix`. `extra`, always enabled
    /// and without effect, fires at rate `extra`. Every activity exists
    /// at every value, so only the firings change with the rates.
    fn pool(r: PoolRates) -> (StdArc<San>, crate::sym::SymmetrySpec) {
        use crate::sym::{SymmetryGroup, SymmetrySpec, SymmetryUnit};
        let mut b = SanBuilder::new("pool");
        let comps: Vec<[PlaceId; 4]> = (0..3)
            .map(|i| {
                ["up", "mid", "down", "hidden"]
                    .map(|name| b.place(format!("c{i}/{name}"), i32::from(name == "up")))
            })
            .collect();
        let downs: Vec<PlaceId> = comps.iter().map(|c| c[2]).collect();
        let value = |v: f64| -> crate::model::ValueFn { StdArc::new(move |_| v) };
        for (i, &[up, mid, down, hidden]) in comps.iter().enumerate() {
            let reads = downs.clone();
            let rate = move |m: &Marking| {
                if reads.iter().any(|&d| m.get(d) > 0) {
                    r.slow
                } else {
                    r.fail
                }
            };
            b.timed_activity_fn(format!("c{i}/fail"), StdArc::new(rate), &downs)
                .input_arc(up, 1)
                .case_fn(value(r.detect), move |m| m.add(mid, 1))
                .case_fn(value(1.0 - r.detect), move |m| m.add(hidden, 1))
                .build()
                .unwrap();
            b.instantaneous_activity(format!("c{i}/land"))
                .input_arc(mid, 1)
                .case(1.0, move |m| m.add(down, 1))
                .case(3.0, move |m| m.add(up, 1))
                .build()
                .unwrap();
            for (name, from, to) in [("reveal", hidden, down), ("fix", down, up)] {
                b.timed_activity_fn(format!("c{i}/{name}"), value(r.fix), &[])
                    .input_arc(from, 1)
                    .output_arc(to, 1)
                    .build()
                    .unwrap();
            }
        }
        b.timed_activity_fn("extra", value(r.extra), &[])
            .case(1.0, |_| {})
            .build()
            .unwrap();
        let san = b.finish().unwrap();
        let units = comps
            .iter()
            .map(|c| SymmetryUnit {
                shared: c.iter().map(|p| p.index()).collect(),
                blocks: vec![],
            })
            .collect();
        let spec = SymmetrySpec::new(san.num_places(), vec![SymmetryGroup { units }]).unwrap();
        (san, spec)
    }

    #[test]
    fn rerating_gives_the_fresh_chain_bit_for_bit() {
        let other = PoolRates {
            fail: 1.3,
            slow: 0.7,
            detect: 0.2,
            fix: 0.4,
            extra: 0.0,
        };
        let (from, spec) = pool(POOL);
        let (to, _) = pool(other);
        for sym in [None, Some(&spec)] {
            for team in [1, 2] {
                let generate = |san| StateSpace::explore_on_team(san, sym, 1000, team).unwrap();
                let fresh = generate(&to);
                let rerated = generate(&from).rerated(&to).expect("the same firings");
                assert_eq!(digest(&rerated), digest(&fresh), "team of {team}");
                assert_ne!(digest(&generate(&from)), digest(&fresh));
            }
        }
    }

    #[test]
    fn rerating_refuses_a_firing_that_appears_or_vanishes() {
        let rerates = |from: PoolRates, to: PoolRates| {
            let ss = StateSpace::generate(&pool(from).0, 1000).unwrap();
            ss.rerated(&pool(to).0).is_some()
        };
        assert!(rerates(POOL, PoolRates { slow: 0.1, ..POOL }));
        // A rate turns zero at the states with a component down.
        assert!(!rerates(POOL, PoolRates { slow: 0.0, ..POOL }));
        // A case weight turns zero.
        assert!(!rerates(
            POOL,
            PoolRates {
                detect: 1.0,
                ..POOL
            }
        ));
        // A zero-rate activity turns on, and back off.
        let extra = PoolRates { extra: 0.5, ..POOL };
        assert!(!rerates(POOL, extra));
        assert!(!rerates(extra, POOL));
        // A rate that is not a number.
        assert!(!rerates(
            POOL,
            PoolRates {
                fix: f64::NAN,
                ..POOL
            }
        ));
        // Another model.
        let ss = StateSpace::generate(&pool(POOL).0, 1000).unwrap();
        assert!(ss.rerated(&repairable(1.0, 2.0)).is_none());

        // A token moves from `p` to `q` at rate 1, and back by `back` or
        // by `other` (the same move) at their rates: one firing at `q`,
        // the last state, swapped for another, or lost.
        let toggle = |back: f64, other: f64| {
            let mut b = SanBuilder::new("toggle");
            let (p, q) = (b.place("p", 1), b.place("q", 0));
            for (name, rate, from, to) in [
                ("go", 1.0, p, q),
                ("back", back, q, p),
                ("other", other, q, p),
            ] {
                b.timed_activity_fn(name, StdArc::new(move |_| rate), &[])
                    .input_arc(from, 1)
                    .output_arc(to, 1)
                    .build()
                    .unwrap();
            }
            b.finish().unwrap()
        };
        let ss = || StateSpace::generate(&toggle(1.0, 0.0), 100).unwrap();
        assert!(ss().rerated(&toggle(2.0, 0.0)).is_some());
        assert!(ss().rerated(&toggle(0.0, 1.0)).is_none());
        assert!(ss().rerated(&toggle(0.0, 0.0)).is_none());
    }

    // The pinned digests and errors below are what the one-thread
    // generator this team replaced returned for the same models.

    #[test]
    fn wide_chains_are_identical_on_every_team() {
        let (plain, _) = components(1, 10, |_, _| {});
        assert_eq!(
            on_every_team(&plain, None, 1 << 12),
            Ok((1024, 0x3d72_41eb_d9fa_2318))
        );
        let (lumpable, spec) = components(4, 5, |_, _| {});
        assert_eq!(
            on_every_team(&lumpable, Some(&spec), 1 << 12),
            Ok((1296, 0x7541_da06_2cd3_b8a0))
        );
    }

    #[test]
    fn a_budget_tripped_mid_batch_fails_alike_on_every_team() {
        // The 701st state is met while the first states with five
        // components down are expanded, before the NaN at state 637
        // (components 5..10 down) is reached in breadth-first order.
        let (san, _) = components(1, 10, |b, downs| {
            nan_where(b, "nan", downs, &[5, 6, 7, 8, 9]);
        });
        assert_eq!(
            on_every_team(&san, None, 700),
            Err(SanError::StateSpaceTooLarge(700))
        );
    }

    #[test]
    fn a_nan_rate_deep_in_a_batch_fails_alike_on_every_team() {
        // States 386 (components 0..5 down), 387 (0..4 and 5) and 637
        // (5..10) have NaN rates; the first in breadth-first order wins,
        // over a later one in its sub-block and one in a later sub-block.
        let (san, _) = components(1, 10, |b, downs| {
            nan_where(b, "nan_late", downs, &[5, 6, 7, 8, 9]);
            nan_where(b, "nan_next", downs, &[0, 1, 2, 3, 5]);
            nan_where(b, "nan_early", downs, &[0, 1, 2, 3, 4]);
        });
        assert_eq!(
            on_every_team(&san, None, 1 << 12),
            Err(SanError::BadValue("nan_early".to_owned()))
        );
    }

    #[test]
    fn a_late_livelock_fails_alike_on_every_team() {
        // First reached from state 848 (components 0..7 down, 7..10 up);
        // later states reach it with other components down, which the
        // reported marking would show.
        let (san, _) = components(1, 10, livelock_after_eight_down);
        let mut marking = [0, 0, 1].repeat(8);
        marking.extend([1, 0, 0, 1, 0, 0, 1, 0]);
        assert_eq!(
            on_every_team(&san, None, 1 << 12),
            Err(SanError::Unstabilized { marking })
        );
    }
}

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
//! The successor loop allocates nothing per successor. Each timed firing
//! goes into a reused scratch [`Marking`]; one resolver (`Resolver`)
//! resolves it, and the initial marking, over a flat `i32` work stack with
//! reused buffers, so a tangible successor costs one pop; and the interner
//! canonicalizes into one reused buffer and looks the state up by
//! `&[i32]`. Only a newly found state allocates its stored copy. The
//! floating-point work is the textbook order, kept exactly: states are
//! numbered in breadth-first first-encounter order, a cascade pops last in
//! first out and merges its outcomes in first-encounter order, and each
//! rate is `rate * (w / total) * p`.

use crate::marking::Marking;
use crate::model::{ActivityId, San, SanError, Timing};
use crate::sym::SymmetrySpec;
use itua_markov::ctmc::{Ctmc, CtmcError};
use std::collections::HashMap;
use std::sync::Arc;

/// Maximum depth of instantaneous-firing chains during vanishing-marking
/// elimination; beyond this the model is declared unstabilized.
const MAX_VANISHING_DEPTH: usize = 10_000;

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
#[derive(Debug, Clone)]
pub struct StateSpace {
    markings: Vec<Marking>,
    /// `(from, to, rate)` between tangible states; no self-loops.
    transitions: Vec<(usize, usize, f64)>,
    /// Distribution over tangible states equivalent to the (possibly
    /// vanishing) initial marking.
    initial: Vec<(usize, f64)>,
    /// Per-state orbit sizes when generated lumped
    /// ([`StateSpace::generate_lumped`]): state `i` represents
    /// `orbit_sizes[i]` markings of the unreduced chain. `None` for the
    /// plain generator.
    orbit_sizes: Option<Vec<u128>>,
}

impl StateSpace {
    /// Explores the reachable state space of `san`.
    ///
    /// # Errors
    ///
    /// * [`SanError::NonMarkovian`] if any timed activity has a general
    ///   (non-exponential) distribution.
    /// * [`SanError::StateSpaceTooLarge`] if more than `max_states`
    ///   tangible markings are reachable, or a single vanishing-marking
    ///   resolution branches past its expansion budget
    ///   (see [`vanishing_budget`]) — both are forms of state-space
    ///   explosion, and both fail fast instead of exhausting memory.
    /// * [`SanError::Unstabilized`] if instantaneous activities livelock.
    /// * [`SanError::BadValue`] if a rate or case weight is NaN, infinite
    ///   or negative, or an activity's case weights sum to zero, at a
    ///   reachable marking.
    pub fn generate(san: &Arc<San>, max_states: usize) -> Result<Self, SanError> {
        Self::explore(san, None, max_states)
    }

    /// Explores the reachable tangible state space *in canonical form*
    /// under `sym`, producing the exactly-lumped CTMC: every state is the
    /// lexicographically least member of its orbit, and summing a
    /// representative's outgoing rates by target orbit (done when the
    /// transition list is assembled into a [`Ctmc`]) yields the quotient
    /// chain. Exact lumpability holds because a [`SymmetrySpec`] asserts
    /// the group action is a model automorphism; any orbit-invariant
    /// reward is then solved exactly on the quotient.
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
        Self::explore(san, Some(sym), max_states)
    }

    /// The breadth-first generator behind both public entry points. Under
    /// `Some(sym)` every tangible marking is canonicalized before
    /// interning (two successors in the same orbit merge into one state,
    /// and their rates sum when the transition list is assembled into a
    /// CTMC) and orbit sizes are recorded; under `None` markings are
    /// interned as they are.
    fn explore(san: &San, sym: Option<&SymmetrySpec>, max_states: usize) -> Result<Self, SanError> {
        for (_, act) in san.activities() {
            if let Timing::General(_) = act.timing() {
                return Err(SanError::NonMarkovian(act.name().to_owned()));
            }
        }

        let mut states = Interner::new(sym, max_states, san.num_places());
        let mut resolver = Resolver::new(san, max_states);
        let mut transitions: Vec<(usize, usize, f64)> = Vec::new();

        resolver.resolve(san.initial_marking().values())?;
        let mut initial = Vec::new();
        for (values, p) in resolver.outcomes() {
            initial.push((states.intern(values)?, p));
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

        // The state being expanded, the scratch each of its firings starts
        // from, and the case weights of the activity being fired.
        let mut state = san.initial_marking();
        let mut next = san.initial_marking();
        let mut weights: Vec<f64> = Vec::new();
        // States are expanded in the order they were interned, which is
        // breadth-first order.
        let mut s = 0;
        while s < states.markings.len() {
            state.assign(states.markings[s].values());
            for (_, act) in san.activities() {
                let rate_fn = match act.timing() {
                    Timing::Exponential(r) => r,
                    Timing::Instantaneous => continue,
                    Timing::General(_) => unreachable!("checked above"),
                };
                if !act.enabled(&state) {
                    continue;
                }
                let rate = rate_fn(&state);
                if !(rate.is_finite() && rate >= 0.0) {
                    return Err(SanError::BadValue(act.name().to_owned()));
                }
                if rate == 0.0 {
                    continue;
                }
                // A NaN or infinite weight poisons the total; a negative
                // one is caught where zero-weight cases are skipped, so the
                // common path runs no extra test.
                act.case_weights_into(&state, &mut weights);
                let total: f64 = weights.iter().sum();
                if !(total.is_finite() && total > 0.0) {
                    return Err(SanError::BadValue(act.name().to_owned()));
                }
                for (case, &w) in weights.iter().enumerate() {
                    if w <= 0.0 {
                        if w < 0.0 {
                            return Err(SanError::BadValue(act.name().to_owned()));
                        }
                        continue;
                    }
                    next.assign(state.values());
                    act.fire(case, &mut next);
                    resolver.resolve(next.values())?;
                    for (values, p) in resolver.outcomes() {
                        let t = states.intern(values)?;
                        // A transition into the state's own orbit is a
                        // self-loop — a no-op for CTMC dynamics — and is
                        // dropped, whether or not the space is lumped.
                        if t != s {
                            transitions.push((s, t, rate * (w / total) * p));
                        }
                    }
                }
            }
            s += 1;
        }

        Ok(StateSpace {
            markings: states.markings,
            transitions,
            initial,
            orbit_sizes: sym.map(|_| states.orbit_sizes),
        })
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

    /// The `(from, to, rate)` transitions.
    pub fn transitions(&self) -> &[(usize, usize, f64)] {
        &self.transitions
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
        Ctmc::from_rates(self.markings.len(), &self.transitions)
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
        let kept: Vec<(usize, usize, f64)> = self
            .transitions
            .iter()
            .copied()
            .filter(|&(from, _, _)| !flags[from])
            .collect();
        Ok((Ctmc::from_rates(self.markings.len(), &kept)?, flags))
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

/// The tangible states found so far, numbered in first-encounter order.
struct Interner<'a> {
    sym: Option<&'a SymmetrySpec>,
    max_states: usize,
    /// Stored marking values → state number. Lookup-only: numbers are
    /// assigned from `markings.len()`, and the map is never iterated.
    index: HashMap<Box<[i32]>, usize>,
    markings: Vec<Marking>,
    /// Orbit size of each state, when lumped.
    orbit_sizes: Vec<u128>,
    /// The buffer a marking is canonicalized in before it is looked up.
    canon: Vec<i32>,
}

impl<'a> Interner<'a> {
    fn new(sym: Option<&'a SymmetrySpec>, max_states: usize, num_places: usize) -> Self {
        Interner {
            sym,
            max_states,
            index: HashMap::new(),
            markings: Vec::new(),
            orbit_sizes: Vec::new(),
            canon: vec![0; num_places],
        }
    }

    /// The number of the state `values` stands for (its orbit's canonical
    /// representative, when lumped), interning it first if it is new.
    fn intern(&mut self, values: &[i32]) -> Result<usize, SanError> {
        let key = match self.sym {
            Some(sym) => {
                self.canon.copy_from_slice(values);
                sym.canonicalize(&mut self.canon);
                &self.canon[..]
            }
            None => values,
        };
        if let Some(&i) = self.index.get(key) {
            return Ok(i);
        }
        if self.markings.len() >= self.max_states {
            return Err(SanError::StateSpaceTooLarge(self.max_states));
        }
        let i = self.markings.len();
        if let Some(sym) = self.sym {
            self.orbit_sizes.push(sym.orbit_size(key));
        }
        self.index.insert(key.into(), i);
        self.markings.push(Marking::new(key));
        Ok(i)
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
        assert_eq!(ss.transitions().len(), 2);
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
        let mut rates: Vec<f64> = ss.transitions().iter().map(|&(_, _, r)| r).collect();
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
            .iter()
            .find(|&&(f, t, _)| f == s2 && t == s3)
            .map(|&(_, _, r)| r)
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
    fn general_distribution_rejected() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        b.general_activity(
            "det",
            StdArc::new(itua_sim::dist::Deterministic::new(1.0).unwrap()),
        )
        .input_arc(p, 1)
        .build()
        .unwrap();
        let san = b.finish().unwrap();
        assert!(matches!(
            StateSpace::generate(&san, 100),
            Err(SanError::NonMarkovian(_))
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
        assert_eq!(ss.transitions().len(), 1);
        let (from, to, rate) = ss.transitions()[0];
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
            .iter()
            .map(|&(f, t, r)| (f, t, r.to_bits()))
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
        assert_eq!(plain.transitions().len(), lumped.transitions().len());
        for (a, b) in plain.transitions().iter().zip(lumped.transitions()) {
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

        use crate::reward::{InstantOfTime, RewardVariable};
        use crate::simulator::SanSimulator;
        let sim = SanSimulator::new(san);
        let mut hits = 0u32;
        let n = 3000;
        for seed in 0..n {
            let mut rv = InstantOfTime::new("down", vec![t], move |m| m.get(down) as f64);
            sim.run(seed as u64, 1.0, &mut [&mut rv]).unwrap();
            if rv.observations()[0].value > 0.5 {
                hits += 1;
            }
        }
        let est = hits as f64 / n as f64;
        assert!((est - analytic).abs() < 0.025, "{est} vs {analytic}");
    }
}

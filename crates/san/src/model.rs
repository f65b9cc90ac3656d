//! SAN structure: activities, cases, gates, and the builder.
//!
//! A stochastic activity network consists of *places* holding tokens,
//! *activities* (timed or instantaneous) that fire and change the marking,
//! *cases* attached to activities modeling probabilistic outcomes, and
//! *input/output gates* giving predicates and marking-change functions.
//!
//! The [`SanBuilder`] produces an immutable [`San`] that the simulator and
//! state-space generator execute.

use crate::marking::{Marking, PlaceId};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Shared-ownership predicate over a marking.
pub type Predicate = Arc<dyn Fn(&Marking) -> bool + Send + Sync>;
/// Shared-ownership marking-change function.
pub type Effect = Arc<dyn Fn(&mut Marking) + Send + Sync>;
/// Shared-ownership marking-dependent nonnegative value (rates, weights).
pub type ValueFn = Arc<dyn Fn(&Marking) -> f64 + Send + Sync>;

/// Identifier of an activity within a [`San`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActivityId(pub(crate) u32);

impl ActivityId {
    /// Raw index of this activity.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The id with the given raw index. The caller is responsible for the
    /// index being in range for the model it is used against.
    pub fn from_index(index: usize) -> ActivityId {
        ActivityId(index as u32)
    }
}

impl fmt::Display for ActivityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// How an activity's firing time is determined. Every timed activity is
/// exponential, so a SAN is Markovian by construction: the state-space
/// generator can always export it as a CTMC, and a pending completion
/// time may be redrawn at any moment without changing the law.
#[derive(Clone)]
pub enum Timing {
    /// Fires immediately upon enabling (zero time). When several
    /// instantaneous activities are enabled simultaneously, the simulator
    /// picks one uniformly at random — the "equally likely to fire first"
    /// rule the ITUA paper relies on for random placement.
    Instantaneous,
    /// Exponential firing time with a marking-dependent rate. The activity
    /// is resampled whenever its dependencies change (statistically
    /// equivalent by memorylessness, and required for correctness when the
    /// rate is marking-dependent).
    Exponential(ValueFn),
}

impl fmt::Debug for Timing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Timing::Instantaneous => write!(f, "Instantaneous"),
            Timing::Exponential(_) => write!(f, "Exponential(<rate fn>)"),
        }
    }
}

/// One probabilistic outcome of an activity.
pub struct Case {
    /// Marking-dependent (unnormalized) weight.
    pub(crate) weight: ValueFn,
    /// Marking changes applied when this case is chosen.
    pub(crate) effects: Vec<Effect>,
}

impl fmt::Debug for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Case({} effects)", self.effects.len())
    }
}

/// An activity of a SAN.
pub struct Activity {
    pub(crate) name: String,
    pub(crate) timing: Timing,
    /// All enabling predicates must hold for the activity to be enabled.
    pub(crate) predicates: Vec<Predicate>,
    /// Input-gate functions, applied at firing before the case effects.
    pub(crate) input_effects: Vec<Effect>,
    /// At least one case.
    pub(crate) cases: Vec<Case>,
    /// Places whose change can affect enabling or rate; used for
    /// incremental re-evaluation.
    pub(crate) reads: Vec<PlaceId>,
    /// Declared input arcs `(place, multiplicity)` — structure the builder
    /// recorded alongside the opaque predicate/effect closures.
    pub(crate) declared_inputs: Vec<(PlaceId, i32)>,
    /// Declared output arcs `(place, multiplicity)`.
    pub(crate) declared_outputs: Vec<(PlaceId, i32)>,
    /// Number of opaque input-gate functions (effects the declared arcs do
    /// not describe).
    pub(crate) gate_effects: usize,
}

impl Activity {
    /// The activity's (hierarchical) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The activity's timing discipline.
    pub fn timing(&self) -> &Timing {
        &self.timing
    }

    /// Number of cases.
    pub fn num_cases(&self) -> usize {
        self.cases.len()
    }

    /// Whether the activity is enabled in `marking`.
    pub fn enabled(&self, marking: &Marking) -> bool {
        self.predicates.iter().all(|p| p(marking))
    }

    /// Case weights in `marking` (unnormalized).
    pub fn case_weights(&self, marking: &Marking) -> Vec<f64> {
        self.cases.iter().map(|c| (c.weight)(marking)).collect()
    }

    /// [`Activity::case_weights`] into a reused buffer (cleared first).
    /// Inlined: it sits on the simulator's firing path, and the state-space
    /// generator's calls must not move it out of line there.
    #[inline]
    pub(crate) fn case_weights_into(&self, marking: &Marking, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.cases.iter().map(|c| (c.weight)(marking)));
    }

    /// Whether the activity fires in zero time.
    pub fn is_instantaneous(&self) -> bool {
        matches!(self.timing, Timing::Instantaneous)
    }

    /// Places the activity's enabling predicates or rate function read.
    pub fn reads(&self) -> &[PlaceId] {
        &self.reads
    }

    /// Declared input arcs `(place, multiplicity)`.
    ///
    /// Together with [`Self::declared_output_arcs`] this is the statically
    /// known part of the activity's structure; effects added through
    /// [`ActivityBuilder::input_gate`] or case effects are opaque closures
    /// and are *not* reflected here (see [`Self::num_gate_effects`]).
    pub fn declared_input_arcs(&self) -> &[(PlaceId, i32)] {
        &self.declared_inputs
    }

    /// Declared output arcs `(place, multiplicity)`.
    pub fn declared_output_arcs(&self) -> &[(PlaceId, i32)] {
        &self.declared_outputs
    }

    /// Number of opaque input-gate marking functions attached to this
    /// activity (marking changes the declared arcs do not describe).
    pub fn num_gate_effects(&self) -> usize {
        self.gate_effects
    }

    /// Number of output-gate effects on `case` (beyond declared arcs).
    ///
    /// # Panics
    ///
    /// Panics if `case` is out of range.
    pub fn num_case_effects(&self, case: usize) -> usize {
        self.cases[case].effects.len()
    }

    /// The exponential rate in `marking`, or `None` for an instantaneous
    /// activity.
    pub fn rate(&self, marking: &Marking) -> Option<f64> {
        match &self.timing {
            Timing::Exponential(r) => Some(r(marking)),
            Timing::Instantaneous => None,
        }
    }

    /// Applies input-gate effects then the chosen case's effects.
    ///
    /// # Panics
    ///
    /// Panics if `case` is out of range.
    pub fn fire(&self, case: usize, marking: &mut Marking) {
        for e in &self.input_effects {
            e(marking);
        }
        for e in &self.cases[case].effects {
            e(marking);
        }
    }
}

impl fmt::Debug for Activity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Activity")
            .field("name", &self.name)
            .field("timing", &self.timing)
            .field("cases", &self.cases.len())
            .field("reads", &self.reads)
            .finish()
    }
}

/// Errors from building or validating a SAN.
#[derive(Debug, Clone, PartialEq)]
pub enum SanError {
    /// Two places were given the same name.
    DuplicatePlace(String),
    /// An activity had no cases — impossible to fire.
    NoCases(String),
    /// A rate or weight was invalid (negative/NaN) at the initial marking.
    BadValue(String),
    /// A referenced name was not found.
    UnknownName(String),
    /// The model has no places or no activities.
    EmptyModel,
    /// Instantaneous activities failed to stabilize (livelock) during
    /// simulation or state-space generation.
    Unstabilized {
        /// Marking at which stabilization failed (canonical values).
        marking: Vec<i32>,
    },
    /// The state space exceeded the configured limit.
    StateSpaceTooLarge(usize),
}

impl fmt::Display for SanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SanError::DuplicatePlace(n) => write!(f, "duplicate place name '{n}'"),
            SanError::NoCases(n) => write!(f, "activity '{n}' has no cases"),
            SanError::BadValue(n) => write!(f, "invalid rate/weight on '{n}'"),
            SanError::UnknownName(n) => write!(f, "unknown name '{n}'"),
            SanError::EmptyModel => write!(f, "model has no places or no activities"),
            SanError::Unstabilized { .. } => {
                write!(f, "instantaneous activities failed to stabilize")
            }
            SanError::StateSpaceTooLarge(n) => write!(f, "state space exceeds {n} states"),
        }
    }
}

impl std::error::Error for SanError {}

/// An immutable stochastic activity network.
///
/// Build one with [`SanBuilder`] or by flattening a
/// [`crate::compose::ComposedModel`].
#[derive(Debug)]
pub struct San {
    pub(crate) name: String,
    pub(crate) place_names: Vec<String>,
    pub(crate) place_index: BTreeMap<String, PlaceId>,
    pub(crate) initial: Vec<i32>,
    pub(crate) activities: Vec<Activity>,
    /// For each place, the *timed* activities that read it (enabling or
    /// rate). Split by timing class so the simulator's two incremental
    /// re-evaluation loops (timed reschedule, instantaneous enabling
    /// index) each walk exactly the activities they care about.
    pub(crate) timed_dependents: Vec<Vec<ActivityId>>,
    /// For each place, the *instantaneous* activities that read it.
    pub(crate) inst_dependents: Vec<Vec<ActivityId>>,
}

impl San {
    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of places.
    pub fn num_places(&self) -> usize {
        self.place_names.len()
    }

    /// Number of activities.
    pub fn num_activities(&self) -> usize {
        self.activities.len()
    }

    /// The initial marking.
    pub fn initial_marking(&self) -> Marking {
        Marking::new(&self.initial)
    }

    /// Looks up a place by its full (hierarchical) name.
    pub fn place_id(&self, name: &str) -> Option<PlaceId> {
        self.place_index.get(name).copied()
    }

    /// Name of a place.
    pub fn place_name(&self, place: PlaceId) -> &str {
        &self.place_names[place.index()]
    }

    /// Iterates over all place ids in index order.
    pub fn place_ids(&self) -> impl Iterator<Item = PlaceId> {
        (0..self.place_names.len() as u32).map(PlaceId)
    }

    /// The activity with the given id.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn activity(&self, id: ActivityId) -> &Activity {
        &self.activities[id.index()]
    }

    /// Looks up an activity by exact name.
    pub fn activity_id(&self, name: &str) -> Option<ActivityId> {
        self.activities
            .iter()
            .position(|a| a.name == name)
            .map(|i| ActivityId(i as u32))
    }

    /// Iterates over `(id, activity)` pairs.
    pub fn activities(&self) -> impl Iterator<Item = (ActivityId, &Activity)> {
        self.activities
            .iter()
            .enumerate()
            .map(|(i, a)| (ActivityId(i as u32), a))
    }

    /// Timed activities that must be re-examined when `place` changes.
    pub(crate) fn timed_dependents_of(&self, place: u32) -> &[ActivityId] {
        &self.timed_dependents[place as usize]
    }

    /// Instantaneous activities whose enabling may change when `place`
    /// changes.
    pub(crate) fn inst_dependents_of(&self, place: u32) -> &[ActivityId] {
        &self.inst_dependents[place as usize]
    }

    /// Collects the instantaneous activities enabled in `marking` into
    /// `out` (cleared first), in ascending activity-id order.
    ///
    /// This is the *reference* enumeration every consumer shares: the
    /// simulator rebuilds (and, in debug builds, cross-checks) its
    /// incremental enabled-instantaneous set against it, and the
    /// state-space generator's vanishing-marking resolution and the
    /// analyzer's explorers use it directly. The ascending-id order is
    /// load-bearing — the simulator draws `enabled[rng.usize_below(len)]`,
    /// so any reordering would change which activity a given RNG draw
    /// selects.
    pub fn enabled_instantaneous_into(&self, marking: &Marking, out: &mut Vec<ActivityId>) {
        out.clear();
        for (id, a) in self.activities() {
            if a.is_instantaneous() && a.enabled(marking) {
                out.push(id);
            }
        }
    }
}

/// Builder for atomic SANs.
///
/// # Example
///
/// ```
/// use itua_san::model::SanBuilder;
///
/// # fn main() -> Result<(), itua_san::model::SanError> {
/// let mut b = SanBuilder::new("demo");
/// let tokens = b.place("tokens", 3);
/// let done = b.place("done", 0);
/// b.timed_activity("consume", 1.0)
///     .input_arc(tokens, 1)
///     .output_arc(done, 1)
///     .build()?;
/// let san = b.finish()?;
/// assert_eq!(san.num_places(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SanBuilder {
    name: String,
    place_names: Vec<String>,
    place_index: BTreeMap<String, PlaceId>,
    initial: Vec<i32>,
    activities: Vec<Activity>,
}

impl SanBuilder {
    /// Creates an empty builder.
    pub fn new(name: impl Into<String>) -> Self {
        SanBuilder {
            name: name.into(),
            place_names: Vec::new(),
            place_index: BTreeMap::new(),
            initial: Vec::new(),
            activities: Vec::new(),
        }
    }

    /// Adds a place with an initial marking, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken (duplicate places are almost
    /// always a composition bug) or `initial < 0`.
    pub fn place(&mut self, name: impl Into<String>, initial: i32) -> PlaceId {
        let name = name.into();
        assert!(
            !self.place_index.contains_key(&name),
            "duplicate place name '{name}'"
        );
        assert!(initial >= 0, "negative initial marking for '{name}'");
        let id = PlaceId(self.place_names.len() as u32);
        self.place_index.insert(name.clone(), id);
        self.place_names.push(name);
        self.initial.push(initial);
        id
    }

    /// Starts a timed activity with a constant exponential rate.
    pub fn timed_activity(&mut self, name: impl Into<String>, rate: f64) -> ActivityBuilder<'_> {
        assert!(
            rate.is_finite() && rate > 0.0,
            "activity rate must be positive"
        );
        self.activity(name, Timing::Exponential(Arc::new(move |_| rate)))
    }

    /// Starts a timed activity with a marking-dependent exponential rate.
    ///
    /// `reads` must list every place the rate function looks at.
    pub fn timed_activity_fn(
        &mut self,
        name: impl Into<String>,
        rate: ValueFn,
        reads: &[PlaceId],
    ) -> ActivityBuilder<'_> {
        let mut ab = self.activity(name, Timing::Exponential(rate));
        ab.extra_reads.extend_from_slice(reads);
        ab
    }

    /// Starts an instantaneous activity.
    pub fn instantaneous_activity(&mut self, name: impl Into<String>) -> ActivityBuilder<'_> {
        self.activity(name, Timing::Instantaneous)
    }

    fn activity(&mut self, name: impl Into<String>, timing: Timing) -> ActivityBuilder<'_> {
        ActivityBuilder {
            builder: self,
            name: name.into(),
            timing,
            predicates: Vec::new(),
            input_effects: Vec::new(),
            cases: Vec::new(),
            extra_reads: Vec::new(),
            declared_inputs: Vec::new(),
            declared_outputs: Vec::new(),
            gate_effects: 0,
        }
    }

    /// Finalizes the model.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::EmptyModel`] if there are no places or no
    /// activities.
    pub fn finish(self) -> Result<Arc<San>, SanError> {
        if self.place_names.is_empty() || self.activities.is_empty() {
            return Err(SanError::EmptyModel);
        }
        let mut timed_dependents = vec![Vec::new(); self.place_names.len()];
        let mut inst_dependents = vec![Vec::new(); self.place_names.len()];
        for (i, a) in self.activities.iter().enumerate() {
            let by_timing = if a.is_instantaneous() {
                &mut inst_dependents
            } else {
                &mut timed_dependents
            };
            for p in &a.reads {
                let list: &mut Vec<ActivityId> = &mut by_timing[p.index()];
                if !list.contains(&ActivityId(i as u32)) {
                    list.push(ActivityId(i as u32));
                }
            }
        }
        Ok(Arc::new(San {
            name: self.name,
            place_names: self.place_names,
            place_index: self.place_index,
            initial: self.initial,
            activities: self.activities,
            timed_dependents,
            inst_dependents,
        }))
    }
}

/// Fluent builder for one activity. Obtained from [`SanBuilder`].
pub struct ActivityBuilder<'a> {
    builder: &'a mut SanBuilder,
    name: String,
    timing: Timing,
    predicates: Vec<Predicate>,
    input_effects: Vec<Effect>,
    cases: Vec<Case>,
    extra_reads: Vec<PlaceId>,
    declared_inputs: Vec<(PlaceId, i32)>,
    declared_outputs: Vec<(PlaceId, i32)>,
    gate_effects: usize,
}

impl<'a> ActivityBuilder<'a> {
    /// Standard input arc: requires `k` tokens in `place` and removes them
    /// at firing.
    pub fn input_arc(mut self, place: PlaceId, k: i32) -> Self {
        assert!(k > 0, "input arc multiplicity must be positive");
        self.predicates.push(Arc::new(move |m| m.get(place) >= k));
        self.input_effects.push(Arc::new(move |m| m.add(place, -k)));
        self.extra_reads.push(place);
        self.declared_inputs.push((place, k));
        self
    }

    /// Standard output arc: deposits `k` tokens in `place` at firing (all
    /// cases). Recorded as a default-case effect if no explicit cases are
    /// declared; otherwise applied before case selection is not possible,
    /// so it is added to every case declared so far and every later case.
    pub fn output_arc(mut self, place: PlaceId, k: i32) -> Self {
        assert!(k > 0, "output arc multiplicity must be positive");
        let eff: Effect = Arc::new(move |m| m.add(place, k));
        // Model output arcs as input-side effects applied at firing before
        // the case effect; SAN semantics order is gate-function then case,
        // and token deposits commute with each other.
        self.input_effects.push(eff);
        self.declared_outputs.push((place, k));
        self
    }

    /// Input gate: enabling predicate plus marking function applied at
    /// firing.
    ///
    /// `reads` lists the places the predicate examines, and only those;
    /// places that only `function` reads do not belong there. The
    /// simulator re-tests the activity's enabling when a read place
    /// changes, and on a timed activity those places also decide which
    /// pending samples are redrawn.
    pub fn input_gate(
        mut self,
        reads: &[PlaceId],
        predicate: impl Fn(&Marking) -> bool + Send + Sync + 'static,
        function: impl Fn(&mut Marking) + Send + Sync + 'static,
    ) -> Self {
        self.predicates.push(Arc::new(predicate));
        self.input_effects.push(Arc::new(function));
        self.extra_reads.extend_from_slice(reads);
        self.gate_effects += 1;
        self
    }

    /// Pure enabling predicate (an input gate with identity function).
    pub fn predicate(
        mut self,
        reads: &[PlaceId],
        predicate: impl Fn(&Marking) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.predicates.push(Arc::new(predicate));
        self.extra_reads.extend_from_slice(reads);
        self
    }

    /// Adds a case with constant weight and an output-gate function.
    pub fn case(
        mut self,
        weight: f64,
        effect: impl Fn(&mut Marking) + Send + Sync + 'static,
    ) -> Self {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "case weight must be nonnegative"
        );
        self.cases.push(Case {
            weight: Arc::new(move |_| weight),
            effects: vec![Arc::new(effect)],
        });
        self
    }

    /// Adds a case with a marking-dependent weight.
    pub fn case_fn(
        mut self,
        weight: ValueFn,
        effect: impl Fn(&mut Marking) + Send + Sync + 'static,
    ) -> Self {
        self.cases.push(Case {
            weight,
            effects: vec![Arc::new(effect)],
        });
        self
    }

    /// Finishes the activity, registering it with the model builder.
    ///
    /// An activity declared without explicit cases gets a single
    /// unit-weight case with no extra effect (its only marking changes come
    /// from arcs and gates).
    ///
    /// # Errors
    ///
    /// Returns [`SanError::NoCases`] if the activity could never fire
    /// meaningfully (no cases, no arcs, no gates).
    pub fn build(self) -> Result<ActivityId, SanError> {
        let mut cases = self.cases;
        if cases.is_empty() {
            if self.input_effects.is_empty() {
                return Err(SanError::NoCases(self.name));
            }
            cases.push(Case {
                weight: Arc::new(|_| 1.0),
                effects: vec![],
            });
        }
        let mut reads = self.extra_reads;
        reads.sort_unstable();
        reads.dedup();
        let id = ActivityId(self.builder.activities.len() as u32);
        self.builder.activities.push(Activity {
            name: self.name,
            timing: self.timing,
            predicates: self.predicates,
            input_effects: self.input_effects,
            cases,
            reads,
            declared_inputs: self.declared_inputs,
            declared_outputs: self.declared_outputs,
            gate_effects: self.gate_effects,
        });
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_simple_model() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 2);
        let q = b.place("q", 0);
        let a = b
            .timed_activity("move", 1.0)
            .input_arc(p, 1)
            .output_arc(q, 1)
            .build()
            .unwrap();
        let san = b.finish().unwrap();
        assert_eq!(san.num_places(), 2);
        assert_eq!(san.num_activities(), 1);
        assert_eq!(san.place_id("p"), Some(p));
        assert_eq!(san.place_id("nope"), None);
        assert_eq!(san.activity_id("move"), Some(a));
        let act = san.activity(a);
        assert!(act.enabled(&san.initial_marking()));

        let mut m = san.initial_marking();
        act.fire(0, &mut m);
        assert_eq!(m.get(p), 1);
        assert_eq!(m.get(q), 1);
    }

    #[test]
    fn enabling_respects_arcs_and_predicates() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 0);
        let g = b.place("guard", 0);
        let a = b
            .timed_activity("a", 1.0)
            .input_arc(p, 1)
            .predicate(&[g], move |m| m.get(g) == 0)
            .build()
            .unwrap();
        let san = b.finish().unwrap();
        let mut m = san.initial_marking();
        assert!(!san.activity(a).enabled(&m)); // no token in p
        m.set(p, 1);
        assert!(san.activity(a).enabled(&m));
        m.set(g, 1);
        assert!(!san.activity(a).enabled(&m)); // guard blocks
    }

    #[test]
    fn cases_and_weights() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let hit = b.place("hit", 0);
        let miss = b.place("miss", 0);
        let a = b
            .timed_activity("detect", 1.0)
            .input_arc(p, 1)
            .case(0.8, move |m| m.add(hit, 1))
            .case(0.2, move |m| m.add(miss, 1))
            .build()
            .unwrap();
        let san = b.finish().unwrap();
        let m = san.initial_marking();
        let w = san.activity(a).case_weights(&m);
        assert_eq!(w, vec![0.8, 0.2]);

        let mut m2 = san.initial_marking();
        san.activity(a).fire(1, &mut m2);
        assert_eq!(m2.get(miss), 1);
        assert_eq!(m2.get(hit), 0);
        assert_eq!(m2.get(p), 0);
    }

    #[test]
    fn dependents_index() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let q = b.place("q", 1);
        let a0 = b.timed_activity("a0", 1.0).input_arc(p, 1).build().unwrap();
        let a1 = b.timed_activity("a1", 1.0).input_arc(q, 1).build().unwrap();
        let a2 = b
            .timed_activity("a2", 1.0)
            .input_arc(p, 1)
            .input_arc(q, 1)
            .build()
            .unwrap();
        let san = b.finish().unwrap();
        assert_eq!(san.timed_dependents_of(p.0), &[a0, a2]);
        assert_eq!(san.timed_dependents_of(q.0), &[a1, a2]);
        assert!(san.inst_dependents_of(p.0).is_empty());
    }

    #[test]
    fn empty_model_rejected() {
        let b = SanBuilder::new("empty");
        assert_eq!(b.finish().unwrap_err(), SanError::EmptyModel);
    }

    #[test]
    fn activity_without_cases_or_effects_rejected() {
        let mut b = SanBuilder::new("m");
        let _p = b.place("p", 0);
        let err = b.timed_activity("noop", 1.0).build().unwrap_err();
        assert!(matches!(err, SanError::NoCases(_)));
    }

    #[test]
    #[should_panic]
    fn duplicate_place_panics() {
        let mut b = SanBuilder::new("m");
        b.place("p", 0);
        b.place("p", 1);
    }

    #[test]
    fn introspection_exposes_declared_structure() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 2);
        let q = b.place("q", 0);
        let g = b.place("g", 1);
        let a = b
            .timed_activity("move", 1.5)
            .input_arc(p, 2)
            .output_arc(q, 1)
            .input_gate(&[g], move |m| m.get(g) > 0, move |m| m.set(g, 0))
            .build()
            .unwrap();
        let san = b.finish().unwrap();
        let act = san.activity(a);
        assert_eq!(act.declared_input_arcs(), &[(p, 2)]);
        assert_eq!(act.declared_output_arcs(), &[(q, 1)]);
        assert_eq!(act.num_gate_effects(), 1);
        assert!(!act.is_instantaneous());
        assert_eq!(act.rate(&san.initial_marking()), Some(1.5));
        assert!(act.reads().contains(&p));
        assert!(act.reads().contains(&g));
        assert_eq!(san.place_ids().count(), 3);
    }

    #[test]
    fn marking_dependent_rate_reads() {
        let mut b = SanBuilder::new("m");
        let p = b.place("p", 1);
        let lvl = b.place("level", 0);
        let a = b
            .timed_activity_fn("attack", Arc::new(move |m| 1.0 + m.get(lvl) as f64), &[lvl])
            .input_arc(p, 1)
            .build()
            .unwrap();
        let san = b.finish().unwrap();
        // lvl is in the reads, so dependents of lvl include the activity.
        assert!(san.timed_dependents_of(lvl.0).contains(&a));
        match san.activity(a).timing() {
            Timing::Exponential(rate) => {
                let mut m = san.initial_marking();
                assert_eq!(rate(&m), 1.0);
                m.set(lvl, 3);
                assert_eq!(rate(&m), 4.0);
            }
            _ => panic!("wrong timing"),
        }
    }
}

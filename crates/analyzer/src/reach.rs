//! Exhaustive reachability exploration with optional symmetry reduction.
//!
//! Where [`crate::probe`] samples the reachable set under a marking cap and
//! falls back to seeded walks, this module enumerates *every* reachable
//! marking — tangible and vanishing — from the initial marking, under
//! explicit state and work budgets with structured budget-exceeded errors.
//! On the full reachable set, properties are *proved* rather than probed:
//! a conservation law checked here holds at every reachable marking, not
//! just the ones a bounded probe happened to visit.
//!
//! Two pieces live here:
//!
//! * [`explore`] — the checker's graph: every marking is a node, every
//!   firing a weighted edge, and the caller's `on_fire` callback sees each
//!   firing once (same signature as the probe's, so firing laws plug in
//!   unchanged). An optional [`SymmetrySpec`] canonicalizes markings under
//!   a permutation group, exploring the quotient graph instead: for ITUA,
//!   domains are interchangeable, hosts within a domain are
//!   interchangeable, and replica slots within an application are
//!   interchangeable, which shrinks the state count by orders of
//!   magnitude on the paper's configurations. Orbit sizes are tracked so
//!   the unreduced explorer can serve as an oracle (`Σ orbit = full`).
//! * [`compare_generated`] — checks a generated `StateSpace`
//!   (`itua_san::statespace`) against the tangible CTMC of an explored
//!   graph, keyed by marking. That CTMC comes from the standard GSPN
//!   reduction (`eliminate_vanishing`): the vanishing states are
//!   eliminated by back-substitution in reverse topological order of the
//!   (acyclic) vanishing subgraph. The
//!   generator resolves vanishing markings per firing by LIFO path
//!   enumeration; this route explores the whole graph once and solves it,
//!   so the two share no resolution code and agree only up to rounding
//!   ([`RATE_REL_TOL`]).
//!
//! Symmetry soundness: a [`SymmetrySpec`] asserts that permuting whole
//! *units* within a group, and whole *blocks* within a unit, maps the
//! model onto itself (same activities, rates, and weights under the
//! induced place permutation). The ITUA composition guarantees this by
//! construction — identical templates are stamped per domain/host/replica
//! and communicate through shared places that the permutation fixes.
//! Checking a permutation-closed *family* of invariants or laws on each
//! canonical representative is then equivalent to checking it on every
//! member of the orbit.
#![expect(
    clippy::disallowed_types,
    reason = "marking->index maps are lookup-only; state numbering follows deterministic BFS \
              discovery order and the maps are never iterated"
)]

use crate::probe::OnFire;
use itua_san::marking::Marking;
use itua_san::model::{ActivityId, San, Timing};
use itua_san::statespace::StateSpace;
use itua_san::sym::SymmetrySpec;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Budgets for one exhaustive exploration.
#[derive(Debug, Clone)]
pub struct ReachConfig {
    /// Maximum number of distinct states (tangible + vanishing) interned
    /// before [`ReachError::StateBudget`] is returned.
    pub max_states: usize,
    /// Maximum number of firings performed before
    /// [`ReachError::WorkBudget`] is returned; bounds runtime on graphs
    /// that are narrow in states but dense in edges.
    pub max_work: usize,
}

impl Default for ReachConfig {
    fn default() -> Self {
        ReachConfig {
            max_states: 1 << 20,
            max_work: 1 << 26,
        }
    }
}

impl ReachConfig {
    /// A config bounded by `max_states`, with the work budget scaled to
    /// a generous constant out-degree.
    pub fn with_max_states(max_states: usize) -> Self {
        ReachConfig {
            max_states,
            max_work: max_states.saturating_mul(64).max(1 << 16),
        }
    }
}

/// Structured failure from exhaustive exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReachError {
    /// More distinct states are reachable than `max_states` allows.
    StateBudget {
        /// The configured state budget.
        max_states: usize,
    },
    /// More firings were needed than `max_work` allows.
    WorkBudget {
        /// The configured work budget.
        max_work: usize,
    },
    /// A timed activity produced a NaN/infinite/negative rate at a
    /// reachable marking.
    BadRate {
        /// Activity name.
        activity: String,
    },
    /// An enabled activity's case weights were NaN/negative, or summed
    /// to a non-positive total, at a reachable marking.
    BadWeights {
        /// Activity name.
        activity: String,
    },
    /// The vanishing states cannot be eliminated: instantaneous
    /// activities form a zero-time cycle ([`ReachGraph::vanishing_cycle`]).
    VanishingCycle {
        /// Vanishing states on or behind the cycle.
        states: usize,
    },
}

impl std::fmt::Display for ReachError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReachError::StateBudget { max_states } => {
                write!(
                    f,
                    "state budget exceeded: more than {max_states} reachable states"
                )
            }
            ReachError::WorkBudget { max_work } => {
                write!(
                    f,
                    "work budget exceeded: more than {max_work} firings explored"
                )
            }
            ReachError::BadRate { activity } => {
                write!(
                    f,
                    "activity '{activity}' has a NaN/infinite/negative rate at a reachable marking"
                )
            }
            ReachError::BadWeights { activity } => {
                write!(
                    f,
                    "activity '{activity}' has invalid case weights at a reachable marking"
                )
            }
            ReachError::VanishingCycle { states } => {
                write!(
                    f,
                    "{states} vanishing state(s) lie on a zero-time cycle; the tangible chain is undefined"
                )
            }
        }
    }
}

impl std::error::Error for ReachError {}

// ---------------------------------------------------------------------
// Full explorer (tangible + vanishing states)
// ---------------------------------------------------------------------

/// The fully explored reachability graph (or its symmetry quotient).
#[derive(Debug)]
pub struct ReachGraph {
    /// Every reachable marking (canonical representatives under the
    /// symmetry spec, when one was given), in BFS discovery order.
    pub states: Vec<Vec<i32>>,
    /// Per state: tangible (no instantaneous activity enabled)?
    pub tangible: Vec<bool>,
    /// Per state: orbit size under the symmetry spec (all `1` without one).
    pub orbit_sizes: Vec<u128>,
    /// Per activity index: fired at least once somewhere?
    pub fired: Vec<bool>,
    /// Exact per-place maximum over all reachable markings. With a
    /// symmetry spec, propagated over symmetry classes, so the entry is
    /// the exact bound for the place in the *unquotiented* graph.
    pub place_max: Vec<i32>,
    /// Tangible states with no outgoing firing (absorbing states).
    pub deadlocks: Vec<usize>,
    /// Vanishing states on a zero-time cycle (empty = no livelock).
    /// Every marking here can re-reach itself through instantaneous
    /// firings alone.
    pub vanishing_cycle: Vec<usize>,
    /// Every explored firing as `(from, to, weight)`, multi-edges kept, in
    /// exploration order (so grouped by ascending `from`). The weight is
    /// rate × case probability out of a tangible state, and
    /// 1/|enabled instantaneous activities| × case probability out of a
    /// vanishing one.
    pub edges: Vec<(usize, usize, f64)>,
}

impl ReachGraph {
    /// Number of states (quotient states under a symmetry spec).
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Total firings explored (graph edges, multi-edges counted).
    pub fn num_transitions(&self) -> usize {
        self.edges.len()
    }

    /// Number of tangible states.
    pub fn num_tangible(&self) -> usize {
        self.tangible.iter().filter(|&&t| t).count()
    }

    /// Sum of orbit sizes — with a symmetry spec, the size of the *full*
    /// (unreduced) state space; without one, the state count. Saturating.
    pub fn orbit_total(&self) -> u128 {
        self.orbit_sizes
            .iter()
            .fold(0u128, |acc, &o| acc.saturating_add(o))
    }

    /// Sum of orbit sizes over tangible states only.
    pub fn tangible_orbit_total(&self) -> u128 {
        self.orbit_sizes
            .iter()
            .zip(&self.tangible)
            .filter(|&(_, &t)| t)
            .fold(0u128, |acc, (&o, _)| acc.saturating_add(o))
    }
}

/// Exhaustively explores the reachability graph of `san` from its initial
/// marking, visiting tangible and vanishing markings alike.
///
/// With a [`SymmetrySpec`], every marking is canonicalized before
/// interning and the quotient graph is explored instead; `on_fire` then
/// sees firings *from canonical representatives* (sound for
/// permutation-closed law families, see the module docs).
///
/// `on_fire` receives `(san, activity, case, pre-marking, delta)` for
/// every explored firing — the same shape as the probe's callback, so
/// [`crate::FiringLaw`] closures can be driven by either explorer.
///
/// # Errors
///
/// Returns a structured [`ReachError`] on budget exhaustion
/// (`StateBudget`, `WorkBudget`) or invalid rates/weights at a
/// reachable marking.
pub fn explore(
    san: &San,
    cfg: &ReachConfig,
    symmetry: Option<&SymmetrySpec>,
    mut on_fire: impl FnMut(&San, ActivityId, usize, &Marking, &[i64]),
) -> Result<ReachGraph, ReachError> {
    explore_dyn(san, cfg, symmetry, &mut on_fire)
}

/// Monomorphization-free core of [`explore`].
fn explore_dyn(
    san: &San,
    cfg: &ReachConfig,
    symmetry: Option<&SymmetrySpec>,
    on_fire: &mut OnFire<'_>,
) -> Result<ReachGraph, ReachError> {
    let num_places = san.num_places();
    let mut index: HashMap<Vec<i32>, usize> = HashMap::new();
    let mut states: Vec<Vec<i32>> = Vec::new();
    let mut orbit_sizes: Vec<u128> = Vec::new();
    let mut frontier: VecDeque<usize> = VecDeque::new();
    let mut place_max = vec![0i32; num_places];

    let mut intern = |mut vals: Vec<i32>,
                      states: &mut Vec<Vec<i32>>,
                      orbit_sizes: &mut Vec<u128>,
                      frontier: &mut VecDeque<usize>,
                      place_max: &mut [i32]|
     -> Result<usize, ReachError> {
        if let Some(sym) = symmetry {
            sym.canonicalize(&mut vals);
        }
        if let Some(&i) = index.get(&vals) {
            return Ok(i);
        }
        if states.len() >= cfg.max_states {
            return Err(ReachError::StateBudget {
                max_states: cfg.max_states,
            });
        }
        let i = states.len();
        for (m, &v) in place_max.iter_mut().zip(&vals) {
            *m = (*m).max(v);
        }
        orbit_sizes.push(symmetry.map_or(1, |s| s.orbit_size(&vals)));
        index.insert(vals.clone(), i);
        states.push(vals);
        frontier.push_back(i);
        Ok(i)
    };

    let init = san.initial_marking().values().to_vec();
    intern(
        init,
        &mut states,
        &mut orbit_sizes,
        &mut frontier,
        &mut place_max,
    )?;

    let mut tangible: Vec<bool> = Vec::new();
    let mut fired = vec![false; san.num_activities()];
    let mut deadlocks: Vec<usize> = Vec::new();
    let mut edges: Vec<(usize, usize, f64)> = Vec::new();
    let mut work = 0usize;

    while let Some(s) = frontier.pop_front() {
        let vals = states[s].clone();
        let marking = Marking::new(&vals);
        let mut inst = Vec::new();
        san.enabled_instantaneous_into(&marking, &mut inst);
        let is_tangible = inst.is_empty();
        debug_assert_eq!(tangible.len(), s);
        tangible.push(is_tangible);

        // Fires every positive-weight case of `act`, interning successors
        // and recording each firing as an edge of weight
        // `scale` × case probability.
        let mut fire_all_cases = |act_id: ActivityId,
                                  scale: f64,
                                  states: &mut Vec<Vec<i32>>,
                                  orbit_sizes: &mut Vec<u128>,
                                  frontier: &mut VecDeque<usize>,
                                  place_max: &mut [i32],
                                  edges: &mut Vec<(usize, usize, f64)>|
         -> Result<(), ReachError> {
            let act = san.activity(act_id);
            let weights = act.case_weights(&marking);
            let total: f64 = weights.iter().sum();
            if weights.iter().any(|w| !(w.is_finite() && *w >= 0.0))
                || !(total.is_finite() && total > 0.0)
            {
                return Err(ReachError::BadWeights {
                    activity: act.name().to_owned(),
                });
            }
            for (case, &w) in weights.iter().enumerate() {
                if w <= 0.0 {
                    continue;
                }
                work += 1;
                if work > cfg.max_work {
                    return Err(ReachError::WorkBudget {
                        max_work: cfg.max_work,
                    });
                }
                let mut next = Marking::new(&vals);
                act.fire(case, &mut next);
                let nvals = next.values().to_vec();
                let delta: Vec<i64> = nvals
                    .iter()
                    .zip(&vals)
                    .map(|(&a, &b)| i64::from(a) - i64::from(b))
                    .collect();
                on_fire(san, act_id, case, &marking, &delta);
                let t = intern(nvals, states, orbit_sizes, frontier, place_max)?;
                edges.push((s, t, scale * (w / total)));
                fired[act_id.index()] = true;
            }
            Ok(())
        };

        if is_tangible {
            for (id, act) in san.activities() {
                let Timing::Exponential(rate_fn) = act.timing() else {
                    continue;
                };
                if !act.enabled(&marking) {
                    continue;
                }
                let rate = rate_fn(&marking);
                if !(rate.is_finite() && rate >= 0.0) {
                    return Err(ReachError::BadRate {
                        activity: act.name().to_owned(),
                    });
                }
                if rate == 0.0 {
                    continue;
                }
                fire_all_cases(
                    id,
                    rate,
                    &mut states,
                    &mut orbit_sizes,
                    &mut frontier,
                    &mut place_max,
                    &mut edges,
                )?;
            }
            // Edges are recorded in state order: no edge from `s` yet
            // means no timed activity fired here.
            if edges.last().is_none_or(|&(from, _, _)| from != s) {
                deadlocks.push(s);
            }
        } else {
            // Uniform choice among the enabled instantaneous activities.
            let share = 1.0 / inst.len() as f64;
            for &id in &inst {
                fire_all_cases(
                    id,
                    share,
                    &mut states,
                    &mut orbit_sizes,
                    &mut frontier,
                    &mut place_max,
                    &mut edges,
                )?;
            }
        }
    }

    // Zero-time livelock: vanishing states Kahn elimination cannot order.
    let vanishing_cycle = vanishing_order(&tangible, &edges).err().unwrap_or_default();

    // Propagate exact bounds over symmetry classes: the representative
    // sorts interchangeable slots, so a single slot's max is only exact
    // for the whole class, not for one fixed member.
    if let Some(sym) = symmetry {
        let classes = sym.classes();
        let mut class_max = place_max.clone();
        for (p, &c) in classes.iter().enumerate() {
            class_max[c] = class_max[c].max(place_max[p]);
        }
        for (p, &c) in classes.iter().enumerate() {
            place_max[p] = class_max[c];
        }
    }

    Ok(ReachGraph {
        states,
        tangible,
        orbit_sizes,
        fired,
        place_max,
        deadlocks,
        vanishing_cycle,
        edges,
    })
}

/// A topological order of the vanishing-only subgraph (Kahn
/// elimination), or — when it has a cycle — the vanishing states left
/// with positive in-degree, which sit on or behind a zero-time cycle.
fn vanishing_order(
    tangible: &[bool],
    edges: &[(usize, usize, f64)],
) -> Result<Vec<usize>, Vec<usize>> {
    let n = tangible.len();
    let mut indeg = vec![0usize; n];
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(s, t, _) in edges {
        if !tangible[s] && !tangible[t] {
            adj[s].push(t);
            indeg[t] += 1;
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| !tangible[i] && indeg[i] == 0).collect();
    let mut order = Vec::new();
    while let Some(i) = queue.pop() {
        order.push(i);
        for &t in &adj[i] {
            indeg[t] -= 1;
            if indeg[t] == 0 {
                queue.push(t);
            }
        }
    }
    if order.len() == tangible.iter().filter(|&&t| !t).count() {
        Ok(order)
    } else {
        Err((0..n).filter(|&i| !tangible[i] && indeg[i] > 0).collect())
    }
}

// ---------------------------------------------------------------------
// Vanishing-state elimination (the generator's oracle)
// ---------------------------------------------------------------------

/// Relative tolerance of [`compare_generated`]. Elimination and the
/// generator's path enumeration sum the same products in different
/// orders, so they agree to a few ulps, not bit for bit.
pub const RATE_REL_TOL: f64 = 1e-12;

/// The tangible CTMC of an explored graph, keyed by
/// [`ReachGraph::states`] index.
#[derive(Debug)]
struct TangibleRates {
    /// Rate per ordered pair `(from, to)` of distinct tangible states,
    /// parallel firings summed; self-loops dropped.
    rates: BTreeMap<(usize, usize), f64>,
    /// Initial probability mass per tangible state.
    initial: BTreeMap<usize, f64>,
}

/// Eliminates the vanishing states of `graph`: each vanishing state's
/// absorption distribution over tangible states is the weight-averaged
/// distribution of its successors, computed by back-substitution in
/// reverse topological order of the vanishing subgraph, and a tangible
/// firing into a vanishing state is spread over that distribution.
///
/// # Errors
///
/// [`ReachError::VanishingCycle`] when instantaneous activities form a
/// zero-time cycle, which leaves the absorption probabilities undefined.
fn eliminate_vanishing(graph: &ReachGraph) -> Result<TangibleRates, ReachError> {
    let order = vanishing_order(&graph.tangible, &graph.edges).map_err(|cycle| {
        ReachError::VanishingCycle {
            states: cycle.len(),
        }
    })?;
    // Edges are grouped by ascending source, so counting them yields
    // each state's outgoing range.
    let n = graph.num_states();
    let mut start = vec![0usize; n + 1];
    for &(s, _, _) in &graph.edges {
        start[s + 1] += 1;
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    debug_assert!(graph.edges.windows(2).all(|e| e[0].0 <= e[1].0));
    let out = |s: usize| &graph.edges[start[s]..start[s + 1]];

    // Adds `w` × (the tangible distribution of state `u`) into `acc`.
    let spread =
        |u: usize, w: f64, absorb: &[Vec<(usize, f64)>], acc: &mut BTreeMap<usize, f64>| {
            if graph.tangible[u] {
                *acc.entry(u).or_default() += w;
            } else {
                for &(t, p) in &absorb[u] {
                    *acc.entry(t).or_default() += w * p;
                }
            }
        };

    let mut absorb: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    let mut acc = BTreeMap::new();
    for &v in order.iter().rev() {
        for &(_, u, w) in out(v) {
            spread(u, w, &absorb, &mut acc);
        }
        absorb[v] = std::mem::take(&mut acc).into_iter().collect();
    }

    let mut rates = BTreeMap::new();
    for s in (0..n).filter(|&s| graph.tangible[s]) {
        for &(_, u, w) in out(s) {
            spread(u, w, &absorb, &mut acc);
        }
        for (t, r) in std::mem::take(&mut acc) {
            if t != s {
                rates.insert((s, t), r);
            }
        }
    }
    // The initial marking is state 0.
    spread(0, 1.0, &absorb, &mut acc);
    Ok(TangibleRates {
        rates,
        initial: acc,
    })
}

/// Checks a generated tangible state space against `graph` with its
/// vanishing states eliminated, keyed by marking: the same tangible
/// markings (with the same orbit sizes, when `generated` is lumped), the
/// same rate summed per ordered pair of distinct states, and the same
/// initial mass, each within [`RATE_REL_TOL`] relative. Compare a plain
/// generator with an unreduced graph, a lumped one with the quotient
/// graph under the same symmetry spec.
///
/// Returns the worst relative deviation seen.
///
/// # Errors
///
/// A description of the first mismatch, or of a failed elimination.
pub fn compare_generated(graph: &ReachGraph, generated: &StateSpace) -> Result<f64, String> {
    let eliminated = eliminate_vanishing(graph).map_err(|e| e.to_string())?;
    let index: HashMap<&[i32], usize> = graph
        .states
        .iter()
        .enumerate()
        .filter(|&(i, _)| graph.tangible[i])
        .map(|(i, m)| (m.as_slice(), i))
        .collect();
    if generated.num_states() != index.len() {
        return Err(format!(
            "tangible state counts differ: generator {} vs explored graph {}",
            generated.num_states(),
            index.len()
        ));
    }
    let mut to_graph = Vec::with_capacity(generated.num_states());
    for i in 0..generated.num_states() {
        let g = *index
            .get(generated.marking(i).values())
            .ok_or_else(|| format!("generator state #{i} is not a tangible state of the graph"))?;
        if let Some(orbits) = generated.orbit_sizes() {
            if orbits[i] != graph.orbit_sizes[g] {
                return Err(format!(
                    "orbit size of generator state #{i} differs: {} vs {}",
                    orbits[i], graph.orbit_sizes[g]
                ));
            }
        }
        to_graph.push(g);
    }

    let mut rates = BTreeMap::new();
    for (s, t, r) in generated.transitions() {
        *rates.entry((to_graph[s], to_graph[t])).or_default() += r;
    }
    let initial: BTreeMap<usize, f64> = generated
        .initial_distribution()
        .iter()
        .enumerate()
        .filter(|&(_, &p)| p != 0.0)
        .map(|(i, &p)| (to_graph[i], p))
        .collect();
    let mut worst = 0.0;
    agree("rates", &eliminated.rates, &rates, &mut worst)?;
    agree("initial mass", &eliminated.initial, &initial, &mut worst)?;
    Ok(worst)
}

/// Requires `eliminated` and `generated` to have the same keys and
/// values within [`RATE_REL_TOL`] relative, raising `worst` to the
/// largest relative deviation seen.
fn agree<K: Ord + std::fmt::Debug>(
    what: &str,
    eliminated: &BTreeMap<K, f64>,
    generated: &BTreeMap<K, f64>,
    worst: &mut f64,
) -> Result<(), String> {
    if eliminated.len() != generated.len() {
        return Err(format!(
            "{what}: {} entries after elimination vs {} generated",
            eliminated.len(),
            generated.len()
        ));
    }
    for ((k, &x), (kg, &y)) in eliminated.iter().zip(generated) {
        if k != kg {
            return Err(format!(
                "{what}: graph key {k:?} after elimination vs {kg:?} generated"
            ));
        }
        let dev = if x == y {
            0.0
        } else {
            (x - y).abs() / x.abs().max(y.abs())
        };
        if dev.is_nan() || dev > RATE_REL_TOL {
            return Err(format!(
                "{what} at graph key {k:?}: eliminated {x} vs generated {y} \
                 (relative deviation {dev:.3e})"
            ));
        }
        *worst = worst.max(dev);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use itua_san::model::SanBuilder;
    use itua_san::sym::{SymmetryGroup, SymmetryUnit};
    use std::sync::Arc;

    fn repairable(fail: f64, fix: f64) -> Arc<San> {
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

    /// `n` independent repairable components — state space 2^n, quotient
    /// n+1 under full exchangeability.
    fn n_components(n: usize) -> Arc<San> {
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
        b.finish().unwrap()
    }

    fn component_spec(n: usize) -> SymmetrySpec {
        let units = (0..n)
            .map(|i| SymmetryUnit {
                shared: vec![2 * i, 2 * i + 1],
                blocks: vec![],
            })
            .collect();
        SymmetrySpec::new(2 * n, vec![SymmetryGroup { units }]).unwrap()
    }

    #[test]
    fn full_exploration_counts_states_and_edges() {
        let san = repairable(1.0, 2.0);
        let g = explore(&san, &ReachConfig::default(), None, |_, _, _, _, _| {}).unwrap();
        assert_eq!(g.num_states(), 2);
        assert_eq!(g.num_tangible(), 2);
        assert_eq!(g.num_transitions(), 2);
        assert!(g.deadlocks.is_empty());
        assert!(g.vanishing_cycle.is_empty());
        assert_eq!(g.place_max, vec![1, 1]);
        assert!(g.fired.iter().all(|&f| f));
    }

    #[test]
    fn quotient_matches_full_on_exchangeable_components() {
        let n = 4;
        let san = n_components(n);
        let full = explore(&san, &ReachConfig::default(), None, |_, _, _, _, _| {}).unwrap();
        assert_eq!(full.num_states(), 1 << n);
        let spec = component_spec(n);
        let quot = explore(
            &san,
            &ReachConfig::default(),
            Some(&spec),
            |_, _, _, _, _| {},
        )
        .unwrap();
        assert_eq!(quot.num_states(), n + 1);
        assert_eq!(quot.orbit_total(), (1 << n) as u128);
        assert_eq!(quot.place_max, full.place_max);
    }

    #[test]
    fn state_budget_is_a_structured_error() {
        let san = n_components(5);
        let err = explore(
            &san,
            &ReachConfig {
                max_states: 7,
                max_work: 1 << 20,
            },
            None,
            |_, _, _, _, _| {},
        )
        .unwrap_err();
        assert_eq!(err, ReachError::StateBudget { max_states: 7 });
    }

    #[test]
    fn work_budget_is_a_structured_error() {
        let san = n_components(5);
        let err = explore(
            &san,
            &ReachConfig {
                max_states: 1 << 20,
                max_work: 9,
            },
            None,
            |_, _, _, _, _| {},
        )
        .unwrap_err();
        assert_eq!(err, ReachError::WorkBudget { max_work: 9 });
    }

    #[test]
    fn deadlock_states_are_reported() {
        // One-way: up --fail--> down, no repair.
        let mut b = SanBuilder::new("oneway");
        let up = b.place("up", 1);
        let down = b.place("down", 0);
        b.timed_activity("fail", 1.0)
            .input_arc(up, 1)
            .output_arc(down, 1)
            .build()
            .unwrap();
        let san = b.finish().unwrap();
        let g = explore(&san, &ReachConfig::default(), None, |_, _, _, _, _| {}).unwrap();
        assert_eq!(g.num_states(), 2);
        assert_eq!(g.deadlocks, vec![1]);
    }

    #[test]
    fn vanishing_cycle_is_detected_without_diverging() {
        // Instantaneous toggle p <-> q: the statespace generator diverges
        // to its depth cap here; the graph explorer closes the loop in two
        // states and reports the cycle, which elimination refuses.
        let mut b = SanBuilder::new("toggle");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
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
        let g = explore(&san, &ReachConfig::default(), None, |_, _, _, _, _| {}).unwrap();
        assert_eq!(g.num_states(), 2);
        assert_eq!(g.num_tangible(), 0);
        let mut cyc = g.vanishing_cycle.clone();
        cyc.sort_unstable();
        assert_eq!(cyc, vec![0, 1]);
        assert_eq!(
            eliminate_vanishing(&g).unwrap_err(),
            ReachError::VanishingCycle { states: 2 }
        );
    }

    #[test]
    fn on_fire_sees_every_firing_with_raw_deltas() {
        let san = repairable(1.0, 2.0);
        let mut seen: Vec<(String, Vec<i64>)> = Vec::new();
        explore(
            &san,
            &ReachConfig::default(),
            None,
            |san, act, _case, _pre, delta| {
                seen.push((san.activity(act).name().to_owned(), delta.to_vec()));
            },
        )
        .unwrap();
        seen.sort();
        assert_eq!(
            seen,
            vec![
                ("fail".to_owned(), vec![-1, 1]),
                ("fix".to_owned(), vec![1, -1]),
            ]
        );
    }

    /// A start token branches instantaneously to `a` (0.3) or `c` (0.7);
    /// `a` drains to a sink at `tick`, `c` returns to the start at 0.5 —
    /// vanishing markings, case splits and an orbit-internal self-loop.
    fn vanishing_branch(tick: f64) -> Arc<San> {
        let mut b = SanBuilder::new("v");
        let start = b.place("start", 1);
        let a = b.place("a", 0);
        let c = b.place("c", 0);
        let sink = b.place("sink", 0);
        b.instantaneous_activity("branch")
            .input_arc(start, 1)
            .case(0.3, move |m| m.add(a, 1))
            .case(0.7, move |m| m.add(c, 1))
            .build()
            .unwrap();
        b.timed_activity("tick", tick)
            .input_arc(a, 1)
            .output_arc(sink, 1)
            .build()
            .unwrap();
        b.timed_activity("tock", 0.5)
            .input_arc(c, 1)
            .output_arc(start, 1)
            .build()
            .unwrap();
        b.finish().unwrap()
    }

    fn full_graph(san: &San) -> ReachGraph {
        explore(san, &ReachConfig::default(), None, |_, _, _, _, _| {}).unwrap()
    }

    #[test]
    fn elimination_yields_the_tangible_chain_and_matches_statespace() {
        let san = vanishing_branch(1.5);
        let g = full_graph(&san);
        assert_eq!(g.num_states(), 4, "one vanishing start state");
        assert_eq!(g.num_tangible(), 3);
        let chain = eliminate_vanishing(&g).unwrap();
        let state = |m: [i32; 4]| g.states.iter().position(|s| s == &m).unwrap();
        let (at_a, at_c, at_sink) = (
            state([0, 1, 0, 0]),
            state([0, 0, 1, 0]),
            state([0, 0, 0, 1]),
        );
        // a → sink at 1.5; c → start resolves to a (0.3) or back to c
        // (0.7, a dropped self-loop).
        let close = |x: f64, y: f64| (x - y).abs() <= 1e-15;
        assert_eq!(chain.rates.len(), 2);
        assert!(close(chain.rates[&(at_a, at_sink)], 1.5));
        assert!(close(chain.rates[&(at_c, at_a)], 0.5 * 0.3));
        assert_eq!(chain.initial.len(), 2);
        assert!(close(chain.initial[&at_a], 0.3));
        assert!(close(chain.initial[&at_c], 0.7));

        let generated = StateSpace::generate(&san, 1000).unwrap();
        let worst = compare_generated(&g, &generated).unwrap();
        assert!(worst <= RATE_REL_TOL, "{worst}");
    }

    #[test]
    fn comparison_rejects_a_generator_one_rate_apart() {
        // The graph and the generator come from SANs whose `tick` rates
        // differ by 1e-9 relative: far below any simulation's resolution,
        // far above the comparison's tolerance.
        let g = full_graph(&vanishing_branch(1.5));
        let mutated = StateSpace::generate(&vanishing_branch(1.5 * (1.0 + 1e-9)), 1000).unwrap();
        let err = compare_generated(&g, &mutated).unwrap_err();
        assert!(err.contains("rates"), "{err}");
    }

    #[test]
    fn lumped_generator_matches_the_eliminated_quotient() {
        let n = 4;
        let san = n_components(n);
        let spec = component_spec(n);
        let quot = explore(
            &san,
            &ReachConfig::default(),
            Some(&spec),
            |_, _, _, _, _| {},
        )
        .unwrap();
        let lumped = StateSpace::generate_lumped(&san, &spec, 1000).unwrap();
        assert!(compare_generated(&quot, &lumped).unwrap() <= RATE_REL_TOL);
        // The unreduced graph is a different chain: the comparison must
        // notice, not silently pass.
        let full = full_graph(&san);
        assert!(compare_generated(&full, &lumped).is_err());
    }
}

//! Bounded deterministic exploration of a SAN's behavior.
//!
//! Activity effects are opaque closures, so the incidence structure
//! cannot be read off the model — it has to be *observed*. The probe
//! explores reachable markings (breadth-first up to a cap, then a few
//! deterministic pseudo-random walks for depth), firing every enabled
//! `(activity, case)` pair and recording the distinct marking deltas each
//! produces. Exploration follows simulator semantics: instantaneous
//! activities pre-empt timed ones (vanishing-marking priority) and only
//! cases with positive weight fire, so every probed marking is reachable
//! and every firing is legal (no negative-token panics).
#![expect(
    clippy::disallowed_types,
    reason = "the visited-marking set dedups exploration; membership-only, frontier order comes \
              from a queue and seeded walks"
)]

use itua_san::marking::Marking;
use itua_san::model::{ActivityId, San};
use std::collections::HashSet;

/// Firing callback: `(model, activity, case, pre-marking, delta)`.
pub type OnFire<'a> = dyn FnMut(&San, ActivityId, usize, &Marking, &[i64]) + 'a;

/// Limits for the exploration.
#[derive(Debug, Clone)]
pub struct ProbeConfig {
    /// Breadth-first marking cap.
    pub max_markings: usize,
    /// Number of deterministic deep walks after BFS.
    pub num_walks: usize,
    /// Steps per walk.
    pub walk_len: usize,
    /// Distinct deltas recorded per `(activity, case)` before giving up.
    pub max_deltas_per_case: usize,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            max_markings: 2048,
            num_walks: 32,
            walk_len: 128,
            max_deltas_per_case: 64,
        }
    }
}

/// One distinct observed effect of an `(activity, case)` firing.
#[derive(Debug, Clone)]
pub struct CaseDelta {
    /// Activity index.
    pub activity: usize,
    /// Case index within the activity.
    pub case: usize,
    /// Per-place marking change.
    pub delta: Vec<i64>,
}

/// A rate or case-weight problem observed at a reachable marking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RateIssue {
    /// Exponential rate was NaN or infinite while the activity was
    /// enabled.
    NonFiniteRate,
    /// Exponential rate was negative while enabled.
    NegativeRate,
    /// Exponential rate was exactly zero while enabled (the activity can
    /// never fire from such markings).
    ZeroRateWhileEnabled,
    /// A case weight was NaN, infinite, or negative.
    BadCaseWeight,
    /// All case weights were zero while the activity was enabled (no case
    /// can be selected).
    ZeroTotalWeight,
}

/// What the probe observed.
#[derive(Debug)]
pub struct ProbeData {
    /// Distinct markings interned by the BFS (walks explore past these
    /// without interning).
    pub markings_seen: usize,
    /// Whether the BFS hit `max_markings` before exhausting the frontier.
    pub truncated: bool,
    /// Distinct deltas per `(activity, case)`, in first-observation order.
    pub deltas: Vec<CaseDelta>,
    /// Per activity: markings (BFS) at which it was enabled.
    pub enabled_count: Vec<usize>,
    /// Per activity: total probe firings (BFS expansions + walk steps).
    pub fired_count: Vec<usize>,
    /// Per place: a probed marking held a positive token count.
    pub ever_positive: Vec<bool>,
    /// Per activity: distinct rate/weight issues observed.
    pub rate_issues: Vec<Vec<RateIssue>>,
    /// Per activity: a witnessed repeatable gain — a componentwise
    /// nonnegative, nonzero delta after which the same case is enabled
    /// again (structural unboundedness witness).
    pub repeat_gain: Vec<Option<Vec<i64>>>,
    /// Per activity: more distinct deltas than `max_deltas_per_case`.
    pub delta_overflow: Vec<bool>,
}

struct ProbeState<'a> {
    san: &'a San,
    cfg: &'a ProbeConfig,
    data: ProbeData,
}

impl ProbeState<'_> {
    fn push_issue(&mut self, activity: usize, issue: RateIssue) {
        let list = &mut self.data.rate_issues[activity];
        if !list.contains(&issue) {
            list.push(issue);
        }
    }

    /// Activities to expand at `m`: enabled instantaneous ones if any
    /// (vanishing priority), otherwise enabled timed ones.
    fn fireable(&self, m: &Marking) -> Vec<usize> {
        let mut inst = Vec::new();
        self.san.enabled_instantaneous_into(m, &mut inst);
        if inst.is_empty() {
            self.san
                .activities()
                .filter(|(_, a)| !a.is_instantaneous() && a.enabled(m))
                .map(|(id, _)| id.index())
                .collect()
        } else {
            inst.into_iter().map(ActivityId::index).collect()
        }
    }

    /// Fires `(activity, case)` at `pre`, records the delta and sanity
    /// data, and returns the successor values.
    fn fire_recorded(
        &mut self,
        activity: usize,
        case: usize,
        pre: &Marking,
        on_fire: &mut OnFire<'_>,
    ) -> Vec<i32> {
        let id = ActivityId::from_index(activity);
        let act = self.san.activity(id);
        let mut next = Marking::new(pre.values());
        act.fire(case, &mut next);
        let delta: Vec<i64> = next
            .values()
            .iter()
            .zip(pre.values())
            .map(|(&a, &b)| i64::from(a) - i64::from(b))
            .collect();
        self.data.fired_count[activity] += 1;
        for (p, &v) in next.values().iter().enumerate() {
            if v > 0 {
                self.data.ever_positive[p] = true;
            }
        }
        // Distinct-delta bookkeeping (linear scan; the per-case cap keeps
        // the list short).
        let seen = self
            .data
            .deltas
            .iter()
            .any(|d| d.activity == activity && d.case == case && d.delta == delta);
        if !seen {
            let case_count = self
                .data
                .deltas
                .iter()
                .filter(|d| d.activity == activity && d.case == case)
                .count();
            if case_count < self.cfg.max_deltas_per_case {
                self.data.deltas.push(CaseDelta {
                    activity,
                    case,
                    delta: delta.clone(),
                });
            } else {
                self.data.delta_overflow[activity] = true;
            }
        }
        // Repeatable gain: a componentwise nonnegative, nonzero delta
        // whose case stays live afterwards can repeat forever. Confirm by
        // replaying the firing several times — a predicate that caps the
        // growth would disable it and clear the witness.
        if self.data.repeat_gain[activity].is_none()
            && delta.iter().all(|&d| d >= 0)
            && delta.iter().any(|&d| d != 0)
        {
            let mut probe = Marking::new(next.values());
            let mut confirmed = true;
            for _ in 0..8 {
                if !(act.enabled(&probe)
                    && act.case_weights(&probe).get(case).copied().unwrap_or(0.0) > 0.0)
                {
                    confirmed = false;
                    break;
                }
                let before: Vec<i32> = probe.values().to_vec();
                act.fire(case, &mut probe);
                let still_gaining = probe.values().iter().zip(&before).all(|(&a, &b)| a >= b)
                    && probe.values().iter().zip(&before).any(|(&a, &b)| a > b);
                if !still_gaining {
                    confirmed = false;
                    break;
                }
            }
            if confirmed {
                self.data.repeat_gain[activity] = Some(delta.clone());
            }
        }
        on_fire(self.san, id, case, pre, &delta);
        next.values().to_vec()
    }

    /// Expands one marking: sanity-checks every fireable activity and
    /// fires every positive-weight case, returning successors.
    fn expand(
        &mut self,
        m: &Marking,
        count_enabled: bool,
        on_fire: &mut OnFire<'_>,
    ) -> Vec<Vec<i32>> {
        let fireable = self.fireable(m);
        if count_enabled {
            for &a in &fireable {
                self.data.enabled_count[a] += 1;
            }
        }
        let mut successors = Vec::new();
        for a in fireable {
            let act = self.san.activity(ActivityId::from_index(a));
            if let Some(rate) = act.rate(m) {
                if !rate.is_finite() {
                    self.push_issue(a, RateIssue::NonFiniteRate);
                    continue;
                } else if rate < 0.0 {
                    self.push_issue(a, RateIssue::NegativeRate);
                    continue;
                } else if rate == 0.0 {
                    self.push_issue(a, RateIssue::ZeroRateWhileEnabled);
                    continue;
                }
            }
            let weights = act.case_weights(m);
            if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
                self.push_issue(a, RateIssue::BadCaseWeight);
                continue;
            }
            if weights.iter().sum::<f64>() <= 0.0 {
                self.push_issue(a, RateIssue::ZeroTotalWeight);
                continue;
            }
            for (case, &w) in weights.iter().enumerate() {
                if w > 0.0 {
                    successors.push(self.fire_recorded(a, case, m, on_fire));
                }
            }
        }
        successors
    }
}

/// Explores `san` within `cfg`'s limits, invoking `on_fire` for every
/// probed firing `(model, activity, case, pre-marking, delta)`.
pub fn explore(
    san: &San,
    cfg: &ProbeConfig,
    mut on_fire: impl FnMut(&San, ActivityId, usize, &Marking, &[i64]),
) -> ProbeData {
    let num_places = san.num_places();
    let num_activities = san.num_activities();
    let mut state = ProbeState {
        san,
        cfg,
        data: ProbeData {
            markings_seen: 0,
            truncated: false,
            deltas: Vec::new(),
            enabled_count: vec![0; num_activities],
            fired_count: vec![0; num_activities],
            ever_positive: vec![false; num_places],
            rate_issues: vec![Vec::new(); num_activities],
            repeat_gain: vec![None; num_activities],
            delta_overflow: vec![false; num_activities],
        },
    };

    let initial = san.initial_marking().values().to_vec();
    for (p, &v) in initial.iter().enumerate() {
        if v > 0 {
            state.data.ever_positive[p] = true;
        }
    }

    // Membership-only interning set; iteration order never observed, so
    // the hash container cannot leak nondeterminism (frontier order is the
    // deterministic queue below).
    let mut seen: HashSet<Vec<i32>> = HashSet::from([initial.clone()]);
    let mut frontier: Vec<Vec<i32>> = vec![initial.clone()];

    let mut head = 0;
    while head < frontier.len() {
        let values = frontier[head].clone();
        head += 1;
        let m = Marking::new(&values);
        for succ in state.expand(&m, true, &mut on_fire) {
            if seen.len() >= cfg.max_markings {
                state.data.truncated = true;
            } else if seen.insert(succ.clone()) {
                frontier.push(succ);
            }
        }
    }
    state.data.markings_seen = seen.len();

    // Deterministic deep walks: a fixed LCG stream per walk index picks
    // one successor each step; deltas and sanity checks are recorded the
    // same way, but markings are not interned.
    for walk in 0..cfg.num_walks {
        let mut lcg: u64 = 0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(walk as u64 + 1) | 1;
        let mut values = initial.clone();
        for _ in 0..cfg.walk_len {
            let m = Marking::new(&values);
            let fireable = state.fireable(&m);
            let mut choices: Vec<(usize, usize)> = Vec::new();
            for a in fireable {
                let act = san.activity(ActivityId::from_index(a));
                if let Some(r) = act.rate(&m) {
                    if !(r.is_finite() && r > 0.0) {
                        continue;
                    }
                }
                let weights = act.case_weights(&m);
                if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
                    continue;
                }
                for (case, &w) in weights.iter().enumerate() {
                    if w > 0.0 {
                        choices.push((a, case));
                    }
                }
            }
            if choices.is_empty() {
                break;
            }
            lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let (a, case) = choices[((lcg >> 33) as usize) % choices.len()];
            values = state.fire_recorded(a, case, &m, &mut on_fire);
        }
    }

    state.data
}

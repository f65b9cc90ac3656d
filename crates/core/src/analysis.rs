//! Static analysis of the composed ITUA SAN.
//!
//! The generic analyzer (`itua-analyzer`) observes firing effects by
//! probing; this module supplies the *model-specific* knowledge: the
//! conservation laws the ITUA encoding must satisfy by construction, the
//! one documented measure gap, and three entry points that apply them:
//!
//! * [`quick_check`] — O(places + activities), no probing. Verifies every
//!   expected invariant at the initial marking and rate sanity at the
//!   initial marking. This is the default gate in
//!   `run_measures` (cheap enough to run before every sweep point).
//! * [`full_report`] — the probe-based structural analysis behind
//!   `itua check`: the expected invariants and firing laws checked
//!   against every probed firing, dead activities, unbounded growth,
//!   instantaneous cycles and rate sanity at reachable markings.
//! * [`exhaustive_check`] — `itua check --exhaustive`: one exploration
//!   of the symmetry quotient proves the spec over every reachable
//!   marking and firing, and one exploration of the unreduced graph
//!   checks the quotient and both state-space generators.
//!
//! # Expected invariants (hand-derived)
//!
//! With `R = reps_per_app`, `H = hosts_per_domain`, per application `a`,
//! domain `d`, host `h`, replica slot `r`:
//!
//! 1. **Replica conservation** (per `a`): `to_start_a + started_clean_a +
//!    started_corrupt_a + need_recovery_a + Σ_r has_started_{a,r} = R`.
//!    Every replica is waiting, in a start handshake, started, or waiting
//!    for recovery; kill/conviction pools carry *signals*, not replicas.
//! 2. **Running count** (per `a`): `replicas_running_a = Σ_r
//!    has_started_{a,r}`.
//! 3. **Corruption count** (per `a`): `rep_corr_undetected_a = Σ_r
//!    replica_attacked_{a,r}`.
//! 4. **Active hosts** (per `d`): `dom_active_hosts_d = Σ_h
//!    host_active_{d,h}`.
//! 5. **Manager counters**: `dom_mgrs_active_d = Σ_h mgr_active_{d,h}`,
//!    `dom_mgrs_corrupt_d = Σ_h mgr_corrupt_local_{d,h}`, and the
//!    system-wide sums `mgrs_active_sys`, `mgrs_corrupt_sys`.
//! 6. **Placement** (per `d`, `a`): `dom_has_app_{d,a} = Σ_h
//!    has_app_{d,h,a}`.
//!
//! Note `dom_corrupt_hosts` is *not* invariant against `Σ host_corrupt`:
//! `shut_host` decrements the counter without clearing the (now inert)
//! `host_corrupt` flag, so the relation only holds over active hosts —
//! a product of places, which a linear invariant cannot express.
//!
//! # The documented gap
//!
//! `dom_excl_corrupt` counts hosts that were compromised (host OS or
//! manager) when a domain exclusion shut them down. The anonymous replica
//! matching means the SAN cannot attribute an undetected-corrupt replica
//! to the specific host it runs on, so a clean host carrying a corrupt
//! replica is not counted — a slight undercount relative to the DES
//! measure, which tracks replica placement. [`analysis_spec`] encodes
//! this as the firing law `frac-corrupt-replica-blind` (allowlisted, so
//! it surfaces as a soft finding with a concrete counterexample firing).

use crate::san_model::ItuaSan;
use itua_analyzer::probe::ProbeConfig;
use itua_analyzer::reach::{self, ReachConfig};
use itua_analyzer::{
    analyze, render_findings, AllowEntry, AnalysisReport, AnalysisSpec, ExpectedInvariant, Finding,
    FiringLaw, KnownIssue, LawHit, Severity,
};
use itua_san::marking::PlaceId;
use itua_san::model::San;
use itua_san::statespace::StateSpace;
use itua_san::sym::{SymmetryGroup, SymmetrySpec, SymmetryUnit};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Looks up a place that the ITUA builder is known to create.
fn pid(san: &San, name: &str) -> PlaceId {
    san.place_id(name)
        .unwrap_or_else(|| panic!("ITUA model is missing place '{name}'"))
}

/// Context the replica-blindness law needs about one `shut_host` copy.
struct ShutHostCtx {
    dom_excluding: PlaceId,
    host_corrupt: PlaceId,
    mgr_corrupt: PlaceId,
    dom_excl_corrupt: PlaceId,
    /// Per application: (this host's `has_app_a`, the app's global
    /// `rep_corr_undetected`).
    apps: Vec<(PlaceId, PlaceId)>,
}

/// The expected invariants, firing laws, and documented issues of the
/// composed ITUA SAN built from `model.params`.
pub fn analysis_spec(model: &ItuaSan) -> AnalysisSpec {
    let san = &model.san;
    let p = &model.params;
    let mut expected = Vec::new();

    let app_prefix = |a: usize| format!("itua/apps[{a}]/app");
    let dom_prefix = |d: usize| format!("itua/domains[{d}]/hosts");
    let host_prefix = |d: usize, h: usize| format!("itua/domains[{d}]/hosts[{h}]/host");

    for a in 0..p.num_apps {
        let has_started: Vec<PlaceId> = (0..p.reps_per_app)
            .map(|r| {
                pid(
                    san,
                    &format!("{}/replicas[{r}]/replica/has_started", app_prefix(a)),
                )
            })
            .collect();

        let mut terms = vec![
            (pid(san, &format!("itua/to_start_{a}")), 1),
            (pid(san, &format!("itua/started_clean_{a}")), 1),
            (pid(san, &format!("itua/started_corrupt_{a}")), 1),
            (pid(san, &format!("{}/need_recovery", app_prefix(a))), 1),
        ];
        terms.extend(has_started.iter().map(|&id| (id, 1)));
        expected.push(ExpectedInvariant {
            id: format!("app-{a}-replica-conservation"),
            description: format!("app {a}: to_start + started + need_recovery + running slots"),
            terms,
            target: p.reps_per_app as i64,
        });

        let mut terms = vec![(pid(san, &format!("{}/replicas_running", app_prefix(a))), 1)];
        terms.extend(has_started.iter().map(|&id| (id, -1)));
        expected.push(ExpectedInvariant {
            id: format!("app-{a}-running-count"),
            description: format!("app {a}: replicas_running vs started slots"),
            terms,
            target: 0,
        });

        let mut terms = vec![(
            pid(san, &format!("{}/rep_corr_undetected", app_prefix(a))),
            1,
        )];
        terms.extend((0..p.reps_per_app).map(|r| {
            (
                pid(
                    san,
                    &format!("{}/replicas[{r}]/replica/replica_attacked", app_prefix(a)),
                ),
                -1,
            )
        }));
        expected.push(ExpectedInvariant {
            id: format!("app-{a}-corruption-count"),
            description: format!("app {a}: rep_corr_undetected vs attacked slots"),
            terms,
            target: 0,
        });
    }

    // Per-domain and system-wide counter consistency.
    let mut mgr_sys_terms = vec![(pid(san, "itua/mgrs_active_sys"), -1)];
    let mut mgr_corr_sys_terms = vec![(pid(san, "itua/mgrs_corrupt_sys"), -1)];
    for d in 0..p.num_domains {
        let mut host_terms = vec![(pid(san, &format!("{}/dom_active_hosts", dom_prefix(d))), -1)];
        let mut dom_mgr_terms = vec![(pid(san, &format!("{}/dom_mgrs_active", dom_prefix(d))), -1)];
        let mut dom_mgr_corr_terms =
            vec![(pid(san, &format!("{}/dom_mgrs_corrupt", dom_prefix(d))), -1)];
        for h in 0..p.hosts_per_domain {
            let active = pid(san, &format!("{}/host_active", host_prefix(d, h)));
            let mgr = pid(san, &format!("{}/mgr_active", host_prefix(d, h)));
            let mgr_corr = pid(san, &format!("{}/mgr_corrupt_local", host_prefix(d, h)));
            host_terms.push((active, 1));
            dom_mgr_terms.push((mgr, 1));
            dom_mgr_corr_terms.push((mgr_corr, 1));
            mgr_sys_terms.push((mgr, 1));
            mgr_corr_sys_terms.push((mgr_corr, 1));
        }
        expected.push(ExpectedInvariant {
            id: format!("domain-{d}-active-hosts"),
            description: format!("domain {d}: dom_active_hosts vs host_active flags"),
            terms: host_terms,
            target: 0,
        });
        expected.push(ExpectedInvariant {
            id: format!("domain-{d}-managers-active"),
            description: format!("domain {d}: dom_mgrs_active vs mgr_active flags"),
            terms: dom_mgr_terms,
            target: 0,
        });
        expected.push(ExpectedInvariant {
            id: format!("domain-{d}-managers-corrupt"),
            description: format!("domain {d}: dom_mgrs_corrupt vs mgr_corrupt_local flags"),
            terms: dom_mgr_corr_terms,
            target: 0,
        });
        for a in 0..p.num_apps {
            let mut terms = vec![(pid(san, &format!("{}/dom_has_app_{a}", dom_prefix(d))), -1)];
            for h in 0..p.hosts_per_domain {
                terms.push((pid(san, &format!("{}/has_app_{a}", host_prefix(d, h))), 1));
            }
            expected.push(ExpectedInvariant {
                id: format!("domain-{d}-app-{a}-placement"),
                description: format!("domain {d}: dom_has_app_{a} vs host has_app flags"),
                terms,
                target: 0,
            });
        }
    }
    expected.push(ExpectedInvariant {
        id: "managers-active-sys".to_owned(),
        description: "mgrs_active_sys vs all mgr_active flags".to_owned(),
        terms: mgr_sys_terms,
        target: 0,
    });
    expected.push(ExpectedInvariant {
        id: "managers-corrupt-sys".to_owned(),
        description: "mgrs_corrupt_sys vs all mgr_corrupt_local flags".to_owned(),
        terms: mgr_corr_sys_terms,
        target: 0,
    });

    // The replica-blindness law: a clean host shut down by a domain
    // exclusion while carrying an application with undetected-corrupt
    // replicas is not counted in dom_excl_corrupt, although the corrupt
    // replica may be the one it hosts.
    let mut shut_hosts: BTreeMap<usize, ShutHostCtx> = BTreeMap::new();
    for (id, act) in san.activities() {
        let Some(prefix) = act.name().strip_suffix("/shut_host") else {
            continue;
        };
        let Some(dom) = prefix.split_inclusive("/hosts").next() else {
            continue;
        };
        shut_hosts.insert(
            id.index(),
            ShutHostCtx {
                dom_excluding: pid(san, &format!("{dom}/dom_excluding")),
                host_corrupt: pid(san, &format!("{prefix}/host_corrupt")),
                mgr_corrupt: pid(san, &format!("{prefix}/mgr_corrupt_local")),
                dom_excl_corrupt: pid(san, &format!("{dom}/dom_excl_corrupt")),
                apps: (0..p.num_apps)
                    .map(|a| {
                        (
                            pid(san, &format!("{prefix}/has_app_{a}")),
                            pid(san, &format!("{}/rep_corr_undetected", app_prefix(a))),
                        )
                    })
                    .collect(),
            },
        );
    }
    let shut_hosts = Arc::new(shut_hosts);
    let law = FiringLaw {
        id: "frac-corrupt-replica-blind".to_owned(),
        description: "dom_excl_corrupt counts a host only for its own OS/manager state".to_owned(),
        check: Arc::new(move |_san, act, _case, pre, delta| {
            let ctx = shut_hosts.get(&act.index())?;
            if pre.get(ctx.dom_excluding) != 1
                || pre.get(ctx.host_corrupt) != 0
                || pre.get(ctx.mgr_corrupt) != 0
            {
                return None;
            }
            let exposed = ctx
                .apps
                .iter()
                .find(|&&(has_app, corr)| pre.get(has_app) == 1 && pre.get(corr) > 0)?;
            (delta[ctx.dom_excl_corrupt.index()] == 0).then(|| {
                format!(
                    "clean host excluded while hosting an application with {} \
                     undetected-corrupt replica(s); its own replica may be the corrupt \
                     one, but the anonymous matching cannot attribute it",
                    pre.get(exposed.1)
                )
            })
        }),
    };

    AnalysisSpec {
        expected,
        laws: vec![law],
        allow: vec![AllowEntry {
            id: "frac-corrupt-replica-blind".to_owned(),
            reason: "documented undercount: anonymous replica placement cannot attribute \
                     replica corruption to a host (see san_model.rs dom_excl_corrupt)"
                .to_owned(),
        }],
        notes: vec![KnownIssue {
            id: "frac-corrupt-undercount".to_owned(),
            subject: "dom_excl_corrupt".to_owned(),
            detail: "measure-only accumulator undercounts relative to the DES \
                     frac_corrupt measure: replica-only corruption on a clean host is \
                     invisible to the SAN's anonymous replica matching"
                .to_owned(),
        }],
    }
}

/// Runs the probe-based analysis of `model` under the ITUA spec.
pub fn full_report(model: &ItuaSan, cfg: &ProbeConfig) -> AnalysisReport {
    analyze(&model.san, &analysis_spec(model), cfg)
}

/// A cheap structural gate: every expected invariant must hold at the
/// initial marking and every timed activity's rate must be finite and
/// nonnegative there. O(places + activities); no state exploration.
///
/// # Errors
///
/// Returns a newline-separated list of violations.
pub fn quick_check(model: &ItuaSan) -> Result<(), String> {
    let san = &model.san;
    let spec = analysis_spec(model);
    let initial = san.initial_marking();
    let mut problems: Vec<String> = spec
        .violations(initial.values())
        .map(|(inv, got)| {
            format!(
                "invariant '{}' is {got} at the initial marking, expected {}",
                inv.description, inv.target
            )
        })
        .collect();
    for (_, act) in san.activities() {
        if let Some(rate) = act.rate(&initial) {
            if !rate.is_finite() || rate < 0.0 {
                problems.push(format!(
                    "activity '{}' has rate {rate} at the initial marking",
                    act.name()
                ));
            }
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

// ---------------------------------------------------------------------
// Exhaustive checking (reach-based proofs over the full reachable set)
// ---------------------------------------------------------------------

/// All place ids whose name starts with `prefix`, as raw indices in
/// interning order. The flattening stamps identical templates in
/// identical order, so corresponding copies yield congruent lists.
fn places_under(san: &San, prefix: &str) -> Vec<usize> {
    san.place_ids()
        .filter(|&p| san.place_name(p).starts_with(prefix))
        .map(itua_san::PlaceId::index)
        .collect()
}

/// The ITUA permutation symmetry as a [`SymmetrySpec`]: domains are
/// interchangeable (each carrying its hosts as interchangeable blocks),
/// and replica slots within an application are interchangeable. The
/// composition guarantees equivariance — identical templates per copy,
/// communicating only through shared places the permutations fix — and
/// the initial marking is symmetric (placement happens inside the initial
/// vanishing cascade), so every canonical representative is itself a
/// reachable marking.
///
/// Applications are *not* permuted: their identity is baked into global
/// counter places and per-host `has_app_a` flags, which an application
/// swap would have to permute inside host blocks.
///
/// # Panics
///
/// Panics if the model's place inventory does not have the congruent
/// per-copy shape the builder guarantees.
pub fn symmetry_spec(model: &ItuaSan) -> SymmetrySpec {
    let san = &model.san;
    let p = &model.params;

    let domain_units = (0..p.num_domains)
        .map(|d| SymmetryUnit {
            shared: places_under(san, &format!("itua/domains[{d}]/hosts/")),
            blocks: (0..p.hosts_per_domain)
                .map(|h| places_under(san, &format!("itua/domains[{d}]/hosts[{h}]/host/")))
                .collect(),
        })
        .collect();
    let mut groups = vec![SymmetryGroup {
        units: domain_units,
    }];
    for a in 0..p.num_apps {
        groups.push(SymmetryGroup {
            units: vec![SymmetryUnit {
                shared: vec![],
                blocks: (0..p.reps_per_app)
                    .map(|r| {
                        places_under(san, &format!("itua/apps[{a}]/app/replicas[{r}]/replica/"))
                    })
                    .collect(),
            }],
        });
    }
    SymmetrySpec::new(san.num_places(), groups).expect("ITUA symmetry groups are congruent")
}

/// The result of [`exhaustive_check`]: whole-state-space proofs instead
/// of probe samples, and the agreement of both explorations with both
/// state-space generators.
#[derive(Debug)]
pub struct ExhaustiveReport {
    /// Model name.
    pub model_name: String,
    /// Quotient states explored (tangible + vanishing).
    pub states: usize,
    /// Tangible quotient states.
    pub tangible: usize,
    /// Full (unreduced) state count: the sum of orbit sizes, equal to the
    /// unreduced exploration's state count.
    pub full_states: u128,
    /// Full tangible state count by orbit sum (equal to the unreduced
    /// exploration's and the plain generator's).
    pub full_tangible: u128,
    /// Firings explored on the quotient graph.
    pub transitions: usize,
    /// Absorbing tangible states (no enabled timed activity).
    pub deadlocks: usize,
    /// Conservation families proved over every reachable marking.
    pub families_proved: usize,
    /// Largest token count observed in any place at any reachable
    /// marking (an exact bound over the reachable set).
    pub max_tokens: i32,
    /// The place attaining `max_tokens`.
    pub max_tokens_place: String,
    /// Transitions the plain generator emitted.
    pub generated_transitions: usize,
    /// Worst relative deviation of either generator's rates or initial
    /// mass from its eliminated graph (at most [`reach::RATE_REL_TOL`]).
    pub max_rel_dev: f64,
    /// Findings, hard first (allowlist applied, notes appended).
    pub findings: Vec<Finding>,
    /// Firing-law hits before the allowlist, each with the quotient
    /// pre-marking of its first firing (a canonical representative,
    /// genuinely reachable because the initial marking is symmetric).
    pub law_hits: Vec<LawHit>,
    /// Every marking of the unreduced graph, in BFS order: the states on
    /// which claims that need not be closed under the symmetry group
    /// (a `.scn` file's asserts) are proved.
    pub unreduced: Vec<Vec<i32>>,
}

impl ExhaustiveReport {
    /// Whether any hard finding is present.
    pub fn has_hard_findings(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Hard)
    }

    /// Renders the report for terminal output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "model '{}': exhaustive quotient {} states ({} tangible), full space {} states ({} tangible)",
            self.model_name, self.states, self.tangible, self.full_states, self.full_tangible
        );
        let _ = writeln!(
            out,
            "explored {} firings; {} absorbing state(s)",
            self.transitions, self.deadlocks
        );
        let _ = writeln!(
            out,
            "proved {} conservation families over every reachable marking",
            self.families_proved
        );
        let _ = writeln!(
            out,
            "exact bounds: max {} token(s), in '{}'",
            self.max_tokens, self.max_tokens_place
        );
        render_findings(&self.findings, &mut out);
        out
    }
}

/// Workers [`exhaustive_check`] generates its chains on.
const ORACLE_WORKERS: usize = 2;

/// Exhaustively checks `model` under the ITUA spec, exploring each
/// reachability graph once.
///
/// The symmetry quotient ([`symmetry_spec`]) is explored once: every
/// conservation family is checked at every reachable marking and every
/// firing law at every firing (keeping each law's first witness
/// marking), with zero-time livelock, absorbing states and dead
/// activities reported. The unreduced graph is explored once: its orbit
/// sums (total and tangible) and exact place bounds must match the
/// quotient's, and both state-space generators must match the explored
/// graphs with vanishing states eliminated ([`reach::compare_generated`]):
/// the plain chain the unreduced graph, the lumped chain the quotient.
/// Both chains are generated by [`StateSpace::explore`] on two workers,
/// so the check covers the generator's worker team (which gives the same
/// chain at any size, and runs inline on a one-core machine). Intended
/// for micro configurations, where the full space fits the budget.
///
/// # Errors
///
/// A description of the first failure: an explorer's structured
/// [`reach::ReachError`] (state or work budget, bad rates or weights), a
/// disagreement between the explorations, or a generator failure or
/// mismatch.
pub fn exhaustive_check(model: &ItuaSan, max_states: usize) -> Result<ExhaustiveReport, String> {
    let san = &model.san;
    let spec = analysis_spec(model);
    let sym = symmetry_spec(model);
    let cfg = ReachConfig::with_max_states(max_states);

    let mut law_hits: Vec<LawHit> = Vec::new();
    let quot = reach::explore(san, &cfg, Some(&sym), |san, act, case, pre, delta| {
        spec.record_law_hits(&mut law_hits, san, act, case, pre, delta);
    })
    .map_err(|e| e.to_string())?;

    // The first reachable state violating each family, in spec order.
    let mut findings: Vec<Finding> = Vec::new();
    for (i, state) in quot.states.iter().enumerate() {
        for (inv, got) in spec.violations(state) {
            if !findings.iter().any(|f| f.id == inv.id) {
                findings.push(Finding {
                    id: inv.id.clone(),
                    severity: Severity::Hard,
                    subject: format!("reachable state #{i}"),
                    detail: format!(
                        "'{}' is {got} at a reachable marking, expected {}",
                        inv.description, inv.target
                    ),
                });
            }
        }
    }
    findings.sort_by_key(|f| spec.expected.iter().position(|inv| inv.id == f.id));
    findings.extend(law_hits.iter().map(|h| h.finding.clone()));

    if !quot.vanishing_cycle.is_empty() {
        findings.push(Finding {
            id: "vanishing-livelock".to_owned(),
            severity: Severity::Hard,
            subject: format!("{} vanishing state(s)", quot.vanishing_cycle.len()),
            detail: "instantaneous activities form a reachable zero-time cycle".to_owned(),
        });
    }

    let dead: Vec<&str> = san
        .activities()
        .filter(|(id, _)| !quot.fired[id.index()])
        .map(|(_, a)| a.name())
        .collect();
    if !dead.is_empty() {
        let shown: Vec<&str> = dead.iter().copied().take(5).collect();
        findings.push(Finding {
            id: "dead-activity-exhaustive".to_owned(),
            severity: Severity::Soft,
            subject: format!("{} activities", dead.len()),
            detail: format!(
                "never fire at any reachable marking: {}{}",
                shown.join(", "),
                if dead.len() > 5 { ", …" } else { "" }
            ),
        });
    }
    if !quot.deadlocks.is_empty() {
        findings.push(Finding {
            id: "absorbing-states".to_owned(),
            severity: Severity::Soft,
            subject: format!("{} tangible state(s)", quot.deadlocks.len()),
            detail: "no timed activity enabled (expected: fully excluded/shut-down markings)"
                .to_owned(),
        });
    }
    spec.settle(&mut findings);

    let full = reach::explore(san, &cfg, None, |_, _, _, _, _| {})
        .map_err(|e| format!("full exploration failed: {e}"))?;
    if quot.orbit_total() != full.num_states() as u128 {
        return Err(format!(
            "orbit sizes sum to {} but the full explorer found {} states",
            quot.orbit_total(),
            full.num_states()
        ));
    }
    if quot.tangible_orbit_total() != full.num_tangible() as u128 {
        return Err(format!(
            "tangible orbit sizes sum to {} but the full explorer found {} tangible states",
            quot.tangible_orbit_total(),
            full.num_tangible()
        ));
    }
    if quot.place_max != full.place_max {
        return Err("exact place bounds disagree between quotient and full explorer".to_owned());
    }
    let plain = StateSpace::explore(san, None, max_states, ORACLE_WORKERS)
        .map_err(|e| format!("statespace generator failed: {e}"))?;
    let lumped = StateSpace::explore(san, Some(&sym), max_states, ORACLE_WORKERS)
        .map_err(|e| format!("lumped statespace generator failed: {e}"))?;
    let plain_dev = reach::compare_generated(&full, &plain)
        .map_err(|e| format!("statespace generator vs unreduced graph: {e}"))?;
    let lumped_dev = reach::compare_generated(&quot, &lumped)
        .map_err(|e| format!("lumped statespace generator vs quotient graph: {e}"))?;

    let (max_place, max_tokens) = quot
        .place_max
        .iter()
        .enumerate()
        .max_by_key(|&(_, &v)| v)
        .map_or((0, 0), |(i, &v)| (i, v));
    Ok(ExhaustiveReport {
        model_name: san.name().to_owned(),
        states: quot.num_states(),
        tangible: quot.num_tangible(),
        full_states: quot.orbit_total(),
        full_tangible: quot.tangible_orbit_total(),
        transitions: quot.num_transitions(),
        deadlocks: quot.deadlocks.len(),
        families_proved: spec.expected.len(),
        max_tokens,
        max_tokens_place: san.place_name(PlaceId::from_index(max_place)).to_owned(),
        generated_transitions: plain.num_transitions(),
        max_rel_dev: plain_dev.max(lumped_dev),
        findings,
        law_hits,
        unreduced: full.states,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use crate::san_model::build;

    fn micro() -> ItuaSan {
        let params = Params::default().with_domains(1, 2).with_applications(1, 2);
        build(&params).unwrap()
    }

    #[test]
    fn spec_invariant_count_matches_structure() {
        let model = micro();
        let spec = analysis_spec(&model);
        // 3 per app + 3 per domain + 1 per (domain, app) + 2 system-wide.
        assert_eq!(spec.expected.len(), 3 + 3 + 1 + 2);
        assert_eq!(spec.laws.len(), 1);
        assert_eq!(spec.allow.len(), 1);
    }

    #[test]
    fn quick_check_accepts_the_micro_model() {
        assert_eq!(quick_check(&micro()), Ok(()));
    }

    #[test]
    fn quick_check_accepts_paper_scale_models() {
        for scheme in [
            crate::params::ManagementScheme::DomainExclusion,
            crate::params::ManagementScheme::HostExclusion,
        ] {
            let params = Params::default()
                .with_domains(4, 3)
                .with_applications(2, 4)
                .with_scheme(scheme);
            let model = build(&params).unwrap();
            assert_eq!(quick_check(&model), Ok(()), "{scheme:?}");
        }
    }

    #[test]
    fn expected_invariants_reference_distinct_places() {
        let model = micro();
        for inv in analysis_spec(&model).expected {
            let mut ids: Vec<_> = inv.terms.iter().map(|&(p, _)| p).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), inv.terms.len(), "duplicate term in '{}'", inv.id);
        }
    }

    #[test]
    fn symmetry_spec_covers_every_replicated_place() {
        let params = Params::default().with_domains(2, 2).with_applications(1, 2);
        let model = build(&params).unwrap();
        let spec = symmetry_spec(&model);
        let classes = spec.classes();
        let san = &model.san;
        // Corresponding places of different copies must share a class;
        // here: host_active across all four hosts, has_started across
        // both replica slots, dom_excluding across both domains.
        let class_of = |name: &str| classes[san.place_id(name).unwrap().index()];
        let host_classes: Vec<usize> = (0..2)
            .flat_map(|d| {
                (0..2).map(move |h| format!("itua/domains[{d}]/hosts[{h}]/host/host_active"))
            })
            .map(|n| class_of(&n))
            .collect();
        assert!(host_classes.iter().all(|&c| c == host_classes[0]));
        assert_eq!(
            class_of("itua/apps[0]/app/replicas[0]/replica/has_started"),
            class_of("itua/apps[0]/app/replicas[1]/replica/has_started")
        );
        assert_eq!(
            class_of("itua/domains[0]/hosts/dom_excluding"),
            class_of("itua/domains[1]/hosts/dom_excluding")
        );
        // Globals stay singletons.
        let g = san.place_id("itua/mgrs_active_sys").unwrap().index();
        assert_eq!(classes[g], g);
    }

    #[test]
    fn exhaustive_check_proves_all_families_on_micro() {
        let model = micro();
        let report = exhaustive_check(&model, 200_000).unwrap();
        assert!(!report.has_hard_findings(), "{}", report.render());
        assert_eq!(report.families_proved, 9);
        assert!(report.states > 0);
        assert!(
            report.full_states > report.states as u128,
            "symmetry must shrink the micro space ({} vs {})",
            report.full_states,
            report.states
        );
        // The documented gap surfaces as an allowlisted soft finding on
        // the full reachable graph, not just on crafted markings, with a
        // reachable witness marking.
        assert!(report
            .findings
            .iter()
            .any(|f| f.id == "frac-corrupt-replica-blind" && f.severity == Severity::Soft));
        let w = report
            .law_hits
            .iter()
            .find(|h| h.finding.id == "frac-corrupt-replica-blind")
            .expect("the gap has a reachable witness on the micro config");
        assert!(w.finding.subject.ends_with("/shut_host"));
        assert_eq!(w.marking.len(), model.san.num_places());
        // The unreduced exploration and both generators agree.
        assert_eq!(report.unreduced.len() as u128, report.full_states);
        assert!(report.full_tangible > 0);
        assert!(report.generated_transitions > 0);
        assert!(report.max_rel_dev <= reach::RATE_REL_TOL);
    }
}

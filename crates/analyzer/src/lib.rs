//! Structural analysis of SAN models.
//!
//! Möbius-family tools sanity-check a model before solving it; this crate
//! does the same for our composed SANs. Because activity effects are
//! opaque closures, the incidence matrix is *observed* by bounded
//! deterministic exploration ([`probe`]) rather than read off the model,
//! then analyzed with exact rational arithmetic ([`ratio`], [`linalg`]):
//!
//! * **P-invariants** — integer place weightings conserved by every
//!   observed transition effect. Conservation laws (hosts per domain,
//!   replicas per application) show up here; a *violated* expected
//!   invariant pinpoints an encoding bug.
//! * **T-invariants** — firing-count vectors with zero net effect.
//! * **Structural bounds** — from semipositive invariants (Farkas), with
//!   potentially unbounded places flagged.
//! * **Deadness / sinks** — structurally dead activities, never-marked
//!   places, activities never enabled within the probe.
//! * **Vanishing hazards** — cycles among instantaneous activities.
//! * **Rate sanity** — NaN/negative/zero rates and case weights at
//!   reachable markings.
//!
//! Model-specific knowledge enters through an [`AnalysisSpec`]: expected
//! invariants, firing laws (pointwise predicates over observed firings),
//! known-issue notes, and an allowlist that downgrades audited findings
//! to soft. [`analyze`] returns an [`AnalysisReport`] whose hard findings
//! fail `itua check`. The spec's helpers ([`AnalysisSpec::violations`],
//! [`AnalysisSpec::record_law_hits`], [`AnalysisSpec::settle`]) apply it
//! the same way for the probe, the initial-marking gate and the
//! exhaustive reachability check ([`reach`]).

pub mod linalg;
pub mod probe;
pub mod ratio;
pub mod reach;

use itua_san::marking::{Marking, PlaceId};
use itua_san::model::{ActivityId, San};
use probe::{explore, ProbeConfig, ProbeData, RateIssue};
use std::fmt::Write as _;
use std::sync::Arc;

/// Limits and thresholds for one analysis.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Exploration limits.
    pub probe: ProbeConfig,
    /// Skip invariant computation (null space) above this many places.
    pub invariant_place_cap: usize,
    /// Skip the Farkas bound computation above this many places.
    pub farkas_place_cap: usize,
    /// Farkas intermediate-row budget; exceeding it aborts bounds.
    pub farkas_row_budget: usize,
    /// Maximum invariants spelled out in the rendered report.
    pub max_rendered: usize,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            probe: ProbeConfig::default(),
            invariant_place_cap: 512,
            farkas_place_cap: 128,
            farkas_row_budget: 4096,
            max_rendered: 8,
        }
    }
}

/// An invariant the model is *supposed* to satisfy: `Σ coeff·m(place)`
/// must equal `target` at the initial marking and be conserved by every
/// firing.
#[derive(Debug, Clone)]
pub struct ExpectedInvariant {
    /// Stable finding id (kebab-case).
    pub id: String,
    /// Human description.
    pub description: String,
    /// Weighted places (nonzero coefficients).
    pub terms: Vec<(PlaceId, i64)>,
    /// Required weighted sum.
    pub target: i64,
}

/// A pointwise check over observed firings. Returns a counterexample
/// description if the firing violates the law.
pub type LawFn =
    Arc<dyn Fn(&San, ActivityId, usize, &Marking, &[i64]) -> Option<String> + Send + Sync>;

/// A named firing law.
#[derive(Clone)]
pub struct FiringLaw {
    /// Stable finding id (kebab-case).
    pub id: String,
    /// Human description.
    pub description: String,
    /// The check, invoked per probed firing.
    pub check: LawFn,
}

impl std::fmt::Debug for FiringLaw {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FiringLaw({})", self.id)
    }
}

/// An audited finding id: matching findings are downgraded to soft.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// The finding id this entry covers.
    pub id: String,
    /// Why the finding is acceptable.
    pub reason: String,
}

/// A documented known issue, always emitted as a soft finding.
#[derive(Debug, Clone)]
pub struct KnownIssue {
    /// Stable finding id.
    pub id: String,
    /// What it concerns.
    pub subject: String,
    /// Description.
    pub detail: String,
}

/// Model-specific analysis inputs.
#[derive(Debug, Clone, Default)]
pub struct AnalysisSpec {
    /// Invariants the model must satisfy.
    pub expected: Vec<ExpectedInvariant>,
    /// Pointwise firing laws.
    pub laws: Vec<FiringLaw>,
    /// Audited finding ids (downgraded to soft).
    pub allow: Vec<AllowEntry>,
    /// Documented known issues (always soft).
    pub notes: Vec<KnownIssue>,
}

impl AnalysisSpec {
    /// The expected invariants that `marking` violates, in spec order,
    /// each with its weighted sum at `marking`.
    pub fn violations<'a>(
        &'a self,
        marking: &'a [i32],
    ) -> impl Iterator<Item = (&'a ExpectedInvariant, i64)> + 'a {
        self.expected.iter().filter_map(move |inv| {
            let got: i64 = inv
                .terms
                .iter()
                .map(|&(p, c)| c * i64::from(marking[p.index()]))
                .sum();
            (got != inv.target).then_some((inv, got))
        })
    }

    /// Records a hard finding for each firing law this firing breaks,
    /// once per `(law, activity)`, with the first hit's pre-marking.
    pub fn record_law_hits(
        &self,
        hits: &mut Vec<LawHit>,
        san: &San,
        act: ActivityId,
        case: usize,
        pre: &Marking,
        delta: &[i64],
    ) {
        for law in &self.laws {
            if let Some(msg) = (law.check)(san, act, case, pre, delta) {
                let subject = san.activity(act).name();
                if !hits
                    .iter()
                    .any(|h| h.finding.id == law.id && h.finding.subject == subject)
                {
                    hits.push(LawHit {
                        finding: Finding {
                            id: law.id.clone(),
                            severity: Severity::Hard,
                            subject: subject.to_owned(),
                            detail: format!("{}: {msg}", law.description),
                        },
                        marking: pre.values().to_vec(),
                    });
                }
            }
        }
    }

    /// Downgrades allowlisted findings to soft (naming the reason),
    /// appends the notes, and orders hard findings first (stably).
    pub fn settle(&self, findings: &mut Vec<Finding>) {
        for f in findings.iter_mut() {
            if let Some(entry) = self.allow.iter().find(|e| e.id == f.id) {
                f.severity = Severity::Soft;
                f.detail.push_str(&format!(" [allowed: {}]", entry.reason));
            }
        }
        findings.extend(self.notes.iter().map(|note| Finding {
            id: note.id.clone(),
            severity: Severity::Soft,
            subject: note.subject.clone(),
            detail: note.detail.clone(),
        }));
        findings.sort_by_key(|f| match f.severity {
            Severity::Hard => 0,
            Severity::Soft => 1,
        });
    }
}

/// Finding severity: hard findings gate simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// A structural error; `itua check` exits nonzero.
    Hard,
    /// Worth a look, does not gate.
    Soft,
}

/// One analysis finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Stable id (kebab-case), the allowlist key.
    pub id: String,
    /// Severity after allowlist application.
    pub severity: Severity,
    /// The place/activity concerned.
    pub subject: String,
    /// Description.
    pub detail: String,
}

impl std::fmt::Display for Finding {
    /// The report line `[HARD] id: subject — detail` (`[soft]` when soft).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sev = match self.severity {
            Severity::Hard => "HARD",
            Severity::Soft => "soft",
        };
        write!(f, "[{sev}] {}: {} — {}", self.id, self.subject, self.detail)
    }
}

/// A firing that broke a [`FiringLaw`]: the hard finding, and the
/// pre-marking of the first such firing of its activity.
#[derive(Debug, Clone)]
pub struct LawHit {
    /// The finding (subject: the activity that fired).
    pub finding: Finding,
    /// The witness pre-marking.
    pub marking: Vec<i32>,
}

/// Writes the `findings: H hard, S soft` summary and one indented line
/// per finding.
pub fn render_findings(findings: &[Finding], out: &mut String) {
    let hard = findings
        .iter()
        .filter(|f| f.severity == Severity::Hard)
        .count();
    let _ = writeln!(out, "findings: {hard} hard, {} soft", findings.len() - hard);
    for f in findings {
        let _ = writeln!(out, "  {f}");
    }
}

/// An integer invariant: weighted sum over places (P) or firing counts
/// (T).
#[derive(Debug, Clone)]
pub struct Invariant {
    /// `(index, coefficient)` pairs with nonzero coefficients. Indices are
    /// place indices for P-invariants, transition indices for
    /// T-invariants.
    pub terms: Vec<(usize, i64)>,
    /// For P-invariants: the conserved weighted token sum at the initial
    /// marking. Zero for T-invariants.
    pub value: i128,
}

impl Invariant {
    /// Number of nonzero coefficients.
    pub fn support(&self) -> usize {
        self.terms.len()
    }
}

/// The result of [`analyze`].
#[derive(Debug)]
pub struct AnalysisReport {
    /// Model name.
    pub model_name: String,
    /// Place count.
    pub num_places: usize,
    /// Activity count.
    pub num_activities: usize,
    /// Markings interned by the probe BFS.
    pub markings_probed: usize,
    /// Whether the BFS hit its cap.
    pub probe_truncated: bool,
    /// Whether invariants were computed (place count under the cap).
    pub invariants_computed: bool,
    /// P-invariant basis (terms over place indices).
    pub p_invariants: Vec<Invariant>,
    /// T-invariant basis. Its columns are the `(activity, case)` pairs
    /// whose probed firings showed one consistent delta, in activity then
    /// case order.
    pub t_invariants: Vec<Invariant>,
    /// Per-place structural bound, if the Farkas computation ran: `None`
    /// entries have no covering semipositive invariant. `None` overall
    /// means bounds were not computed.
    pub place_bounds: Option<Vec<Option<i64>>>,
    /// All findings, hard first.
    pub findings: Vec<Finding>,
    /// Maximum invariants spelled out by [`Self::render`].
    pub rendered_cap: usize,
}

impl AnalysisReport {
    /// Whether any hard finding is present.
    pub fn has_hard_findings(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Hard)
    }

    /// Number of P-invariants with support ≥ 2 (actual conservation laws,
    /// not just constant places).
    pub fn nontrivial_p_invariants(&self) -> usize {
        self.p_invariants
            .iter()
            .filter(|i| i.support() >= 2)
            .count()
    }

    /// Renders the structured report (place/activity names resolved
    /// against `san`, which must be the analyzed model).
    pub fn render(&self, san: &San) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "model '{}': {} places, {} activities",
            self.model_name, self.num_places, self.num_activities
        );
        let _ = writeln!(
            out,
            "probe: {} markings{}",
            self.markings_probed,
            if self.probe_truncated {
                " (frontier truncated; deep behavior sampled by walks)"
            } else {
                " (reachable set exhausted)"
            }
        );
        if self.invariants_computed {
            let _ = writeln!(
                out,
                "P-invariants: {} ({} nontrivial)",
                self.p_invariants.len(),
                self.nontrivial_p_invariants()
            );
            for inv in self
                .p_invariants
                .iter()
                .filter(|i| i.support() >= 2)
                .take(self.rendered_cap)
            {
                let mut line = String::from("  ");
                for (k, &(p, c)) in inv.terms.iter().enumerate() {
                    let name = san.place_name(PlaceId::from_index(p));
                    if k > 0 {
                        line.push_str(if c >= 0 { " + " } else { " - " });
                    } else if c < 0 {
                        line.push('-');
                    }
                    if c.abs() != 1 {
                        let _ = write!(line, "{}·", c.abs());
                    }
                    line.push_str(name);
                }
                let _ = writeln!(out, "{line} = {}", inv.value);
            }
            let _ = writeln!(out, "T-invariants: {}", self.t_invariants.len());
        } else {
            let _ = writeln!(
                out,
                "invariants: skipped ({} places exceeds cap)",
                self.num_places
            );
        }
        match &self.place_bounds {
            Some(bounds) => {
                let covered = bounds.iter().filter(|b| b.is_some()).count();
                let max = bounds.iter().flatten().max().copied().unwrap_or(0);
                let _ = writeln!(
                    out,
                    "bounds: {covered}/{} places structurally bounded (max bound {max})",
                    bounds.len()
                );
            }
            None => {
                let _ = writeln!(out, "bounds: not computed (model above Farkas cap)");
            }
        }
        render_findings(&self.findings, &mut out);
        out
    }
}

/// Analyzes `san` under `spec` with limits `cfg`.
pub fn analyze(san: &San, spec: &AnalysisSpec, cfg: &AnalysisConfig) -> AnalysisReport {
    let num_places = san.num_places();
    let mut law_hits: Vec<LawHit> = Vec::new();
    let mut delta_violations: Vec<Finding> = Vec::new();

    let data = explore(san, &cfg.probe, |san, act, case, pre, delta| {
        for inv in &spec.expected {
            let dot: i64 = inv.terms.iter().map(|&(p, c)| c * delta[p.index()]).sum();
            if dot != 0 {
                let subject = san.activity(act).name();
                if !delta_violations
                    .iter()
                    .any(|f| f.id == inv.id && f.subject == subject)
                {
                    delta_violations.push(Finding {
                        id: inv.id.clone(),
                        severity: Severity::Hard,
                        subject: subject.to_owned(),
                        detail: format!(
                            "firing (case {case}) changes '{}' by {dot:+}: {}",
                            inv.description, "expected invariant violated"
                        ),
                    });
                }
            }
        }
        spec.record_law_hits(&mut law_hits, san, act, case, pre, delta);
    });

    // Expected invariants at the initial marking.
    let initial = san.initial_marking();
    let mut findings: Vec<Finding> = spec
        .violations(initial.values())
        .map(|(inv, got)| Finding {
            id: inv.id.clone(),
            severity: Severity::Hard,
            subject: "initial marking".to_owned(),
            detail: format!(
                "'{}' is {got} at the initial marking, expected {}",
                inv.description, inv.target
            ),
        })
        .collect();
    findings.extend(delta_violations);
    findings.extend(law_hits.into_iter().map(|h| h.finding));

    structural_findings(san, &data, &mut findings);

    // Incidence columns: every distinct observed delta, plus the declared
    // arc effect of never-fired activities whose effects are *fully*
    // declared (no opaque gate or case closures to miss).
    let mut delta_rows: Vec<Vec<i64>> = Vec::new();
    for d in &data.deltas {
        if !delta_rows.contains(&d.delta) {
            delta_rows.push(d.delta.clone());
        }
    }
    for (id, act) in san.activities() {
        if data.fired_count[id.index()] > 0 || act.num_gate_effects() > 0 {
            continue;
        }
        if (0..act.num_cases()).any(|c| act.num_case_effects(c) > 0) {
            continue;
        }
        let mut delta = vec![0i64; num_places];
        for &(p, k) in act.declared_input_arcs() {
            delta[p.index()] -= i64::from(k);
        }
        for &(p, k) in act.declared_output_arcs() {
            delta[p.index()] += i64::from(k);
        }
        if delta.iter().any(|&d| d != 0) && !delta_rows.contains(&delta) {
            delta_rows.push(delta);
        }
    }

    let invariants_computed = num_places <= cfg.invariant_place_cap && !delta_rows.is_empty();
    let mut p_invariants = Vec::new();
    let mut t_invariants = Vec::new();
    if invariants_computed {
        match linalg::null_space(&delta_rows, num_places) {
            Ok(basis) => {
                for v in basis {
                    let terms: Vec<(usize, i64)> = v
                        .iter()
                        .enumerate()
                        .filter(|(_, &c)| c != 0)
                        .map(|(i, &c)| (i, c))
                        .collect();
                    let value: i128 = terms
                        .iter()
                        .map(|&(p, c)| {
                            i128::from(c) * i128::from(initial.get(PlaceId::from_index(p)))
                        })
                        .sum();
                    p_invariants.push(Invariant { terms, value });
                }
            }
            Err(_) => findings.push(Finding {
                id: "invariant-overflow".to_owned(),
                severity: Severity::Soft,
                subject: "P-invariants".to_owned(),
                detail: "exact arithmetic overflowed; invariant computation aborted".to_owned(),
            }),
        }

        // T-invariants over transitions with a single consistent delta.
        let mut t_cols: Vec<&[i64]> = Vec::new();
        for (a, act) in san.activities() {
            for case in 0..act.num_cases() {
                let mut it = data
                    .deltas
                    .iter()
                    .filter(|d| d.activity == a.index() && d.case == case);
                if let (Some(first), None) = (it.next(), it.next()) {
                    t_cols.push(&first.delta);
                }
            }
        }
        if !t_cols.is_empty() {
            let rows: Vec<Vec<i64>> = (0..num_places)
                .map(|p| t_cols.iter().map(|col| col[p]).collect())
                .collect();
            match linalg::null_space(&rows, t_cols.len()) {
                Ok(basis) => {
                    for v in basis {
                        let terms: Vec<(usize, i64)> = v
                            .iter()
                            .enumerate()
                            .filter(|(_, &c)| c != 0)
                            .map(|(i, &c)| (i, c))
                            .collect();
                        t_invariants.push(Invariant { terms, value: 0 });
                    }
                }
                Err(_) => findings.push(Finding {
                    id: "invariant-overflow".to_owned(),
                    severity: Severity::Soft,
                    subject: "T-invariants".to_owned(),
                    detail: "exact arithmetic overflowed; invariant computation aborted".to_owned(),
                }),
            }
        }
    }

    // Structural bounds from semipositive invariants.
    let place_bounds = if num_places <= cfg.farkas_place_cap && invariants_computed {
        let cols: Vec<Vec<i64>> = delta_rows.clone();
        match linalg::semipositive_invariants(&cols, num_places, cfg.farkas_row_budget) {
            Ok(invs) => {
                let mut bounds: Vec<Option<i64>> = vec![None; num_places];
                for y in &invs {
                    let total: i128 = y
                        .iter()
                        .enumerate()
                        .map(|(p, &c)| {
                            i128::from(c) * i128::from(initial.get(PlaceId::from_index(p)))
                        })
                        .sum();
                    for (p, &c) in y.iter().enumerate() {
                        if c > 0 {
                            let b = (total / i128::from(c)) as i64;
                            bounds[p] = Some(bounds[p].map_or(b, |prev: i64| prev.min(b)));
                        }
                    }
                }
                let uncovered: Vec<usize> =
                    (0..num_places).filter(|&p| bounds[p].is_none()).collect();
                if !uncovered.is_empty() {
                    let names: Vec<&str> = uncovered
                        .iter()
                        .take(5)
                        .map(|&p| san.place_name(PlaceId::from_index(p)))
                        .collect();
                    findings.push(Finding {
                        id: "no-structural-bound".to_owned(),
                        severity: Severity::Soft,
                        subject: format!("{} places", uncovered.len()),
                        detail: format!(
                            "no semipositive invariant covers: {}{}",
                            names.join(", "),
                            if uncovered.len() > 5 { ", …" } else { "" }
                        ),
                    });
                }
                Some(bounds)
            }
            Err(linalg::FarkasAbort) => {
                findings.push(Finding {
                    id: "bounds-aborted".to_owned(),
                    severity: Severity::Soft,
                    subject: "place bounds".to_owned(),
                    detail: "Farkas row budget exceeded; structural bounds not computed".to_owned(),
                });
                None
            }
        }
    } else {
        None
    };

    spec.settle(&mut findings);

    AnalysisReport {
        model_name: san.name().to_owned(),
        num_places,
        num_activities: san.num_activities(),
        markings_probed: data.markings_seen,
        probe_truncated: data.truncated,
        invariants_computed,
        p_invariants,
        t_invariants,
        place_bounds,
        findings,
        rendered_cap: cfg.max_rendered,
    }
}

/// Deadness, sink, unboundedness, vanishing-cycle, and rate findings from
/// the probe data.
fn structural_findings(san: &San, data: &ProbeData, findings: &mut Vec<Finding>) {
    let num_places = san.num_places();

    // A place has a potential producer if some observed delta is positive
    // on it, some declared output arc targets it, or some never-fired
    // activity has opaque effects (which could do anything).
    let mut has_producer = vec![false; num_places];
    for d in &data.deltas {
        for (p, &v) in d.delta.iter().enumerate() {
            if v > 0 {
                has_producer[p] = true;
            }
        }
    }
    let mut opaque_unfired = false;
    for (id, act) in san.activities() {
        for &(p, _) in act.declared_output_arcs() {
            has_producer[p.index()] = true;
        }
        if data.fired_count[id.index()] == 0
            && (act.num_gate_effects() > 0
                || (0..act.num_cases()).any(|c| act.num_case_effects(c) > 0))
        {
            opaque_unfired = true;
        }
    }

    let initial = san.initial_marking();
    for (id, act) in san.activities() {
        if data.fired_count[id.index()] > 0 {
            continue;
        }
        // Structurally dead: an input arc needs tokens that are not there
        // and can never arrive. Only sound when no unfired opaque effect
        // could be the producer.
        let starved = act
            .declared_input_arcs()
            .iter()
            .find(|&&(p, k)| i64::from(initial.get(p)) < i64::from(k) && !has_producer[p.index()]);
        if let Some(&(p, k)) = starved {
            if !opaque_unfired {
                findings.push(Finding {
                    id: "dead-activity".to_owned(),
                    severity: Severity::Hard,
                    subject: act.name().to_owned(),
                    detail: format!(
                        "input arc needs {k} token(s) in '{}', which starts below that and has no producer",
                        san.place_name(p)
                    ),
                });
                continue;
            }
        }
        if data.enabled_count[id.index()] == 0 {
            findings.push(Finding {
                id: "never-enabled".to_owned(),
                severity: Severity::Soft,
                subject: act.name().to_owned(),
                detail: "never enabled at any probed marking (possibly dead, possibly deep)"
                    .to_owned(),
            });
        }
    }

    // Never-marked sink places: start empty, no observed or declared
    // producer — tokens can never appear (soundness caveat as above, so
    // soft).
    for p in san.place_ids() {
        if initial.get(p) == 0 && !data.ever_positive[p.index()] && !has_producer[p.index()] {
            findings.push(Finding {
                id: "never-marked-place".to_owned(),
                severity: Severity::Soft,
                subject: san.place_name(p).to_owned(),
                detail:
                    "always empty in the probe and no producer observed (dead place or pure flag)"
                        .to_owned(),
            });
        }
    }

    // Witnessed unbounded growth.
    for (id, act) in san.activities() {
        if let Some(delta) = &data.repeat_gain[id.index()] {
            let grown: Vec<&str> = delta
                .iter()
                .enumerate()
                .filter(|(_, &d)| d > 0)
                .map(|(p, _)| san.place_name(PlaceId::from_index(p)))
                .take(4)
                .collect();
            findings.push(Finding {
                id: "unbounded-place".to_owned(),
                severity: Severity::Hard,
                subject: act.name().to_owned(),
                detail: format!(
                    "repeatable nonnegative gain observed; {} grow(s) without bound",
                    grown.join(", ")
                ),
            });
        }
    }

    // Rate and weight sanity.
    for (id, act) in san.activities() {
        for issue in &data.rate_issues[id.index()] {
            let (fid, severity, what) = match issue {
                RateIssue::NonFiniteRate => ("bad-rate", Severity::Hard, "rate is NaN/infinite"),
                RateIssue::NegativeRate => ("bad-rate", Severity::Hard, "rate is negative"),
                RateIssue::ZeroRateWhileEnabled => (
                    "zero-rate",
                    Severity::Soft,
                    "rate is zero while enabled (activity cannot fire there)",
                ),
                RateIssue::BadCaseWeight => (
                    "bad-case-weight",
                    Severity::Hard,
                    "a case weight is NaN/negative/infinite",
                ),
                RateIssue::ZeroTotalWeight => (
                    "zero-case-weight",
                    Severity::Hard,
                    "all case weights are zero while enabled (no case selectable)",
                ),
            };
            findings.push(Finding {
                id: fid.to_owned(),
                severity,
                subject: act.name().to_owned(),
                detail: format!("{what} at a reachable marking"),
            });
        }
    }

    // Cycles among instantaneous activities (vanishing-loop hazard):
    // an edge a→b when a's observed firing adds tokens to a place b reads.
    let inst: Vec<usize> = san
        .activities()
        .filter(|(_, a)| a.is_instantaneous())
        .map(|(id, _)| id.index())
        .collect();
    if !inst.is_empty() {
        let index_of = |a: usize| inst.iter().position(|&x| x == a);
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); inst.len()];
        for d in &data.deltas {
            let Some(from) = index_of(d.activity) else {
                continue;
            };
            for (to, &to_raw) in inst.iter().enumerate() {
                let reads = san.activity(ActivityId::from_index(to_raw)).reads();
                let feeds = d
                    .delta
                    .iter()
                    .enumerate()
                    .any(|(p, &v)| v > 0 && reads.contains(&PlaceId::from_index(p)));
                if feeds && !adj[from].contains(&to) {
                    adj[from].push(to);
                }
            }
        }
        // Kahn: nodes left with in-degree > 0 sit on a cycle.
        let mut indeg = vec![0usize; inst.len()];
        for targets in &adj {
            for &t in targets {
                indeg[t] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..inst.len()).filter(|&n| indeg[n] == 0).collect();
        let mut removed = 0;
        while let Some(n) = queue.pop() {
            removed += 1;
            for &t in &adj[n] {
                indeg[t] -= 1;
                if indeg[t] == 0 {
                    queue.push(t);
                }
            }
        }
        if removed < inst.len() {
            let on_cycle: Vec<&str> = (0..inst.len())
                .filter(|&n| indeg[n] > 0)
                .take(5)
                .map(|n| san.activity(ActivityId::from_index(inst[n])).name())
                .collect();
            findings.push(Finding {
                id: "instantaneous-cycle".to_owned(),
                severity: Severity::Soft,
                subject: format!("{} activities", inst.len() - removed),
                detail: format!(
                    "zero-delay cycle among instantaneous activities (vanishing-loop hazard): {}",
                    on_cycle.join(", ")
                ),
            });
        }
    }

    // Probe coverage notes.
    for (id, act) in san.activities() {
        if data.delta_overflow[id.index()] {
            findings.push(Finding {
                id: "delta-overflow".to_owned(),
                severity: Severity::Soft,
                subject: act.name().to_owned(),
                detail: "more distinct firing effects than the probe cap; invariants use a sample"
                    .to_owned(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itua_san::model::SanBuilder;

    /// p(3) --t1--> q --t2--> p: conserves p+q, and firing t1+t2 once is
    /// a T-invariant.
    fn producer_consumer() -> Arc<San> {
        let mut b = SanBuilder::new("pc");
        let p = b.place("p", 3);
        let q = b.place("q", 0);
        b.timed_activity("produce", 1.0)
            .input_arc(p, 1)
            .output_arc(q, 1)
            .build()
            .unwrap();
        b.timed_activity("consume", 2.0)
            .input_arc(q, 1)
            .output_arc(p, 1)
            .build()
            .unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn producer_consumer_invariants_match_hand_derivation() {
        let san = producer_consumer();
        let report = analyze(&san, &AnalysisSpec::default(), &AnalysisConfig::default());
        // Exactly one P-invariant: p + q = 3.
        assert_eq!(report.p_invariants.len(), 1);
        let inv = &report.p_invariants[0];
        assert_eq!(inv.terms, vec![(0, 1), (1, 1)]);
        assert_eq!(inv.value, 3);
        assert_eq!(report.nontrivial_p_invariants(), 1);
        // Exactly one T-invariant: fire each transition once.
        assert_eq!(report.t_invariants.len(), 1);
        assert_eq!(report.t_invariants[0].terms, vec![(0, 1), (1, 1)]);
        // Bounded: both places bounded by 3.
        let bounds = report.place_bounds.as_ref().unwrap();
        assert_eq!(bounds, &vec![Some(3), Some(3)]);
        assert!(!report.has_hard_findings(), "{:?}", report.findings);
    }

    #[test]
    fn live_net_has_no_dead_activity_findings() {
        let san = producer_consumer();
        let report = analyze(&san, &AnalysisSpec::default(), &AnalysisConfig::default());
        assert!(
            report
                .findings
                .iter()
                .all(|f| f.id != "dead-activity" && f.id != "never-enabled"),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn structurally_dead_activity_is_a_hard_finding() {
        let mut b = SanBuilder::new("dead");
        let p = b.place("p", 1);
        let empty = b.place("empty", 0);
        let sink = b.place("sink", 0);
        b.timed_activity("live", 1.0)
            .input_arc(p, 1)
            .output_arc(sink, 1)
            .build()
            .unwrap();
        b.timed_activity("starved", 1.0)
            .input_arc(empty, 1)
            .build()
            .unwrap();
        let san = b.finish().unwrap();
        let report = analyze(&san, &AnalysisSpec::default(), &AnalysisConfig::default());
        let dead: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.id == "dead-activity")
            .collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].subject, "starved");
        assert_eq!(dead[0].severity, Severity::Hard);
        assert!(report.has_hard_findings());
    }

    #[test]
    fn repeatable_gain_is_flagged_unbounded() {
        let mut b = SanBuilder::new("grow");
        let p = b.place("p", 1);
        let heap = b.place("heap", 0);
        b.timed_activity("spawn", 1.0)
            .predicate(&[p], move |m| m.get(p) > 0)
            .output_arc(heap, 1)
            .build()
            .unwrap();
        let san = b.finish().unwrap();
        let report = analyze(&san, &AnalysisSpec::default(), &AnalysisConfig::default());
        assert!(
            report.findings.iter().any(|f| f.id == "unbounded-place"
                && f.severity == Severity::Hard
                && f.detail.contains("heap")),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn bounded_growth_is_not_flagged() {
        // Same shape but capped by a predicate: not unbounded.
        let mut b = SanBuilder::new("capped");
        let heap = b.place("heap", 0);
        b.timed_activity("fill", 1.0)
            .predicate(&[heap], move |m| m.get(heap) < 3)
            .output_arc(heap, 1)
            .build()
            .unwrap();
        let san = b.finish().unwrap();
        let report = analyze(&san, &AnalysisSpec::default(), &AnalysisConfig::default());
        assert!(
            report.findings.iter().all(|f| f.id != "unbounded-place"),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn expected_invariant_violation_is_caught() {
        // Transition turns 1 token of p into 2 of q; claim p+q conserved.
        let mut b = SanBuilder::new("leak");
        let p = b.place("p", 3);
        let q = b.place("q", 0);
        b.timed_activity("dup", 1.0)
            .input_arc(p, 1)
            .output_arc(q, 2)
            .build()
            .unwrap();
        let san = b.finish().unwrap();
        let spec = AnalysisSpec {
            expected: vec![ExpectedInvariant {
                id: "token-conservation".to_owned(),
                description: "p + q".to_owned(),
                terms: vec![(p, 1), (q, 1)],
                target: 3,
            }],
            ..Default::default()
        };
        let report = analyze(&san, &spec, &AnalysisConfig::default());
        let hits: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.id == "token-conservation")
            .collect();
        assert!(!hits.is_empty());
        assert!(hits.iter().any(|f| f.subject == "dup"));
        assert!(report.has_hard_findings());
    }

    #[test]
    fn allowlist_downgrades_findings_to_soft() {
        let mut b = SanBuilder::new("dead");
        let empty = b.place("empty", 0);
        let p = b.place("p", 1);
        let s = b.place("s", 0);
        b.timed_activity("live", 1.0)
            .input_arc(p, 1)
            .output_arc(s, 1)
            .build()
            .unwrap();
        b.timed_activity("starved", 1.0)
            .input_arc(empty, 1)
            .build()
            .unwrap();
        let san = b.finish().unwrap();
        let spec = AnalysisSpec {
            allow: vec![AllowEntry {
                id: "dead-activity".to_owned(),
                reason: "intentional in this fixture".to_owned(),
            }],
            ..Default::default()
        };
        let report = analyze(&san, &spec, &AnalysisConfig::default());
        let dead = report
            .findings
            .iter()
            .find(|f| f.id == "dead-activity")
            .unwrap();
        assert_eq!(dead.severity, Severity::Soft);
        assert!(dead.detail.contains("intentional in this fixture"));
        assert!(!report.has_hard_findings());
    }

    #[test]
    fn firing_law_counterexamples_surface() {
        let san = producer_consumer();
        let spec = AnalysisSpec {
            laws: vec![FiringLaw {
                id: "no-produce".to_owned(),
                description: "produce must never fire".to_owned(),
                check: Arc::new(|san, act, _case, _pre, _delta| {
                    (san.activity(act).name() == "produce").then(|| "it fired".to_owned())
                }),
            }],
            ..Default::default()
        };
        let report = analyze(&san, &spec, &AnalysisConfig::default());
        assert!(report
            .findings
            .iter()
            .any(|f| f.id == "no-produce" && f.severity == Severity::Hard));
    }

    #[test]
    fn instantaneous_cycle_is_flagged_soft() {
        let mut b = SanBuilder::new("flip");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.instantaneous_activity("fwd")
            .input_arc(p, 1)
            .output_arc(q, 1)
            .build()
            .unwrap();
        b.instantaneous_activity("bwd")
            .input_arc(q, 1)
            .output_arc(p, 1)
            .build()
            .unwrap();
        let san = b.finish().unwrap();
        let report = analyze(&san, &AnalysisSpec::default(), &AnalysisConfig::default());
        assert!(report
            .findings
            .iter()
            .any(|f| f.id == "instantaneous-cycle" && f.severity == Severity::Soft));
    }

    #[test]
    fn notes_are_always_soft_findings() {
        let san = producer_consumer();
        let spec = AnalysisSpec {
            notes: vec![KnownIssue {
                id: "known-gap".to_owned(),
                subject: "demo".to_owned(),
                detail: "documented limitation".to_owned(),
            }],
            ..Default::default()
        };
        let report = analyze(&san, &spec, &AnalysisConfig::default());
        assert!(report
            .findings
            .iter()
            .any(|f| f.id == "known-gap" && f.severity == Severity::Soft));
        assert!(!report.has_hard_findings());
    }

    #[test]
    fn render_mentions_invariants_and_findings() {
        let san = producer_consumer();
        let report = analyze(&san, &AnalysisSpec::default(), &AnalysisConfig::default());
        let text = report.render(&san);
        assert!(text.contains("P-invariants: 1 (1 nontrivial)"));
        assert!(text.contains("p + q = 3"));
        assert!(text.contains("bounds:"));
    }
}

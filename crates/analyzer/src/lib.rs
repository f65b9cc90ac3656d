//! Structural analysis of SAN models.
//!
//! Möbius-family tools sanity-check a model before solving it; this crate
//! does the same for our composed SANs. Because activity effects are
//! opaque closures, the model's behavior is *observed* by bounded
//! deterministic exploration ([`probe`]) rather than read off the model.
//! The observations feed:
//!
//! * **Expected invariants** — checked at the initial marking and against
//!   every probed firing; a violated one pinpoints an encoding bug.
//! * **Deadness / sinks** — structurally dead activities, never-marked
//!   places, activities never enabled within the probe.
//! * **Unbounded growth** — a repeatable nonnegative gain witnessed by the
//!   probe.
//! * **Vanishing hazards** — cycles among instantaneous activities.
//! * **Rate sanity** — NaN/negative/zero rates and case weights at
//!   reachable markings.
//!
//! The probe samples the reachable set, so it proves nothing over all of
//! it: conservation and exact place bounds over every reachable marking
//! come from the exhaustive reachability check ([`reach`]).
//!
//! Model-specific knowledge enters through an [`AnalysisSpec`]: expected
//! invariants, firing laws (pointwise predicates over observed firings),
//! known-issue notes, and an allowlist that downgrades audited findings
//! to soft. [`analyze`] returns an [`AnalysisReport`] whose hard findings
//! fail `itua check`. The spec's helpers ([`AnalysisSpec::violations`],
//! [`AnalysisSpec::record_law_hits`], [`AnalysisSpec::settle`]) apply it
//! the same way for the probe, the initial-marking gate and the
//! exhaustive check.

pub mod probe;
pub mod reach;

use itua_san::marking::{Marking, PlaceId};
use itua_san::model::{ActivityId, San};
use probe::{explore, ProbeConfig, ProbeData, RateIssue};
use std::fmt::Write as _;
use std::sync::Arc;

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
    /// Whether the BFS left a reachable marking unexplored at its cap.
    pub probe_truncated: bool,
    /// All findings, hard first.
    pub findings: Vec<Finding>,
}

impl AnalysisReport {
    /// Whether any hard finding is present.
    pub fn has_hard_findings(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Hard)
    }

    /// Renders the structured report.
    pub fn render(&self) -> String {
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
        render_findings(&self.findings, &mut out);
        out
    }
}

/// Analyzes `san` under `spec`, probing within `cfg`'s limits.
pub fn analyze(san: &San, spec: &AnalysisSpec, cfg: &ProbeConfig) -> AnalysisReport {
    let mut law_hits: Vec<LawHit> = Vec::new();
    let mut delta_violations: Vec<Finding> = Vec::new();

    let data = explore(san, cfg, |san, act, case, pre, delta| {
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
    spec.settle(&mut findings);

    AnalysisReport {
        model_name: san.name().to_owned(),
        num_places: san.num_places(),
        num_activities: san.num_activities(),
        markings_probed: data.markings_seen,
        probe_truncated: data.truncated,
        findings,
    }
}

/// Deadness, sink, unboundedness, vanishing-cycle, and rate findings from
/// the probe data.
fn structural_findings(san: &San, data: &ProbeData, findings: &mut Vec<Finding>) {
    let num_places = san.num_places();

    // A place has a potential producer if some probed firing raised it,
    // some declared output arc targets it, or some never-fired activity
    // has opaque effects (which could do anything).
    let mut has_producer = vec![false; num_places];
    for &p in data.raised.iter().flatten() {
        has_producer[p.index()] = true;
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
    // an edge a→b when a probed firing of a adds tokens to a place b reads.
    let inst: Vec<usize> = san
        .activities()
        .filter(|(_, a)| a.is_instantaneous())
        .map(|(id, _)| id.index())
        .collect();
    if !inst.is_empty() {
        let adj: Vec<Vec<usize>> = inst
            .iter()
            .map(|&from| {
                let raised = &data.raised[from];
                (0..inst.len())
                    .filter(|&to| {
                        let reads = san.activity(ActivityId::from_index(inst[to])).reads();
                        raised.iter().any(|p| reads.contains(p))
                    })
                    .collect()
            })
            .collect();
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use itua_san::model::SanBuilder;

    /// p(3) --produce--> q --consume--> p: four reachable markings.
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
    fn probe_reports_truncation_only_when_a_marking_is_left_out() {
        let san = producer_consumer();
        for (cap, truncated) in [(3, true), (4, false), (5, false)] {
            let cfg = ProbeConfig {
                max_markings: cap,
                ..ProbeConfig::default()
            };
            let report = analyze(&san, &AnalysisSpec::default(), &cfg);
            assert_eq!(report.probe_truncated, truncated, "cap {cap}");
            assert_eq!(report.markings_probed, cap.min(4), "cap {cap}");
        }
    }

    #[test]
    fn live_net_has_no_dead_activity_findings() {
        let san = producer_consumer();
        let report = analyze(&san, &AnalysisSpec::default(), &ProbeConfig::default());
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
        let report = analyze(&san, &AnalysisSpec::default(), &ProbeConfig::default());
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
    fn places_raised_by_opaque_effects_count_as_produced() {
        // `feed` raises `q` only through a case closure, which declares no
        // arc: the probe must see it fire, or `hungry` would be reported
        // dead. `hungry` needs two tokens and `feed` can supply one.
        let mut b = SanBuilder::new("opaque");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.place("r", 0);
        b.timed_activity("feed", 1.0)
            .input_arc(p, 1)
            .case(1.0, move |m| m.add(q, 1))
            .build()
            .unwrap();
        b.timed_activity("hungry", 1.0)
            .input_arc(q, 2)
            .build()
            .unwrap();
        let san = b.finish().unwrap();
        let report = analyze(&san, &AnalysisSpec::default(), &ProbeConfig::default());
        let found: Vec<(&str, &str)> = report
            .findings
            .iter()
            .map(|f| (f.id.as_str(), f.subject.as_str()))
            .collect();
        assert_eq!(
            found,
            [("never-enabled", "hungry"), ("never-marked-place", "r")]
        );
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
        let report = analyze(&san, &AnalysisSpec::default(), &ProbeConfig::default());
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
        let report = analyze(&san, &AnalysisSpec::default(), &ProbeConfig::default());
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
        let report = analyze(&san, &spec, &ProbeConfig::default());
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
        let report = analyze(&san, &spec, &ProbeConfig::default());
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
        let report = analyze(&san, &spec, &ProbeConfig::default());
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
        let report = analyze(&san, &AnalysisSpec::default(), &ProbeConfig::default());
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
        let report = analyze(&san, &spec, &ProbeConfig::default());
        assert!(report
            .findings
            .iter()
            .any(|f| f.id == "known-gap" && f.severity == Severity::Soft));
        assert!(!report.has_hard_findings());
    }

    #[test]
    fn render_mentions_probe_and_findings() {
        let san = producer_consumer();
        let report = analyze(&san, &AnalysisSpec::default(), &ProbeConfig::default());
        assert_eq!(
            report.render(),
            "model 'pc': 2 places, 2 activities\n\
             probe: 4 markings (reachable set exhausted)\n\
             findings: 0 hard, 0 soft\n"
        );
    }
}

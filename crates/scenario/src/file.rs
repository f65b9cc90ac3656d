//! The `.scn` scenario-file format: user-authored experiments as plain
//! `key = value` text, no recompile, no external parser dependency.
//!
//! # Format
//!
//! One `key = value` assignment per line; `#` starts a comment (to end
//! of line); blank lines are ignored; for repeated scalar keys the last
//! assignment wins.
//!
//! Structural keys:
//!
//! * `name`, `description` — identity shown by `itua list`/`run`.
//! * `scheme = domain-exclusion | host-exclusion` — base management
//!   scheme (also pins the matching placement constraint).
//! * `schemes = domain-exclusion, host-exclusion` — run the sweep once
//!   per scheme, one series each (the Figure 5 shape).
//! * any key from [`crate::keys::NUMERIC_KEYS`] — pins a base model
//!   parameter (e.g. `domains = 10`, `spread-rate-domain = 4`).
//! * `sweep = <numeric key>` — the x-axis parameter.
//! * `values = v1, v2, ...` — the x-axis values.
//! * `horizon = H` — simulation horizon in hours (default 5).
//! * `measures = m1, m2, ...` — measure keys from
//!   [`itua_core::measures::names`], optionally `@t`-suffixed (e.g.
//!   `frac_domains_excluded@5`).
//! * `sample-times = t1, t2, ...` — extra instant-of-time sample points
//!   (the `@t` suffixes in `measures` are added automatically).
//! * `assert = <agg>(<place glob>) <op> <n>` — a safety claim over every
//!   reachable marking (see [`crate::assert`]); may repeat, one claim
//!   per line, proved by `itua check --exhaustive`.
//!
//! Pinned execution keys (optional; when present the file is
//! authoritative and the corresponding CLI flag is ignored):
//! `reps`, `seed`, `confidence`, `split-levels`.
//!
//! # Identity
//!
//! A parsed scenario exposes a content hash over its *canonical* form
//! (fixed key order, comments stripped, merged sample times) via
//! [`FileScenario::content_hash`]. The hash enters the result-store
//! fingerprint as `scn=<hash>`, so editing a scenario file invalidates
//! checkpointed points instead of silently resuming them, while
//! reformatting (comments, key order, whitespace) does not.

use crate::assert::MarkingAssert;
use crate::keys;
use crate::Scenario;
use itua_core::measures::names;
use itua_core::params::{ManagementScheme, Params};
use itua_rare::SplitSpec;
use itua_runner::backend::BackendKind;
use itua_runner::fingerprint_iter;
use itua_studies::sweep::{FigureResult, Panel, Series, SweepConfig, SweepPoint};
use std::fmt;

/// All measure keys a scenario file may request (before any `@t`
/// suffix).
pub const MEASURE_NAMES: &[&str] = &[
    names::UNAVAILABILITY,
    names::UNRELIABILITY,
    names::FRAC_CORRUPT_AT_EXCLUSION,
    names::FRAC_DOMAINS_EXCLUDED,
    names::REPLICAS_RUNNING,
    names::LOAD_PER_HOST,
    names::TIME_TO_FIRST_BYZANTINE,
    names::TIME_TO_FIRST_IMPROPER,
];

/// A scenario-file error, carrying the 1-based source line when the
/// problem is attributable to one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScnError {
    /// 1-based line number, when known.
    pub line: Option<usize>,
    /// What went wrong.
    pub message: String,
}

impl ScnError {
    fn at(line: usize, message: impl Into<String>) -> Self {
        ScnError {
            line: Some(line),
            message: message.into(),
        }
    }

    fn general(message: impl Into<String>) -> Self {
        ScnError {
            line: None,
            message: message.into(),
        }
    }
}

impl fmt::Display for ScnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(n) => write!(f, "line {n}: {}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for ScnError {}

/// A parsed, validated `.scn` scenario.
///
/// Construction goes through [`FileScenario::parse`]; every instance is
/// known-runnable (sweep axis resolves, measures exist, every composed
/// point passes [`Params::validate`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FileScenario {
    name: String,
    description: String,
    /// Numeric base-parameter assignments, sorted by key (last
    /// assignment per key wins).
    base_entries: Vec<(String, f64)>,
    /// Schemes to run, one series each.
    schemes: Vec<ManagementScheme>,
    sweep_key: String,
    values: Vec<f64>,
    horizon: f64,
    /// Merged instant-of-time sample points (explicit `sample-times`
    /// plus `@t` suffixes from `measures`), sorted and deduplicated.
    sample_times: Vec<f64>,
    measures: Vec<String>,
    /// Safety claims over every reachable marking, in file order
    /// (repeated `assert` lines append rather than overwrite).
    asserts: Vec<MarkingAssert>,
    reps: Option<u32>,
    seed: Option<u64>,
    confidence: Option<f64>,
    split: Option<SplitSpec>,
}

fn parse_f64(line: usize, key: &str, value: &str) -> Result<f64, ScnError> {
    let v: f64 = value
        .parse()
        .map_err(|_| ScnError::at(line, format!("'{value}' is not a number (key '{key}')")))?;
    if !v.is_finite() {
        return Err(ScnError::at(line, format!("'{key}' must be finite")));
    }
    Ok(v)
}

fn parse_list(line: usize, key: &str, value: &str) -> Result<Vec<f64>, ScnError> {
    let items: Result<Vec<f64>, _> = value
        .split(',')
        .map(|v| parse_f64(line, key, v.trim()))
        .collect();
    let items = items?;
    if items.is_empty() {
        return Err(ScnError::at(line, format!("'{key}' must not be empty")));
    }
    Ok(items)
}

fn sort_dedup(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite by construction"));
    v.dedup();
    v
}

/// Splits a measure key into its base name and optional `@t` suffix.
fn split_measure(m: &str) -> (&str, Option<&str>) {
    match m.split_once('@') {
        Some((base, t)) => (base, Some(t)),
        None => (m, None),
    }
}

impl FileScenario {
    /// Parses scenario text. `fallback_name` (typically the file stem)
    /// names the scenario when the text has no `name` key.
    ///
    /// # Errors
    ///
    /// Line-numbered [`ScnError`]s for unknown keys, malformed values,
    /// unknown measures, and a missing sweep axis; a general error when
    /// a composed point fails [`Params::validate`].
    pub fn parse(text: &str, fallback_name: &str) -> Result<FileScenario, ScnError> {
        let mut name = fallback_name.to_owned();
        let mut description = String::from("user-authored scenario");
        let mut base_entries: Vec<(String, f64)> = Vec::new();
        let mut schemes: Option<Vec<ManagementScheme>> = None;
        let mut sweep_key: Option<String> = None;
        let mut values: Option<Vec<f64>> = None;
        let mut horizon = 5.0;
        let mut sample_times: Vec<f64> = Vec::new();
        let mut measures: Option<Vec<String>> = None;
        let mut asserts: Vec<MarkingAssert> = Vec::new();
        let mut reps = None;
        let mut seed = None;
        let mut confidence = None;
        let mut split = None;

        for (idx, raw) in text.lines().enumerate() {
            let n = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| ScnError::at(n, format!("expected 'key = value', got '{line}'")))?;
            let (key, value) = (key.trim(), value.trim());
            if value.is_empty() {
                return Err(ScnError::at(n, format!("'{key}' has an empty value")));
            }
            match key {
                "name" => name = value.to_owned(),
                "description" => description = value.to_owned(),
                "scheme" => {
                    let s = keys::parse_scheme(value).map_err(|e| ScnError::at(n, e))?;
                    schemes = Some(vec![s]);
                }
                "schemes" => {
                    let list: Result<Vec<_>, _> = value
                        .split(',')
                        .map(|v| keys::parse_scheme(v.trim()).map_err(|e| ScnError::at(n, e)))
                        .collect();
                    let list = list?;
                    let mut uniq = list.clone();
                    uniq.dedup();
                    if uniq.len() != list.len() || list.is_empty() {
                        return Err(ScnError::at(n, "'schemes' must be distinct and non-empty"));
                    }
                    schemes = Some(list);
                }
                "sweep" => {
                    if !keys::is_numeric_key(value) {
                        return Err(ScnError::at(
                            n,
                            format!(
                                "'{value}' is not a sweepable key (valid keys: {})",
                                keys::key_list()
                            ),
                        ));
                    }
                    sweep_key = Some(value.to_owned());
                }
                "values" => values = Some(parse_list(n, key, value)?),
                "horizon" => {
                    horizon = parse_f64(n, key, value)?;
                    if horizon <= 0.0 {
                        return Err(ScnError::at(n, "'horizon' must be positive"));
                    }
                }
                "sample-times" => {
                    let ts = parse_list(n, key, value)?;
                    if ts.iter().any(|t| *t <= 0.0) {
                        return Err(ScnError::at(n, "'sample-times' must be positive"));
                    }
                    sample_times = ts;
                }
                "measures" => {
                    let list: Vec<String> = value
                        .split(',')
                        .map(|m| m.trim().to_owned())
                        .filter(|m| !m.is_empty())
                        .collect();
                    if list.is_empty() {
                        return Err(ScnError::at(n, "'measures' must not be empty"));
                    }
                    for m in &list {
                        let (base, at) = split_measure(m);
                        if !MEASURE_NAMES.contains(&base) {
                            return Err(ScnError::at(
                                n,
                                format!(
                                    "unknown measure '{base}' (valid measures: {})",
                                    MEASURE_NAMES.join(", ")
                                ),
                            ));
                        }
                        if let Some(t) = at {
                            let t = parse_f64(n, "measures", t)?;
                            if t <= 0.0 {
                                return Err(ScnError::at(n, "'@t' sample time must be positive"));
                            }
                        }
                    }
                    measures = Some(list);
                }
                "assert" => {
                    asserts.push(MarkingAssert::parse(value).map_err(|e| ScnError::at(n, e))?);
                }
                "reps" => {
                    reps = Some(value.parse::<u32>().map_err(|_| {
                        ScnError::at(n, format!("'{value}' is not a replication count"))
                    })?);
                }
                "seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| ScnError::at(n, format!("'{value}' is not a seed")))?,
                    );
                }
                "confidence" => {
                    let c = parse_f64(n, key, value)?;
                    if !(0.0..1.0).contains(&c) || c == 0.0 {
                        return Err(ScnError::at(n, "'confidence' must be in (0, 1)"));
                    }
                    confidence = Some(c);
                }
                "split-levels" => {
                    split = Some(
                        value
                            .parse::<SplitSpec>()
                            .map_err(|e| ScnError::at(n, e.to_string()))?,
                    );
                }
                _ if keys::is_numeric_key(key) => {
                    let v = parse_f64(n, key, value)?;
                    // Eagerly check integrality etc. on a scratch copy so
                    // the error carries this line's number.
                    let mut probe = Params::default();
                    keys::set_numeric(&mut probe, key, v).map_err(|e| ScnError::at(n, e))?;
                    base_entries.retain(|(k, _)| k != key);
                    base_entries.push((key.to_owned(), v));
                }
                _ => {
                    return Err(ScnError::at(
                        n,
                        format!(
                            "unknown key '{key}' (structural keys: name, description, scheme, \
                             schemes, sweep, values, horizon, sample-times, measures, assert, \
                             reps, seed, confidence, split-levels; parameter keys: {})",
                            keys::key_list()
                        ),
                    ));
                }
            }
        }

        let sweep_key = sweep_key.ok_or_else(|| ScnError::general("missing 'sweep' key"))?;
        let values = values.ok_or_else(|| ScnError::general("missing 'values' key"))?;
        let measures = measures.ok_or_else(|| ScnError::general("missing 'measures' key"))?;
        base_entries.sort_by(|a, b| a.0.cmp(&b.0));

        let mut at_times: Vec<f64> = measures
            .iter()
            .filter_map(|m| split_measure(m).1)
            .map(|t| t.parse::<f64>().expect("validated above"))
            .collect();
        at_times.extend(sample_times);
        let sample_times = sort_dedup(at_times);
        if let Some(t) = sample_times.last() {
            if *t > horizon {
                return Err(ScnError::general(format!(
                    "sample time {t} is beyond the horizon {horizon}"
                )));
            }
        }

        let scenario = FileScenario {
            name,
            description,
            base_entries,
            schemes: schemes.unwrap_or_else(|| vec![Params::default().scheme]),
            sweep_key,
            values,
            horizon,
            sample_times,
            measures,
            asserts,
            reps,
            seed,
            confidence,
            split,
        };

        // Compose and validate every point now, so `itua check` (and
        // plain `run`) reject a bad file before any simulation.
        for point in scenario.compose()? {
            point.params.validate().map_err(|e| {
                let x = keys::compact(point.x);
                ScnError::general(format!("invalid point (x = {x}): {e}"))
            })?;
        }
        Ok(scenario)
    }

    /// The composed sweep points: `schemes × values`, each value applied
    /// to the base parameters via the sweep key.
    fn compose(&self) -> Result<Vec<SweepPoint>, ScnError> {
        let mut base = Params::default();
        for (key, v) in &self.base_entries {
            keys::set_numeric(&mut base, key, *v).map_err(ScnError::general)?;
        }
        let mut points = Vec::new();
        for &scheme in &self.schemes {
            let with_scheme = base.clone().with_scheme(scheme);
            for &x in &self.values {
                let mut params = with_scheme.clone();
                keys::set_numeric(&mut params, &self.sweep_key, x).map_err(|e| {
                    ScnError::general(format!("sweep value {}: {e}", keys::compact(x)))
                })?;
                points.push(SweepPoint {
                    x,
                    series: keys::scheme_label(scheme).to_owned(),
                    params,
                    horizon: self.horizon,
                    sample_times: self.sample_times.clone(),
                });
            }
        }
        Ok(points)
    }

    /// The canonical serialized lines: fixed key order, normalized
    /// values, no comments. [`fmt::Display`] joins these and
    /// [`FileScenario::content_hash`] hashes them, so two files that
    /// differ only in formatting share identity.
    fn canonical_lines(&self) -> Vec<String> {
        let mut lines = vec![
            format!("name = {}", self.name),
            format!("description = {}", self.description),
        ];
        let scheme_values: Vec<&str> = self
            .schemes
            .iter()
            .map(|&s| keys::scheme_value(s))
            .collect();
        if scheme_values.len() > 1 {
            lines.push(format!("schemes = {}", scheme_values.join(", ")));
        } else {
            lines.push(format!("scheme = {}", scheme_values[0]));
        }
        for (key, v) in &self.base_entries {
            lines.push(format!("{key} = {v}"));
        }
        lines.push(format!("sweep = {}", self.sweep_key));
        lines.push(format!("values = {}", join_f64(&self.values)));
        lines.push(format!("horizon = {}", self.horizon));
        if !self.sample_times.is_empty() {
            lines.push(format!("sample-times = {}", join_f64(&self.sample_times)));
        }
        lines.push(format!("measures = {}", self.measures.join(", ")));
        for a in &self.asserts {
            lines.push(format!("assert = {a}"));
        }
        if let Some(r) = self.reps {
            lines.push(format!("reps = {r}"));
        }
        if let Some(s) = self.seed {
            lines.push(format!("seed = {s}"));
        }
        if let Some(c) = self.confidence {
            lines.push(format!("confidence = {c}"));
        }
        if let Some(split) = &self.split {
            lines.push(format!("split-levels = {split}"));
        }
        lines
    }

    /// FNV-1a hash of the canonical form — the scenario's identity in
    /// result-store fingerprints (`scn=<hash>`).
    pub fn content_hash(&self) -> String {
        let lines = self.canonical_lines();
        fingerprint_iter(lines.iter().map(String::as_str))
    }
}

fn join_f64(v: &[f64]) -> String {
    v.iter().map(f64::to_string).collect::<Vec<_>>().join(", ")
}

impl fmt::Display for FileScenario {
    /// The canonical `.scn` text; reparsing it yields an equal scenario
    /// with the same [`FileScenario::content_hash`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for line in self.canonical_lines() {
            writeln!(f, "{line}")?;
        }
        Ok(())
    }
}

impl Scenario for FileScenario {
    fn name(&self) -> &str {
        &self.name
    }

    fn description(&self) -> &str {
        &self.description
    }

    fn points(&self, _backend: BackendKind) -> Vec<SweepPoint> {
        self.compose().expect("validated at parse time")
    }

    fn measures(&self) -> Vec<String> {
        self.measures.clone()
    }

    fn render(&self, series: &[Series]) -> FigureResult {
        let panels = self
            .measures
            .iter()
            .enumerate()
            .map(|(i, measure)| Panel {
                id: format!("{}-{}", self.name, i + 1),
                title: measure.clone(),
                series: series
                    .iter()
                    .filter(|s| &s.measure == measure)
                    .cloned()
                    .collect(),
            })
            .collect();
        FigureResult {
            id: self.name.clone(),
            title: self.description.clone(),
            x_label: self.sweep_key.clone(),
            panels,
        }
    }

    fn asserts(&self) -> Vec<MarkingAssert> {
        self.asserts.clone()
    }

    fn fingerprint_parts(&self) -> Vec<String> {
        vec![format!("scn={}", self.content_hash())]
    }

    fn configure(&self, cfg: &mut SweepConfig, split: &mut Option<SplitSpec>) {
        if let Some(r) = self.reps {
            cfg.replications = r;
        }
        if let Some(s) = self.seed {
            cfg.base_seed = s;
        }
        if let Some(c) = self.confidence {
            cfg.confidence = c;
        }
        if let Some(s) = &self.split {
            *split = if s.is_empty() { None } else { Some(s.clone()) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPREAD: &str = "\
# Figure-5-style spread sweep, reduced.
name = spread-demo
description = Attack spread under both schemes
domains = 4
hosts-per-domain = 2
apps = 2
reps-per-app = 3
schemes = domain-exclusion, host-exclusion
sweep = spread-rate-domain
values = 0, 2, 4
horizon = 5
measures = unavailability, frac_domains_excluded@5
reps = 12
";

    #[test]
    fn parses_and_composes_the_scheme_cross_product() {
        let s = FileScenario::parse(SPREAD, "fallback").unwrap();
        assert_eq!(s.name(), "spread-demo");
        let pts = s.points(BackendKind::Des);
        assert_eq!(pts.len(), 6); // 2 schemes × 3 values
        assert_eq!(pts[0].series, "Domain exclusion");
        assert_eq!(pts[3].series, "Host exclusion");
        assert_eq!(pts[5].params.spread_rate_domain, 4.0);
        assert_eq!(pts[0].sample_times, vec![5.0]); // from the @5 suffix
        assert_eq!(pts[0].params.num_domains, 4);
    }

    #[test]
    fn pinned_settings_configure_the_sweep() {
        let s = FileScenario::parse(SPREAD, "x").unwrap();
        let mut cfg = SweepConfig::default();
        let mut split = None;
        s.configure(&mut cfg, &mut split);
        assert_eq!(cfg.replications, 12);
        assert_eq!(cfg.base_seed, SweepConfig::default().base_seed); // not pinned
        assert!(split.is_none());
    }

    #[test]
    fn round_trips_through_canonical_form() {
        let s = FileScenario::parse(SPREAD, "x").unwrap();
        let reparsed = FileScenario::parse(&s.to_string(), "y").unwrap();
        assert_eq!(s, reparsed);
        assert_eq!(s.content_hash(), reparsed.content_hash());
    }

    #[test]
    fn formatting_does_not_change_identity_but_content_does() {
        let s = FileScenario::parse(SPREAD, "x").unwrap();
        let commented = format!("# a new comment\n{SPREAD}");
        assert_eq!(
            s.content_hash(),
            FileScenario::parse(&commented, "x").unwrap().content_hash()
        );
        let edited = SPREAD.replace("values = 0, 2, 4", "values = 0, 2, 4, 8");
        assert_ne!(
            s.content_hash(),
            FileScenario::parse(&edited, "x").unwrap().content_hash()
        );
    }

    #[test]
    fn rejects_unknown_keys_with_line_numbers() {
        let err = FileScenario::parse("nmae = typo\n", "x").unwrap_err();
        assert_eq!(err.line, Some(1));
        assert!(err.message.contains("unknown key 'nmae'"));

        let err = FileScenario::parse("sweep = attack-rate\n", "x").unwrap_err();
        assert!(err.message.contains("not a sweepable key"));

        let bad_measure = SPREAD.replace("unavailability", "availability");
        let err = FileScenario::parse(&bad_measure, "x").unwrap_err();
        assert!(err.message.contains("unknown measure 'availability'"));
    }

    #[test]
    fn rejects_malformed_values() {
        assert!(FileScenario::parse("values\n", "x").is_err()); // no '='
        let err = FileScenario::parse("horizon = five\n", "x").unwrap_err();
        assert!(err.message.contains("not a number"));
        let err = FileScenario::parse("domains = 2.5\n", "x").unwrap_err();
        assert!(err.message.contains("positive integer"));
        let bad_split = SPREAD.to_owned() + "split-levels = 1y8\n";
        let err = FileScenario::parse(&bad_split, "x").unwrap_err();
        assert!(err.message.contains("bad split spec"));
    }

    #[test]
    fn requires_sweep_values_and_measures() {
        let err = FileScenario::parse("name = empty\n", "x").unwrap_err();
        assert_eq!(err.line, None);
        assert!(err.message.contains("missing 'sweep'"));
    }

    #[test]
    fn rejects_sample_times_beyond_the_horizon() {
        let bad = SPREAD.replace("horizon = 5", "horizon = 3");
        let err = FileScenario::parse(&bad, "x").unwrap_err();
        assert!(err.message.contains("beyond the horizon"));
    }

    #[test]
    fn assert_lines_append_round_trip_and_change_identity() {
        let text = SPREAD.to_owned()
            + "assert = max(*/host_corrupt) <= 1\nassert = sum(itua/apps[*]/*) >= 0\n";
        let s = FileScenario::parse(&text, "x").unwrap();
        let asserts = Scenario::asserts(&s);
        assert_eq!(asserts.len(), 2); // repeated lines append, not overwrite
        assert_eq!(asserts[0].to_string(), "max(*/host_corrupt) <= 1");
        let reparsed = FileScenario::parse(&s.to_string(), "x").unwrap();
        assert_eq!(s, reparsed);
        // Claims are part of the scenario's identity.
        assert_ne!(
            s.content_hash(),
            FileScenario::parse(SPREAD, "x").unwrap().content_hash()
        );
        let err =
            FileScenario::parse(&(SPREAD.to_owned() + "assert = avg(x) <= 1\n"), "x").unwrap_err();
        assert!(err.message.contains("unknown aggregate"));
        assert!(err.line.is_some());
    }

    #[test]
    fn split_levels_round_trip_and_configure() {
        let text = SPREAD.to_owned() + "split-levels = 1x8,2x4\n";
        let s = FileScenario::parse(&text, "x").unwrap();
        let mut split = None;
        s.configure(&mut SweepConfig::default(), &mut split);
        assert_eq!(split.unwrap().to_string(), "1x8,2x4");
        let reparsed = FileScenario::parse(&s.to_string(), "x").unwrap();
        assert_eq!(s, reparsed);
    }
}

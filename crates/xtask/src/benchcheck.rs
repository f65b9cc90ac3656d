//! Regression rules for the tracked benchmark JSONs, applied by
//! `cargo xtask bench-json --check`.
//!
//! Three files are gated:
//!
//! * `BENCH_san.json` (schema `itua-san-hotpath-v1`) — timing medians.
//!   Every `current` entry must stay within [`REGRESSION_FACTOR`] of its
//!   `baseline` entry; higher ns/replication is a regression.
//! * `BENCH_rare.json` (schema `itua-rare-split-v1`) — the deterministic
//!   rare-event splitting figures. `current.event_reduction` must stay at
//!   or above [`MIN_EVENT_REDUCTION`]: the importance-splitting engine
//!   must keep needing ≥10× fewer simulated events than plain Monte
//!   Carlo for equal CI width on the figure-4 tail point.
//! * `BENCH_analytic.json` (schema `itua-analytic-lumped-v1`) — the
//!   symmetry-lumped analytic headline. `current.reduction_factor`
//!   (full tangible states per lumped orbit) must stay at or above
//!   [`MIN_LUMPING_REDUCTION`], `current.micro_max_rel_err` (lumped vs
//!   unlumped cross-check) at or below [`MAX_LUMPED_REL_ERR`], and the
//!   `build_ms`/`solve_ms` wall-clock figures, one-thread and two-thread
//!   (`build_ms_2t`/`solve_ms_2t`), within [`REGRESSION_FACTOR`] of
//!   their baselines.
//!
//! The parser is deliberately minimal — xtask has no dependencies, and
//! both files are written by the benches themselves as one-line objects
//! whose `baseline`/`current` sections contain only numeric fields.

/// Allowed slowdown of a timing median relative to its baseline (15%).
pub const REGRESSION_FACTOR: f64 = 1.15;

/// Floor on the rare-event benchmark's work-normalized variance-reduction
/// factor.
pub const MIN_EVENT_REDUCTION: f64 = 10.0;

/// Floor on the symmetry-lumping state-space reduction (full tangible
/// states per lumped orbit) of the analytic headline point. The tracked
/// point achieves ~163x; 20x leaves room to swap the point without
/// letting the quotient silently degenerate.
pub const MIN_LUMPING_REDUCTION: f64 = 20.0;

/// Ceiling on the lumped-vs-unlumped relative disagreement across all
/// measures on the analytic benchmark's micro cross-check. The quotient
/// is exact, so anything above uniformization truncation noise means
/// the canonicalizer or the lumped generator broke.
pub const MAX_LUMPED_REL_ERR: f64 = 1e-9;

/// Extracts the flat object following `"key":{` up to the next `}`.
///
/// Sufficient for the tracked bench files: their `baseline` and
/// `current` sections hold only `"name":number` pairs, never nested
/// objects or strings.
fn object_section<'a>(text: &'a str, key: &str) -> Result<&'a str, String> {
    let tag = format!("\"{key}\":{{");
    let start = text
        .find(&tag)
        .ok_or_else(|| format!("no \"{key}\" object"))?
        + tag.len();
    let len = text[start..]
        .find('}')
        .ok_or_else(|| format!("unterminated \"{key}\" object"))?;
    Ok(&text[start..start + len])
}

/// Parses the `"name":number` pairs of a flat object section.
fn numeric_entries(section: &str) -> Vec<(String, f64)> {
    section
        .split(',')
        .filter_map(|pair| {
            let (k, v) = pair.split_once(':')?;
            let name = k.trim().trim_matches('"').to_owned();
            let val: f64 = v.trim().parse().ok()?;
            Some((name, val))
        })
        .collect()
}

fn lookup(entries: &[(String, f64)], name: &str) -> Option<f64> {
    entries.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
}

/// Checks the hot-path timing file: every `current` median must be
/// within [`REGRESSION_FACTOR`] of its `baseline`.
///
/// Returns the list of violations (empty = clean).
///
/// # Errors
///
/// Returns a message when the file does not have the expected
/// baseline/current shape.
pub fn check_san(text: &str) -> Result<Vec<String>, String> {
    let baseline = numeric_entries(object_section(text, "baseline")?);
    let current = numeric_entries(object_section(text, "current")?);
    if current.is_empty() {
        return Err("empty \"current\" object".into());
    }
    let mut violations = Vec::new();
    for (name, cur) in &current {
        let Some(base) = lookup(&baseline, name) else {
            // A scenario added after the baseline was recorded has
            // nothing to regress against.
            continue;
        };
        if *cur > base * REGRESSION_FACTOR && base > 0.0 {
            violations.push(format!(
                "{name}: {cur:.0} ns vs baseline {base:.0} ns (+{:.0}%, limit +{:.0}%)",
                (cur / base - 1.0) * 100.0,
                (REGRESSION_FACTOR - 1.0) * 100.0,
            ));
        }
    }
    Ok(violations)
}

/// Checks the rare-event file: `current.event_reduction` must be at
/// least [`MIN_EVENT_REDUCTION`].
///
/// Returns the list of violations (empty = clean).
///
/// # Errors
///
/// Returns a message when the file has no numeric
/// `current.event_reduction` field.
pub fn check_rare(text: &str) -> Result<Vec<String>, String> {
    let current = numeric_entries(object_section(text, "current")?);
    let red = lookup(&current, "event_reduction")
        .ok_or_else(|| "no numeric \"event_reduction\" in \"current\"".to_owned())?;
    if red < MIN_EVENT_REDUCTION {
        Ok(vec![format!(
            "event_reduction {red:.2}x below the {MIN_EVENT_REDUCTION}x floor"
        )])
    } else {
        Ok(Vec::new())
    }
}

/// Checks the analytic lumping file: the structural reduction and
/// exactness gates plus a timing regression check on the build/solve
/// wall-clock figures at one and two threads.
///
/// Returns the list of violations (empty = clean).
///
/// # Errors
///
/// Returns a message when the file has no numeric
/// `current.reduction_factor` or `current.micro_max_rel_err` field.
pub fn check_analytic(text: &str) -> Result<Vec<String>, String> {
    let baseline = numeric_entries(object_section(text, "baseline")?);
    let current = numeric_entries(object_section(text, "current")?);
    let reduction = lookup(&current, "reduction_factor")
        .ok_or_else(|| "no numeric \"reduction_factor\" in \"current\"".to_owned())?;
    let rel_err = lookup(&current, "micro_max_rel_err")
        .ok_or_else(|| "no numeric \"micro_max_rel_err\" in \"current\"".to_owned())?;
    let mut violations = Vec::new();
    if reduction < MIN_LUMPING_REDUCTION {
        violations.push(format!(
            "reduction_factor {reduction:.1}x below the {MIN_LUMPING_REDUCTION}x floor"
        ));
    }
    if rel_err > MAX_LUMPED_REL_ERR {
        violations.push(format!(
            "micro_max_rel_err {rel_err:.3e} above the {MAX_LUMPED_REL_ERR:.0e} ceiling"
        ));
    }
    for name in ["build_ms", "solve_ms", "build_ms_2t", "solve_ms_2t"] {
        let (Some(cur), Some(base)) = (lookup(&current, name), lookup(&baseline, name)) else {
            // Before a baseline is recorded there is nothing to regress
            // against (mirrors check_san's new-scenario rule).
            continue;
        };
        if cur > base * REGRESSION_FACTOR && base > 0.0 {
            violations.push(format!(
                "{name}: {cur:.0} ms vs baseline {base:.0} ms (+{:.0}%, limit +{:.0}%)",
                (cur / base - 1.0) * 100.0,
                (REGRESSION_FACTOR - 1.0) * 100.0,
            ));
        }
    }
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAN: &str = r#"{"schema":"itua-san-hotpath-v1","unit":"median ns per replication","baseline":{"a":100.0,"b":200.0},"current":{"a":110.0,"b":200.0}}"#;

    #[test]
    fn within_tolerance_is_clean() {
        assert_eq!(check_san(SAN).unwrap(), Vec::<String>::new());
    }

    #[test]
    fn regression_over_15_percent_is_flagged() {
        let text = SAN.replace("\"a\":110.0,\"b\":200.0", "\"a\":116.0,\"b\":200.0");
        let violations = check_san(&text).unwrap();
        assert_eq!(violations.len(), 1);
        assert!(violations[0].starts_with("a: 116 ns"), "{violations:?}");
    }

    #[test]
    fn new_scenario_without_baseline_is_ignored() {
        let text = SAN.replace(
            "\"current\":{\"a\":110.0",
            "\"current\":{\"c\":999.0,\"a\":110.0",
        );
        assert_eq!(check_san(&text).unwrap(), Vec::<String>::new());
    }

    #[test]
    fn malformed_file_is_an_error() {
        assert!(check_san("{}").is_err());
        assert!(check_rare("{\"current\":{\"trees\":1.0}}").is_err());
    }

    #[test]
    fn event_reduction_floor() {
        let ok = r#"{"baseline":{"event_reduction":17.5},"current":{"event_reduction":12.0}}"#;
        assert_eq!(check_rare(ok).unwrap(), Vec::<String>::new());
        let bad = r#"{"baseline":{"event_reduction":17.5},"current":{"event_reduction":9.99}}"#;
        assert_eq!(check_rare(bad).unwrap().len(), 1);
    }

    const ANALYTIC: &str = r#"{"schema":"itua-analytic-lumped-v1","unit":"states, reduction factor, milliseconds, relative error","baseline":{"reduction_factor":163.2,"micro_max_rel_err":1.0e-12,"build_ms":16000.0,"solve_ms":138000.0,"build_ms_2t":9000.0,"solve_ms_2t":80000.0},"current":{"reduction_factor":163.2,"micro_max_rel_err":1.0e-12,"build_ms":16500.0,"solve_ms":139000.0,"build_ms_2t":9500.0,"solve_ms_2t":81000.0}}"#;

    #[test]
    fn analytic_within_gates_is_clean() {
        assert_eq!(check_analytic(ANALYTIC).unwrap(), Vec::<String>::new());
    }

    #[test]
    fn analytic_reduction_floor_and_exactness_ceiling() {
        let bad = ANALYTIC.replace(
            "\"current\":{\"reduction_factor\":163.2,\"micro_max_rel_err\":1.0e-12",
            "\"current\":{\"reduction_factor\":3.0,\"micro_max_rel_err\":1.0e-6",
        );
        let violations = check_analytic(&bad).unwrap();
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations[0].contains("reduction_factor"), "{violations:?}");
        assert!(
            violations[1].contains("micro_max_rel_err"),
            "{violations:?}"
        );
    }

    #[test]
    fn analytic_timing_regression_is_flagged() {
        let bad = ANALYTIC.replace("\"solve_ms\":139000.0", "\"solve_ms\":190000.0");
        let violations = check_analytic(&bad).unwrap();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].starts_with("solve_ms:"), "{violations:?}");
    }

    #[test]
    fn analytic_two_thread_regression_is_flagged() {
        let bad = ANALYTIC.replace("\"build_ms_2t\":9500.0", "\"build_ms_2t\":12000.0");
        let violations = check_analytic(&bad).unwrap();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].starts_with("build_ms_2t:"), "{violations:?}");
    }

    #[test]
    fn analytic_missing_baseline_timings_are_ignored() {
        let text = ANALYTIC.replace(
            "\"baseline\":{\"reduction_factor\":163.2,\"micro_max_rel_err\":1.0e-12,\"build_ms\":16000.0,\"solve_ms\":138000.0,\"build_ms_2t\":9000.0,\"solve_ms_2t\":80000.0}",
            "\"baseline\":{\"reduction_factor\":163.2,\"micro_max_rel_err\":1.0e-12}",
        );
        assert_eq!(check_analytic(&text).unwrap(), Vec::<String>::new());
        // A baseline recorded before the two-thread fields existed.
        let text = ANALYTIC.replace(",\"build_ms_2t\":9000.0,\"solve_ms_2t\":80000.0}", "}");
        assert_eq!(check_analytic(&text).unwrap(), Vec::<String>::new());
    }

    #[test]
    fn analytic_malformed_is_an_error() {
        assert!(check_analytic("{}").is_err());
        assert!(check_analytic(r#"{"baseline":{},"current":{"reduction_factor":50.0}}"#).is_err());
    }

    #[test]
    fn scientific_notation_parses() {
        let text = r#"{"baseline":{"x":1.5e-4},"current":{"x":1.6e-4,"event_reduction":17.501246516957455}}"#;
        assert!(check_san(text).unwrap().is_empty());
        assert!(check_rare(text).unwrap().is_empty());
    }
}

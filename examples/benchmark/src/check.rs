//! Output checks: a sweep's result stores against `reference.json`.
//!
//! The reference holds, per workload and size, the estimates the
//! benchmark itself wrote at the default seed. Exact workloads must
//! reproduce every measure to 1e-9 relative; simulation workloads must
//! put every unavailability/unreliability estimate in [0, 1], on the
//! configured replication count, and within 5 combined standard errors
//! of the reference — so other seeds pass but a broken estimator fails.

use crate::workload::{bench_dir, Workload};
use itua_core::measures::names;
use itua_runner::json::Json;
use std::path::Path;

/// One result-store file of a finished sweep.
pub struct Store {
    /// File name (`figure3.json`, `exact-build-analytic.json`, ...).
    pub file: String,
    /// The file's bytes.
    pub text: String,
    /// Its `points` array.
    pub points: Json,
}

/// Reads every store a sweep wrote into `dir`, by file name.
///
/// # Errors
///
/// Unreadable or malformed store files.
pub fn read_stores(dir: &Path) -> Result<Vec<Store>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut stores = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let points = Json::parse(&text)
            .ok()
            .and_then(|doc| doc.get("points").cloned())
            .ok_or_else(|| format!("{}: not a result store", path.display()))?;
        let file = path
            .file_name()
            .and_then(|f| f.to_str())
            .unwrap_or_default()
            .to_owned();
        stores.push(Store { file, text, points });
    }
    stores.sort_by(|a, b| a.file.cmp(&b.file));
    Ok(stores)
}

/// Measures the simulation checks gate.
const GATED: [&str; 2] = [names::UNAVAILABILITY, names::UNRELIABILITY];

/// Standard-normal quantile of the stores' 95% half-widths.
const Z95: f64 = 1.96;

/// `(name, mean, half_width, n)` of every estimate of one store point.
fn estimates(point: &Json) -> Vec<(String, f64, f64, u64)> {
    point
        .get("estimates")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|e| {
            Some((
                e.get("name")?.as_str()?.to_owned(),
                e.get("mean")?.as_f64()?,
                e.get("half_width")?.as_f64()?,
                e.get("n")?.as_u64()?,
            ))
        })
        .collect()
}

/// The reference entry of one store: point key → the estimates the
/// checks use, as `{"name": [mean, half_width, n]}`.
pub fn reference_entry(w: &Workload, store: &Store) -> Json {
    let points = store.points.as_arr().unwrap_or_default();
    Json::Obj(
        points
            .iter()
            .filter_map(|p| {
                let kept = estimates(p)
                    .into_iter()
                    .filter(|(name, ..)| !w.simulates() || GATED.contains(&name.as_str()))
                    .map(|(name, mean, hw, n)| {
                        (
                            name,
                            Json::Arr(vec![Json::Num(mean), Json::Num(hw), Json::Num(n as f64)]),
                        )
                    })
                    .collect();
                Some((p.get("key")?.as_str()?.to_owned(), Json::Obj(kept)))
            })
            .collect(),
    )
}

/// Loads `reference.json`.
///
/// # Errors
///
/// A missing or malformed file.
pub fn load_reference() -> Result<Json, String> {
    let path = bench_dir().join("reference.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Checks one sweep's stores and returns how many points passed, with a
/// message for each point that did not.
pub fn check_sweep(
    w: &Workload,
    smoke: bool,
    stores: &[Store],
    reference: &Json,
) -> (usize, Vec<String>) {
    let Some(expected) = reference.get(&w.reference_key(smoke)) else {
        return (
            0,
            vec![format!(
                "reference.json has no entry '{}'",
                w.reference_key(smoke)
            )],
        );
    };
    let mut passed = 0;
    let mut problems = Vec::new();
    for store in stores {
        let Some(ref_points) = expected.get(&store.file) else {
            problems.push(format!("{}: no reference for this store", store.file));
            continue;
        };
        for point in store.points.as_arr().unwrap_or_default() {
            let key = point.get("key").and_then(Json::as_str).unwrap_or_default();
            let verdict = match ref_points.get(key) {
                Some(reference) => check_point(w, smoke, &estimates(point), reference),
                None => Err("no reference point".to_owned()),
            };
            match verdict {
                Ok(()) => passed += 1,
                Err(e) => problems.push(format!("{} [{key}]: {e}", store.file)),
            }
        }
    }
    (passed, problems)
}

fn check_point(
    w: &Workload,
    smoke: bool,
    got: &[(String, f64, f64, u64)],
    reference: &Json,
) -> Result<(), String> {
    let Json::Obj(ref_estimates) = reference else {
        return Err("malformed reference".to_owned());
    };
    if !w.simulates() && got.len() != ref_estimates.len() {
        return Err(format!(
            "{} measures, reference has {}",
            got.len(),
            ref_estimates.len()
        ));
    }
    for (name, r) in ref_estimates {
        let r: Vec<f64> = r
            .as_arr()
            .unwrap_or_default()
            .iter()
            .filter_map(Json::as_f64)
            .collect();
        let [r_mean, r_hw, _] = r[..] else {
            return Err(format!("{name}: malformed reference"));
        };
        let Some(&(_, mean, hw, n)) = got.iter().find(|(g, ..)| g == name) else {
            return Err(format!("{name}: missing"));
        };
        if w.simulates() {
            let reps = u64::from(w.reps(smoke).unwrap_or_default());
            let tolerance = 5.0 * ((hw / Z95).powi(2) + (r_hw / Z95).powi(2)).sqrt();
            if n != reps {
                return Err(format!("{name}: {n} observations, expected {reps}"));
            }
            if !(0.0..=1.0).contains(&mean) || (mean - r_mean).abs() > tolerance {
                return Err(format!(
                    "{name} = {mean} ± {hw}, reference {r_mean} ± {r_hw} (tolerance {tolerance})"
                ));
            }
        } else if (mean - r_mean).abs() > 1e-9 * r_mean.abs().max(1e-12) {
            return Err(format!("{name} = {mean}, reference {r_mean}"));
        }
    }
    Ok(())
}

/// Mean relative CI half-width (`half_width / |mean|`) over the gated
/// estimates with a nonzero mean; 0 when there are none (exact backend).
pub fn ci_rel_hw(stores: &[Store]) -> f64 {
    let ratios: Vec<f64> = stores
        .iter()
        .flat_map(|s| {
            s.points
                .as_arr()
                .unwrap_or_default()
                .iter()
                .flat_map(estimates)
        })
        .filter(|(name, mean, ..)| GATED.contains(&name.as_str()) && *mean != 0.0)
        .map(|(_, mean, hw, _)| hw / mean.abs())
        .collect();
    if ratios.is_empty() {
        0.0
    } else {
        ratios.iter().sum::<f64>() / ratios.len() as f64
    }
}

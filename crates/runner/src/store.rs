//! Resumable JSON result store.
//!
//! One sweep persists to one file, `<dir>/<sweep_id>.json`, holding the
//! sweep's configuration fingerprint and every completed point. The file
//! is rewritten atomically (temp file + rename) after each point, so an
//! interrupted run loses at most the point in flight and
//! [`ResultStore::completed`] lets the orchestrator restart at the first
//! incomplete point. A fingerprint mismatch (different replication count,
//! seed, point set, …) discards the stale file rather than mixing results
//! from different configurations. A stored point without estimates (an
//! older build wrote those for single-replication runs, which are now
//! rejected) is not complete: the sweep re-runs it, and the new result
//! replaces it in place, so the file keeps the sweep's point order.
//!
//! Format (versioned):
//!
//! ```json
//! {
//!   "format": 1,
//!   "sweep": "figure3",
//!   "fingerprint": "9f3a…",
//!   "points": [
//!     {"key": "0|2 applications|x=1", "x": 1.0, "series": "2 applications",
//!      "estimates": [{"name": "unavailability", "mean": 0.01,
//!                     "half_width": 0.002, "n": 2000,
//!                     "min": 0.0, "max": 0.4}]}
//!   ]
//! }
//! ```

use crate::json::Json;
use itua_stats::replication::Estimate;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One measure's stored estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredEstimate {
    /// Measure name (possibly with an `@t` suffix).
    pub name: String,
    /// Point estimate.
    pub mean: f64,
    /// Confidence half-width.
    pub half_width: f64,
    /// Observations behind the estimate.
    pub n: u64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl From<&Estimate> for StoredEstimate {
    fn from(e: &Estimate) -> Self {
        StoredEstimate {
            name: e.name.clone(),
            mean: e.ci.mean,
            half_width: e.ci.half_width,
            n: e.ci.n,
            min: e.min,
            max: e.max,
        }
    }
}

/// One completed sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredPoint {
    /// Stable identifier of the point within its sweep.
    pub key: String,
    /// X-axis value.
    pub x: f64,
    /// Series label.
    pub series: String,
    /// Every estimate the point produced.
    pub estimates: Vec<StoredEstimate>,
}

impl StoredPoint {
    /// The stored estimate for `measure`, if present.
    pub fn estimate(&self, measure: &str) -> Option<&StoredEstimate> {
        self.estimates.iter().find(|e| e.name == measure)
    }
}

/// An on-disk store of completed sweep points.
#[derive(Debug)]
pub struct ResultStore {
    path: PathBuf,
    /// The document up to the opening `[` of its point list.
    head: String,
    points: Vec<StoredPoint>,
    /// Each point's encoded JSON text, in the slot of its point, so that
    /// recording a point encodes only that point.
    encoded: Vec<String>,
}

const FORMAT: f64 = 1.0;

impl ResultStore {
    /// Opens (or creates) the store for `sweep_id` under `dir`.
    ///
    /// An existing file with the same fingerprint is loaded for resume; a
    /// file with a different fingerprint, or one that does not parse
    /// (truncated, not UTF-8, nested too deep), is discarded and the store
    /// starts empty.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (directory creation, file reads).
    pub fn open(dir: &Path, sweep_id: &str, fingerprint: &str) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{sweep_id}.json"));
        let head = format!(
            "{{\"format\":{},\"sweep\":{},\"fingerprint\":{},\"points\":[",
            Json::Num(FORMAT),
            Json::Str(sweep_id.to_owned()),
            Json::Str(fingerprint.to_owned()),
        );
        let points = match fs::read(&path) {
            Ok(bytes) => std::str::from_utf8(&bytes)
                .ok()
                .and_then(|t| decode(t, sweep_id, fingerprint))
                .unwrap_or_default(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let encoded = points.iter().map(|p| encode(p).to_string()).collect();
        Ok(ResultStore {
            path,
            head,
            points,
            encoded,
        })
    }

    /// The completed point with this key, if any. A stored point without
    /// estimates is not complete.
    pub fn completed(&self, key: &str) -> Option<&StoredPoint> {
        self.complete_points().find(|p| p.key == key)
    }

    /// Number of completed points.
    pub fn len(&self) -> usize {
        self.complete_points().count()
    }

    /// Whether no point has completed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn complete_points(&self) -> impl Iterator<Item = &StoredPoint> {
        self.points.iter().filter(|p| !p.estimates.is_empty())
    }

    /// The file this store persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records a completed point and rewrites the file atomically.
    ///
    /// A point with the same key replaces the previous entry. Only the
    /// new point is encoded; the others keep their stored text.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; the previous file version survives a
    /// failed write (temp file + rename).
    pub fn record(&mut self, point: StoredPoint) -> io::Result<()> {
        let text = encode(&point).to_string();
        match self.points.iter().position(|p| p.key == point.key) {
            Some(i) => {
                self.points[i] = point;
                self.encoded[i] = text;
            }
            None => {
                self.points.push(point);
                self.encoded.push(text);
            }
        }
        let doc = format!("{}{}]}}", self.head, self.encoded.join(","));
        let tmp = self.path.with_extension("json.tmp");
        fs::write(&tmp, doc)?;
        fs::rename(&tmp, &self.path)
    }
}

fn encode(p: &StoredPoint) -> Json {
    let estimates = p.estimates.iter().map(|e| {
        Json::Obj(vec![
            ("name".into(), Json::Str(e.name.clone())),
            ("mean".into(), Json::Num(e.mean)),
            ("half_width".into(), Json::Num(e.half_width)),
            ("n".into(), Json::Num(e.n as f64)),
            ("min".into(), Json::Num(e.min)),
            ("max".into(), Json::Num(e.max)),
        ])
    });
    Json::Obj(vec![
        ("key".into(), Json::Str(p.key.clone())),
        ("x".into(), Json::Num(p.x)),
        ("series".into(), Json::Str(p.series.clone())),
        ("estimates".into(), Json::Arr(estimates.collect())),
    ])
}

fn decode(text: &str, sweep_id: &str, fingerprint: &str) -> Option<Vec<StoredPoint>> {
    let doc = Json::parse(text).ok()?;
    if doc.get("format")?.as_f64()? != FORMAT
        || doc.get("sweep")?.as_str()? != sweep_id
        || doc.get("fingerprint")?.as_str()? != fingerprint
    {
        return None;
    }
    let mut points = Vec::new();
    for p in doc.get("points")?.as_arr()? {
        let mut estimates = Vec::new();
        for e in p.get("estimates")?.as_arr()? {
            estimates.push(StoredEstimate {
                name: e.get("name")?.as_str()?.to_owned(),
                mean: e.get("mean")?.as_f64()?,
                half_width: e.get("half_width")?.as_f64()?,
                n: e.get("n")?.as_u64()?,
                min: e.get("min")?.as_f64()?,
                max: e.get("max")?.as_f64()?,
            });
        }
        points.push(StoredPoint {
            key: p.get("key")?.as_str()?.to_owned(),
            x: p.get("x")?.as_f64()?,
            series: p.get("series")?.as_str()?.to_owned(),
            estimates,
        });
    }
    Some(points)
}

/// Fingerprints a sweep configuration (FNV-1a over the parts, hex).
///
/// Stable across runs and platforms; any changed part (replications,
/// seed, point keys, measure list, …) yields a different fingerprint so
/// stale stores are never resumed.
pub fn fingerprint(parts: &[&str]) -> String {
    fingerprint_iter(parts.iter().copied())
}

/// [`fingerprint`] over any iterator of parts, so callers composing a
/// fingerprint from heterogeneous sources (sweep configuration plus
/// scenario-identity parts — see `itua_studies::sweep::run_sweep`) need
/// not collect into one slice first. Appending
/// zero extra parts yields exactly the same fingerprint as the base
/// sequence: the hash is over the parts actually yielded.
pub fn fingerprint_iter<'a, I: IntoIterator<Item = &'a str>>(parts: I) -> String {
    let mut hash = 0xcbf29ce484222325u64;
    for part in parts {
        for b in part.bytes() {
            hash = (hash ^ b as u64).wrapping_mul(0x100000001b3);
        }
        // Separator so ["ab", "c"] != ["a", "bc"].
        hash = (hash ^ 0x1f).wrapping_mul(0x100000001b3);
    }
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(key: &str, x: f64) -> StoredPoint {
        StoredPoint {
            key: key.to_owned(),
            x,
            series: "s".to_owned(),
            estimates: vec![StoredEstimate {
                name: "unavailability".to_owned(),
                mean: 0.125,
                half_width: 0.01,
                n: 2000,
                min: 0.0,
                max: 1.0,
            }],
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("itua-runner-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn record_and_resume() {
        let dir = tmp_dir("resume");
        let mut store = ResultStore::open(&dir, "fig", "fp1").unwrap();
        assert!(store.is_empty());
        store.record(point("a", 1.0)).unwrap();
        store.record(point("b", 2.0)).unwrap();
        drop(store);

        let store = ResultStore::open(&dir, "fig", "fp1").unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.completed("a").unwrap().x, 1.0);
        assert_eq!(store.completed("b").unwrap().estimates[0].n, 2000);
        assert!(store.completed("c").is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_holds_every_point_in_record_order() {
        let dir = tmp_dir("bytes");
        let mut store = ResultStore::open(&dir, "fig", "fp").unwrap();
        store.record(point("a", 1.0)).unwrap();
        store.record(point("b\"", 2.0)).unwrap();
        store.record(point("a", 5.0)).unwrap();
        drop(store);
        let mut store = ResultStore::open(&dir, "fig", "fp").unwrap();
        store.record(point("c", 3.0)).unwrap();
        let estimates = r#""estimates":[{"name":"unavailability","mean":0.125,"half_width":0.01,"n":2000.0,"min":0.0,"max":1.0}]"#;
        let expected = format!(
            r#"{{"format":1.0,"sweep":"fig","fingerprint":"fp","points":[{{"key":"a","x":5.0,"series":"s",{estimates}}},{{"key":"b\"","x":2.0,"series":"s",{estimates}}},{{"key":"c","x":3.0,"series":"s",{estimates}}}]}}"#
        );
        assert_eq!(fs::read_to_string(store.path()).unwrap(), expected);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_mismatch_discards() {
        let dir = tmp_dir("mismatch");
        let mut store = ResultStore::open(&dir, "fig", "fp1").unwrap();
        store.record(point("a", 1.0)).unwrap();
        drop(store);

        let store = ResultStore::open(&dir, "fig", "fp2").unwrap();
        assert!(store.is_empty(), "stale results must not be resumed");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rerecording_a_key_replaces() {
        let dir = tmp_dir("replace");
        let mut store = ResultStore::open(&dir, "fig", "fp").unwrap();
        store.record(point("a", 1.0)).unwrap();
        store.record(point("a", 5.0)).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.completed("a").unwrap().x, 5.0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_file_starts_empty() {
        let dir = tmp_dir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("fig.json"), "{ not json").unwrap();
        let store = ResultStore::open(&dir, "fig", "fp").unwrap();
        assert!(store.is_empty());
        // Invalid UTF-8 (a file cut inside a multi-byte character) too.
        fs::write(dir.join("fig.json"), b"{\"sweep\":\"\xc2").unwrap();
        let store = ResultStore::open(&dir, "fig", "fp").unwrap();
        assert!(store.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn estimates_round_trip_exactly() {
        let dir = tmp_dir("exact");
        let mut p = point("a", 0.1);
        p.estimates[0].mean = 1.0 / 3.0;
        p.estimates[0].half_width = 2f64.powi(-45);
        let mut store = ResultStore::open(&dir, "fig", "fp").unwrap();
        store.record(p.clone()).unwrap();
        drop(store);
        let store = ResultStore::open(&dir, "fig", "fp").unwrap();
        assert_eq!(store.completed("a").unwrap(), &p);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        assert_eq!(fingerprint(&["a", "b"]), fingerprint(&["a", "b"]));
        assert_ne!(fingerprint(&["a", "b"]), fingerprint(&["ab"]));
        assert_ne!(fingerprint(&["a"]), fingerprint(&["b"]));
        assert_eq!(fingerprint(&[]).len(), 16);
    }

    #[test]
    fn fingerprint_iter_matches_slice_form() {
        let owned: Vec<String> = vec!["a".into(), "b".into()];
        assert_eq!(
            fingerprint_iter(owned.iter().map(String::as_str)),
            fingerprint(&["a", "b"])
        );
        // Appending no extra parts is the identity on the fingerprint.
        let extra: Vec<String> = Vec::new();
        assert_eq!(
            fingerprint_iter(
                ["a", "b"]
                    .into_iter()
                    .chain(extra.iter().map(String::as_str))
            ),
            fingerprint(&["a", "b"])
        );
        // A non-empty extra part changes it.
        assert_ne!(
            fingerprint_iter(["a", "b", "scn=123"].into_iter()),
            fingerprint(&["a", "b"])
        );
    }
}

//! The determinism lint: a text-level scan of the result-affecting
//! crates for patterns that historically break bit-identical
//! reproducibility.
//!
//! The workspace's contract is that every estimate is a pure function of
//! `(params, seed)` — identical across thread counts, process runs, and
//! machines. Four patterns routinely violate that contract:
//!
//! * **hash-container** — `HashMap`/`HashSet` iteration order is
//!   randomly seeded per process; any iteration that feeds estimates,
//!   output files, or state numbering scrambles results run-to-run.
//! * **wall-clock** — `Instant`/`SystemTime` reads must never influence
//!   simulated time, seeds, or estimates.
//! * **unordered-reduction** — `f64` addition is not associative; a
//!   `.sum()`/`.fold()` over an unordered iterator (hash-map values,
//!   parallel iterators) depends on visit order.
//! * **float-truncation** — rounding/truncating `as` casts on float
//!   paths (`.round() as i32`, `as f32`) silently change measures.
//!
//! A fifth rule, **unsafe-block**, is orthogonal to determinism: the
//! workspace is unsafe-free by policy, and the rule locks that in over
//! *every* crate (including the CLI layer and the vendored shims, which
//! are exempt from the determinism rules).
//!
//! The lint is deliberately *text-level* (no syn, no rustc plumbing —
//! the build environment is offline): it strips comments and string
//! literals, skips `#[cfg(test)]` items, and flags token patterns per
//! line. False positives are expected and handled by the allowlist file
//! [`ALLOWLIST_FILE`] at the workspace root: one `rule path #
//! justification` line per audited (rule, file) pair. An entry that no
//! longer matches any finding is *stale* and fails the lint, so the
//! allowlist can only shrink with the code.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Allowlist file name, resolved against the workspace root.
pub const ALLOWLIST_FILE: &str = "determinism.allow";

/// Source directories scanned by the lint: every crate whose code can
/// influence reported results (simulation, statistics, model, runner,
/// solver, studies, analyzer). The CLI/bench layer and the vendored
/// proptest shim are exempt from the determinism rules but
/// still covered by the `unsafe-block` rule via [`UNSAFE_ONLY_DIRS`].
pub const SCAN_DIRS: &[&str] = &[
    "crates/sim/src",
    "crates/stats/src",
    "crates/san/src",
    "crates/core/src",
    "crates/runner/src",
    "crates/markov/src",
    "crates/studies/src",
    "crates/analyzer/src",
    "crates/rare/src",
    "crates/scenario/src",
];

/// Directories exempt from the determinism rules (CLI layer, build
/// tooling, vendored test shims) but still scanned by the
/// `unsafe-block` rule: the workspace is unsafe-free by policy, with no
/// exemptions.
pub const UNSAFE_ONLY_DIRS: &[&str] = &[
    "crates/bench/src",
    "crates/xtask/src",
    "crates/proptest/src",
];

/// One flagged line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`hash-container`, `wall-clock`, …).
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

/// Result of a lint run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Findings not covered by the allowlist — these fail the lint.
    pub violations: Vec<Finding>,
    /// Findings suppressed by an allowlist entry.
    pub allowed: Vec<Finding>,
    /// Allowlist entries that matched no finding — these also fail.
    pub stale: Vec<String>,
}

impl Outcome {
    /// Whether the tree passes: no violations and no stale entries.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.stale.is_empty()
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for f in &self.violations {
            let _ = writeln!(
                s,
                "error[{}]: {}:{}: {}\n  {}",
                f.rule,
                f.path,
                f.line,
                rule_message(f.rule),
                f.excerpt
            );
        }
        for entry in &self.stale {
            let _ = writeln!(
                s,
                "error[stale-allow]: allowlist entry '{entry}' matches no finding; remove it"
            );
        }
        let _ = writeln!(
            s,
            "determinism lint: {} violation(s), {} allowed finding(s), {} stale entr(ies)",
            self.violations.len(),
            self.allowed.len(),
            self.stale.len()
        );
        s
    }
}

fn rule_message(rule: &str) -> &'static str {
    match rule {
        "hash-container" => {
            "HashMap/HashSet in result-affecting code: iteration order is randomly \
             seeded per process. Use BTreeMap/BTreeSet or insertion-order indexing, \
             or allowlist the audited membership-only use"
        }
        "wall-clock" => {
            "Instant/SystemTime in result-affecting code: wall-clock reads must \
             never influence simulated time, seeds, or estimates"
        }
        "unordered-reduction" => {
            "floating-point reduction over an unordered iterator: f64 addition is \
             not associative, so the result depends on visit order"
        }
        "float-truncation" => {
            "value-changing float cast: rounding/truncating casts silently change \
             measures; audit the site and allowlist it"
        }
        "unsafe-block" => {
            "`unsafe` in the workspace: the entire tree is unsafe-free by policy \
             (no FFI, no hand-rolled concurrency primitives); rewrite in safe Rust"
        }
        _ => "unknown rule",
    }
}

/// A rule: stable id plus the per-line predicate on stripped source.
type Rule = (&'static str, fn(&str) -> bool);

const RULES: &[Rule] = &[
    ("hash-container", flags_hash_container),
    ("wall-clock", flags_wall_clock),
    ("unordered-reduction", flags_unordered_reduction),
    ("float-truncation", flags_float_truncation),
    ("unsafe-block", flags_unsafe_block),
];

/// The subset of [`RULES`] applied in [`UNSAFE_ONLY_DIRS`].
const UNSAFE_ONLY_RULES: &[Rule] = &[("unsafe-block", flags_unsafe_block)];

fn flags_hash_container(line: &str) -> bool {
    has_word(line, "HashMap") || has_word(line, "HashSet")
}

fn flags_wall_clock(line: &str) -> bool {
    has_word(line, "Instant") || has_word(line, "SystemTime")
}

fn flags_unordered_reduction(line: &str) -> bool {
    if line.contains("par_iter") {
        return true;
    }
    let unordered = line.contains(".values()") || line.contains(".keys()");
    let reduces = line.contains(".sum(") || line.contains(".fold(") || line.contains(".product(");
    unordered && reduces
}

fn flags_unsafe_block(line: &str) -> bool {
    // Word-delimited, so `unsafe_code` (as in `#![forbid(unsafe_code)]`)
    // does not match; `unsafe {`, `unsafe fn`, `unsafe impl` all do.
    has_word(line, "unsafe")
}

fn flags_float_truncation(line: &str) -> bool {
    if has_word(line, "f32") && line.contains(" as f32") {
        return true;
    }
    let rounds = [".round(", ".floor(", ".ceil(", ".trunc("]
        .iter()
        .any(|p| line.contains(p));
    let casts_integral = line.contains(" as i") || line.contains(" as u");
    rounds && casts_integral
}

/// Whether `line` contains `word` delimited by non-identifier characters
/// (so `Instant` does not match `Instantaneous`).
fn has_word(line: &str, word: &str) -> bool {
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(pos) = line[start..].find(word) {
        let i = start + pos;
        let before_ok = i == 0 || !is_ident_byte(bytes[i - 1]);
        let j = i + word.len();
        let after_ok = j >= bytes.len() || !is_ident_byte(bytes[j]);
        if before_ok && after_ok {
            return true;
        }
        start = i + 1;
    }
    false
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Replaces comments and string/char-literal contents with spaces,
/// preserving every newline so line numbers survive.
fn strip_code(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = bytes.to_vec();
    let mut i = 0;
    // Blanks out[from..to], keeping newlines.
    let blank = |out: &mut [u8], from: usize, to: usize| {
        for b in &mut out[from..to] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    };
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let end = src[i..].find('\n').map_or(bytes.len(), |p| i + p);
                blank(&mut out, i, end);
                i = end;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                let mut depth = 1usize;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                blank(&mut out, start, i);
            }
            b'"' => {
                let start = i;
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                blank(&mut out, start, i.min(bytes.len()));
            }
            b'r' | b'b' if !prev_is_ident(bytes, i) && raw_string_hashes(bytes, i).is_some() => {
                let (open_len, hashes) = raw_string_hashes(bytes, i).expect("checked by guard");
                let start = i;
                i += open_len;
                let closer: Vec<u8> = std::iter::once(b'"')
                    .chain(std::iter::repeat_n(b'#', hashes))
                    .collect();
                while i < bytes.len() && !bytes[i..].starts_with(&closer) {
                    i += 1;
                }
                i = (i + closer.len()).min(bytes.len());
                blank(&mut out, start, i);
            }
            b'\'' => {
                // Char literal (`'x'`, `'\n'`, `'"'`) vs lifetime (`'a`).
                if bytes.get(i + 1) == Some(&b'\\') {
                    let start = i;
                    i += 2;
                    while i < bytes.len() && bytes[i] != b'\'' {
                        i += 1;
                    }
                    i = (i + 1).min(bytes.len());
                    blank(&mut out, start, i);
                } else if bytes.get(i + 2) == Some(&b'\'') {
                    blank(&mut out, i, i + 3);
                    i += 3;
                } else {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    String::from_utf8(out).expect("blanking is ASCII-preserving")
}

fn prev_is_ident(bytes: &[u8], i: usize) -> bool {
    i > 0 && is_ident_byte(bytes[i - 1])
}

/// If `bytes[i..]` opens a raw (byte) string, returns
/// `(opener length, hash count)`.
fn raw_string_hashes(bytes: &[u8], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    if bytes.get(j) == Some(&b'b') {
        j += 1;
    }
    if bytes.get(j) != Some(&b'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if bytes.get(j) == Some(&b'"') {
        Some((j + 1 - i, hashes))
    } else {
        None
    }
}

/// Per-line "is test code" flags: every line of an item annotated
/// `#[cfg(test)]` (attribute line through the item's closing brace or
/// terminating semicolon). Operates on stripped source so the marker in
/// a comment or string does not confuse it.
fn test_line_mask(stripped: &str) -> Vec<bool> {
    let line_of = |offset: usize| stripped[..offset].matches('\n').count();
    let num_lines = stripped.lines().count();
    let mut mask = vec![false; num_lines.max(1)];
    let bytes = stripped.as_bytes();
    let mut search = 0;
    while let Some(pos) = stripped[search..].find("#[cfg(test)]") {
        let attr_at = search + pos;
        let mut i = attr_at + "#[cfg(test)]".len();
        // Find the item's extent: first `{` (then brace-match) or a `;`
        // before any brace (e.g. `#[cfg(test)] use foo;`).
        let mut end = bytes.len();
        while i < bytes.len() {
            match bytes[i] {
                b';' => {
                    end = i + 1;
                    break;
                }
                b'{' => {
                    let mut depth = 1usize;
                    i += 1;
                    while i < bytes.len() && depth > 0 {
                        match bytes[i] {
                            b'{' => depth += 1,
                            b'}' => depth -= 1,
                            _ => {}
                        }
                        i += 1;
                    }
                    end = i;
                    break;
                }
                _ => i += 1,
            }
        }
        let first = line_of(attr_at);
        let last = line_of(end.saturating_sub(1).min(bytes.len().saturating_sub(1)));
        for flag in mask.iter_mut().take(last + 1).skip(first) {
            *flag = true;
        }
        search = end.max(attr_at + 1);
    }
    mask
}

/// One parsed allowlist entry.
#[derive(Debug)]
struct AllowEntry {
    rule: String,
    path: String,
    raw: String,
    used: bool,
}

fn parse_allowlist(path: &Path) -> Result<Vec<AllowEntry>, String> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("reading {}: {e}", path.display())),
    };
    let mut entries = Vec::new();
    for (lineno, raw_line) in text.lines().enumerate() {
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (spec, justification) = match line.split_once('#') {
            Some((s, j)) => (s.trim(), j.trim()),
            None => (line, ""),
        };
        if justification.is_empty() {
            return Err(format!(
                "{}:{}: allowlist entry '{line}' has no '# justification' — every \
                 suppression must record why the site is sound",
                path.display(),
                lineno + 1
            ));
        }
        let mut parts = spec.split_whitespace();
        let (Some(rule), Some(entry_path), None) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(format!(
                "{}:{}: allowlist entry '{line}' is not 'rule path # justification'",
                path.display(),
                lineno + 1
            ));
        };
        entries.push(AllowEntry {
            rule: rule.to_owned(),
            path: entry_path.to_owned(),
            raw: spec.to_owned(),
            used: false,
        });
    }
    Ok(entries)
}

fn rs_files_under(dir: &Path) -> Vec<std::path::PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                files.push(p);
            }
        }
    }
    files.sort();
    files
}

/// Scans one file's source text; `rel_path` is used in findings.
fn scan_source(rel_path: &str, src: &str, rules: &[Rule]) -> Vec<Finding> {
    let stripped = strip_code(src);
    let mask = test_line_mask(&stripped);
    let mut findings = Vec::new();
    for (idx, (line, original)) in stripped.lines().zip(src.lines()).enumerate() {
        if mask.get(idx).copied().unwrap_or(false) {
            continue;
        }
        for (rule, check) in rules {
            if check(line) {
                findings.push(Finding {
                    rule,
                    path: rel_path.to_owned(),
                    line: idx + 1,
                    excerpt: original.trim().to_owned(),
                });
            }
        }
    }
    findings
}

/// Runs the lint over `root` (a workspace checkout) against the
/// allowlist at `allow_path`. Pure with respect to process state: no
/// environment reads, deterministic file order.
pub fn run(root: &Path, allow_path: &Path) -> Result<Outcome, String> {
    let mut allow = parse_allowlist(allow_path)?;
    let mut outcome = Outcome::default();
    let scans = SCAN_DIRS
        .iter()
        .map(|d| (*d, RULES))
        .chain(UNSAFE_ONLY_DIRS.iter().map(|d| (*d, UNSAFE_ONLY_RULES)));
    for (dir, rules) in scans {
        for file in rs_files_under(&root.join(dir)) {
            let rel = file
                .strip_prefix(root)
                .map_err(|_| format!("{} escapes the root", file.display()))?
                .to_string_lossy()
                .replace('\\', "/");
            let src = fs::read_to_string(&file)
                .map_err(|e| format!("reading {}: {e}", file.display()))?;
            for finding in scan_source(&rel, &src, rules) {
                let entry = allow
                    .iter_mut()
                    .find(|a| a.rule == finding.rule && a.path == finding.path);
                if let Some(entry) = entry {
                    entry.used = true;
                    outcome.allowed.push(finding);
                } else {
                    outcome.violations.push(finding);
                }
            }
        }
    }
    outcome.stale = allow
        .iter()
        .filter(|a| !a.used)
        .map(|a| a.raw.clone())
        .collect();
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// Builds a throwaway workspace tree under the system temp dir.
    struct Fixture {
        root: PathBuf,
    }

    impl Fixture {
        fn new(name: &str) -> Self {
            let root =
                std::env::temp_dir().join(format!("xtask-lint-{}-{name}", std::process::id()));
            let _ = fs::remove_dir_all(&root);
            fs::create_dir_all(&root).unwrap();
            Fixture { root }
        }

        fn write(&self, rel: &str, content: &str) {
            let p = self.root.join(rel);
            fs::create_dir_all(p.parent().unwrap()).unwrap();
            fs::write(p, content).unwrap();
        }

        fn lint(&self) -> Outcome {
            run(&self.root, &self.root.join(ALLOWLIST_FILE)).unwrap()
        }
    }

    impl Drop for Fixture {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.root);
        }
    }

    #[test]
    fn flags_hash_map_iteration_feeding_results() {
        let fx = Fixture::new("hash-violation");
        fx.write(
            "crates/sim/src/bad.rs",
            "use std::collections::HashMap;\n\
             fn emit(map: &HashMap<String, f64>, out: &mut Vec<f64>) {\n\
             \x20   for (_k, v) in map.iter() {\n\
             \x20       out.push(*v);\n\
             \x20   }\n\
             }\n",
        );
        let outcome = fx.lint();
        assert!(!outcome.is_clean());
        let rules: Vec<_> = outcome.violations.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"hash-container"), "got {rules:?}");
        assert_eq!(outcome.violations[0].path, "crates/sim/src/bad.rs");
        assert_eq!(outcome.violations[0].line, 1);
    }

    #[test]
    fn allowlist_suppresses_and_stale_entries_fail() {
        let fx = Fixture::new("allow");
        fx.write(
            "crates/sim/src/ok.rs",
            "use std::collections::HashSet;\nstruct S { seen: HashSet<u64> }\n",
        );
        fx.write(
            ALLOWLIST_FILE,
            "# audited suppressions\n\
             hash-container crates/sim/src/ok.rs # membership-only set\n",
        );
        let outcome = fx.lint();
        assert!(outcome.is_clean(), "{}", outcome.render());
        assert_eq!(outcome.allowed.len(), 2);

        fx.write(
            ALLOWLIST_FILE,
            "hash-container crates/sim/src/ok.rs # membership-only set\n\
             wall-clock crates/sim/src/gone.rs # file was deleted\n",
        );
        let outcome = fx.lint();
        assert!(!outcome.is_clean());
        assert_eq!(outcome.stale, vec!["wall-clock crates/sim/src/gone.rs"]);
    }

    #[test]
    fn entries_without_justification_are_rejected() {
        let fx = Fixture::new("nojust");
        fx.write(ALLOWLIST_FILE, "hash-container crates/sim/src/x.rs\n");
        let err = run(&fx.root, &fx.root.join(ALLOWLIST_FILE)).unwrap_err();
        assert!(err.contains("justification"), "{err}");
    }

    #[test]
    fn comments_strings_and_test_modules_are_not_flagged() {
        let fx = Fixture::new("stripping");
        fx.write(
            "crates/stats/src/clean.rs",
            "// a HashMap in a comment is fine\n\
             /* so is an Instant in a block comment */\n\
             const MSG: &str = \"HashSet in a string\";\n\
             const RAW: &str = r#\"SystemTime in a raw string\"#;\n\
             #[cfg(test)]\n\
             mod tests {\n\
             \x20   use std::collections::HashMap;\n\
             \x20   fn t() { let _m: HashMap<u8, u8> = HashMap::new(); }\n\
             }\n",
        );
        let outcome = fx.lint();
        assert!(outcome.is_clean(), "{}", outcome.render());
        assert!(outcome.allowed.is_empty());
    }

    #[test]
    fn wall_clock_and_reduction_and_cast_rules_fire() {
        let fx = Fixture::new("rules");
        fx.write(
            "crates/runner/src/bad.rs",
            "use std::time::Instant;\n\
             fn total(m: &std::collections::BTreeMap<u32, f64>) -> f64 {\n\
             \x20   m.values().sum()\n\
             }\n\
             fn frac(x: f64) -> u32 { x.round() as u32 }\n\
             fn sum2(m: &std::collections::BTreeMap<u32, f64>) -> f64 {\n\
             \x20   m.values().copied().sum::<f64>()\n\
             }\n",
        );
        let outcome = fx.lint();
        let mut rules: Vec<_> = outcome.violations.iter().map(|f| f.rule).collect();
        rules.sort_unstable();
        rules.dedup();
        assert_eq!(
            rules,
            vec!["float-truncation", "unordered-reduction", "wall-clock"]
        );
    }

    #[test]
    fn unsafe_blocks_are_flagged_everywhere_but_attributes_are_not() {
        let fx = Fixture::new("unsafe");
        // In a determinism-scanned crate…
        fx.write(
            "crates/sim/src/raw.rs",
            "pub fn peek(p: *const u8) -> u8 {\n\
             \x20   unsafe { *p }\n\
             }\n",
        );
        // …and in a crate exempt from the determinism rules.
        fx.write("crates/bench/src/ffi.rs", "pub unsafe fn poke() {}\n");
        // The lint attribute itself must not trip the rule.
        fx.write(
            "crates/stats/src/clean.rs",
            "#![forbid(unsafe_code)]\npub fn safe() {}\n",
        );
        let outcome = fx.lint();
        let flagged: Vec<_> = outcome
            .violations
            .iter()
            .map(|f| (f.rule, f.path.as_str()))
            .collect();
        assert_eq!(
            flagged,
            vec![
                ("unsafe-block", "crates/sim/src/raw.rs"),
                ("unsafe-block", "crates/bench/src/ffi.rs"),
            ]
        );
    }

    #[test]
    fn determinism_rules_do_not_apply_in_unsafe_only_dirs() {
        let fx = Fixture::new("exempt");
        // The CLI layer may use wall clocks and hash maps freely…
        fx.write(
            "crates/bench/src/timing.rs",
            "use std::time::Instant;\nuse std::collections::HashMap;\n",
        );
        let outcome = fx.lint();
        assert!(outcome.is_clean(), "{}", outcome.render());
    }

    #[test]
    fn instantaneous_does_not_match_instant() {
        let fx = Fixture::new("word-boundary");
        fx.write(
            "crates/san/src/ok.rs",
            "pub struct InstantaneousActivity;\npub fn instant_ok() {}\n",
        );
        let outcome = fx.lint();
        assert!(outcome.is_clean(), "{}", outcome.render());
    }

    #[test]
    fn the_real_tree_passes_with_its_allowlist() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap();
        let outcome = run(root, &root.join(ALLOWLIST_FILE)).unwrap();
        assert!(outcome.is_clean(), "{}", outcome.render());
        // The audited sites exist: the allowlist is doing real work.
        assert!(
            !outcome.allowed.is_empty(),
            "expected at least one allowlisted finding in the workspace"
        );
    }
}

//! Source-level determinism and panic-hazard lint.
//!
//! A lightweight line scanner over the workspace's own `.rs` files — not
//! a parser. It tracks `#[cfg(test)]` modules by brace depth so findings
//! only fire in shipped code, and consults an allowlist (`audit.allow`)
//! for sites that are justified with a reason string.
//!
//! Rules (scopes follow the scheduler/exec layers the determinism
//! guarantees actually cover):
//!
//! | rule      | flags                                             | scope |
//! |-----------|---------------------------------------------------|-------|
//! | `DET01`   | `HashMap`/`HashSet` in code (iteration order)     | core, exec, cluster |
//! | `DET02`   | `partial_cmp(..).unwrap()/expect()` (NaN panic + asymmetry) | whole workspace |
//! | `DET03`   | `HashMap::new()`/`HashSet::new()` (seeded `RandomState`) | sql kernels |
//! | `PANIC01` | `.unwrap()` outside tests/bins                    | core, exec, cluster, timemodel |
//! | `PANIC02` | `.expect(..)` outside tests/bins                  | core, exec, cluster, timemodel |
//! | `TRUNC01` | float `floor/ceil/round/sqrt` cast to `u32/u64/usize` | core, timemodel |
//! | `SLEEP01` | wall-clock `thread::sleep` in shipped code        | exec, storage |
//! | `FSYNC01` | raw file writes in journal/object-commit paths    | exec journal, storage |

use std::fmt;
use std::path::{Path, PathBuf};

/// A rule the scanner can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintRule {
    /// `HashMap`/`HashSet` in scheduler/exec code: iteration order is
    /// nondeterministic; ordered paths must use `BTreeMap` or sort.
    Det01HashCollection,
    /// `partial_cmp(..).unwrap()`: panics on NaN; use `f64::total_cmp`.
    Det02PartialCmpUnwrap,
    /// `HashMap::new()` / `HashSet::new()` in the SQL kernel paths: the
    /// default `RandomState` is seeded per process, so anything whose
    /// output order (or wire bytes) depends on it breaks the kernels'
    /// bit-identity contract. Kernels must use the crate's deterministic
    /// open-addressing tables (`ditto_sql::hash`) or `BTreeMap`.
    Det03SqlHashConstructor,
    /// `.unwrap()` in non-test, non-bin scheduler/exec code.
    Panic01Unwrap,
    /// `.expect(..)` in non-test, non-bin scheduler/exec code — allowed
    /// only with an allowlist entry explaining the invariant.
    Panic02Expect,
    /// Float rounding function cast straight to an unsigned integer in
    /// time-model math (silent truncation of negative/huge values).
    Trunc01FloatCast,
    /// `thread::sleep` in shipped exec/storage code: every wall-clock
    /// wait must sit behind a bounded attempt cap (an unbounded retry
    /// loop sleeps forever on a permanently lost object). Sanctioned
    /// sites document their cap in `audit.allow`.
    Sleep01UnboundedSleep,
    /// Raw file I/O (`fs::write`, `File::create`, `OpenOptions`,
    /// `.write_all(`) in the write-ahead-journal or object-commit paths.
    /// Durability there must go through the checked `JournalWriter`
    /// (length-prefixed, CRC-framed, torn-tail detectable) or the
    /// checksummed object store — a raw write can leave an undetectable
    /// torn record. Sanctioned sites justify themselves in `audit.allow`.
    Fsync01RawDurableWrite,
}

impl LintRule {
    /// Stable rule code, as used in `audit.allow`.
    pub fn code(&self) -> &'static str {
        match self {
            LintRule::Det01HashCollection => "DET01",
            LintRule::Det02PartialCmpUnwrap => "DET02",
            LintRule::Det03SqlHashConstructor => "DET03",
            LintRule::Panic01Unwrap => "PANIC01",
            LintRule::Panic02Expect => "PANIC02",
            LintRule::Trunc01FloatCast => "TRUNC01",
            LintRule::Sleep01UnboundedSleep => "SLEEP01",
            LintRule::Fsync01RawDurableWrite => "FSYNC01",
        }
    }

    fn all() -> [LintRule; 8] {
        [
            LintRule::Det01HashCollection,
            LintRule::Det02PartialCmpUnwrap,
            LintRule::Det03SqlHashConstructor,
            LintRule::Panic01Unwrap,
            LintRule::Panic02Expect,
            LintRule::Trunc01FloatCast,
            LintRule::Sleep01UnboundedSleep,
            LintRule::Fsync01RawDurableWrite,
        ]
    }

    /// Does this rule apply to the file at `rel` (workspace-relative,
    /// `/`-separated)?
    fn in_scope(&self, rel: &str) -> bool {
        let scheduler_exec = ["crates/core/", "crates/exec/", "crates/cluster/"];
        match self {
            LintRule::Det01HashCollection => scheduler_exec.iter().any(|p| rel.starts_with(p)),
            LintRule::Det02PartialCmpUnwrap => true,
            LintRule::Det03SqlHashConstructor => {
                // Kernel paths only: the lowered query definitions, the
                // retained reference implementations and the data
                // generator are order-insensitive internally and exempt.
                rel.starts_with("crates/sql/")
                    && !rel.starts_with("crates/sql/src/queries/")
                    && !rel.ends_with("/reference.rs")
                    && !rel.ends_with("/datagen.rs")
            }
            LintRule::Panic01Unwrap | LintRule::Panic02Expect => scheduler_exec
                .iter()
                .any(|p| rel.starts_with(p))
                || rel.starts_with("crates/timemodel/"),
            LintRule::Trunc01FloatCast => {
                rel.starts_with("crates/core/") || rel.starts_with("crates/timemodel/")
            }
            LintRule::Sleep01UnboundedSleep => {
                rel.starts_with("crates/exec/") || rel.starts_with("crates/storage/")
            }
            LintRule::Fsync01RawDurableWrite => {
                rel.starts_with("crates/exec/src/journal/") || rel.starts_with("crates/storage/")
            }
        }
    }

    /// Does `line` (with line comments stripped) trip this rule?
    fn fires_on(&self, line: &str) -> bool {
        match self {
            LintRule::Det01HashCollection => {
                line.contains("HashMap") || line.contains("HashSet")
            }
            LintRule::Det02PartialCmpUnwrap => {
                line.contains("partial_cmp")
                    && (line.contains(".unwrap()") || line.contains(".expect("))
            }
            LintRule::Det03SqlHashConstructor => {
                line.contains("HashMap::new(")
                    || line.contains("HashSet::new(")
                    || line.contains("HashMap::with_capacity(")
                    || line.contains("HashSet::with_capacity(")
            }
            LintRule::Panic01Unwrap => line.contains(".unwrap()") && !line.contains("partial_cmp"),
            LintRule::Panic02Expect => line.contains(".expect(") && !line.contains("partial_cmp"),
            LintRule::Trunc01FloatCast => {
                // `) as uN` — a parenthesized (float) expression cast, not
                // an index cast like `StageId(i as u32)`.
                (line.contains(") as u32") || line.contains(") as u64")
                    || line.contains(") as usize"))
                    && [".floor()", ".ceil()", ".round()", ".sqrt()"]
                        .iter()
                        .any(|f| line.contains(f))
            }
            LintRule::Sleep01UnboundedSleep => {
                line.contains("thread::sleep") || line.contains("sleep(Duration")
            }
            LintRule::Fsync01RawDurableWrite => {
                line.contains("fs::write(")
                    || line.contains("File::create(")
                    || line.contains("OpenOptions::new(")
                    || line.contains(".write_all(")
            }
        }
    }

    /// One-line explanation for the report.
    pub fn why(&self) -> &'static str {
        match self {
            LintRule::Det01HashCollection => {
                "HashMap/HashSet iteration order is nondeterministic; use BTreeMap/BTreeSet \
                 or sorted iteration in scheduler/exec paths"
            }
            LintRule::Det02PartialCmpUnwrap => {
                "partial_cmp().unwrap() panics on NaN; use f64::total_cmp"
            }
            LintRule::Det03SqlHashConstructor => {
                "std HashMap/HashSet constructors seed a per-process RandomState; SQL \
                 kernels must stay bit-deterministic — use ditto_sql::hash tables or \
                 BTreeMap/BTreeSet"
            }
            LintRule::Panic01Unwrap => {
                "unwrap() in non-test scheduler/exec code; return a typed error or use a \
                 documented expect with an audit.allow entry"
            }
            LintRule::Panic02Expect => {
                "expect() in non-test scheduler/exec code needs an audit.allow entry stating \
                 the invariant that makes it unreachable"
            }
            LintRule::Trunc01FloatCast => {
                "float->integer `as` cast truncates silently; document the rounding rule in \
                 audit.allow or use a checked conversion"
            }
            LintRule::Sleep01UnboundedSleep => {
                "wall-clock sleep in exec/storage shipped code must sit behind a bounded \
                 attempt cap; state the cap (max_retries / wait ceiling) in audit.allow"
            }
            LintRule::Fsync01RawDurableWrite => {
                "raw file write in a journal/object-commit path; durability must go through \
                 the CRC-framed JournalWriter or the checksummed object store, or justify \
                 the site in audit.allow"
            }
        }
    }
}

/// One lint hit.
#[derive(Debug, Clone)]
pub struct LintFinding {
    /// The rule that fired.
    pub rule: LintRule,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub text: String,
    /// `true` if an `audit.allow` entry covers this site.
    pub allowed: bool,
    /// The allowlist reason, when covered.
    pub reason: Option<String>,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mark = if self.allowed { "allowed" } else { "FINDING" };
        write!(
            f,
            "{mark} {} {}:{}: {}",
            self.rule.code(),
            self.path,
            self.line,
            self.text
        )?;
        if let Some(r) = &self.reason {
            write!(f, "  [{r}]")?;
        }
        Ok(())
    }
}

/// One `audit.allow` entry: `RULE|path-substring|line-substring|reason`.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule code (`DET01`, …) or `*` for any rule.
    pub rule: String,
    /// Substring the workspace-relative path must contain.
    pub path: String,
    /// Substring the source line must contain (empty matches any line).
    pub needle: String,
    /// Why the site is acceptable.
    pub reason: String,
    /// Set by the scanner when the entry matched at least one finding.
    pub used: bool,
}

/// Parsed `audit.allow`.
#[derive(Debug, Clone, Default)]
pub struct Allowlist {
    /// Entries in file order.
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parse the `RULE|path|substring|reason` format. Lines starting with
    /// `#` and blank lines are ignored. Malformed lines are errors — a
    /// typo in the allowlist must not silently allow nothing.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parts: Vec<&str> = line.splitn(4, '|').collect();
            if parts.len() != 4 {
                return Err(format!(
                    "audit.allow:{}: expected RULE|path|substring|reason, got {line:?}",
                    i + 1
                ));
            }
            if parts[3].trim().is_empty() {
                return Err(format!("audit.allow:{}: empty reason", i + 1));
            }
            entries.push(AllowEntry {
                rule: parts[0].trim().to_string(),
                path: parts[1].trim().to_string(),
                needle: parts[2].trim().to_string(),
                reason: parts[3].trim().to_string(),
                used: false,
            });
        }
        Ok(Allowlist { entries })
    }

    fn cover(&mut self, rule: &str, path: &str, text: &str) -> Option<String> {
        for e in &mut self.entries {
            let rule_ok = e.rule == "*" || e.rule == rule;
            if rule_ok && path.contains(&e.path) && (e.needle.is_empty() || text.contains(&e.needle))
            {
                e.used = true;
                return Some(e.reason.clone());
            }
        }
        None
    }

    /// Entries that matched nothing (stale — the site was fixed or moved).
    pub fn stale(&self) -> Vec<&AllowEntry> {
        self.entries.iter().filter(|e| !e.used).collect()
    }
}

/// Scan one file's source text. `rel` is the workspace-relative path used
/// for scoping and allowlist matching.
pub fn lint_source(rel: &str, source: &str, allow: &mut Allowlist) -> Vec<LintFinding> {
    let mut findings = Vec::new();
    let rules: Vec<LintRule> = LintRule::all()
        .into_iter()
        .filter(|r| r.in_scope(rel))
        .collect();
    if rules.is_empty() {
        return findings;
    }

    // `#[cfg(test)]` tracking: when the attribute is seen, the next `{`
    // opens a region we skip until its matching `}`. Good enough for the
    // `#[cfg(test)] mod tests { … }` idiom this workspace uses throughout.
    let mut pending_test_attr = false;
    let mut test_depth: Option<usize> = None; // brace depth at region start
    let mut depth: usize = 0;
    let mut in_block_comment = false;

    for (lineno, raw) in source.lines().enumerate() {
        // Strip comments (line-granular: good enough for this tree).
        let mut text = raw.to_string();
        if in_block_comment {
            match text.find("*/") {
                Some(i) => {
                    in_block_comment = false;
                    text.replace_range(..i + 2, "");
                }
                None => continue,
            }
        }
        if let Some(i) = text.find("/*") {
            if !text[i..].contains("*/") {
                in_block_comment = true;
            }
            text.truncate(i);
        }
        if let Some(i) = text.find("//") {
            text.truncate(i);
        }
        let code = text.trim();

        if code.contains("#[cfg(test)]") {
            pending_test_attr = true;
        }

        let opens = code.matches('{').count();
        let closes = code.matches('}').count();
        let in_test = test_depth.is_some();

        if !in_test && !code.is_empty() {
            for rule in &rules {
                if rule.fires_on(code) {
                    let reason = allow.cover(rule.code(), rel, code);
                    findings.push(LintFinding {
                        rule: *rule,
                        path: rel.to_string(),
                        line: lineno + 1,
                        text: raw.trim().to_string(),
                        allowed: reason.is_some(),
                        reason,
                    });
                }
            }
        }

        if pending_test_attr && opens > 0 {
            test_depth = test_depth.or(Some(depth));
            pending_test_attr = false;
        }
        depth += opens;
        depth = depth.saturating_sub(closes);
        if let Some(d) = test_depth {
            if depth <= d && closes > 0 {
                test_depth = None;
            }
        }
    }
    findings
}

/// Should `rel` be scanned at all? Bins, examples, benches, tests and
/// shims are exempt (panicking and ad-hoc maps are fine there).
pub fn scannable(rel: &str) -> bool {
    rel.ends_with(".rs")
        && !rel.starts_with("shims/")
        && !rel.starts_with("target/")
        && !rel.contains("/bin/")
        && !rel.contains("/tests/")
        && !rel.contains("/examples/")
        && !rel.contains("/benches/")
        && !rel.starts_with("src/bin/")
}

/// Walk the workspace at `root` and lint every in-scope `.rs` file.
/// Returns findings sorted by (path, line). I/O errors on individual
/// files are reported as findings on the file itself rather than
/// aborting the scan.
pub fn lint_workspace(root: &Path, allow: &mut Allowlist) -> std::io::Result<Vec<LintFinding>> {
    let mut files: Vec<PathBuf> = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut findings = Vec::new();
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .replace('\\', "/");
        if !scannable(&rel) {
            continue;
        }
        let source = std::fs::read_to_string(&f)?;
        findings.extend(lint_source(&rel, &source, allow));
    }
    findings.sort_by(|a, b| a.path.cmp(&b.path).then(a.line.cmp(&b.line)));
    Ok(findings)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || (dir == root && name == "shims") {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The lint result as a JSON document with stable field order:
/// `summary` first (counts), then `findings` and `stale` arrays in
/// discovery order. This is what `ditto-lint --json` prints, so CI and
/// editor integrations can consume findings without scraping the
/// human-readable lines.
pub fn lint_to_json(findings: &[LintFinding], allow: &Allowlist) -> String {
    use crate::report::json_escape;
    use std::fmt::Write as _;
    let violations = findings.iter().filter(|f| !f.allowed).count();
    let stale = allow.stale();
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"findings_total\":{},\"violations\":{},\"allowed\":{},\"allow_entries\":{},\"stale_entries\":{},\"findings\":[",
        findings.len(),
        violations,
        findings.len() - violations,
        allow.entries.len(),
        stale.len()
    );
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"text\":\"{}\",\"allowed\":{}",
            f.rule.code(),
            json_escape(&f.path),
            f.line,
            json_escape(&f.text),
            f.allowed
        );
        if let Some(r) = &f.reason {
            let _ = write!(out, ",\"reason\":\"{}\"", json_escape(r));
        }
        out.push('}');
    }
    out.push_str("],\"stale\":[");
    for (i, e) in stale.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"rule\":\"{}\",\"path\":\"{}\",\"needle\":\"{}\",\"reason\":\"{}\"}}",
            json_escape(&e.rule),
            json_escape(&e.path),
            json_escape(&e.needle),
            json_escape(&e.reason)
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel: &str, src: &str) -> Vec<LintFinding> {
        let mut allow = Allowlist::default();
        lint_source(rel, src, &mut allow)
    }

    #[test]
    fn json_output_round_trips_through_serde_json() {
        let src = "fn f(v: &mut Vec<f64>) {\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
        let mut allow = Allowlist::parse(
            "DET02|crates/sql/src/ops/sort.rs|partial_cmp|\"quoted\" reason\nDET01|nowhere|x|stale entry\n",
        )
        .unwrap();
        let findings = lint_source("crates/sql/src/ops/sort.rs", src, &mut allow);
        let json = lint_to_json(&findings, &allow);
        let v: serde_json::Value = serde_json::from_str(&json).expect("lint JSON must parse");
        assert_eq!(v.get("findings_total").and_then(|x| x.as_u64()), Some(1));
        assert_eq!(v.get("violations").and_then(|x| x.as_u64()), Some(0));
        assert_eq!(v.get("allowed").and_then(|x| x.as_u64()), Some(1));
        assert_eq!(v.get("stale_entries").and_then(|x| x.as_u64()), Some(1));
        let f = &v.get("findings").and_then(|x| x.as_array()).unwrap()[0];
        assert_eq!(f.get("rule").and_then(|x| x.as_str()), Some("DET02"));
        assert_eq!(f.get("allowed").and_then(|x| x.as_bool()), Some(true));
        assert_eq!(
            f.get("reason").and_then(|x| x.as_str()),
            Some("\"quoted\" reason"),
            "escaped quotes must survive the round trip"
        );
        let s = &v.get("stale").and_then(|x| x.as_array()).unwrap()[0];
        assert_eq!(s.get("path").and_then(|x| x.as_str()), Some("nowhere"));
        // Stable field order: summary keys lead the document.
        assert!(json.starts_with("{\"findings_total\":"), "{json}");
    }

    #[test]
    fn flags_partial_cmp_unwrap_everywhere() {
        let src = "fn f(v: &mut Vec<f64>) {\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
        let f = run("crates/sql/src/ops/sort.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, LintRule::Det02PartialCmpUnwrap);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn skips_test_modules() {
        let src = "\
fn shipping() { let x: Option<u32> = None; x.unwrap(); }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Some(1).unwrap(); }
}
fn also_shipping() { Some(2).unwrap(); }
";
        let f = run("crates/core/src/x.rs", src);
        let lines: Vec<usize> = f.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![1, 7], "{f:?}");
    }

    #[test]
    fn scope_limits_hash_rule() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(run("crates/core/src/x.rs", src).len(), 1);
        assert_eq!(run("crates/sql/src/x.rs", src).len(), 0);
        assert_eq!(run("crates/dag/src/x.rs", src).len(), 0);
    }

    #[test]
    fn det03_flags_hash_constructors_in_sql_kernels() {
        let src = "let mut m: HashMap<i64, Vec<usize>> = HashMap::new();\n";
        let f = run("crates/sql/src/ops/join.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, LintRule::Det03SqlHashConstructor);
        let set = "let mut seen = HashSet::with_capacity(n);\n";
        assert_eq!(run("crates/sql/src/ops/sort.rs", set).len(), 1);
        // A type annotation or import alone is not a construction site.
        assert!(run("crates/sql/src/table.rs", "use std::collections::HashMap;\n").is_empty());
        // Exempt paths: query definitions, the reference oracle, datagen.
        assert!(run("crates/sql/src/queries/q95.rs", src).is_empty());
        assert!(run("crates/sql/src/reference.rs", src).is_empty());
        assert!(run("crates/sql/src/datagen.rs", src).is_empty());
        // Out of crate: DET01's scope, not DET03's.
        let core = run("crates/core/src/x.rs", src);
        assert!(core.iter().all(|f| f.rule == LintRule::Det01HashCollection));
    }

    #[test]
    fn comments_do_not_fire() {
        let src = "// a HashMap would be wrong here\n/* also .unwrap() */\nlet x = 1;\n";
        assert!(run("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn trunc_rule_needs_float_context() {
        let idx = "let s = StageId(i as u32);\n";
        assert!(run("crates/core/src/x.rs", idx).is_empty());
        let fl = "let d = (f.floor() as u32).max(1);\n";
        let f = run("crates/core/src/x.rs", fl);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, LintRule::Trunc01FloatCast);
    }

    #[test]
    fn sleep_rule_scoped_to_exec_and_storage() {
        let src = "fn wait() {\n    std::thread::sleep(Duration::from_secs_f64(backoff));\n}\n";
        let f = run("crates/storage/src/dataplane.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, LintRule::Sleep01UnboundedSleep);
        assert_eq!(run("crates/exec/src/runner.rs", src).len(), 1);
        // Out of scope: the bench harness may sleep freely.
        assert!(run("crates/bench/src/adapt.rs", src).is_empty());
        // `use std::thread::sleep; sleep(Duration...)` form still fires.
        let bare = "sleep(Duration::from_millis(5));\n";
        assert_eq!(run("crates/exec/src/runner.rs", bare).len(), 1);
    }

    #[test]
    fn fsync_rule_guards_journal_and_storage_paths() {
        let src = "fn persist(&self) {\n    std::fs::write(&self.path, &self.buf).unwrap();\n}\n";
        for journal_file in ["session.rs", "frame.rs"] {
            let f = run(&format!("crates/exec/src/journal/{journal_file}"), src);
            assert!(
                f.iter().any(|f| f.rule == LintRule::Fsync01RawDurableWrite),
                "{journal_file}: {f:?}"
            );
        }
        assert_eq!(
            run("crates/storage/src/object_store.rs", "file.write_all(&frame)?;\n").len(),
            1
        );
        assert_eq!(
            run(
                "crates/storage/src/commit.rs",
                "let f = OpenOptions::new().append(true).open(p)?;\n"
            )
            .len(),
            1
        );
        // Out of scope: the rest of exec, the bench harness, binaries.
        assert!(run("crates/exec/src/runner.rs", "std::fs::write(p, b)?;\n").is_empty());
        assert!(run("crates/bench/src/crash.rs", "std::fs::write(p, b)?;\n").is_empty());
    }

    #[test]
    fn fsync_rule_honors_allowlist_justification() {
        let mut allow = Allowlist::parse(
            "FSYNC01|crates/storage/src/object_store.rs|write_all(&frame)|frame already CRC-framed by JournalWriter::encode; single append\n",
        )
        .unwrap();
        let f = lint_source(
            "crates/storage/src/object_store.rs",
            "file.write_all(&frame)?;\n",
            &mut allow,
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].allowed);
    }

    #[test]
    fn sleep_rule_honors_allowlist_cap_reason() {
        let mut allow = Allowlist::parse(
            "SLEEP01|crates/exec/src/runner.rs|from_secs_f64(backoff)|retry loop exits via max_retries; backoff capped at 5 ms\n",
        )
        .unwrap();
        let src = "std::thread::sleep(Duration::from_secs_f64(backoff));\n";
        let f = lint_source("crates/exec/src/runner.rs", src, &mut allow);
        assert_eq!(f.len(), 1);
        assert!(f[0].allowed);
        assert!(f[0].reason.as_deref().unwrap().contains("max_retries"));
    }

    #[test]
    fn allowlist_covers_and_tracks_staleness() {
        let mut allow = Allowlist::parse(
            "# comment\n\
             PANIC02|crates/core/src/x.rs|inserted above|memo entry written two lines up\n\
             DET01|crates/core/src/gone.rs||file was deleted\n",
        )
        .unwrap();
        let src = "let v = memo.get(k).expect(\"inserted above\");\n";
        let f = lint_source("crates/core/src/x.rs", src, &mut allow);
        assert_eq!(f.len(), 1);
        assert!(f[0].allowed);
        assert_eq!(f[0].reason.as_deref(), Some("memo entry written two lines up"));
        let stale = allow.stale();
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].path, "crates/core/src/gone.rs");
    }

    #[test]
    fn malformed_allowlist_is_an_error() {
        assert!(Allowlist::parse("PANIC02|only|three").is_err());
        assert!(Allowlist::parse("PANIC02|a|b|   ").is_err());
    }

    #[test]
    fn bins_tests_examples_exempt() {
        assert!(scannable("crates/core/src/dop.rs"));
        assert!(!scannable("crates/audit/src/bin/ditto-lint.rs"));
        assert!(!scannable("crates/core/tests/props.rs"));
        assert!(!scannable("shims/rand/src/lib.rs"));
        assert!(!scannable("src/bin/ditto-sched.rs"));
        assert!(scannable("src/jobspec.rs"));
    }
}

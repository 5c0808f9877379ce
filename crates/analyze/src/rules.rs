//! The lint rules: D1 (determinism), P1 (panic-freedom), U1 (unsafe
//! hygiene), F1 (float-reduction order).
//!
//! Rules run over the token stream of each [`SourceFile`]; the engine
//! afterwards matches raw findings against the allowlist. The scoping
//! table (which crates and file kinds each check applies to):
//!
//! | check                         | crates              | kinds       | `#[cfg(test)]` |
//! |-------------------------------|---------------------|-------------|----------------|
//! | D1 unseeded RNG               | all                 | all         | scanned        |
//! | D1 wall-clock (`Instant`, …)  | `[rules.D1].crates` | lib         | skipped        |
//! | D1 hash-order (`HashMap`, …)  | `[rules.D1].crates` | lib         | skipped        |
//! | P1 panic sites                | `[rules.P1].crates` | lib         | skipped        |
//! | U1 undocumented `unsafe`      | all                 | all         | scanned        |
//! | U1 missing `forbid` in lib.rs | all                 | crate-level | —              |
//! | F1 raw threading              | `[rules.F1].crates` | lib         | skipped        |
//!
//! Unseeded RNG and undocumented `unsafe` are scanned even in test
//! code: a clock-seeded test is exactly the kind of flake the 5-seed
//! `G_r` protocol cannot tolerate, and an unsound test block corrupts
//! memory as happily as production code does.

use crate::config::Config;
use crate::lexer::{Tok, TokKind};
use crate::workspace::{FileKind, SourceFile};
use std::collections::BTreeMap;

/// One raw lint finding (allowlist not yet applied).
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (`D1` ... `C1`, see [`crate::docs::RULE_DOCS`]).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// Trimmed source line the finding points at.
    pub snippet: String,
}

/// Identifiers whose presence means unseeded / ambient randomness.
const RNG_IDENTS: &[(&str, &str)] = &[
    ("thread_rng", "clock/OS-seeded generator; derive a seed via tsda_core::rng instead"),
    ("from_entropy", "OS-entropy seeding defeats run-to-run reproducibility"),
    ("try_from_entropy", "OS-entropy seeding defeats run-to-run reproducibility"),
    ("OsRng", "OS randomness is unseedable"),
    ("ThreadRng", "clock/OS-seeded generator type"),
    ("RandomState", "randomized hasher state changes iteration order every process"),
];

/// Identifiers that read the wall clock.
const TIME_IDENTS: &[&str] = &["Instant", "SystemTime"];

/// Hash collections whose iteration order is unspecified.
const HASH_IDENTS: &[(&str, &str)] = &[
    ("HashMap", "BTreeMap"),
    ("HashSet", "BTreeSet"),
];

/// Macros that abort the thread.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// One potential panic: a token and what panics there.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// Token index (into the file's token stream).
    pub tok: usize,
    /// 1-based source line.
    pub line: u32,
    /// What panics: `.unwrap()`, `panic!`, `["key"] indexing`, ...
    pub what: String,
}

/// The panic sites in `toks[range]`: `.unwrap()`/`.expect()` method
/// calls, the `panic!` macro family, and string-keyed indexing (which
/// panics on a missing map entry; `.get("key")` is the fallible
/// spelling). P1 scans whole files with it, R1 each parsed fn body.
pub(crate) fn panic_sites(toks: &[Tok], range: std::ops::Range<usize>) -> Vec<PanicSite> {
    let mut sites = Vec::new();
    for i in range.start..range.end.min(toks.len()) {
        let t = &toks[i];
        let what = if (t.is_ident("unwrap") || t.is_ident("expect"))
            && i >= 1
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            format!(".{}()", t.text)
        } else if PANIC_MACROS.iter().any(|m| t.is_ident(m))
            && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            format!("{}!", t.text)
        } else if t.is_punct('[')
            && toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Str)
            && toks.get(i + 2).is_some_and(|n| n.is_punct(']'))
            && i >= 1
            && (toks[i - 1].kind == TokKind::Ident || toks[i - 1].is_punct(')'))
        {
            format!("[{:?}] indexing", toks[i + 1].text)
        } else {
            continue;
        };
        sites.push(PanicSite { tok: i, line: t.line, what });
    }
    sites
}

/// Run every token-stream rule over `files`, unsorted, with per-rule
/// wall time in milliseconds. (Timing the linter is legal even though
/// D1 bans wall-clock reads in result-producing crates: rule duration
/// is diagnostics, and `analyze` is not in any D1 scope.)
pub fn run_rules_timed(
    files: &[SourceFile],
    cfg: &Config,
) -> (Vec<Finding>, Vec<(String, f64)>) {
    let mut findings = Vec::new();
    let mut timings = Vec::new();

    let t0 = std::time::Instant::now();
    for file in files {
        check_d1(file, cfg, &mut findings);
    }
    timings.push(("D1".to_string(), ms_since(t0)));

    let t0 = std::time::Instant::now();
    for file in files {
        check_p1(file, cfg, &mut findings);
    }
    timings.push(("P1".to_string(), ms_since(t0)));

    let t0 = std::time::Instant::now();
    for file in files {
        check_u1_safety_comments(file, &mut findings);
    }
    check_u1_forbid(files, &mut findings);
    timings.push(("U1".to_string(), ms_since(t0)));

    let t0 = std::time::Instant::now();
    for file in files {
        check_f1(file, cfg, &mut findings);
    }
    timings.push(("F1".to_string(), ms_since(t0)));

    (findings, timings)
}

pub(crate) fn ms_since(t0: std::time::Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Sort findings by `(path, line, rule)` and drop repeats.
pub fn sort_dedup(findings: &mut Vec<Finding>) {
    findings.sort_by(|a, b| {
        (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule))
    });
    // Two tokens on one line (`HashMap::<..>::new()` twice) are one
    // violation to fix, not two.
    findings.dedup_by(|a, b| {
        a.rule == b.rule && a.path == b.path && a.line == b.line && a.message == b.message
    });
}

fn in_list(list: &[String], crate_name: &str) -> bool {
    list.iter().any(|c| c == crate_name)
}

/// Record a finding of `rule` at 1-based `line` of `file`, quoting that
/// line as the snippet the allowlist matches against.
pub(crate) fn push(
    findings: &mut Vec<Finding>,
    file: &SourceFile,
    rule: &'static str,
    line: u32,
    message: String,
) {
    findings.push(Finding {
        rule,
        path: file.rel_path.clone(),
        line,
        message,
        snippet: file.line_text(line).to_string(),
    });
}

fn check_d1(file: &SourceFile, cfg: &Config, findings: &mut Vec<Finding>) {
    let lib_scope = in_list(&cfg.d1_crates, &file.crate_name) && file.kind == FileKind::Lib;
    for (i, t) in file.toks.iter().enumerate() {
        if let Some((_, why)) = RNG_IDENTS.iter().find(|(name, _)| t.is_ident(name)) {
            push(
                findings,
                file,
                "D1",
                t.line,
                format!("nondeterministic randomness: `{}` ({why})", t.text),
            );
            continue;
        }
        if file.in_test[i] {
            continue;
        }
        if lib_scope && TIME_IDENTS.iter().any(|name| t.is_ident(name)) {
            push(
                findings,
                file,
                "D1",
                t.line,
                format!(
                    "wall-clock read: `{}` in a result-producing crate makes outputs \
                     timing-dependent",
                    t.text
                ),
            );
        }
        if lib_scope {
            if let Some((_, ordered)) = HASH_IDENTS.iter().find(|(name, _)| t.is_ident(name)) {
                push(
                    findings,
                    file,
                    "D1",
                    t.line,
                    format!(
                        "`{}` iteration order is unspecified; use `{ordered}` (or allowlist \
                         with a justification that iteration never feeds ordered output)",
                        t.text
                    ),
                );
            }
        }
    }
}

fn check_p1(file: &SourceFile, cfg: &Config, findings: &mut Vec<Finding>) {
    if !in_list(&cfg.p1_crates, &file.crate_name) || file.kind != FileKind::Lib {
        return;
    }
    // The whole file, `macro_rules!` bodies included: the item parser
    // skips those, so R1 cannot see into them.
    for site in panic_sites(&file.toks, 0..file.toks.len()) {
        if file.in_test[site.tok] {
            continue;
        }
        push(
            findings,
            file,
            "P1",
            site.line,
            format!(
                "panic site ({}) in library code; return a TsdaError, use `.get(..)` for keyed \
                 lookups, or allowlist an infallible-by-construction site with a reason",
                site.what
            ),
        );
    }
}

/// Every `unsafe` token needs `// SAFETY:` in the comment block on the
/// lines immediately above it.
fn check_u1_safety_comments(file: &SourceFile, findings: &mut Vec<Finding>) {
    for t in &file.toks {
        if !t.is_ident("unsafe") {
            continue;
        }
        if !has_safety_comment_above(&file.lines, t.line) {
            push(
                findings,
                file,
                "U1",
                t.line,
                "`unsafe` without a `// SAFETY:` comment on the preceding line(s)".to_string(),
            );
        }
    }
}

fn has_safety_comment_above(lines: &[String], line: u32) -> bool {
    // Walk upward through the contiguous `//` comment block (doc
    // comments and attributes may sit between it and the unsafe line).
    let mut idx = (line as usize).saturating_sub(1); // 0-based index of the unsafe line
    while idx > 0 {
        idx -= 1;
        let text = lines.get(idx).map_or("", |s| s.trim());
        if text.starts_with("//") {
            if text.contains("SAFETY:") {
                return true;
            }
        } else if text.starts_with("#[") || text.starts_with("#![") {
            // Attributes between the comment and the item are fine.
            continue;
        } else {
            return false;
        }
    }
    false
}

/// Crates with no `unsafe` anywhere must pin that down with
/// `#![forbid(unsafe_code)]` in their `src/lib.rs`.
fn check_u1_forbid(files: &[SourceFile], findings: &mut Vec<Finding>) {
    let mut has_unsafe: BTreeMap<&str, bool> = BTreeMap::new();
    for file in files {
        let e = has_unsafe.entry(&file.crate_name).or_insert(false);
        *e |= file.toks.iter().any(|t| t.is_ident("unsafe"));
    }
    for file in files {
        if !file.rel_path.ends_with("/src/lib.rs") {
            continue;
        }
        if has_unsafe.get(file.crate_name.as_str()).copied().unwrap_or(false) {
            continue;
        }
        if !declares_forbid_unsafe(file) {
            push(
                findings,
                file,
                "U1",
                1,
                format!(
                    "crate `{}` contains no unsafe code but src/lib.rs does not declare \
                     `#![forbid(unsafe_code)]`",
                    file.crate_name
                ),
            );
        }
    }
}

fn declares_forbid_unsafe(file: &SourceFile) -> bool {
    let toks = &file.toks;
    (0..toks.len()).any(|i| {
        toks[i].is_punct('#')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('['))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("forbid") || t.is_ident("deny"))
            && toks.get(i + 4).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 5).is_some_and(|t| t.is_ident("unsafe_code"))
    })
}

/// Raw threading outside the blessed deterministic pool: a parallel
/// float reduction whose combine order depends on scheduling is the
/// textbook source of run-to-run drift.
fn check_f1(file: &SourceFile, cfg: &Config, findings: &mut Vec<Finding>) {
    if !in_list(&cfg.f1_crates, &file.crate_name) || file.kind != FileKind::Lib {
        return;
    }
    if cfg.f1_blessed.contains(&file.rel_path) {
        return;
    }
    let toks = &file.toks;
    for i in 0..toks.len() {
        if file.in_test[i] {
            continue;
        }
        if toks[i].is_ident("thread")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks
                .get(i + 3)
                .is_some_and(|t| t.is_ident("spawn") || t.is_ident("scope") || t.is_ident("Builder"))
        {
            push(
                findings,
                file,
                "F1",
                toks[i].line,
                format!(
                    "raw `thread::{}` outside tsda_core::parallel; parallel reductions must \
                     go through the deterministic Pool helpers (fixed chunking, ordered combine)",
                    toks[i + 3].text
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_file(crate_name: &str, src: &str) -> SourceFile {
        SourceFile::new(crate_name, format!("crates/{crate_name}/src/lib.rs"), FileKind::Lib, src)
    }

    fn run_rules(files: &[SourceFile], cfg: &Config) -> Vec<Finding> {
        let (mut findings, _) = run_rules_timed(files, cfg);
        sort_dedup(&mut findings);
        findings
    }

    fn cfg_all(name: &str) -> Config {
        Config {
            d1_crates: vec![name.into()],
            p1_crates: vec![name.into()],
            f1_crates: vec![name.into()],
            ..Config::default()
        }
    }

    #[test]
    fn p1_spots_method_panics_but_not_combinators() {
        let f = lib_file(
            "x",
            "fn f(o: Option<u8>) -> u8 { o.unwrap() }\n\
             fn g(o: Option<u8>) -> u8 { o.unwrap_or(0) }\n\
             fn h(o: Option<u8>) -> u8 { o.expect(\"set\") }\n",
        );
        let found = run_rules(&[f], &cfg_all("x"));
        let p1: Vec<_> = found.iter().filter(|f| f.rule == "P1").collect();
        assert_eq!(p1.len(), 2, "{p1:?}");
    }

    #[test]
    fn p1_macros_and_string_indexing() {
        let f = lib_file(
            "x",
            "fn f() { panic!(\"boom\") }\n\
             fn g(m: &std::collections::BTreeMap<String, u8>) -> u8 { m[\"key\"] }\n\
             fn h() -> [u8; 2] { [0, 1] }\n",
        );
        let found = run_rules(&[f], &cfg_all("x"));
        let p1: Vec<_> = found.iter().filter(|f| f.rule == "P1").collect();
        assert_eq!(p1.len(), 2, "{p1:?}");
    }

    #[test]
    fn p1_scans_macro_rules_bodies() {
        // The item parser skips `macro_rules!` bodies (R1 never sees
        // them); P1 still flags a panic site written inside one.
        let f = lib_file(
            "x",
            "macro_rules! kernel {\n\
                 ($name:ident) => { pub fn $name(o: Option<u8>) -> u8 { o.unwrap() } };\n\
             }\n",
        );
        let found = run_rules(&[f], &cfg_all("x"));
        let p1: Vec<_> = found.iter().filter(|f| f.rule == "P1").collect();
        assert_eq!(p1.len(), 1, "{p1:?}");
        assert_eq!(p1[0].line, 2);
        assert!(p1[0].message.contains(".unwrap()"), "{}", p1[0].message);
    }

    #[test]
    fn d1_rng_fires_even_in_tests_and_time_only_in_lib_scope() {
        let src = "fn f() { let r = rand::thread_rng(); }\n";
        let f = lib_file("x", src);
        let found = run_rules(&[f], &cfg_all("x"));
        assert_eq!(found.iter().filter(|f| f.rule == "D1").count(), 1);

        // Instant in a non-time-scoped crate: clean.
        let f = lib_file("y", "fn f() { let t = std::time::Instant::now(); }\n");
        let found = run_rules(&[f], &cfg_all("x"));
        assert!(found.iter().all(|f| f.rule != "D1"), "{found:?}");
    }

    #[test]
    fn u1_requires_safety_comment_and_forbid() {
        let documented = lib_file(
            "x",
            "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n",
        );
        let found = run_rules(&[documented], &cfg_all("x"));
        assert!(found.iter().all(|f| f.rule != "U1"), "{found:?}");

        let undocumented = lib_file("x", "pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n");
        let found = run_rules(&[undocumented], &cfg_all("x"));
        assert_eq!(found.iter().filter(|f| f.rule == "U1").count(), 1);

        // No unsafe at all: lib.rs must forbid.
        let clean = lib_file("x", "pub fn f() {}\n");
        let found = run_rules(&[clean], &cfg_all("x"));
        assert_eq!(found.iter().filter(|f| f.rule == "U1").count(), 1);
        let forbidding = lib_file("x", "#![forbid(unsafe_code)]\npub fn f() {}\n");
        let found = run_rules(&[forbidding], &cfg_all("x"));
        assert!(found.iter().all(|f| f.rule != "U1"), "{found:?}");
    }

    #[test]
    fn f1_flags_raw_threads_outside_blessed_files() {
        let src = "fn f() { std::thread::spawn(|| ()); }\n#![forbid(unsafe_code)]\n";
        let f = lib_file("x", src);
        let found = run_rules(&[f], &cfg_all("x"));
        assert_eq!(found.iter().filter(|f| f.rule == "F1").count(), 1);

        let mut cfg = cfg_all("x");
        cfg.f1_blessed = vec!["crates/x/src/lib.rs".into()];
        let f = lib_file("x", src);
        let found = run_rules(&[f], &cfg);
        assert!(found.iter().all(|f| f.rule != "F1"), "{found:?}");
    }
}

//! Workspace walking and file classification.
//!
//! The analyzer scans the configured roots (normally just `crates/`),
//! treats every first-level directory as one crate (named after its
//! directory, matching the `tsda-<dir>` packages), and classifies each
//! `.rs` file so rules can scope themselves:
//!
//! * **Lib** — `src/**` except bin targets: the code production traffic
//!   runs through, held to the strictest rules.
//! * **Bin** — `src/bin/**`, `src/main.rs`, `build.rs`: driver code
//!   where timers and exits are legitimate.
//! * **Test** — `tests/**`, `benches/**`, `examples/**`: panics are the
//!   idiomatic failure mode here.
//!
//! Inline `#[cfg(test)]` regions inside library files are detected on
//! the token stream and marked so per-token rules can skip them.
//!
//! Vendored dependency stand-ins under `vendor/` are deliberately out
//! of scope: they mirror external crates.io surfaces (including
//! `rand::thread_rng`) and are not this workspace's code.

use crate::lexer::{lex, match_delim, Tok, TokKind};
use std::path::{Path, PathBuf};

/// How a file's rules should be scoped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code (`src/**`, not a bin target).
    Lib,
    /// Binary / build-script code.
    Bin,
    /// Test, bench, or example code.
    Test,
}

/// One lexed source file ready for the rule engine.
pub struct SourceFile {
    /// Crate directory name (`core`, `serve`, ...).
    pub crate_name: String,
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Rule scoping class.
    pub kind: FileKind,
    /// Raw source lines (1-based access via `line_text`).
    pub lines: Vec<String>,
    /// Token stream.
    pub toks: Vec<Tok>,
    /// `in_test[i]` is true when token `i` sits in a `#[cfg(test)]`
    /// region of a non-test file.
    pub in_test: Vec<bool>,
}

impl SourceFile {
    /// Lex `text` as the file `rel_path` of crate `crate_name`. Every
    /// token of a test file is test code; elsewhere the `#[cfg(test)]`
    /// regions are.
    pub fn new(
        crate_name: impl Into<String>,
        rel_path: impl Into<String>,
        kind: FileKind,
        text: &str,
    ) -> SourceFile {
        let toks = lex(text);
        let in_test = if kind == FileKind::Test {
            vec![true; toks.len()]
        } else {
            mark_cfg_test_regions(&toks)
        };
        SourceFile {
            crate_name: crate_name.into(),
            rel_path: rel_path.into(),
            kind,
            lines: text.lines().map(str::to_string).collect(),
            toks,
            in_test,
        }
    }

    /// The trimmed text of 1-based line `line` (empty when out of range).
    pub fn line_text(&self, line: u32) -> &str {
        self.lines
            .get((line as usize).saturating_sub(1))
            .map_or("", |s| s.trim())
    }
}

/// Walk the configured scan roots and lex every `.rs` file found.
pub fn load_workspace(
    root: &Path,
    scan: &[String],
    skip: &[String],
) -> Result<Vec<SourceFile>, String> {
    let mut paths: Vec<PathBuf> = Vec::new();
    for rel in scan {
        let dir = root.join(rel);
        if !dir.is_dir() {
            return Err(format!("scan root {} is not a directory", dir.display()));
        }
        collect_rs_files(&dir, &mut paths)?;
    }
    paths.sort();

    let mut files = Vec::new();
    for path in paths {
        let rel_path = relative_slash_path(root, &path);
        if skip.iter().any(|s| rel_path.starts_with(s.as_str())) {
            continue;
        }
        let Some((crate_name, kind)) = classify(&rel_path) else {
            continue;
        };
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        files.push(SourceFile::new(crate_name, rel_path, kind, &text));
    }
    Ok(files)
}

/// Transitive crate-dependency closure, read from each scanned crate's
/// `Cargo.toml`. `closure["serve"]` holds every crate directory `serve`
/// can reach through `tsda-*` dependency edges (dev- and
/// build-dependencies included, since the call graph spans test code).
///
/// The call graph uses this to drop name-resolution candidates that
/// Rust itself could never link: a call in crate A cannot target a
/// function in a crate A does not depend on. Crates whose manifest is
/// missing or unreadable get no entry, which the graph treats as
/// "don't narrow" — absence of evidence stays conservative.
pub fn crate_dep_closure(
    root: &Path,
    scan: &[String],
) -> std::collections::BTreeMap<String, std::collections::BTreeSet<String>> {
    let mut direct: std::collections::BTreeMap<String, std::collections::BTreeSet<String>> =
        std::collections::BTreeMap::new();
    for rel in scan {
        let dir = root.join(rel);
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            if !path.is_dir() {
                continue;
            }
            let crate_name = entry.file_name().to_string_lossy().into_owned();
            let Ok(manifest) = std::fs::read_to_string(path.join("Cargo.toml")) else {
                continue;
            };
            direct.insert(crate_name, manifest_tsda_deps(&manifest));
        }
    }
    // Transitive closure by per-crate BFS; the graph is tiny.
    let mut closure = std::collections::BTreeMap::new();
    for name in direct.keys() {
        let mut seen = std::collections::BTreeSet::new();
        let mut stack: Vec<&String> = vec![name];
        while let Some(at) = stack.pop() {
            let Some(deps) = direct.get(at) else { continue };
            for d in deps {
                if seen.insert(d.clone()) {
                    stack.push(d);
                }
            }
        }
        closure.insert(name.clone(), seen);
    }
    closure
}

/// `tsda-*` dependency directory names declared in a manifest: both
/// `tsda-core = { path = "../core" }` table lines and
/// `[dependencies.tsda-core]` section headers.
fn manifest_tsda_deps(manifest: &str) -> std::collections::BTreeSet<String> {
    let mut deps = std::collections::BTreeSet::new();
    for line in manifest.lines() {
        let line = line.trim();
        let key = if let Some(rest) = line.strip_prefix("[dependencies.") {
            rest.strip_suffix(']').unwrap_or(rest)
        } else if let Some(rest) = line.strip_prefix("[dev-dependencies.") {
            rest.strip_suffix(']').unwrap_or(rest)
        } else if let Some(rest) = line.strip_prefix("[build-dependencies.") {
            rest.strip_suffix(']').unwrap_or(rest)
        } else if let Some(eq) = line.find('=') {
            line[..eq].trim()
        } else {
            continue;
        };
        if let Some(dep_dir) = key.strip_prefix("tsda-") {
            if !dep_dir.is_empty() && dep_dir.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-') {
                deps.insert(dep_dir.to_string());
            }
        }
    }
    deps
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("read dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read dir {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            // `target/` never holds source we authored.
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative_slash_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Map a workspace-relative path to `(crate_name, kind)`. Files outside
/// the `<root>/<crate>/{src,tests,benches,examples}` shape (e.g. a
/// crate's own `build.rs`) still classify; stray files do not.
fn classify(rel_path: &str) -> Option<(String, FileKind)> {
    let mut parts = rel_path.split('/');
    let _scan_root = parts.next()?;
    let crate_name = parts.next()?.to_string();
    let section = parts.next()?;
    let rest: Vec<&str> = parts.collect();
    let kind = match section {
        "src" => {
            if rest.first() == Some(&"bin") || rest == ["main.rs"] {
                FileKind::Bin
            } else {
                FileKind::Lib
            }
        }
        "tests" | "benches" | "examples" => FileKind::Test,
        "build.rs" if rest.is_empty() => FileKind::Bin,
        _ => return None,
    };
    Some((crate_name, kind))
}

/// Mark tokens inside `#[cfg(test)]`-gated items.
fn mark_cfg_test_regions(toks: &[Tok]) -> Vec<bool> {
    let mut in_test = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if !is_cfg_test_attr_start(toks, i) {
            i += 1;
            continue;
        }
        // Skip this attribute and any further `#[...]` attributes.
        let mut j = skip_attr(toks, i);
        while is_attr_start(toks, j) {
            j = skip_attr(toks, j);
        }
        // The gated item runs to the first top-level `;`, or across the
        // matching braces of its first `{`.
        let mut depth = 0usize;
        let mut end = j;
        while end < toks.len() {
            let t = &toks[end];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    end += 1;
                    break;
                }
            } else if t.is_punct(';') && depth == 0 {
                end += 1;
                break;
            }
            end += 1;
        }
        for flag in in_test.iter_mut().take(end).skip(i) {
            *flag = true;
        }
        i = end;
    }
    in_test
}

/// Is `#[ ... ]` starting at `i` (not an inner `#![...]` attribute)?
fn is_attr_start(toks: &[Tok], i: usize) -> bool {
    toks.get(i).is_some_and(|t| t.is_punct('#'))
        && toks.get(i + 1).is_some_and(|t| t.is_punct('['))
}

/// Does the attribute starting at `i` gate on `cfg(... test ...)`?
fn is_cfg_test_attr_start(toks: &[Tok], i: usize) -> bool {
    if !is_attr_start(toks, i) {
        return false;
    }
    let end = skip_attr(toks, i);
    let body = &toks[i..end];
    body.iter().any(|t| t.is_ident("cfg"))
        && body
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "test")
}

/// Index just past the `]` closing the attribute that starts at `i`.
fn skip_attr(toks: &[Tok], i: usize) -> usize {
    match_delim(toks, i + 1, toks.len(), '[', ']')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_the_layouts_in_this_repo() {
        assert_eq!(
            classify("crates/core/src/parallel.rs"),
            Some(("core".into(), FileKind::Lib))
        );
        assert_eq!(
            classify("crates/serve/src/bin/tsda_client.rs"),
            Some(("serve".into(), FileKind::Bin))
        );
        assert_eq!(
            classify("crates/classify/tests/determinism.rs"),
            Some(("classify".into(), FileKind::Test))
        );
        assert_eq!(
            classify("crates/core/src/generative/latent.rs"),
            Some(("core".into(), FileKind::Lib))
        );
        assert_eq!(classify("crates/core/build.rs"), Some(("core".into(), FileKind::Bin)));
        assert_eq!(classify("crates/core/Cargo.toml"), None);
    }

    #[test]
    fn cfg_test_regions_cover_the_test_module_only() {
        let src = r#"
            pub fn real() -> usize { 1 }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { real().checked_add(1).unwrap(); }
            }
            pub fn after() -> usize { 2 }
        "#;
        let toks = lex(src);
        let marks = mark_cfg_test_regions(&toks);
        let at = |name: &str| {
            toks.iter()
                .position(|t| t.is_ident(name))
                .expect("token present")
        };
        assert!(!marks[at("real")]);
        assert!(marks[at("unwrap")]);
        assert!(!marks[at("after")]);
    }

    #[test]
    fn cfg_test_on_single_items_and_stacked_attrs() {
        let src = r#"
            #[cfg(test)]
            #[allow(dead_code)]
            fn helper() { panic!("only in tests") }
            fn live() {}
            #[cfg(all(test, unix))]
            use std::collections::HashMap;
            fn live2() {}
        "#;
        let toks = lex(src);
        let marks = mark_cfg_test_regions(&toks);
        let at = |name: &str| toks.iter().position(|t| t.is_ident(name)).expect("tok");
        assert!(marks[at("panic")]);
        assert!(!marks[at("live")]);
        assert!(marks[at("HashMap")]);
        assert!(!marks[at("live2")]);
    }
}

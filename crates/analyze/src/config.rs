//! `analyze.toml`: rule scoping and the allowlist.
//!
//! The container has no crates.io access, so this module includes a
//! hand-rolled parser for the small TOML subset the config actually
//! uses: `[table]` headers, `[[array-of-table]]` headers, string /
//! string-array / bool / integer values, and `#` comments. Anything
//! outside that subset is a hard error with a line number — a config
//! typo must fail the build, not silently relax a lint.
//!
//! The checked-in `analyze.toml` at the workspace root documents the
//! full schema inline; in short:
//!
//! ```toml
//! [paths]
//! scan = ["crates"]          # roots scanned, relative to the workspace
//! skip = ["crates/analyze/tests/fixtures"]   # subtrees never scanned
//!
//! [rules.D1]
//! time = ["core", ...]       # crates where wall-clock reads are banned
//! hash = ["core", ...]       # crates where HashMap/HashSet are banned
//!
//! [rules.P1]
//! crates = ["core", ...]     # crates whose library code must not panic
//!
//! [rules.F1]
//! crates = ["core", ...]     # crates that must use the blessed pool
//! blessed = ["crates/core/src/parallel.rs"]
//!
//! [rules.R1]
//! roots = ["serve::serve_conn", ...]  # panic-reachability roots
//!
//! [rules.R2]
//! crates = ["core", ...]     # crates checked for discarded Results
//!
//! [rules.R4]
//! crates = ["core", ...]     # crates checked for unpinned reductions
//!
//! [rules.A1]
//! crates = ["serve", ...]    # scratch-disciplined crates: hot-reachable
//!                            # fns may only allocate through Scratch
//!                            # receivers
//!
//! [rules.L1]
//! crates = ["serve", ...]    # crates whose guards feed the lock-order graph
//!
//! [rules.L2]
//! crates = ["serve", ...]    # crates checked for guards held across blocking
//!
//! [rules.T1]
//! paths = ["crates/serve/src/proto2.rs", ...]  # wire-decode files whose
//!                            # reader outputs are tainted (C1 shares this)
//!
//! [[allow]]                  # one entry per tolerated finding site
//! rule = "P1"                # which rule the entry silences
//! path = "crates/core/src/parallel.rs"   # file path prefix
//! contains = "filled every slot"         # optional: source-line substring
//! reason = "why this occurrence is sound"  # mandatory, non-empty
//! ```

use std::collections::BTreeMap;

/// One allowlist entry from `[[allow]]`.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule id the entry applies to (`D1`, `P1`, `U1`, `F1`).
    pub rule: String,
    /// Path prefix (workspace-relative, `/`-separated) the entry covers.
    pub path: String,
    /// Optional substring the finding's source line must contain; an
    /// empty string matches every line in `path`.
    pub contains: String,
    /// Mandatory human justification.
    pub reason: String,
}

impl AllowEntry {
    /// Does this entry silence a finding of `rule` at `path` whose
    /// source line is `line_text`?
    pub fn matches(&self, rule: &str, path: &str, line_text: &str) -> bool {
        self.rule == rule
            && path.starts_with(&self.path)
            && (self.contains.is_empty() || line_text.contains(&self.contains))
    }
}

/// Parsed `analyze.toml`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Scan roots, workspace-relative.
    pub scan: Vec<String>,
    /// Subtree prefixes excluded from scanning (fixtures).
    pub skip: Vec<String>,
    /// Crates (dir names under `crates/`) where D1 bans wall-clock.
    pub d1_time: Vec<String>,
    /// Crates where D1 bans `HashMap`/`HashSet`.
    pub d1_hash: Vec<String>,
    /// Crates whose non-test library code P1 requires panic-free.
    pub p1_crates: Vec<String>,
    /// Crates where F1 bans raw threading.
    pub f1_crates: Vec<String>,
    /// Files exempt from F1 (the deterministic pool itself).
    pub f1_blessed: Vec<String>,
    /// R1 reachability roots as `crate::fn_name` keys (the serve
    /// request path and the experiment harness entry points).
    pub r1_roots: Vec<String>,
    /// Crates whose library code R2 checks for discarded `Result`s.
    pub r2_crates: Vec<String>,
    /// Crates whose library code R4 checks for unpinned float
    /// reductions (the result-producing crates).
    pub r4_crates: Vec<String>,
    /// Scratch-disciplined crates: A1 bans `Vec::new`/`with_capacity`/
    /// `.to_vec()`/`.clone()`/`format!`/`Box::new` in hot-reachable fns
    /// of these crates unless the site goes through a `Scratch`-typed
    /// receiver.
    pub a1_crates: Vec<String>,
    /// Crates whose lock acquisitions feed the L1 lock-order graph
    /// (the concurrent crates — summaries still cover the whole graph).
    pub l1_crates: Vec<String>,
    /// Crates whose library code L2 checks for guards held across
    /// blocking calls.
    pub l2_crates: Vec<String>,
    /// Wire-decode files (exact workspace-relative paths) whose reader
    /// outputs T1 treats as tainted lengths; C1 shares this scope.
    pub t1_paths: Vec<String>,
    /// Allowlist entries in file order.
    pub allow: Vec<AllowEntry>,
}

/// Minimal TOML value for the supported subset.
#[derive(Debug, Clone, PartialEq)]
enum TomlValue {
    Str(String),
    Array(Vec<String>),
    Bool(bool),
    Int(i64),
}

impl Config {
    /// Parse a config from TOML text. Errors carry 1-based line numbers.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        // Current `[table]` path, and whether we are inside an
        // `[[allow]]` entry (the only array-of-tables supported).
        let mut table: Vec<String> = Vec::new();
        let mut in_allow = false;
        let mut current_allow: BTreeMap<String, String> = BTreeMap::new();

        let flush_allow = |entry: &mut BTreeMap<String, String>,
                               line_no: usize|
         -> Result<Option<AllowEntry>, String> {
            if entry.is_empty() {
                return Ok(None);
            }
            let rule = entry.remove("rule").unwrap_or_default();
            let path = entry.remove("path").unwrap_or_default();
            let contains = entry.remove("contains").unwrap_or_default();
            let reason = entry.remove("reason").unwrap_or_default();
            if let Some((k, _)) = entry.iter().next() {
                return Err(format!("line {line_no}: unknown [[allow]] key {k:?}"));
            }
            entry.clear();
            if rule.is_empty() || path.is_empty() {
                return Err(format!(
                    "line {line_no}: [[allow]] entry needs both \"rule\" and \"path\""
                ));
            }
            if reason.trim().is_empty() {
                return Err(format!(
                    "line {line_no}: [[allow]] entry for {rule} at {path:?} has no \"reason\" — \
                     every allowlisted finding must carry a justification"
                ));
            }
            Ok(Some(AllowEntry { rule, path, contains, reason }))
        };

        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
                if header.trim() != "allow" {
                    return Err(format!(
                        "line {line_no}: unsupported array-of-tables [[{header}]]"
                    ));
                }
                if let Some(entry) = flush_allow(&mut current_allow, line_no)? {
                    cfg.allow.push(entry);
                }
                in_allow = true;
                table.clear();
                continue;
            }
            if let Some(header) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                if let Some(entry) = flush_allow(&mut current_allow, line_no)? {
                    cfg.allow.push(entry);
                }
                in_allow = false;
                table = header.trim().split('.').map(|s| s.trim().to_string()).collect();
                continue;
            }
            let (key, value) = parse_key_value(&line, line_no)?;
            if in_allow {
                let TomlValue::Str(s) = value else {
                    return Err(format!("line {line_no}: [[allow]].{key} must be a string"));
                };
                current_allow.insert(key, s);
                continue;
            }
            let target = format!("{}.{}", table.join("."), key);
            match (target.as_str(), value) {
                ("paths.scan", TomlValue::Array(v)) => cfg.scan = v,
                ("paths.skip", TomlValue::Array(v)) => cfg.skip = v,
                ("rules.D1.time", TomlValue::Array(v)) => cfg.d1_time = v,
                ("rules.D1.hash", TomlValue::Array(v)) => cfg.d1_hash = v,
                ("rules.P1.crates", TomlValue::Array(v)) => cfg.p1_crates = v,
                ("rules.F1.crates", TomlValue::Array(v)) => cfg.f1_crates = v,
                ("rules.F1.blessed", TomlValue::Array(v)) => cfg.f1_blessed = v,
                ("rules.R1.roots", TomlValue::Array(v)) => cfg.r1_roots = v,
                ("rules.R2.crates", TomlValue::Array(v)) => cfg.r2_crates = v,
                ("rules.R4.crates", TomlValue::Array(v)) => cfg.r4_crates = v,
                ("rules.A1.crates", TomlValue::Array(v)) => cfg.a1_crates = v,
                ("rules.L1.crates", TomlValue::Array(v)) => cfg.l1_crates = v,
                ("rules.L2.crates", TomlValue::Array(v)) => cfg.l2_crates = v,
                ("rules.T1.paths", TomlValue::Array(v)) => cfg.t1_paths = v,
                (other, _) => {
                    return Err(format!("line {line_no}: unknown or mistyped key {other:?}"));
                }
            }
        }
        if let Some(entry) = flush_allow(&mut current_allow, text.lines().count())? {
            cfg.allow.push(entry);
        }
        if cfg.scan.is_empty() {
            cfg.scan.push("crates".to_string());
        }
        Ok(cfg)
    }
}

/// Rewrite config text with the given stale `[[allow]]` entries
/// removed (the `--fix-stale` flag). A block runs from its `[[allow]]`
/// header line to the line before the next `[`-header or EOF; a block
/// is dropped when its rule/path/contains triple equals a stale
/// entry's. Every other line — comments, ordering, formatting — is
/// preserved verbatim.
pub fn prune_stale(text: &str, stale: &[AllowEntry]) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let is_header = |l: &str| strip_comment(l).trim().starts_with('[');
    let mut out = String::new();
    let mut i = 0;
    while i < lines.len() {
        let stripped = strip_comment(lines[i]).trim().to_string();
        if stripped != "[[allow]]" {
            out.push_str(lines[i]);
            out.push('\n');
            i += 1;
            continue;
        }
        let mut j = i + 1;
        while j < lines.len() && !is_header(lines[j]) {
            j += 1;
        }
        // Identity of this block: its rule/path/contains values.
        let mut rule = String::new();
        let mut path = String::new();
        let mut contains = String::new();
        for l in &lines[i + 1..j] {
            let l = strip_comment(l).trim().to_string();
            if let Some((key, TomlValue::Str(v))) =
                l.split_once('=').and_then(|(k, rest)| {
                    parse_value(rest.trim(), 0).ok().map(|v| (k.trim().to_string(), v))
                })
            {
                match key.as_str() {
                    "rule" => rule = v,
                    "path" => path = v,
                    "contains" => contains = v,
                    _ => {}
                }
            }
        }
        let drop = stale
            .iter()
            .any(|s| s.rule == rule && s.path == path && s.contains == contains);
        if !drop {
            for l in &lines[i..j] {
                out.push_str(l);
                out.push('\n');
            }
        }
        i = j;
    }
    out
}

/// Strip a trailing `#` comment, respecting `"..."` strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut prev_backslash = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    line
}

fn parse_key_value(line: &str, line_no: usize) -> Result<(String, TomlValue), String> {
    let Some((key, rest)) = line.split_once('=') else {
        return Err(format!("line {line_no}: expected `key = value`, got {line:?}"));
    };
    let key = key.trim().to_string();
    if key.is_empty() {
        return Err(format!("line {line_no}: empty key"));
    }
    Ok((key, parse_value(rest.trim(), line_no)?))
}

fn parse_value(text: &str, line_no: usize) -> Result<TomlValue, String> {
    if let Some(body) = text.strip_prefix('[') {
        let Some(body) = body.strip_suffix(']') else {
            return Err(format!("line {line_no}: unterminated array (arrays must be single-line)"));
        };
        let mut items = Vec::new();
        for item in split_array_items(body) {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            match parse_value(item, line_no)? {
                TomlValue::Str(s) => items.push(s),
                _ => {
                    return Err(format!("line {line_no}: only string arrays are supported"));
                }
            }
        }
        return Ok(TomlValue::Array(items));
    }
    if let Some(body) = text.strip_prefix('"') {
        let Some(body) = body.strip_suffix('"') else {
            return Err(format!("line {line_no}: unterminated string"));
        };
        return Ok(TomlValue::Str(unescape(body)));
    }
    match text {
        "true" => return Ok(TomlValue::Bool(true)),
        "false" => return Ok(TomlValue::Bool(false)),
        _ => {}
    }
    text.parse::<i64>()
        .map(TomlValue::Int)
        .map_err(|_| format!("line {line_no}: unsupported value {text:?}"))
}

/// Split array items on commas outside of string quotes.
fn split_array_items(body: &str) -> Vec<String> {
    let mut items = Vec::new();
    let mut current = String::new();
    let mut in_str = false;
    let mut prev_backslash = false;
    for c in body.chars() {
        match c {
            '"' if !prev_backslash => {
                in_str = !in_str;
                current.push(c);
            }
            ',' if !in_str => {
                items.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    items.push(current);
    items
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_schema() {
        let cfg = Config::parse(
            r#"
            # comment
            [paths]
            scan = ["crates"]          # trailing comment
            skip = ["crates/analyze/tests/fixtures"]

            [rules.D1]
            time = ["core", "linalg"]
            hash = ["core"]

            [rules.P1]
            crates = ["core"]

            [rules.F1]
            crates = ["core"]
            blessed = ["crates/core/src/parallel.rs"]

            [rules.L1]
            crates = ["serve"]

            [rules.L2]
            crates = ["serve"]

            [rules.T1]
            paths = ["crates/serve/src/proto2.rs"]

            [[allow]]
            rule = "P1"
            path = "crates/core/src/parallel.rs"
            contains = "every slot"
            reason = "infallible by construction"

            [[allow]]
            rule = "D1"
            path = "crates/serve/src"
            reason = "batching timers"
            "#,
        )
        .expect("config parses");
        assert_eq!(cfg.scan, vec!["crates"]);
        assert_eq!(cfg.d1_time, vec!["core", "linalg"]);
        assert_eq!(cfg.l1_crates, vec!["serve"]);
        assert_eq!(cfg.l2_crates, vec!["serve"]);
        assert_eq!(cfg.t1_paths, vec!["crates/serve/src/proto2.rs"]);
        assert_eq!(cfg.allow.len(), 2);
        assert!(cfg.allow[0].matches("P1", "crates/core/src/parallel.rs", "x every slot y"));
        assert!(!cfg.allow[0].matches("P1", "crates/core/src/parallel.rs", "other line"));
        assert!(cfg.allow[1].matches("D1", "crates/serve/src/batcher.rs", "anything"));
    }

    #[test]
    fn reason_is_mandatory() {
        let err = Config::parse(
            "[[allow]]\nrule = \"P1\"\npath = \"crates/core\"\n",
        )
        .unwrap_err();
        assert!(err.contains("reason"), "{err}");
        let err = Config::parse(
            "[[allow]]\nrule = \"P1\"\npath = \"crates/core\"\nreason = \"  \"\n",
        )
        .unwrap_err();
        assert!(err.contains("reason"), "{err}");
    }

    #[test]
    fn unknown_keys_are_hard_errors() {
        assert!(Config::parse("[rules.P1]\ncreates = [\"core\"]\n").is_err());
        assert!(Config::parse("[[deny]]\nrule = \"P1\"\n").is_err());
        assert!(Config::parse("nonsense\n").is_err());
    }

    #[test]
    fn comment_hashes_inside_strings_survive() {
        let cfg = Config::parse(
            "[[allow]]\nrule = \"P1\"\npath = \"crates/x\"\ncontains = \"a # b\"\nreason = \"r\"\n",
        )
        .expect("parses");
        assert_eq!(cfg.allow[0].contains, "a # b");
    }

    #[test]
    fn default_scan_root() {
        assert_eq!(Config::parse("").expect("empty ok").scan, vec!["crates"]);
    }

    #[test]
    fn prune_stale_drops_only_matching_blocks() {
        let text = "\
# keep this comment\n\
[rules.P1]\n\
crates = [\"core\"]\n\
\n\
[[allow]]\n\
rule = \"P1\"  # justified\n\
path = \"crates/core/src/parallel.rs\"\n\
contains = \"every slot\"\n\
reason = \"infallible by construction\"\n\
\n\
[[allow]]\n\
rule = \"R3\"\n\
path = \"crates/signal/src\"\n\
reason = \"gone stale\"\n\
\n\
[[allow]]\n\
rule = \"D1\"\n\
path = \"crates/serve/src\"\n\
reason = \"batching timers\"\n";
        let stale = vec![AllowEntry {
            rule: "R3".into(),
            path: "crates/signal/src".into(),
            contains: String::new(),
            reason: "gone stale".into(),
        }];
        let pruned = prune_stale(text, &stale);
        assert!(pruned.contains("# keep this comment"));
        assert!(pruned.contains("every slot"), "{pruned}");
        assert!(!pruned.contains("signal"), "{pruned}");
        let cfg = Config::parse(&pruned).expect("pruned config still parses");
        assert_eq!(cfg.allow.len(), 2);
        assert_eq!(cfg.allow[0].rule, "P1");
        assert_eq!(cfg.allow[1].rule, "D1");
        // No stale entries: text unchanged.
        assert_eq!(prune_stale(text, &[]), text);
    }
}

//! Allowlist application and report rendering.
//!
//! The JSON schema (format version 1) is stable for CI consumers:
//!
//! ```json
//! {
//!   "version": 1,
//!   "findings": [
//!     {"rule": "P1", "path": "crates/x/src/lib.rs", "line": 3,
//!      "message": "...", "snippet": "o.unwrap()"}
//!   ],
//!   "allowed": [
//!     {"rule": "D1", "path": "...", "line": 9, "message": "...",
//!      "snippet": "...", "reason": "batching timers"}
//!   ],
//!   "unused_allow": [
//!     {"rule": "P1", "path": "...", "contains": "...", "reason": "..."}
//!   ],
//!   "summary": {"total": 1,
//!               "by_rule": {"D1": 0, "F1": 0, "P1": 1, "U1": 0,
//!                           "R1": 0, "R2": 0, "R3": 0, "R4": 0,
//!                           "L1": 0, "L2": 0, "T1": 0, "C1": 0},
//!               "timings_ms": {"D1": 1.2, "...": 0.0}}
//! }
//! ```
//!
//! `findings` are the *unallowlisted* violations; a non-empty list is
//! exit code 1. `allowed` records every tolerated site with its
//! justification so reviewers can audit the debt. `unused_allow` lists
//! stale entries (warning only: they rot silently otherwise).

use crate::config::{AllowEntry, Config};
use crate::rules::Finding;
use serde::Value;

/// One allowlisted finding with the entry's justification.
#[derive(Debug, Clone)]
pub struct AllowedFinding {
    /// The underlying finding.
    pub finding: Finding,
    /// Reason from the matching allowlist entry.
    pub reason: String,
}

/// The analyzer's complete verdict.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Violations not covered by the allowlist (failures).
    pub findings: Vec<Finding>,
    /// Violations covered by the allowlist (tolerated, audited).
    pub allowed: Vec<AllowedFinding>,
    /// Allowlist entries that matched nothing (stale).
    pub unused_allow: Vec<AllowEntry>,
    /// Per-rule wall time in milliseconds, in execution order (empty
    /// when the caller didn't measure).
    pub timings: Vec<(String, f64)>,
}

impl Report {
    /// Split raw findings by the allowlist.
    pub fn from_findings(raw: Vec<Finding>, cfg: &Config) -> Report {
        let mut used = vec![false; cfg.allow.len()];
        let mut report = Report::default();
        for finding in raw {
            let hit = cfg
                .allow
                .iter()
                .position(|a| a.matches(finding.rule, &finding.path, &finding.snippet));
            match hit {
                Some(i) => {
                    used[i] = true;
                    report
                        .allowed
                        .push(AllowedFinding { finding, reason: cfg.allow[i].reason.clone() });
                }
                None => report.findings.push(finding),
            }
        }
        report.unused_allow = cfg
            .allow
            .iter()
            .zip(&used)
            .filter(|(_, &u)| !u)
            .map(|(a, _)| a.clone())
            .collect();
        report
    }

    /// True when the tree is clean (exit code 0).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Count of unallowlisted findings for `rule`.
    pub fn count(&self, rule: &str) -> usize {
        self.findings.iter().filter(|f| f.rule == rule).count()
    }

    /// Human-readable report. `verbose` additionally lists every
    /// allowlisted site with its justification.
    pub fn to_text(&self, verbose: bool) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}: {}: {}\n    {}\n",
                f.path, f.line, f.rule, f.message, f.snippet
            ));
        }
        if verbose {
            for a in &self.allowed {
                let f = &a.finding;
                out.push_str(&format!(
                    "{}:{}: {} (allowed: {})\n",
                    f.path, f.line, f.rule, a.reason
                ));
            }
        }
        for a in &self.unused_allow {
            out.push_str(&format!(
                "warning: unused allowlist entry: rule {} path {:?} contains {:?}\n",
                a.rule, a.path, a.contains
            ));
        }
        out.push_str(&format!(
            "{} finding(s), {} allowlisted, {} unused allowlist entrie(s)\n",
            self.findings.len(),
            self.allowed.len(),
            self.unused_allow.len()
        ));
        out
    }

    /// Render the stable JSON schema described in the module docs.
    pub fn to_json_value(&self) -> Value {
        let finding_value = |f: &Finding| {
            Value::Object(vec![
                ("rule".into(), Value::Str(f.rule.to_string())),
                ("path".into(), Value::Str(f.path.clone())),
                ("line".into(), Value::Num(f.line as f64)),
                ("message".into(), Value::Str(f.message.clone())),
                ("snippet".into(), Value::Str(f.snippet.clone())),
            ])
        };
        let allowed_value = |a: &AllowedFinding| {
            let Value::Object(mut pairs) = finding_value(&a.finding) else {
                return Value::Null;
            };
            pairs.push(("reason".into(), Value::Str(a.reason.clone())));
            Value::Object(pairs)
        };
        let mut by_rule = Vec::new();
        for rule in ["D1", "F1", "P1", "U1", "R1", "R2", "R3", "R4", "L1", "L2", "T1", "C1"] {
            by_rule.push((rule.to_string(), Value::Num(self.count(rule) as f64)));
        }
        let timings = Value::Object(
            self.timings
                .iter()
                .map(|(rule, ms)| {
                    // Round to µs so the value is stable to print and
                    // diff while still meaningful for a linter pass.
                    (rule.clone(), Value::Num((ms * 1e3).round() / 1e3))
                })
                .collect(),
        );
        Value::Object(vec![
            ("version".into(), Value::Num(1.0)),
            (
                "findings".into(),
                Value::Array(self.findings.iter().map(finding_value).collect()),
            ),
            (
                "allowed".into(),
                Value::Array(self.allowed.iter().map(allowed_value).collect()),
            ),
            (
                "unused_allow".into(),
                Value::Array(
                    self.unused_allow
                        .iter()
                        .map(|a| {
                            Value::Object(vec![
                                ("rule".into(), Value::Str(a.rule.clone())),
                                ("path".into(), Value::Str(a.path.clone())),
                                ("contains".into(), Value::Str(a.contains.clone())),
                                ("reason".into(), Value::Str(a.reason.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "summary".into(),
                Value::Object(vec![
                    ("total".into(), Value::Num(self.findings.len() as f64)),
                    ("by_rule".into(), Value::Object(by_rule)),
                    ("timings_ms".into(), timings),
                ]),
            ),
        ])
    }

    /// JSON text (pretty), with a serialisation fallback that can never
    /// panic — this is the tool that polices panics, after all.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_json_value())
            .unwrap_or_else(|_| "{\"version\":1,\"error\":\"serialisation failed\"}".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;

    fn finding(rule: &'static str, path: &str, snippet: &str) -> Finding {
        Finding {
            rule,
            path: path.into(),
            line: 3,
            message: "m".into(),
            snippet: snippet.into(),
        }
    }

    #[test]
    fn allowlist_splits_and_tracks_usage() {
        let cfg = Config::parse(
            "[[allow]]\nrule = \"P1\"\npath = \"crates/a\"\ncontains = \"ok\"\nreason = \"r\"\n\
             [[allow]]\nrule = \"U1\"\npath = \"crates/never\"\nreason = \"stale\"\n",
        )
        .expect("cfg");
        let raw = vec![
            finding("P1", "crates/a/src/lib.rs", "this is ok here"),
            finding("P1", "crates/a/src/lib.rs", "not covered"),
        ];
        let report = Report::from_findings(raw, &cfg);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.allowed.len(), 1);
        assert_eq!(report.unused_allow.len(), 1);
        assert!(!report.is_clean());
        assert_eq!(report.count("P1"), 1);
    }

    #[test]
    fn json_schema_has_the_stable_keys() {
        let report = Report::from_findings(
            vec![finding("D1", "crates/a/src/lib.rs", "s")],
            &Config::default(),
        );
        let v = serde_json::parse_value(&report.to_json()).expect("valid json");
        assert_eq!(v.get("version").and_then(Value::as_f64), Some(1.0));
        let findings = v.get("findings").expect("findings key");
        let Value::Array(items) = findings else { panic!("findings is an array") };
        let f = items.first().expect("one finding");
        for key in ["rule", "path", "line", "message", "snippet"] {
            assert!(f.get(key).is_some(), "missing key {key}");
        }
        assert!(v.get("summary").and_then(|s| s.get("by_rule")).is_some());
        assert_eq!(
            v.get("summary").and_then(|s| s.get("total")).and_then(Value::as_f64),
            Some(1.0)
        );
    }
}

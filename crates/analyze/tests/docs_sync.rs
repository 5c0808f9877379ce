//! The rule documentation must match what the analyzer emits.
//!
//! `--explain` and the README both document the rules; the first
//! renders from `docs::RULE_DOCS` at runtime, so only the README can
//! drift. These tests close that gap: the block between the
//! `rule-table:begin`/`rule-table:end` markers has to be byte-identical
//! to the rendered table, and every rule id a report emits (the fixture
//! tree fires all of them) has to have a `RULE_DOCS` entry.

use std::path::Path;
use tsda_analyze::config::Config;

#[test]
fn readme_rule_table_matches_docs_module() {
    let readme_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../README.md");
    let readme = std::fs::read_to_string(&readme_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", readme_path.display()));

    let begin = "<!-- rule-table:begin";
    let end = "<!-- rule-table:end -->";
    let start = readme
        .find(begin)
        .expect("README is missing the rule-table:begin marker");
    let start = readme[start..]
        .find('\n')
        .map(|n| start + n + 1)
        .expect("marker line unterminated");
    let stop = readme.find(end).expect("README is missing the rule-table:end marker");
    assert!(start < stop, "rule-table markers out of order");

    let in_readme = &readme[start..stop];
    let rendered = tsda_analyze::docs::readme_table();
    assert_eq!(
        in_readme, rendered,
        "README rule table drifted from docs::RULE_DOCS — \
         regenerate the block between the rule-table markers from \
         tsda_analyze::docs::readme_table()"
    );
}

#[test]
fn every_documented_rule_explains() {
    for doc in tsda_analyze::docs::RULE_DOCS {
        let text = tsda_analyze::docs::explain(doc.id)
            .unwrap_or_else(|| panic!("{} has no --explain text", doc.id));
        assert!(text.contains(doc.id), "{} explain text lacks its own id", doc.id);
        assert!(text.contains("[[allow]]"), "{} explain text lacks allowlist guidance", doc.id);
    }
}

#[test]
fn every_emitted_rule_is_documented() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let text = std::fs::read_to_string(root.join("analyze.toml")).expect("fixture config");
    let cfg = Config::parse(&text).expect("fixture config parses");
    let report = tsda_analyze::analyze(&root, &cfg).expect("fixture tree analyzes");
    let mut emitted: Vec<&str> = report
        .findings
        .iter()
        .chain(report.allowed.iter().map(|a| &a.finding))
        .map(|f| f.rule)
        .collect();
    emitted.sort_unstable();
    emitted.dedup();
    for id in &emitted {
        assert!(
            tsda_analyze::docs::RULE_DOCS.iter().any(|d| d.id == *id),
            "rule {id} is emitted but has no RULE_DOCS entry"
        );
    }
    // The fixtures fire every documented rule, so the check above
    // covers the whole table.
    assert_eq!(emitted.len(), tsda_analyze::docs::RULE_DOCS.len(), "{emitted:?}");
}

//! Fixture-based integration tests: each rule is exercised against a
//! miniature workspace under `tests/fixtures/` containing one plain
//! violation and one allowlisted occurrence per rule, so these tests
//! pin exact finding counts, allowlist behaviour, scoping (test code,
//! binaries, blessed files), and the JSON schema.

use serde::Value;
use std::path::{Path, PathBuf};
use tsda_analyze::config::Config;
use tsda_analyze::report::Report;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture_report() -> Report {
    let root = fixture_root();
    let text = std::fs::read_to_string(root.join("analyze.toml")).expect("fixture config");
    let cfg = Config::parse(&text).expect("fixture config parses");
    tsda_analyze::analyze(&root, &cfg).expect("fixture tree analyzes")
}

#[test]
fn d1_fires_on_rng_time_and_hash_and_respects_allowlist() {
    let r = fixture_report();
    let d1: Vec<_> = r.findings.iter().filter(|f| f.rule == "D1").collect();
    assert_eq!(d1.len(), 3, "{d1:?}");
    assert!(d1.iter().any(|f| f.message.contains("thread_rng")), "{d1:?}");
    assert!(d1.iter().any(|f| f.message.contains("wall-clock")), "{d1:?}");
    assert!(d1.iter().any(|f| f.message.contains("HashMap")), "{d1:?}");
    // The justified wall-clock read lands in `allowed`, not `findings`.
    let allowed: Vec<_> = r.allowed.iter().filter(|a| a.finding.rule == "D1").collect();
    assert_eq!(allowed.len(), 1, "{allowed:?}");
    assert!(allowed[0].finding.snippet.contains("allowlisted: fixture"));
    assert!(allowed[0].reason.contains("wall-clock"));
}

#[test]
fn d1_skips_wall_clock_and_hash_in_test_code() {
    let r = fixture_report();
    // The `#[cfg(test)]` module in fixture_d1 uses Instant and HashMap;
    // only the three library-code sites may fire (lines well before the
    // test module at the bottom of the file).
    for f in r.findings.iter().filter(|f| f.path.contains("fixture_d1")) {
        assert!(f.line < 20, "test-code finding leaked: {f:?}");
    }
}

#[test]
fn p1_fires_in_lib_but_not_bins_tests_or_combinators() {
    let r = fixture_report();
    let p1: Vec<_> = r.findings.iter().filter(|f| f.rule == "P1").collect();
    assert_eq!(p1.len(), 2, "{p1:?}");
    assert!(p1.iter().any(|f| f.message.contains(".unwrap()")), "{p1:?}");
    assert!(p1.iter().any(|f| f.message.contains("panic")), "{p1:?}");
    // The bin's unwrap and the test module's unwrap are out of scope.
    assert!(p1.iter().all(|f| !f.path.contains("/bin/")), "{p1:?}");
    let allowed: Vec<_> = r.allowed.iter().filter(|a| a.finding.rule == "P1").collect();
    assert_eq!(allowed.len(), 1, "{allowed:?}");
    assert!(allowed[0].finding.snippet.contains("expect"));
}

#[test]
fn u1_requires_safety_comments_and_crate_level_forbid() {
    let r = fixture_report();
    let u1: Vec<_> = r.findings.iter().filter(|f| f.rule == "U1").collect();
    assert_eq!(u1.len(), 2, "{u1:?}");
    // The undocumented unsafe block in fixture_u1 ...
    assert!(
        u1.iter().any(|f| f.path.contains("fixture_u1/") && f.message.contains("SAFETY")),
        "{u1:?}"
    );
    // ... and the missing `#![forbid(unsafe_code)]` in fixture_u1_missing.
    assert!(
        u1.iter()
            .any(|f| f.path.contains("fixture_u1_missing") && f.message.contains("forbid")),
        "{u1:?}"
    );
    // The documented block is clean; the allowlisted one is tolerated.
    let allowed: Vec<_> = r.allowed.iter().filter(|a| a.finding.rule == "U1").collect();
    assert_eq!(allowed.len(), 1, "{allowed:?}");
}

#[test]
fn f1_fires_outside_blessed_files_only() {
    let r = fixture_report();
    let f1: Vec<_> = r.findings.iter().filter(|f| f.rule == "F1").collect();
    assert_eq!(f1.len(), 1, "{f1:?}");
    assert!(f1[0].path.ends_with("fixture_f1/src/lib.rs"), "{f1:?}");
    // pool.rs is blessed: its spawn produces nothing at all.
    assert!(
        !r.findings.iter().chain(r.allowed.iter().map(|a| &a.finding)).any(|f| f.path.ends_with("pool.rs")),
        "blessed file produced output"
    );
    let allowed: Vec<_> = r.allowed.iter().filter(|a| a.finding.rule == "F1").collect();
    assert_eq!(allowed.len(), 1, "{allowed:?}");
}

#[test]
fn exact_totals_and_unused_allow_entries() {
    let r = fixture_report();
    assert_eq!(r.findings.len(), 22, "{:#?}", r.findings);
    assert_eq!(r.allowed.len(), 9, "{:#?}", r.allowed);
    // The two never.rs entries match nothing and must surface as stale.
    assert_eq!(r.unused_allow.len(), 2, "{:#?}", r.unused_allow);
    assert!(r.unused_allow.iter().all(|u| u.path.contains("never.rs")));
    assert!(r.unused_allow.iter().any(|u| u.rule == "P1"));
    assert!(r.unused_allow.iter().any(|u| u.rule == "L1"));
    assert!(!r.is_clean());
}

#[test]
fn json_schema_is_stable() {
    let r = fixture_report();
    let v = r.to_json_value();
    assert_eq!(v.get("version").and_then(Value::as_f64), Some(1.0));
    let Some(Value::Array(findings)) = v.get("findings") else {
        panic!("findings must be an array");
    };
    assert_eq!(findings.len(), 22);
    for f in findings {
        for key in ["rule", "path", "line", "message", "snippet"] {
            assert!(f.get(key).is_some(), "finding missing {key}: {f:?}");
        }
    }
    let Some(Value::Array(allowed)) = v.get("allowed") else {
        panic!("allowed must be an array");
    };
    assert_eq!(allowed.len(), 9);
    for a in allowed {
        assert!(a.get("reason").and_then(Value::as_str).is_some(), "{a:?}");
    }
    let Some(Value::Array(unused)) = v.get("unused_allow") else {
        panic!("unused_allow must be an array");
    };
    assert_eq!(unused.len(), 2);
    let summary = v.get("summary").expect("summary object");
    assert_eq!(summary.get("total").and_then(Value::as_f64), Some(22.0));
    let by_rule = summary.get("by_rule").expect("by_rule object");
    assert_eq!(by_rule.get("D1").and_then(Value::as_f64), Some(3.0));
    assert_eq!(by_rule.get("P1").and_then(Value::as_f64), Some(2.0));
    assert_eq!(by_rule.get("U1").and_then(Value::as_f64), Some(2.0));
    assert_eq!(by_rule.get("F1").and_then(Value::as_f64), Some(1.0));
    assert_eq!(by_rule.get("R1").and_then(Value::as_f64), Some(1.0));
    assert_eq!(by_rule.get("R2").and_then(Value::as_f64), Some(1.0));
    assert_eq!(by_rule.get("R3").and_then(Value::as_f64), Some(6.0));
    assert_eq!(by_rule.get("R4").and_then(Value::as_f64), Some(1.0));
    assert!(by_rule.get("A1").is_none(), "A1 is part of R3 now");
    assert_eq!(by_rule.get("L1").and_then(Value::as_f64), Some(1.0));
    assert_eq!(by_rule.get("L2").and_then(Value::as_f64), Some(1.0));
    assert_eq!(by_rule.get("T1").and_then(Value::as_f64), Some(2.0));
    assert_eq!(by_rule.get("C1").and_then(Value::as_f64), Some(1.0));
    // The serialised text round-trips through the vendored parser.
    let parsed: Value = serde_json::from_str(&r.to_json()).expect("self-parse");
    assert_eq!(parsed.get("version").and_then(Value::as_f64), Some(1.0));
}

#[test]
fn r1_reports_the_full_cross_crate_chain() {
    let r = fixture_report();
    let r1: Vec<_> = r.findings.iter().filter(|f| f.rule == "R1").collect();
    assert_eq!(r1.len(), 1, "{r1:?}");
    let f = r1[0];
    // Pinned snapshot: the finding anchors at the panic site in crate B
    // and the message walks the chain root-first with call sites.
    assert_eq!(f.path, "crates/fixture_r1b/src/lib.rs");
    assert_eq!(f.line, 7);
    assert_eq!(
        f.message,
        "panic site (.unwrap()) reachable from request/experiment root: \
         fixture_r1a::handle (crates/fixture_r1a/src/lib.rs:10) -> \
         fixture_r1a::dispatch (crates/fixture_r1a/src/lib.rs:14) -> \
         fixture_r1b::finish"
    );
}

#[test]
fn r2_flags_discarded_workspace_results() {
    let r = fixture_report();
    let r2: Vec<_> = r.findings.iter().filter(|f| f.rule == "R2").collect();
    assert_eq!(r2.len(), 1, "{r2:?}");
    assert!(r2[0].path.ends_with("fixture_r1a/src/lib.rs"), "{r2:?}");
    assert!(r2[0].message.contains("`save`"), "{r2:?}");
    assert!(r2[0].snippet.contains("let _ = save()"), "{r2:?}");
}

#[test]
fn r3_reports_allocations_reached_from_the_tagged_fn() {
    let r = fixture_report();
    let r3: Vec<_> = r
        .findings
        .iter()
        .filter(|f| f.rule == "R3" && f.path.contains("fixture_r1a"))
        .collect();
    assert_eq!(r3.len(), 2, "{r3:?}");
    // Both sites sit in the untagged transitive callee; the chain names
    // the tagged root.
    for f in &r3 {
        assert!(f.message.contains("fixture_r1a::hot_entry"), "{f:?}");
        assert!(f.message.contains("fixture_r1a::helper"), "{f:?}");
    }
    assert!(r3.iter().any(|f| f.message.contains("(Vec::new)")), "{r3:?}");
    assert!(r3.iter().any(|f| f.message.contains("(.push())")), "{r3:?}");
}

#[test]
fn r3_narrows_dyn_calls_to_coerced_implementors() {
    let r = fixture_report();
    let r3: Vec<_> = r
        .findings
        .iter()
        .filter(|f| f.rule == "R3" && f.path.contains("fixture_dyn"))
        .collect();
    // Only Fast is coerced into the `Box<dyn Step>` slot in non-test
    // code, so the hot root reaches Fast::apply's two allocations and
    // nothing in Slow::apply (its identical sites stay silent).
    assert_eq!(r3.len(), 2, "{r3:?}");
    for f in &r3 {
        assert!(f.message.contains("fixture_dyn::drive"), "{f:?}");
        assert!(f.message.contains("Fast::apply"), "{f:?}");
        assert!(!f.message.contains("Slow"), "{f:?}");
    }
    assert!(r3.iter().any(|f| f.message.contains("(Vec::new)")), "{r3:?}");
    assert!(r3.iter().any(|f| f.message.contains("(.push())")), "{r3:?}");
}

#[test]
fn r3_resolves_self_calls_to_the_callers_own_type() {
    let r = fixture_report();
    // `Lean::run` is hot and calls `self.step(..)`; `Heavy::step`
    // shares the name and allocates, but `self` is a `Lean`.
    assert!(
        !r.findings.iter().any(|f| f.message.contains("Lean::run") || f.message.contains("Heavy")),
        "self call resolved past its own type: {:#?}",
        r.findings
    );
}

#[test]
fn r3v2_clears_allocations_that_escape_into_the_out_param() {
    let r = fixture_report();
    // fixture_dyn::fill is hot and allocates (vec! + .extend()), but
    // the buffer provably flows into the caller's &mut out-param, so
    // the escape analysis clears both sites.
    assert!(
        !r.findings
            .iter()
            .chain(r.allowed.iter().map(|a| &a.finding))
            .any(|f| f.rule == "R3" && f.message.contains("fill")),
        "escaping allocation was flagged: {:#?}",
        r.findings
    );
}

/// `fixture_a1` pins R3's scratch discipline.
#[test]
fn a1_bans_hot_allocations_outside_the_scratch_arena() {
    let r = fixture_report();
    let a1: Vec<_> =
        r.findings.iter().filter(|f| f.rule == "R3" && f.path.contains("fixture_a1")).collect();
    assert_eq!(a1.len(), 2, "{a1:?}");
    // The escaping copy in the root itself: escape analysis clears it
    // (it flows into encode's argument) but the discipline still bans it.
    assert!(
        a1.iter().any(|f| f.message.contains("(.to_vec()) on a hot path outside the scratch arena")
            && f.message.contains("fixture_a1::submit")),
        "{a1:?}"
    );
    // The format! one hop down, with the chain from the hot root.
    assert!(
        a1.iter().any(|f| f.message.contains("(format!) on a hot path outside the scratch arena")
            && f.message.contains("fixture_a1::encode")),
        "{a1:?}"
    );
    // Scratch-routed sites and the arena's own methods stay silent.
    assert!(
        !a1.iter().any(|f| f.message.contains("with_capacity")),
        "scratch-approved or arena-owned site flagged: {a1:?}"
    );
    // The boxed return is allowlisted, not a finding.
    let allowed: Vec<_> = r.allowed.iter().filter(|a| a.finding.rule == "R3").collect();
    assert_eq!(allowed.len(), 1, "{allowed:?}");
    assert!(allowed[0].finding.message.contains("Box::new"), "{allowed:?}");
    assert!(allowed[0].finding.snippet.contains("allowlisted: fixture"));
}

#[test]
fn r4_flags_bare_sums_and_tolerates_the_allowlisted_scan() {
    let r = fixture_report();
    let r4: Vec<_> = r.findings.iter().filter(|f| f.rule == "R4").collect();
    assert_eq!(r4.len(), 1, "{r4:?}");
    assert!(r4[0].message.contains("sum_stable"), "{r4:?}");
    assert!(r4[0].snippet.contains(".sum::<f64>()"), "{r4:?}");
    let allowed: Vec<_> = r.allowed.iter().filter(|a| a.finding.rule == "R4").collect();
    assert_eq!(allowed.len(), 1, "{allowed:?}");
    assert!(allowed[0].finding.snippet.contains("acc += v"), "{allowed:?}");
    assert!(allowed[0].reason.contains("prefix scan"), "{allowed:?}");
}

#[test]
fn l1_reports_the_cycle_once_with_both_chains() {
    let r = fixture_report();
    let l1: Vec<_> = r.findings.iter().filter(|f| f.rule == "L1").collect();
    assert_eq!(l1.len(), 1, "{l1:?}");
    let f = l1[0];
    // Pinned snapshot: the cycle is reported once, anchored at the
    // a -> b edge (the call into the helper that takes `b`), and the
    // message carries both full chains — the interprocedural arm
    // through grab_b and the direct arm in ba.
    assert_eq!(f.path, "crates/fixture_l1/src/lib.rs");
    assert_eq!(f.line, 19);
    assert_eq!(
        f.message,
        "lock-order cycle: `a` -> `b` -> `a`; \
         acquires `b` while holding `a` via fixture_l1::Pair::ab \
         (crates/fixture_l1/src/lib.rs:19) -> fixture_l1::Pair::grab_b; \
         acquires `a` while holding `b` via fixture_l1::Pair::ba \
         (crates/fixture_l1/src/lib.rs:33)"
    );
}

#[test]
fn l2_flags_guard_across_blocking_and_tolerates_the_allowlisted_sleep() {
    let r = fixture_report();
    let l2: Vec<_> = r.findings.iter().filter(|f| f.rule == "L2").collect();
    assert_eq!(l2.len(), 1, "{l2:?}");
    assert_eq!(l2[0].line, 40);
    assert_eq!(
        l2[0].message,
        "`a` guard (acquired line 39) is held across blocking `wait` — \
         take what you need and drop the guard before blocking"
    );
    let allowed: Vec<_> = r.allowed.iter().filter(|a| a.finding.rule == "L2").collect();
    assert_eq!(allowed.len(), 1, "{allowed:?}");
    assert!(allowed[0].finding.message.contains("blocking `sleep`"), "{allowed:?}");
    assert!(allowed[0].finding.snippet.contains("allowlisted: fixture"));
}

#[test]
fn t1_and_c1_flag_unbounded_wire_lengths_and_clear_on_named_bounds() {
    let r = fixture_report();
    let t1: Vec<_> = r.findings.iter().filter(|f| f.rule == "T1").collect();
    let c1: Vec<_> = r.findings.iter().filter(|f| f.rule == "C1").collect();
    assert_eq!((t1.len(), c1.len()), (2, 1), "{t1:?} {c1:?}");
    // decode_unbounded: the cast plus both sized allocations.
    assert!(c1[0].snippet.contains("self.u32() as usize"), "{c1:?}");
    assert!(c1[0].message.contains("lossy `as` cast on wire-derived"), "{c1:?}");
    assert!(t1.iter().any(|f| f.message.contains("`n` reaches `with_capacity`")), "{t1:?}");
    assert!(t1.iter().any(|f| f.message.contains("`n` reaches `resize`")), "{t1:?}");
    // decode_bounded (lines 38..46) compares against MAX_ITEMS and must
    // stay silent for both rules.
    assert!(
        t1.iter().chain(c1.iter()).all(|f| !(38..=46).contains(&f.line)),
        "bounded decoder flagged: {t1:?} {c1:?}"
    );
    // decode_allowlisted lands in `allowed` under both rules.
    for rule in ["T1", "C1"] {
        let allowed: Vec<_> = r.allowed.iter().filter(|a| a.finding.rule == rule).collect();
        assert_eq!(allowed.len(), 1, "{rule}: {allowed:?}");
        assert!(allowed[0].finding.snippet.contains("allowlisted: fixture"));
    }
}

#[test]
fn findings_are_sorted_and_deduplicated() {
    let r = fixture_report();
    let keys: Vec<_> = r.findings.iter().map(|f| (f.path.clone(), f.line, f.rule)).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(keys, sorted, "findings must be sorted by (path, line, rule) and unique");
}

//! The one rule-documentation table.
//!
//! `tsda_analyze --explain <RULE>` and the README's static-analysis
//! section both render from [`RULE_DOCS`] — one source, so the docs
//! cannot drift apart. `tests/docs_sync.rs` pins the README table to
//! this module and checks that every rule a report emits is in it.

/// Documentation for one rule.
pub struct RuleDoc {
    /// Rule id (`D1`, ..., `R4`).
    pub id: &'static str,
    /// One-line summary (README table cell / `--explain` headline).
    pub summary: &'static str,
    /// Why the rule exists, in terms of the experimental protocol.
    pub rationale: &'static str,
    /// What a justified `[[allow]]` entry for this rule must argue.
    pub allow_guidance: &'static str,
}

/// Every rule the analyzer knows, in report order.
pub const RULE_DOCS: &[RuleDoc] = &[
    RuleDoc {
        id: "D1",
        summary: "no nondeterminism: unseeded RNGs anywhere; wall-clock reads and hash-order iteration in result-producing library code",
        rationale: "the paper's Table III/IV numbers are averages over 5 fixed seeds; an unseeded RNG, a timing-dependent branch, or HashMap iteration order makes reruns diverge silently",
        allow_guidance: "explain why the site cannot influence any result bytes (e.g. timers that only shape batching, observability counters)",
    },
    RuleDoc {
        id: "P1",
        summary: "no panics in library code of serving-path crates (unwrap/expect/panic!-family/string-keyed indexing)",
        rationale: "tsda-serve keeps a TCP server alive through arbitrary client input; any panic on a lib path is a remote crash",
        allow_guidance: "argue infallibility by construction (invariant established in the same function or module) or a documented API contract",
    },
    RuleDoc {
        id: "U1",
        summary: "unsafe hygiene: every `unsafe` needs a `// SAFETY:` comment; zero-unsafe crates must `#![forbid(unsafe_code)]`",
        rationale: "an unsound block corrupts results as happily in test code as in production; forbid makes the zero-unsafe state load-bearing",
        allow_guidance: "do not allowlist; write the SAFETY comment or remove the unsafe",
    },
    RuleDoc {
        id: "F1",
        summary: "no raw threading outside the blessed deterministic pool (tsda_core::parallel)",
        rationale: "the pool's fixed chunking and ordered combine are what make float reductions bit-identical across thread counts; raw threads reorder them",
        allow_guidance: "explain why the threads can never reduce floats across thread boundaries (e.g. connection handlers)",
    },
    RuleDoc {
        id: "R1",
        summary: "panic reachability: nothing transitively reachable from the serve request path or the experiment harness roots may contain a panic site",
        rationale: "P1 checks one line at a time; R1 walks the call graph from [rules.R1].roots so a panic three crates down the request path is caught with its full call chain",
        allow_guidance: "name the invariant that makes the reported chain impossible (the chain is in the finding message; resolution is conservative, so type-impossible chains are allowlisted with the reason they are impossible)",
    },
    RuleDoc {
        id: "R2",
        summary: "fallibility hygiene: workspace `Result`s must not be discarded via `let _ =` or bare-expression statements in library code",
        rationale: "a dropped Result turns an error path into silent data loss — exactly how torn responses and short reads disappear until the chaos suite catches them downstream",
        allow_guidance: "explain why the error genuinely cannot matter at this site (e.g. best-effort reply on an already-failed connection)",
    },
    RuleDoc {
        id: "R3",
        summary: "hot-path allocation: functions tagged #[doc(alias = \"tsda::hot\")] and everything they call may not allocate in steady state — a site is cleared only when escape analysis proves it flows into a caller-provided &mut/Scratch param, the return value, or a one-time OnceLock init; in the [rules.R3].scratch crates .clone() also counts, and Vec::new/with_capacity, .to_vec(), .clone(), format! and Box::new must go through a Scratch-typed receiver (arena methods themselves are exempt)",
        rationale: "per-element allocation in conv/GEMM kernels, the batcher submit path, or the wire codec turns O(1) inner loops into allocator traffic and latency jitter the serving benchmarks then mismeasure; the clearing means the remaining findings are real churn, and the scratch discipline holds serving crates to zero allocator calls per steady-state request, where escaping into a return value is not enough",
        allow_guidance: "do not allowlist — thread the allocation into a caller-provided scratch arena, restructure it into a constructor/OnceLock path the escape analysis can prove, or move the work off the hot path",
    },
    RuleDoc {
        id: "R4",
        summary: "float-accumulation order: float reductions in result-producing code must route through tsda_core::math::sum_stable",
        rationale: "`.sum()` / `+=` loops pin accumulation order only until the next refactor reorders them; sum_stable fixes one compensated left-to-right order workspace-wide, so accuracy tables cannot drift a ulp at a time",
        allow_guidance: "explain what already pins the order and magnitude (e.g. a kernel whose loop structure is the documented contract, covered by goldens)",
    },
    RuleDoc {
        id: "L1",
        summary: "lock-order cycles: interprocedural lock-acquisition summaries must form an acyclic lock-order graph; any cycle is reported with both full call chains",
        rationale: "the router holds per-replica and registry locks across helper calls; two paths taking the same pair of locks in opposite orders deadlock only under contention — exactly the failure load tests hit and unit tests miss",
        allow_guidance: "name the invariant that makes the two chains unable to run concurrently (e.g. both only ever execute on the monitor thread); a cycle two threads can actually race is a bug, not an allowlist entry",
    },
    RuleDoc {
        id: "L2",
        summary: "guard held across blocking: a live MutexGuard/RwLock guard may not span a call that (transitively) reaches read/write/accept/recv/join/sleep/wait",
        rationale: "a guard held over IO turns one slow peer into a stall for every thread that touches the lock — the health-loop-vs-failover shape; take what you need from the guard and drop it before blocking",
        allow_guidance: "explain why the blocking call cannot actually block (e.g. the fd is nonblocking, the channel is pre-filled) or why no other thread contends the lock during it",
    },
    RuleDoc {
        id: "T1",
        summary: "untrusted-length taint: lengths decoded from the wire are tainted until compared against a named MAX_* bound const (or routed through checked_len); tainted values reaching with_capacity/vec!/resize/indexing are findings",
        rationale: "protocol v2 reads length-prefixed frames straight off the network; one unchecked u32 length in an allocation is a one-packet memory-DoS, and in an index a remote panic",
        allow_guidance: "point at the dominating bound check the dataflow pass cannot see (e.g. enforced by the caller on the same value) — prefer routing through checked_len over allowlisting",
    },
    RuleDoc {
        id: "C1",
        summary: "lossy wire casts: `as` truncation on wire-derived integers; use try_into or an explicit bound check so truncation is an error, not a silent wrap",
        rationale: "a u64 table length cast with `as usize` wraps on 32-bit or lets 2^32+5 masquerade as 5 — decode then disagrees with the CRC'd frame, the worst kind of silent corruption",
        allow_guidance: "show the value's range is already pinned below the target width at this site (e.g. masked immediately before); otherwise convert with try_into",
    },
];

/// Look up one rule's doc by id.
pub fn rule_doc(id: &str) -> Option<&'static RuleDoc> {
    RULE_DOCS.iter().find(|d| d.id == id)
}

/// Render the `--explain` text for a rule.
pub fn explain(id: &str) -> Option<String> {
    let d = rule_doc(id)?;
    Some(format!(
        "{}: {}\n\nWhy it exists:\n  {}\n\nAllowlisting:\n  Add an [[allow]] entry to analyze.toml:\n\n    [[allow]]\n    rule = \"{}\"\n    path = \"crates/...\"        # path prefix of the finding\n    contains = \"...\"           # optional: substring of the finding's source line\n    reason = \"...\"             # mandatory justification\n\n  The reason must {}.\n",
        d.id, d.summary, d.rationale, d.id, d.allow_guidance
    ))
}

/// The README's rule table, rendered from [`RULE_DOCS`] (one `| id |
/// summary |` row per rule). `tests/docs_sync.rs` pins the README to
/// exactly these lines.
pub fn readme_table() -> String {
    let mut out = String::from("| rule | checks |\n|------|--------|\n");
    for d in RULE_DOCS {
        out.push_str(&format!("| {} | {} |\n", d.id, d.summary));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_id_documented_exactly_once() {
        let ids: Vec<&str> = RULE_DOCS.iter().map(|d| d.id).collect();
        assert_eq!(
            ids,
            vec!["D1", "P1", "U1", "F1", "R1", "R2", "R3", "R4", "L1", "L2", "T1", "C1"]
        );
    }

    #[test]
    fn explain_renders_and_unknown_is_none() {
        let text = explain("R1").expect("R1 documented");
        assert!(text.contains("panic"));
        assert!(text.contains("[[allow]]"));
        assert!(explain("Z9").is_none());
    }

    #[test]
    fn readme_table_has_a_row_per_rule() {
        let table = readme_table();
        assert_eq!(table.lines().count(), 2 + RULE_DOCS.len());
        for d in RULE_DOCS {
            assert!(table.contains(&format!("| {} |", d.id)));
        }
    }
}

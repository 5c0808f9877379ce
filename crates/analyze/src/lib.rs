#![forbid(unsafe_code)]
//! `tsda-analyze`: in-repo static analysis enforcing the invariants the
//! experimental protocol depends on.
//!
//! The paper's claims are averaged accuracy deltas over 5 seeded runs;
//! PR 1 and PR 2 promised bit-identical results across thread counts
//! and save/load round trips. Those promises only hold if nobody
//! quietly introduces wall-clock-seeded randomness, hash-order
//! iteration, raw threading, or a panic on a serving path — so this
//! crate machine-checks them on every build instead of relying on
//! reviewer vigilance.
//!
//! Two front ends feed the rules. The [lexer] turns each file into
//! tokens (strings, raw strings, nested comments and lifetimes handled
//! exactly), and the token rules in [`rules`] judge one token pattern
//! at a time:
//!
//! * **D1 no-nondeterminism** — unseeded RNGs anywhere; wall-clock
//!   reads and `HashMap`/`HashSet` in result-producing library code.
//! * **P1 no-panic-in-library** — `unwrap`/`expect`/`panic!`-family /
//!   string-keyed indexing in the library code of crates a server must
//!   not crash through.
//! * **U1 unsafe-hygiene** — every `unsafe` carries `// SAFETY:`;
//!   crates with zero unsafe declare `#![forbid(unsafe_code)]`.
//! * **F1 float-reduction-order** — raw `thread::spawn`/`scope`
//!   outside the blessed deterministic pool in `tsda-core::parallel`.
//!
//! The item [parser] recovers fns, owners, calls and panic sites from
//! the same tokens; the [call graph](callgraph) links them across
//! crates, and two passes run on it: the [interprocedural](interproc)
//! rules (R1 panic reachability, R2 discarded `Result`s, R3 hot-path
//! allocation, R4 float-accumulation order) and the [dataflow] rules
//! (L1 lock order, L2 guards held across blocking, T1 untrusted
//! lengths, C1 lossy wire casts). [`docs::RULE_DOCS`] documents each.
//!
//! Scoping and the justification-bearing allowlist live in the
//! checked-in [`analyze.toml`](config) at the workspace root. The
//! `tsda_analyze` bin exits 0 on a clean tree, 1 on findings, 2 on
//! usage/config errors; `--format json` emits the stable schema
//! documented in [`report`].

pub mod callgraph;
pub mod config;
pub mod dataflow;
pub mod docs;
pub mod interproc;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod traitobj;
pub mod workspace;

use config::Config;
use report::Report;
use std::path::Path;

/// Analyze the workspace at `root` with `cfg`: walk, lex, run the
/// token-stream rules, build the call graph, run the interprocedural
/// rules and the [dataflow] rules (lock order, guard
/// liveness, wire-input taint), apply the allowlist. Per-rule wall
/// times land in [`Report::timings`].
pub fn analyze(root: &Path, cfg: &Config) -> Result<Report, String> {
    let files = workspace::load_workspace(root, &cfg.scan, &cfg.skip)?;
    let (mut raw, mut timings) = rules::run_rules_timed(&files, cfg);
    let t0 = std::time::Instant::now();
    let deps = workspace::crate_dep_closure(root, &cfg.scan);
    let graph = callgraph::CallGraph::build_with_deps(&files, &deps);
    timings.push(("graph".to_string(), rules::ms_since(t0)));
    interproc::run_interproc_timed(&files, &graph, cfg, &mut raw, &mut timings);
    dataflow::run_dataflow_timed(&files, &graph, cfg, &mut raw, &mut timings);
    rules::sort_dedup(&mut raw);
    let mut report = Report::from_findings(raw, cfg);
    report.timings = timings;
    Ok(report)
}

/// Analyze using the `analyze.toml` found at `root`.
pub fn analyze_with_default_config(root: &Path) -> Result<Report, String> {
    let cfg_path = root.join("analyze.toml");
    let text = std::fs::read_to_string(&cfg_path)
        .map_err(|e| format!("read {}: {e}", cfg_path.display()))?;
    let cfg = Config::parse(&text)?;
    analyze(root, &cfg)
}

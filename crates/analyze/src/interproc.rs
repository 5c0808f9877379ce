//! The interprocedural rules: R1 (panic reachability), R2 (fallibility
//! hygiene), R3 (hot-path allocation), R4 (float-accumulation order),
//! A1 (scratch discipline).
//!
//! Where D1/P1/U1/F1 judge one line at a time, these rules run over the
//! [call graph](crate::callgraph): what matters is not whether a
//! function *contains* a panic, but whether the serving path or the
//! experiment harness can *reach* one. Scoping:
//!
//! | rule | question | scope |
//! |------|----------|-------|
//! | R1 | can a configured root (`[rules.R1].roots`) transitively reach a panic site? | whole graph, test fns excluded |
//! | R2 | is a workspace `Result` discarded (`let _ =` / bare statement)? | `[rules.R2].crates`, lib, non-test |
//! | R3 | can a `#[doc(alias = "tsda::hot")]` fn transitively reach a *steady-state* allocation? | whole graph, test fns excluded |
//! | R4 | is a float reduction not routed through `tsda_core::math::sum_stable`? | `[rules.R4].crates`, lib, non-test |
//! | A1 | does a hot-reachable fn in a scratch-disciplined crate allocate outside a `Scratch` receiver? | `[rules.A1].crates`, non-test |
//!
//! R1/R3/A1 findings point at the offending *site* and carry the full
//! call chain from the root in the message, so the fix target and the
//! reason it matters are both in one line of CI output. Resolution is
//! conservative (see [`crate::callgraph`]): a finding may name a chain
//! the types would rule out, and the allowlist entry for such a site
//! must say *why* the chain is impossible — that justification is the
//! point of the rule.
//!
//! ## R3v2: escape clearing
//!
//! R3 no longer flags every allocation a hot root can reach — it flags
//! the ones that are *steady-state churn*. A site is cleared when the
//! segment-level backward taint (same machinery family as
//! [`crate::dataflow`]) proves the allocation escapes the call:
//!
//! * it flows into a caller-provided `&mut` out-param or a
//!   `Scratch`-typed param (amortized into caller-owned storage);
//! * it flows into the fn's return value (a constructor path — the
//!   allocation is the API's output, audited at the caller);
//! * it sits inside a `get_or_init`/`get_or_try_init` closure (a
//!   one-time `OnceLock` path);
//! * its receiver path goes through a `Scratch` binding (`scratch.buf
//!   .push(..)` — growth amortizes into the arena).
//!
//! The taint is scope-aware: closure bodies are separate scopes with
//! empty seeds, so an allocation inside a worker closure never clears
//! through the *enclosing* fn's return, and flat `;`-segments
//! over-approximate control flow in the conservative direction.

use crate::callgraph::{CallGraph, FnId};
use crate::config::Config;
use crate::lexer::{Tok, TokKind};
use crate::parser::FnDef;
use crate::rules::Finding;
use crate::workspace::{FileKind, SourceFile};
use std::collections::BTreeMap;

/// Method names whose call allocates (on the receiver's buffer or a
/// fresh one). `collect` is included: hot kernels must write into
/// preallocated output, not grow containers per element.
const ALLOC_METHODS: &[&str] =
    &["push", "to_vec", "to_owned", "to_string", "collect", "extend", "insert"];

/// `Type::ctor` pairs that allocate.
const ALLOC_CTORS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("String", "new"),
    ("String", "with_capacity"),
    ("String", "from"),
    ("Box", "new"),
];

/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// Methods A1 bans outright in scratch-disciplined crates. Narrower
/// than R3's list on purpose: `vec![0.0; n]` staging through
/// `Tensor::zeros`-style constructors is R3's business; A1 polices the
/// *incidental* per-request allocations that creep into serving code.
const A1_METHODS: &[&str] = &["to_vec", "clone"];

/// `Type::ctor` pairs A1 bans.
const A1_CTORS: &[(&str, &str)] =
    &[("Vec", "new"), ("Vec", "with_capacity"), ("Box", "new")];

/// Macros A1 bans.
const A1_MACROS: &[&str] = &["format"];

/// Run R1–R4 and append findings. `files` must be the same slice the
/// graph was built from (findings quote source lines through it).
pub fn run_interproc(
    files: &[SourceFile],
    graph: &CallGraph,
    cfg: &Config,
    findings: &mut Vec<Finding>,
) {
    check_r1(files, graph, cfg, findings);
    check_r2(files, graph, cfg, findings);
    check_r3(files, graph, findings);
    check_r4(files, cfg, findings);
    check_a1(files, graph, cfg, findings);
}

/// [`run_interproc`] with per-rule wall time (ms) appended to `timings`.
pub fn run_interproc_timed(
    files: &[SourceFile],
    graph: &CallGraph,
    cfg: &Config,
    findings: &mut Vec<Finding>,
    timings: &mut Vec<(String, f64)>,
) {
    let t0 = std::time::Instant::now();
    check_r1(files, graph, cfg, findings);
    timings.push(("R1".to_string(), crate::rules::ms_since(t0)));
    let t0 = std::time::Instant::now();
    check_r2(files, graph, cfg, findings);
    timings.push(("R2".to_string(), crate::rules::ms_since(t0)));
    let t0 = std::time::Instant::now();
    check_r3(files, graph, findings);
    timings.push(("R3".to_string(), crate::rules::ms_since(t0)));
    let t0 = std::time::Instant::now();
    check_r4(files, cfg, findings);
    timings.push(("R4".to_string(), crate::rules::ms_since(t0)));
    let t0 = std::time::Instant::now();
    check_a1(files, graph, cfg, findings);
    timings.push(("A1".to_string(), crate::rules::ms_since(t0)));
}

pub(crate) fn file_of<'a>(files: &'a [SourceFile], f: &FnDef) -> Option<&'a SourceFile> {
    files.iter().find(|s| s.rel_path == f.rel_path)
}

pub(crate) fn push_at(
    findings: &mut Vec<Finding>,
    files: &[SourceFile],
    rule: &'static str,
    rel_path: &str,
    line: u32,
    message: String,
) {
    let snippet = files
        .iter()
        .find(|s| s.rel_path == rel_path)
        .map_or(String::new(), |s| s.line_text(line).to_string());
    findings.push(Finding { rule, path: rel_path.to_string(), line, message, snippet });
}

/// Render a parent chain as `root (site) -> ... -> target`.
pub(crate) fn chain_text(
    graph: &CallGraph,
    parents: &BTreeMap<FnId, Option<(FnId, usize)>>,
    id: FnId,
) -> String {
    graph.chain_to(parents, id).join(" -> ")
}

// ---------------------------------------------------------------- R1

fn check_r1(
    files: &[SourceFile],
    graph: &CallGraph,
    cfg: &Config,
    findings: &mut Vec<Finding>,
) {
    if cfg.r1_roots.is_empty() {
        return;
    }
    let mut roots: Vec<FnId> = Vec::new();
    for key in &cfg.r1_roots {
        let matched = graph.roots_matching(key);
        if matched.is_empty() {
            // A root that matches nothing is a rotted config: the path
            // it was guarding is no longer protected. Hard finding, not
            // a warning.
            findings.push(Finding {
                rule: "R1",
                path: "analyze.toml".to_string(),
                line: 0,
                message: format!(
                    "R1 root {key:?} matches no function in the workspace \
                     (expected `crate::fn_name`)"
                ),
                snippet: key.clone(),
            });
        }
        roots.extend(matched);
    }
    let parents = graph.reach_with_parents(&roots);
    for &id in parents.keys() {
        let f = &graph.fns[id];
        if f.in_test {
            continue;
        }
        for p in &f.panics {
            push_at(
                findings,
                files,
                "R1",
                &f.rel_path,
                p.line,
                format!(
                    "panic site ({}) reachable from request/experiment root: {}",
                    p.what,
                    chain_text(graph, &parents, id)
                ),
            );
        }
    }
}

// ---------------------------------------------------------------- R2

fn check_r2(
    files: &[SourceFile],
    graph: &CallGraph,
    cfg: &Config,
    findings: &mut Vec<Finding>,
) {
    for (id, f) in graph.fns.iter().enumerate() {
        if f.in_test || !cfg.r2_crates.iter().any(|c| c == &f.crate_name) {
            continue;
        }
        let Some(file) = file_of(files, f) else { continue };
        if file.kind != FileKind::Lib {
            continue;
        }
        let mut resolved: BTreeMap<usize, Vec<FnId>> = BTreeMap::new();
        for e in &graph.edges[id] {
            resolved.entry(e.call_idx).or_default().push(e.to);
        }
        // A call is "definitely fallible" when it resolved to at least
        // one workspace fn and every candidate returns Result — the
        // conservative direction for a *discard* lint is to stay quiet
        // on ambiguity, not to cry wolf on `()`-returning overloads.
        let returns_result = |call_idx: usize| -> bool {
            resolved.get(&call_idx).is_some_and(|cands| {
                !cands.is_empty() && cands.iter().all(|&c| graph.fns[c].returns_result)
            })
        };
        for stmt in statements(&file.toks, f.body.clone()) {
            let toks = &file.toks;
            let discarded = match discard_shape(toks, stmt.clone()) {
                Some(d) => d,
                None => continue,
            };
            for (call_idx, call) in f.calls.iter().enumerate() {
                if !stmt.contains(&call.tok) || !returns_result(call_idx) {
                    continue;
                }
                let how = match discarded {
                    Discard::LetUnderscore => "bound to `_`",
                    Discard::BareStatement => "dropped by a bare statement",
                };
                push_at(
                    findings,
                    files,
                    "R2",
                    &f.rel_path,
                    call.line,
                    format!(
                        "`Result` from `{}` is {how} — handle it or propagate with `?`",
                        call.name
                    ),
                );
            }
        }
    }
}

#[derive(Clone, Copy)]
enum Discard {
    LetUnderscore,
    BareStatement,
}

/// Split a body token range into `;`-terminated statement spans. Spans
/// are *flat*: nested blocks contribute their own statements, and a
/// statement containing a block (e.g. `if .. { .. }`) is not produced.
fn statements(toks: &[Tok], body: std::ops::Range<usize>) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let end = body.end.min(toks.len());
    let mut start = body.start;
    let mut i = body.start;
    while i < end {
        let t = &toks[i];
        if t.is_punct('{') || t.is_punct('}') {
            start = i + 1;
        } else if t.is_punct(';') {
            if start < i {
                out.push(start..i);
            }
            start = i + 1;
        }
        i += 1;
    }
    out
}

/// Does this statement span discard its value? `let _ = ...` always
/// does; a bare call statement (`f(x);` / `x.f();` / `T::f(x);`) does
/// unless the value is consumed (`?`, `=`, control flow, `.await`, or a
/// trailing `.expect(..)` / `.unwrap()`, whose panic is P1's business).
fn discard_shape(toks: &[Tok], stmt: std::ops::Range<usize>) -> Option<Discard> {
    let s = stmt.start;
    if toks.get(s).is_some_and(|t| t.is_ident("let"))
        && toks.get(s + 1).is_some_and(|t| t.kind == TokKind::Ident && t.text == "_")
        && toks.get(s + 2).is_some_and(|t| t.is_punct('='))
        && !toks.get(s + 3).is_some_and(|t| t.is_punct('='))
    {
        return Some(Discard::LetUnderscore);
    }
    let first = toks.get(s)?;
    let head_ok = first.kind == TokKind::Ident
        && !matches!(
            first.text.as_str(),
            "let" | "if" | "else" | "match" | "for" | "while" | "loop" | "return" | "break"
                | "continue" | "use" | "fn" | "struct" | "enum" | "impl" | "trait" | "mod"
                | "const" | "static" | "type" | "unsafe" | "pub" | "assert" | "debug_assert"
        );
    if !head_ok {
        return None;
    }
    let consumes = stmt.clone().any(|i| {
        let t = &toks[i];
        t.is_punct('?') || t.is_punct('=') || t.is_ident("await") || t.is_ident("return")
    });
    if consumes || ends_in_unwrap(toks, stmt) {
        return None;
    }
    Some(Discard::BareStatement)
}

/// Does the statement end in a `.expect(..)` or `.unwrap()` call?
fn ends_in_unwrap(toks: &[Tok], stmt: std::ops::Range<usize>) -> bool {
    if stmt.is_empty() || !toks[stmt.end - 1].is_punct(')') {
        return false;
    }
    // Walk back to the `(` matching the final `)`.
    let mut depth = 0usize;
    let mut open = stmt.end;
    while open > stmt.start {
        open -= 1;
        if toks[open].is_punct(')') {
            depth += 1;
        } else if toks[open].is_punct('(') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
    }
    open >= stmt.start + 2
        && (toks[open - 1].is_ident("expect") || toks[open - 1].is_ident("unwrap"))
        && toks[open - 2].is_punct('.')
}

// ---------------------------------------------------------------- R3

fn check_r3(files: &[SourceFile], graph: &CallGraph, findings: &mut Vec<Finding>) {
    let roots: Vec<FnId> = graph
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| f.is_hot && !f.in_test)
        .map(|(id, _)| id)
        .collect();
    if roots.is_empty() {
        return;
    }
    let parents = graph.reach_with_parents(&roots);
    for &id in parents.keys() {
        let f = &graph.fns[id];
        if f.in_test {
            continue;
        }
        let Some(file) = file_of(files, f) else { continue };
        let sites = allocation_sites(&file.toks, f.body.clone(), ALLOC_SETS);
        if sites.is_empty() {
            continue;
        }
        let flow = EscapeFlow::new(&file.toks, f);
        for (tok, line, what) in sites {
            if flow.cleared(tok) {
                continue;
            }
            push_at(
                findings,
                files,
                "R3",
                &f.rel_path,
                line,
                format!(
                    "allocation ({what}) on a hot path: {}",
                    chain_text(graph, &parents, id)
                ),
            );
        }
    }
}

/// Which method/ctor/macro names count as allocation sites.
struct AllocSets {
    methods: &'static [&'static str],
    ctors: &'static [(&'static str, &'static str)],
    macros: &'static [&'static str],
}

const ALLOC_SETS: &AllocSets =
    &AllocSets { methods: ALLOC_METHODS, ctors: ALLOC_CTORS, macros: ALLOC_MACROS };

const A1_SETS: &AllocSets =
    &AllocSets { methods: A1_METHODS, ctors: A1_CTORS, macros: A1_MACROS };

/// Allocation sites (token index, line, description) in a body range.
fn allocation_sites(
    toks: &[Tok],
    body: std::ops::Range<usize>,
    sets: &AllocSets,
) -> Vec<(usize, u32, String)> {
    let mut out = Vec::new();
    let end = body.end.min(toks.len());
    for i in body.start..end {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        if sets.methods.contains(&t.text.as_str())
            && i >= 1
            && toks[i - 1].is_punct('.')
            && next_non_turbofish_is_paren(toks, i + 1, end)
        {
            out.push((i, t.line, format!(".{}()", t.text)));
            continue;
        }
        if sets.macros.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            out.push((i, t.line, format!("{}!", t.text)));
            continue;
        }
        if let Some((ty, ctor)) = sets.ctors.iter().find(|(ty, _)| t.is_ident(ty)) {
            // `Vec::new(..)` — possibly with a turbofish on the type.
            let mut j = i + 1;
            if toks.get(j).is_some_and(|n| n.is_punct(':'))
                && toks.get(j + 1).is_some_and(|n| n.is_punct(':'))
                && toks.get(j + 2).is_some_and(|n| n.is_punct('<'))
            {
                j = skip_angle(toks, j + 2, end);
                if !(toks.get(j).is_some_and(|n| n.is_punct(':'))
                    && toks.get(j + 1).is_some_and(|n| n.is_punct(':')))
                {
                    continue;
                }
            }
            if toks.get(j).is_some_and(|n| n.is_punct(':'))
                && toks.get(j + 1).is_some_and(|n| n.is_punct(':'))
                && toks.get(j + 2).is_some_and(|n| n.is_ident(ctor))
            {
                out.push((i, t.line, format!("{ty}::{ctor}")));
            }
        }
    }
    out
}

/// Per-fn escape analysis for R3v2 and A1 (see module docs): statement
/// groups at the outer scope, closure-body scoping, and a backward
/// taint fixpoint from the fn's escape surfaces (`&mut`/`Scratch`
/// params, return value, tail expression).
///
/// A *group* is one statement of a scope: the span between `;`/brace
/// boundaries at that scope's nesting level. The fn body is scope 0;
/// every braced closure body is its own scope. Boundaries inside a
/// nested closure, a closure's own braces, and the braces delimiting a
/// `match` body are all transparent, so
/// `let dims = xs.map(|m| {..}).collect();` stays ONE group — the
/// trailing `.collect()` shares the `let dims` write and the closure's
/// captured reads (`warp`, `imputed`, ...) feed the taint.
///
/// Clearing is per scope: a site clears when its group's spine writes a
/// tainted binding, or when its group is the scope's tail/`return` AND
/// the scope *delivers* — the fn body always delivers; a closure
/// delivers when the statement that owns it clears or escapes (its
/// per-element results become the statement's value, e.g. the vectors
/// built inside a `.map(|m| {..})` that `.collect()`s into the return
/// value). A closure whose value goes nowhere tainted clears nothing.
struct EscapeFlow<'a> {
    toks: &'a [Tok],
    /// Closure body ranges, parallel to `scopes[1..]`.
    closures: Vec<std::ops::Range<usize>>,
    /// Scope 0 is the fn body; scope `1 + k` is `closures[k]`.
    scopes: Vec<ScopeFlow>,
    /// `get_or_init(..)` argument spans (one-time init paths).
    oncelock: Vec<std::ops::Range<usize>>,
    /// `Scratch`-typed params and locals (plus the `scratch`-named
    /// field convention).
    scratch: std::collections::BTreeSet<String>,
}

/// Escape state of one scope's statement groups (see [`EscapeFlow`]).
struct ScopeFlow {
    groups: Vec<std::ops::Range<usize>>,
    /// Per-group: does its spine write a binding in the flow set?
    cleared: Vec<bool>,
    /// Per-group: this scope's tail/`return` statement?
    escaping: Vec<bool>,
    /// Does this scope's value reach the fn's escape surface?
    delivers: bool,
}

impl<'a> EscapeFlow<'a> {
    fn new(toks: &'a [Tok], f: &FnDef) -> EscapeFlow<'a> {
        let body = f.body.start..f.body.end.min(toks.len());
        let closures = closure_body_ranges(toks, body.clone());
        let loops: Vec<std::ops::Range<usize>> = loop_body_ranges(toks)
            .into_iter()
            .filter(|r| r.start >= body.start && r.end <= body.end)
            .collect();
        let scratch = scratch_names(toks, body.clone(), &f.scratch_params);
        let match_braces = match_brace_spans(toks, body.clone());

        // Innermost-closure scope of a token (0 = the fn body).
        let scope_of = |at: usize| -> usize {
            closures
                .iter()
                .enumerate()
                .filter(|(_, r)| r.contains(&at))
                .min_by_key(|(_, r)| r.end - r.start)
                .map_or(0, |(k, _)| k + 1)
        };
        // A closure range is `open+1..close`, so the braces themselves
        // sit just outside it and must not split the statement either.
        let closure_brace =
            |at: usize| closures.iter().any(|r| at + 1 == r.start || at == r.end);
        let range_of = |s: usize| -> std::ops::Range<usize> {
            if s == 0 { body.clone() } else { closures[s - 1].clone() }
        };

        // Statement groups per scope.
        let n_scopes = closures.len() + 1;
        let groups_by: Vec<Vec<std::ops::Range<usize>>> = (0..n_scopes)
            .map(|s| {
                let r = range_of(s);
                let mut gs = Vec::new();
                let mut start = r.start;
                // `;` inside `()`/`[]` is not a statement end — it is
                // the repeat form (`vec![0.0; n]`, `[T; N]`).
                let mut depth = 0usize;
                for i in r.clone() {
                    let t = &toks[i];
                    if t.is_punct('(') || t.is_punct('[') {
                        depth += 1;
                    } else if t.is_punct(')') || t.is_punct(']') {
                        depth = depth.saturating_sub(1);
                    }
                    let boundary = (t.is_punct(';') || t.is_punct('{') || t.is_punct('}'))
                        && depth == 0
                        && scope_of(i) == s
                        && !closure_brace(i)
                        && !match_braces.contains(&i);
                    if boundary {
                        if start < i {
                            gs.push(start..i);
                        }
                        start = i + 1;
                    }
                }
                if start < r.end {
                    gs.push(start..r.end);
                }
                gs
            })
            .collect();

        // Spine writes: `let`/assignment/dot-receiver/`for`-pattern
        // targets at this scope's own level (child closures excluded).
        let spine_writes = |s: usize, g: &std::ops::Range<usize>| -> Vec<String> {
            let mut w = Vec::new();
            let mut i = g.start;
            while i < g.end {
                if scope_of(i) != s {
                    i += 1;
                    continue;
                }
                let run_end = (i..g.end).find(|&j| scope_of(j) != s).unwrap_or(g.end);
                w.extend(segment_writes(toks, i..run_end));
                i = run_end;
            }
            w
        };

        // Escaping groups: same-scope `return` statements (a `return`
        // inside a nested closure leaves the closure, not this scope),
        // and tail expressions (not inside a same-scope loop body — a
        // loop's last statement is followed only by `}`s but does not
        // produce the scope's value).
        let escaping_by: Vec<Vec<bool>> = (0..n_scopes)
            .map(|s| {
                let r = range_of(s);
                groups_by[s]
                    .iter()
                    .map(|g| {
                        g.clone().any(|i| scope_of(i) == s && toks[i].is_ident("return"))
                            || (!loops
                                .iter()
                                .any(|l| scope_of(l.start) == s && l.contains(&g.start))
                                && is_tail_segment(toks, g.end, r.end))
                    })
                    .collect()
            })
            .collect();

        // Backward taint, outer scopes first (a closure inherits its
        // parent's flow set — captured bindings — and seeds its own
        // tail only when its value lands somewhere tainted). Any group
        // whose spine writes a tainted binding taints ALL its idents,
        // including closure-body reads (captures flowing into the
        // statement's result).
        let mut order: Vec<usize> = (0..n_scopes).collect();
        order.sort_by_key(|&s| std::cmp::Reverse(range_of(s).len()));
        let mut flow: Vec<std::collections::BTreeSet<String>> =
            vec![std::collections::BTreeSet::new(); n_scopes];
        let mut scopes: Vec<Option<ScopeFlow>> = (0..n_scopes).map(|_| None).collect();
        for s in order {
            let delivers = if s == 0 {
                true
            } else {
                // The statement that owns this closure, in the parent.
                let r = range_of(s);
                let p = scope_of(r.start - 1);
                let owner = scopes[p].as_ref().expect("parent scope computed first");
                match owner.groups.iter().position(|g| g.contains(&r.start)) {
                    Some(k) => {
                        owner.cleared[k] || (owner.escaping[k] && owner.delivers)
                    }
                    None => false,
                }
            };
            let mut fs = if s == 0 {
                let mut fs = std::collections::BTreeSet::new();
                for p in f.mut_params.iter().chain(&f.scratch_params) {
                    fs.insert(p.clone());
                }
                fs
            } else {
                flow[scope_of(range_of(s).start - 1)].clone()
            };
            if delivers {
                for (k, g) in groups_by[s].iter().enumerate() {
                    if escaping_by[s][k] {
                        for t in &toks[g.clone()] {
                            if t.kind == TokKind::Ident {
                                fs.insert(t.text.clone());
                            }
                        }
                    }
                }
            }
            loop {
                let mut changed = false;
                for g in groups_by[s].iter().rev() {
                    if spine_writes(s, g).iter().any(|w| fs.contains(w)) {
                        for t in &toks[g.clone()] {
                            if t.kind == TokKind::Ident && fs.insert(t.text.clone()) {
                                changed = true;
                            }
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            let cleared: Vec<bool> = groups_by[s]
                .iter()
                .map(|g| spine_writes(s, g).iter().any(|w| fs.contains(w)))
                .collect();
            scopes[s] = Some(ScopeFlow {
                groups: groups_by[s].clone(),
                cleared,
                escaping: escaping_by[s].clone(),
                delivers,
            });
            flow[s] = fs;
        }
        let scopes: Vec<ScopeFlow> =
            scopes.into_iter().map(|s| s.expect("all scopes computed")).collect();

        let oncelock = oncelock_arg_spans(toks, body);
        EscapeFlow { toks, closures, scopes, oncelock, scratch }
    }

    /// Is the allocation at token `at` cleared — proven to escape into
    /// caller-owned storage, the return value, a one-time init, or a
    /// scratch arena?
    fn cleared(&self, at: usize) -> bool {
        if self.oncelock.iter().any(|r| r.contains(&at)) {
            return true;
        }
        if self.scratch_receiver(at) {
            return true;
        }
        let s = self
            .closures
            .iter()
            .enumerate()
            .filter(|(_, r)| r.contains(&at))
            .min_by_key(|(_, r)| r.end - r.start)
            .map_or(0, |(k, _)| k + 1);
        let scope = &self.scopes[s];
        match scope.groups.iter().position(|g| g.contains(&at)) {
            Some(k) => scope.cleared[k] || (scope.escaping[k] && scope.delivers),
            None => false,
        }
    }

    /// Does the receiver path of the (method) site at `at` go through
    /// a scratch binding? `scratch.jobs.push(..)`, `self.scratch.buf
    /// .extend(..)`.
    fn scratch_receiver(&self, at: usize) -> bool {
        crate::traitobj::receiver_components(self.toks, at)
            .iter()
            .any(|c| self.scratch.contains(c) || c == "scratch" || c.ends_with("_scratch"))
    }
}

/// Split a body into flat spans at `;`, `{`, `}`. Unlike
/// [`statements`], spans adjacent to braces (loop/if headers, tail
/// expressions) are kept, so every non-delimiter token belongs to
/// exactly one span.
fn segments(toks: &[Tok], body: std::ops::Range<usize>) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let end = body.end.min(toks.len());
    let mut start = body.start;
    for (i, t) in toks.iter().enumerate().take(end).skip(body.start) {
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            if start < i {
                out.push(start..i);
            }
            start = i + 1;
        }
    }
    if start < end {
        out.push(start..end);
    }
    out
}

/// Token indices of the `{`/`}` delimiting `match` bodies. Statement
/// grouping treats them as transparent, so a match expression stays
/// part of the statement that consumes its value — otherwise every arm
/// would become its own group, divorcing an arm allocation
/// (`WindowKind::Rectangular => vec![1.0; len]`) from the `let`/tail
/// that receives it. Braces of arm *blocks* (`=> { .. }`) still split.
fn match_brace_spans(
    toks: &[Tok],
    body: std::ops::Range<usize>,
) -> std::collections::BTreeSet<usize> {
    let mut out = std::collections::BTreeSet::new();
    let end = body.end.min(toks.len());
    for i in body.start..end {
        if !toks[i].is_ident("match") {
            continue;
        }
        // Scrutinee: scan to the first `{` outside `()`/`[]` nesting.
        let mut j = i + 1;
        let mut depth = 0i32;
        while j < end {
            let t = &toks[j];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if depth == 0 && t.is_punct('{') {
                break;
            }
            j += 1;
        }
        if j >= end {
            continue;
        }
        let open = j;
        let mut braces = 0i32;
        while j < end {
            if toks[j].is_punct('{') {
                braces += 1;
            } else if toks[j].is_punct('}') {
                braces -= 1;
                if braces == 0 {
                    out.insert(open);
                    out.insert(j);
                    break;
                }
            }
            j += 1;
        }
    }
    out
}

/// Is the segment ending at `seg_end` in tail position — followed only
/// by closing braces and complete `else {..}` continuations up to the
/// end of the body?
fn is_tail_segment(toks: &[Tok], seg_end: usize, body_end: usize) -> bool {
    let end = body_end.min(toks.len());
    let mut i = seg_end;
    while i < end {
        let t = &toks[i];
        if t.is_punct('}') {
            i += 1;
            continue;
        }
        if t.is_ident("else") {
            // Skip the complete `else [if ..] { .. }` block.
            let Some(open) = (i + 1..end).find(|&j| toks[j].is_punct('{')) else {
                return false;
            };
            let mut depth = 0usize;
            let mut j = open;
            while j < end {
                if toks[j].is_punct('{') {
                    depth += 1;
                } else if toks[j].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            i = j + 1;
            continue;
        }
        return false;
    }
    true
}

/// Bindings a segment writes: `let` declarations, `for`-loop patterns,
/// assignments (plain, compound, indexed), `&mut x` borrows, and
/// dot-receivers (potential interior mutation). An index *read*
/// (`v[i]` with no following `=`) is not a write — that distinction is
/// what keeps `v.push(out[0])` on a dead local flagged while
/// `out[i] = v` clears.
fn segment_writes(toks: &[Tok], seg: std::ops::Range<usize>) -> Vec<String> {
    let mut out = Vec::new();
    let end = seg.end.min(toks.len());
    let mut i = seg.start;
    while i < end {
        let t = &toks[i];
        if t.is_ident("for") {
            // `for <pat> in <iter>` binds the pattern's idents — the
            // iterated value flows into them, so a tainted loop var
            // taints what it iterates (`for &seg in &order` links
            // `order` to `seg`).
            let mut j = i + 1;
            while j < end && !toks[j].is_ident("in") {
                let p = &toks[j];
                if p.kind == TokKind::Ident && !p.is_ident("mut") && !p.is_ident("ref") {
                    out.push(p.text.clone());
                }
                j += 1;
            }
            i = j + 1;
            continue;
        }
        if t.is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|n| n.is_ident("mut")) {
                j += 1;
            }
            if let Some(n) = toks.get(j).filter(|n| n.kind == TokKind::Ident) {
                out.push(n.text.clone());
                i = j + 1;
                continue;
            }
        }
        if t.kind == TokKind::Ident {
            if i >= 2 && toks[i - 1].is_ident("mut") && toks[i - 2].is_punct('&') {
                out.push(t.text.clone());
            }
            if ident_is_assigned(toks, i, end) {
                out.push(t.text.clone());
            }
            if toks.get(i + 1).is_some_and(|n| n.is_punct('.')) {
                out.push(t.text.clone());
            }
        }
        i += 1;
    }
    out
}

/// Is the ident at `i` the target of `=`, a compound assign, a shift
/// assign, or an indexed store (`x[..] = ..`)?
fn ident_is_assigned(toks: &[Tok], i: usize, end: usize) -> bool {
    let assigns_at = |j: usize| -> bool {
        let Some(t) = toks.get(j) else { return false };
        // `=` but not `==`.
        if t.is_punct('=') {
            return !toks.get(j + 1).is_some_and(|n| n.is_punct('='));
        }
        // `+=` etc., but not `<=`/`>=`/`!=` comparisons.
        if "+-*/%|&^".chars().any(|c| t.is_punct(c))
            && toks.get(j + 1).is_some_and(|n| n.is_punct('='))
            && !toks.get(j + 2).is_some_and(|n| n.is_punct('='))
        {
            return true;
        }
        // `<<=` / `>>=` (the lexer never fuses puncts).
        "<>".chars().any(|c| {
            t.is_punct(c)
                && toks.get(j + 1).is_some_and(|n| n.is_punct(c))
                && toks.get(j + 2).is_some_and(|n| n.is_punct('='))
        })
    };
    let Some(next) = toks.get(i + 1) else { return false };
    if !next.is_punct('[') {
        return assigns_at(i + 1);
    }
    // `x[..]... = ` — skip index brackets, then require an assignment.
    let mut j = i + 1;
    let mut depth = 0usize;
    while j < end {
        if toks[j].is_punct('[') {
            depth += 1;
        } else if toks[j].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        j += 1;
    }
    assigns_at(j + 1)
}

/// `Scratch`-typed bindings visible in the body: the fn's
/// `Scratch`-typed params plus locals whose `let` declaration mentions
/// a `*Scratch` type.
fn scratch_names(
    toks: &[Tok],
    body: std::ops::Range<usize>,
    scratch_params: &[String],
) -> std::collections::BTreeSet<String> {
    let mut names: std::collections::BTreeSet<String> =
        scratch_params.iter().cloned().collect();
    let end = body.end.min(toks.len());
    for i in body.start..end {
        if !toks[i].is_ident("let") {
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        let Some(name) = toks.get(j).filter(|t| t.kind == TokKind::Ident) else { continue };
        let decl_end = (j..end).find(|&k| toks[k].is_punct(';')).unwrap_or(end);
        if toks[j + 1..decl_end]
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text.ends_with("Scratch"))
        {
            names.insert(name.text.clone());
        }
    }
    names
}

/// Brace-delimited closure body ranges inside `body`. Detection is
/// token-local: a `|` in closure position (after `(`, `,`, `=`, `{`,
/// `;`, `:` or `move`), a closing `|` nearby with no statement
/// boundary between, then `{` (optionally past a `-> Type`). Braceless
/// closures merge into their surrounding segment, which is the
/// conservative direction (their allocations only clear through
/// scratch receivers).
fn closure_body_ranges(
    toks: &[Tok],
    body: std::ops::Range<usize>,
) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let end = body.end.min(toks.len());
    let mut i = body.start;
    while i < end {
        if !toks[i].is_punct('|') {
            i += 1;
            continue;
        }
        let closure_position = if i == body.start {
            true
        } else {
            let p = &toks[i - 1];
            p.is_punct('(')
                || p.is_punct(',')
                || p.is_punct('=')
                || p.is_punct('{')
                || p.is_punct(';')
                || p.is_punct(':')
                || p.is_ident("move")
        };
        if !closure_position {
            i += 1;
            continue;
        }
        // Closing `|`: nearby, no statement boundary or `=` between
        // (an `=` means we were looking at a match arm or bit-or).
        let close = (i + 1..end.min(i + 40)).find(|&j| toks[j].is_punct('|'));
        let close = match close {
            Some(c)
                if !toks[i + 1..c].iter().any(|t| {
                    t.is_punct(';') || t.is_punct('{') || t.is_punct('}') || t.is_punct('=')
                }) =>
            {
                c
            }
            _ => {
                i += 1;
                continue;
            }
        };
        let mut k = close + 1;
        if toks.get(k).is_some_and(|t| t.is_punct('-'))
            && toks.get(k + 1).is_some_and(|t| t.is_punct('>'))
        {
            // `-> Type {`: the return type of this codebase's closures
            // is short; scan a bounded window for the `{`.
            k = (k + 2..end.min(k + 14))
                .find(|&j| toks[j].is_punct('{'))
                .unwrap_or(end);
        }
        if toks.get(k).is_some_and(|t| t.is_punct('{')) {
            let mut depth = 0usize;
            let mut j = k;
            while j < end {
                if toks[j].is_punct('{') {
                    depth += 1;
                } else if toks[j].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            out.push(k + 1..j);
        }
        i = close + 1;
    }
    out
}

/// Argument spans of `get_or_init(..)` / `get_or_try_init(..)` calls —
/// one-time `OnceLock` initialization paths.
fn oncelock_arg_spans(
    toks: &[Tok],
    body: std::ops::Range<usize>,
) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let end = body.end.min(toks.len());
    for i in body.start..end {
        if !(toks[i].is_ident("get_or_init") || toks[i].is_ident("get_or_try_init")) {
            continue;
        }
        let Some(open) = toks.get(i + 1).filter(|t| t.is_punct('(')).map(|_| i + 1) else {
            continue;
        };
        let mut depth = 0usize;
        let mut j = open;
        while j < end {
            if toks[j].is_punct('(') {
                depth += 1;
            } else if toks[j].is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        out.push(open + 1..j);
    }
    out
}

// ---------------------------------------------------------------- A1

fn check_a1(
    files: &[SourceFile],
    graph: &CallGraph,
    cfg: &Config,
    findings: &mut Vec<Finding>,
) {
    if cfg.a1_crates.is_empty() {
        return;
    }
    let roots: Vec<FnId> = graph
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| f.is_hot && !f.in_test)
        .map(|(id, _)| id)
        .collect();
    if roots.is_empty() {
        return;
    }
    let parents = graph.reach_with_parents(&roots);
    for &id in parents.keys() {
        let f = &graph.fns[id];
        if f.in_test || !cfg.a1_crates.iter().any(|c| c == &f.crate_name) {
            continue;
        }
        // A scratch arena's own methods are the one place allowed to
        // allocate — that is where capacity lives.
        if f.owner.as_deref().is_some_and(|o| o.ends_with("Scratch")) {
            continue;
        }
        let Some(file) = file_of(files, f) else { continue };
        let toks = &file.toks;
        let body = f.body.start..f.body.end.min(toks.len());
        let sites = allocation_sites(toks, body.clone(), A1_SETS);
        if sites.is_empty() {
            continue;
        }
        let scratch = scratch_names(toks, body.clone(), &f.scratch_params);
        let segs = segments(toks, body);
        let approved = |at: usize| -> bool {
            let through_scratch = crate::traitobj::receiver_components(toks, at)
                .iter()
                .any(|c| scratch.contains(c) || c == "scratch" || c.ends_with("_scratch"));
            if through_scratch {
                return true;
            }
            // The site's whole statement works on a scratch binding
            // (`scratch.staging.extend(series.to_vec())`-style flows).
            segs.iter().find(|s| s.contains(&at)).is_some_and(|seg| {
                toks[seg.clone()].iter().any(|t| {
                    t.kind == TokKind::Ident
                        && (scratch.contains(&t.text) || t.text.ends_with("Scratch"))
                })
            })
        };
        for (tok, line, what) in sites {
            if approved(tok) {
                continue;
            }
            push_at(
                findings,
                files,
                "A1",
                &f.rel_path,
                line,
                format!(
                    "scratch-discipline violation ({what}) in a hot-reachable fn: {}",
                    chain_text(graph, &parents, id)
                ),
            );
        }
    }
}

/// After `.name`, is the next thing `(` — allowing `::<T>` in between?
fn next_non_turbofish_is_paren(toks: &[Tok], mut j: usize, end: usize) -> bool {
    if toks.get(j).is_some_and(|n| n.is_punct(':'))
        && toks.get(j + 1).is_some_and(|n| n.is_punct(':'))
        && toks.get(j + 2).is_some_and(|n| n.is_punct('<'))
    {
        j = skip_angle(toks, j + 2, end);
    }
    toks.get(j).is_some_and(|n| n.is_punct('('))
}

/// Index just past the `>` matching the `<` at `open`.
fn skip_angle(toks: &[Tok], open: usize, end: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < end {
        if toks[j].is_punct('<') {
            depth += 1;
        } else if toks[j].is_punct('>') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    end
}

// ---------------------------------------------------------------- R4

fn check_r4(files: &[SourceFile], cfg: &Config, findings: &mut Vec<Finding>) {
    for file in files {
        if file.kind != FileKind::Lib || !cfg.r4_crates.iter().any(|c| c == &file.crate_name) {
            continue;
        }
        // The helper itself is the one place allowed to accumulate.
        if file.rel_path.ends_with("core/src/math.rs") {
            continue;
        }
        check_r4_file(file, findings);
    }
}

const R4_HINT: &str = "route through tsda_core::math::sum_stable so accumulation order is pinned";

fn check_r4_file(file: &SourceFile, findings: &mut Vec<Finding>) {
    let toks = &file.toks;
    let n = toks.len();
    // Loop body brace ranges, for the `+=`-accumulator check.
    let loop_ranges = loop_body_ranges(toks);
    // Locals declared with a float initialiser or ascription.
    let float_locals = float_local_names(toks);

    for i in 0..n {
        if file.in_test[i] {
            continue;
        }
        let t = &toks[i];
        // `.sum::<f32>()` / `.sum()` on a float expression.
        if t.is_ident("sum") && i >= 1 && toks[i - 1].is_punct('.') {
            let flagged = match turbofish_types(toks, i + 1) {
                Some(types) => types.iter().any(|ty| ty == "f32" || ty == "f64"),
                // Untyped `.sum()`: only flag when the statement gives a
                // float hint (`let x: f64 = ...` / `as f32`), so integer
                // count sums stay legal.
                None => statement_mentions_float(toks, i),
            };
            if flagged && toks_call_follows(toks, i + 1) {
                findings.push(finding_at(file, t.line, format!("float `.sum()` — {R4_HINT}")));
            }
            continue;
        }
        // `.fold(0.0, |acc, x| acc + x)`-style float folds. Folds whose
        // closure runs max/min are order-insensitive selections, not
        // accumulations, and stay legal.
        if t.is_ident("fold")
            && i >= 1
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|p| p.is_punct('('))
            && toks.get(i + 2).is_some_and(|z| z.kind == TokKind::Num && z.text.contains('.'))
            && !fold_is_selection(toks, i + 1)
        {
            findings.push(finding_at(file, t.line, format!("float `.fold()` — {R4_HINT}")));
            continue;
        }
        // `acc += term` on a float local inside a loop body.
        if t.is_punct('+')
            && toks.get(i + 1).is_some_and(|e| e.is_punct('='))
            && i >= 1
            && toks[i - 1].kind == TokKind::Ident
            && float_locals.contains(&toks[i - 1].text)
            && loop_ranges.iter().any(|r| r.contains(&i))
        {
            findings.push(finding_at(
                file,
                t.line,
                format!("float `+=` accumulation in a loop — {R4_HINT}"),
            ));
        }
    }
}

fn finding_at(file: &SourceFile, line: u32, message: String) -> Finding {
    Finding {
        rule: "R4",
        path: file.rel_path.clone(),
        line,
        message,
        snippet: file.line_text(line).to_string(),
    }
}

/// `::<A, B>` starting at `j`: the top-level type names, else `None`.
fn turbofish_types(toks: &[Tok], j: usize) -> Option<Vec<String>> {
    if !(toks.get(j).is_some_and(|t| t.is_punct(':'))
        && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(j + 2).is_some_and(|t| t.is_punct('<')))
    {
        return None;
    }
    let close = skip_angle(toks, j + 2, toks.len());
    let names = toks[j + 3..close.saturating_sub(1)]
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
        .collect();
    Some(names)
}

/// Is the token at/after `j` (past an optional turbofish) a `(`?
fn toks_call_follows(toks: &[Tok], j: usize) -> bool {
    next_non_turbofish_is_paren(toks, j, toks.len())
}

/// Does the `.fold(...)` call whose `(` sits at `open` select rather
/// than accumulate — i.e. call `.max(`/`.min(` inside its argument
/// list? Scans to the matching close paren.
fn fold_is_selection(toks: &[Tok], open: usize) -> bool {
    let mut depth = 0usize;
    for j in open..toks.len() {
        if toks[j].is_punct('(') {
            depth += 1;
        } else if toks[j].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return false;
            }
        } else if (toks[j].is_ident("max") || toks[j].is_ident("min"))
            && j >= 1
            && toks[j - 1].is_punct('.')
        {
            return true;
        }
    }
    false
}

/// Does the statement around token `i` mention `f32`/`f64`?
fn statement_mentions_float(toks: &[Tok], i: usize) -> bool {
    let start = (0..i).rev().find(|&j| {
        toks[j].is_punct(';') || toks[j].is_punct('{') || toks[j].is_punct('}')
    });
    let end = (i..toks.len())
        .find(|&j| toks[j].is_punct(';') || toks[j].is_punct('{') || toks[j].is_punct('}'))
        .unwrap_or(toks.len());
    let start = start.map_or(0, |s| s + 1);
    toks[start..end].iter().any(|t| t.is_ident("f32") || t.is_ident("f64"))
}

/// Names of locals declared with a float hint: `let mut x = 0.0`,
/// `let mut x: f64 = ...`, `let mut x = 0f32`.
fn float_local_names(toks: &[Tok]) -> Vec<String> {
    let mut names = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("let") {
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        let Some(name) = toks.get(j).filter(|t| t.kind == TokKind::Ident) else { continue };
        // Scan the declaration up to `;` for a float hint.
        let end = (j..toks.len()).find(|&k| toks[k].is_punct(';')).unwrap_or(toks.len());
        let is_float = toks[j + 1..end].iter().any(|t| {
            t.is_ident("f32")
                || t.is_ident("f64")
                || (t.kind == TokKind::Num
                    && (t.text.contains('.') || t.text.ends_with("f32") || t.text.ends_with("f64")))
        });
        if is_float {
            names.push(name.text.clone());
        }
    }
    names
}

/// Brace ranges of `for`/`while`/`loop` bodies (token index ranges).
fn loop_body_ranges(toks: &[Tok]) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if !(t.is_ident("for") || t.is_ident("while") || t.is_ident("loop")) {
            continue;
        }
        // The loop body is the first `{` after the header (this
        // codebase never puts a struct literal in a loop header).
        let open = (i + 1..toks.len()).find(|&j| toks[j].is_punct('{'));
        if let Some(open) = open {
            let mut depth = 0usize;
            let mut j = open;
            while j < toks.len() {
                if toks[j].is_punct('{') {
                    depth += 1;
                } else if toks[j].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            out.push(open..j);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn lib_file(crate_name: &str, src: &str) -> SourceFile {
        let toks = lex(src);
        let in_test = vec![false; toks.len()];
        SourceFile {
            crate_name: crate_name.into(),
            rel_path: format!("crates/{crate_name}/src/lib.rs"),
            kind: FileKind::Lib,
            lines: src.lines().map(str::to_string).collect(),
            toks,
            in_test,
        }
    }

    fn run(files: Vec<SourceFile>, cfg: &Config) -> Vec<Finding> {
        let graph = CallGraph::build(&files);
        let mut findings = Vec::new();
        run_interproc(&files, &graph, cfg, &mut findings);
        findings
    }

    fn cfg_with(f: impl FnOnce(&mut Config)) -> Config {
        let mut cfg = Config::default();
        f(&mut cfg);
        cfg
    }

    #[test]
    fn r1_reports_cross_crate_chain_to_panic() {
        let files = vec![
            lib_file("a", "pub fn serve_loop() {\n    tsda_b::decode();\n}\n"),
            lib_file("b", "pub fn decode() {\n    inner()\n}\nfn inner() {\n    data.unwrap();\n}\n"),
        ];
        let cfg = cfg_with(|c| c.r1_roots = vec!["a::serve_loop".into()]);
        let findings = run(files, &cfg);
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert_eq!(f.rule, "R1");
        assert_eq!(f.path, "crates/b/src/lib.rs");
        assert_eq!(f.line, 5);
        assert!(f.message.contains("a::serve_loop (crates/a/src/lib.rs:2)"), "{}", f.message);
        assert!(f.message.contains("b::decode (crates/b/src/lib.rs:2)"), "{}", f.message);
        assert!(f.message.contains("b::inner"), "{}", f.message);
    }

    #[test]
    fn r1_unmatched_root_is_a_finding() {
        let files = vec![lib_file("a", "pub fn fine() {}\n")];
        let cfg = cfg_with(|c| c.r1_roots = vec!["a::gone".into()]);
        let findings = run(files, &cfg);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("matches no function"), "{}", findings[0].message);
    }

    #[test]
    fn r1_ignores_unreachable_panics() {
        let files = vec![lib_file(
            "a",
            "pub fn root() { safe() }\nfn safe() {}\nfn cold() { boom.unwrap(); }\n",
        )];
        let cfg = cfg_with(|c| c.r1_roots = vec!["a::root".into()]);
        assert!(run(files, &cfg).is_empty());
    }

    #[test]
    fn r2_flags_let_underscore_and_bare_statement_discards() {
        let files = vec![lib_file(
            "a",
            "pub fn fallible() -> Result<u8, ()> { Ok(1) }\n\
             pub fn ok_consumer() -> Result<u8, ()> { fallible() }\n\
             pub fn discards() {\n\
                 let _ = fallible();\n\
                 fallible();\n\
             }\n\
             pub fn handles() -> Result<(), ()> {\n\
                 let v = fallible()?;\n\
                 if fallible().is_ok() { drop(v); }\n\
                 Ok(())\n\
             }\n",
        )];
        let cfg = cfg_with(|c| c.r2_crates = vec!["a".into()]);
        let findings = run(files, &cfg);
        let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![4, 5], "{findings:?}");
        assert!(findings[0].message.contains("bound to `_`"));
        assert!(findings[1].message.contains("bare statement"));
    }

    #[test]
    fn r2_skips_non_result_and_unresolved_calls() {
        let files = vec![lib_file(
            "a",
            "pub fn infallible() {}\n\
             pub fn go(w: Worker) {\n\
                 infallible();\n\
                 let _ = w.join();\n\
             }\n",
        )];
        let cfg = cfg_with(|c| c.r2_crates = vec!["a".into()]);
        assert!(run(files, &cfg).is_empty());
    }

    #[test]
    fn r3_flags_allocation_reached_from_hot_fn() {
        let files = vec![lib_file(
            "a",
            "#[doc(alias = \"tsda::hot\")]\n\
             pub fn kernel(out: &mut [f64]) {\n\
                 helper(out);\n\
             }\n\
             fn helper(out: &mut [f64]) {\n\
                 let mut v = Vec::new();\n\
                 v.push(out[0]);\n\
             }\n\
             fn cold() { let s = format!(\"fine here\"); }\n",
        )];
        let findings = run(files, &Config::default());
        let r3: Vec<&Finding> = findings.iter().filter(|f| f.rule == "R3").collect();
        assert_eq!(r3.len(), 2, "{findings:?}");
        assert!(r3[0].message.contains("Vec::new"), "{}", r3[0].message);
        assert!(r3[1].message.contains(".push()"), "{}", r3[1].message);
        assert!(r3[0].message.contains("a::kernel (crates/a/src/lib.rs:3)"), "{}", r3[0].message);
        assert!(findings.iter().all(|f| !f.snippet.contains("fine here")));
    }

    #[test]
    fn r3v2_clears_escaping_allocations() {
        let files = vec![lib_file(
            "a",
            "#[doc(alias = \"tsda::hot\")]\n\
             pub fn kernel(out: &mut Vec<f64>, scratch: &mut AugScratch) {\n\
                 fills(out);\n\
                 let v = builder();\n\
                 staged(scratch);\n\
                 closure_alloc(out);\n\
                 once();\n\
             }\n\
             fn fills(out: &mut Vec<f64>) {\n\
                 let staging = compute().to_vec();\n\
                 out.extend(staging);\n\
             }\n\
             fn builder() -> Vec<f64> {\n\
                 let mut b = Vec::with_capacity(4);\n\
                 b.push(1.0);\n\
                 b\n\
             }\n\
             fn staged(s: &mut AugScratch) {\n\
                 s.buf.push(1.0);\n\
             }\n\
             fn closure_alloc(out: &mut Vec<f64>) {\n\
                 run(|| {\n\
                     let mut tmp = Vec::new();\n\
                     tmp.push(2.0);\n\
                 });\n\
             }\n\
             fn once() {\n\
                 CACHE.get_or_init(|| vec![0.0; 8]);\n\
             }\n",
        )];
        let findings = run(files, &Config::default());
        let r3: Vec<&Finding> = findings.iter().filter(|f| f.rule == "R3").collect();
        // Out-param flow (fills), return/tail flow (builder), scratch
        // receiver (staged), and the OnceLock closure (once) all
        // clear; only the dead-local allocation inside the worker
        // closure is steady-state churn.
        let lines: Vec<u32> = r3.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![23, 24], "{r3:?}");
        assert!(r3[0].message.contains("Vec::new"), "{}", r3[0].message);
        assert!(r3[1].message.contains(".push()"), "{}", r3[1].message);
        assert!(r3[0].message.contains("a::kernel"), "{}", r3[0].message);
    }

    #[test]
    fn r3v2_clears_closure_allocations_that_feed_the_result() {
        // The per-dim vectors built inside `.map(|m| {..})` become the
        // collected value, which is the fn's tail — they escape. The
        // sibling closure whose value is discarded does not deliver, so
        // its allocation stays flagged.
        let files = vec![lib_file(
            "a",
            "#[doc(alias = \"tsda::hot\")]\n\
             pub fn kernel(n: usize) -> Vec<Vec<f64>> {\n\
                 transform(n)\n\
             }\n\
             fn transform(n: usize) -> Vec<Vec<f64>> {\n\
                 sink(|m| {\n\
                     let mut waste = Vec::new();\n\
                     waste.push(m as f64);\n\
                 });\n\
                 let dims: Vec<Vec<f64>> = (0..n)\n\
                     .map(|m| {\n\
                         let mut d = Vec::with_capacity(n);\n\
                         d.push(m as f64);\n\
                         d\n\
                     })\n\
                     .collect();\n\
                 dims\n\
             }\n",
        )];
        let findings = run(files, &Config::default());
        let r3: Vec<&Finding> = findings.iter().filter(|f| f.rule == "R3").collect();
        let lines: Vec<u32> = r3.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![7, 8], "{r3:?}");
        assert!(r3[0].message.contains("Vec::new"), "{}", r3[0].message);
    }

    #[test]
    fn r3v2_clears_match_arm_allocations_in_tail_position() {
        // A match body's own braces do not split the statement, so an
        // arm allocation (`=> vec![..]`) shares the tail that returns
        // the match's value — including the repeat form's inner `;`.
        let files = vec![lib_file(
            "a",
            "#[doc(alias = \"tsda::hot\")]\n\
             pub fn kernel(k: u8, n: usize) -> Vec<f64> {\n\
                 window(k, n)\n\
             }\n\
             fn window(k: u8, n: usize) -> Vec<f64> {\n\
                 let mut junk = Vec::new();\n\
                 junk.push(0.0);\n\
                 match k {\n\
                     0 => vec![1.0; n],\n\
                     _ => Vec::with_capacity(n),\n\
                 }\n\
             }\n",
        )];
        let findings = run(files, &Config::default());
        let r3: Vec<&Finding> = findings.iter().filter(|f| f.rule == "R3").collect();
        let lines: Vec<u32> = r3.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![6, 7], "{r3:?}");
    }

    #[test]
    fn r3v2_taints_through_for_loop_patterns() {
        // `for &seg in &order` binds `seg` from `order`; the segments
        // feed `d`, which feeds the returned `dims` — so the `order`
        // collect participates in the result and clears.
        let files = vec![lib_file(
            "a",
            "#[doc(alias = \"tsda::hot\")]\n\
             pub fn kernel(n: usize) -> Vec<f64> {\n\
                 permute(n)\n\
             }\n\
             fn permute(n: usize) -> Vec<f64> {\n\
                 let order: Vec<usize> = (0..n).collect();\n\
                 let mut d = Vec::with_capacity(n);\n\
                 for &seg in &order {\n\
                     d.push(seg as f64);\n\
                 }\n\
                 d\n\
             }\n",
        )];
        let findings = run(files, &Config::default());
        let r3: Vec<&Finding> = findings.iter().filter(|f| f.rule == "R3").collect();
        assert!(r3.is_empty(), "{r3:?}");
    }

    #[test]
    fn a1_flags_banned_allocations_outside_scratch_receivers() {
        let files = vec![lib_file(
            "serve",
            "#[doc(alias = \"tsda::hot\")]\n\
             pub fn submit(scratch: &mut WorkerScratch, series: &[f64]) {\n\
                 let staged = scratch.staging.to_vec();\n\
                 scratch.grow();\n\
                 helper(series);\n\
             }\n\
             impl WorkerScratch {\n\
                 pub fn grow(&mut self) {\n\
                     self.staging = Vec::with_capacity(64);\n\
                 }\n\
             }\n\
             fn helper(series: &[f64]) -> Vec<f64> {\n\
                 let copy = series.to_vec();\n\
                 let msg = format!(\"n={}\", copy.len());\n\
                 copy\n\
             }\n",
        )];
        let cfg = cfg_with(|c| c.a1_crates = vec!["serve".into()]);
        let findings = run(files, &cfg);
        let a1: Vec<&Finding> = findings.iter().filter(|f| f.rule == "A1").collect();
        // The scratch-receiver `.to_vec()` is approved, the arena's own
        // `grow` is exempt; `helper`'s copies are violations — note R3
        // clears the returned `copy` (constructor flow) but A1 still
        // bans it in a scratch-disciplined crate.
        let lines: Vec<u32> = a1.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![13, 14], "{a1:?}");
        assert!(a1[0].message.contains("scratch-discipline violation (.to_vec())"));
        assert!(a1[1].message.contains("format!"), "{}", a1[1].message);
        assert!(a1[0].message.contains("serve::submit"), "{}", a1[0].message);
    }

    #[test]
    fn a1_is_silent_without_crate_opt_in() {
        let files = vec![lib_file(
            "serve",
            "#[doc(alias = \"tsda::hot\")]\n\
             pub fn submit(series: &[f64]) { let c = series.to_vec(); }\n",
        )];
        let findings = run(files, &Config::default());
        assert!(findings.iter().all(|f| f.rule != "A1"), "{findings:?}");
    }

    #[test]
    fn r4_flags_unpinned_reductions_and_accepts_sum_stable() {
        let files = vec![lib_file(
            "a",
            "pub fn mean(xs: &[f64]) -> f64 {\n\
                 xs.iter().sum::<f64>() / xs.len() as f64\n\
             }\n\
             pub fn count(xs: &[usize]) -> usize {\n\
                 xs.iter().sum::<usize>()\n\
             }\n\
             pub fn untyped(xs: &[f64]) -> f64 {\n\
                 let total: f64 = xs.iter().copied().sum();\n\
                 total\n\
             }\n\
             pub fn folded(xs: &[f64]) -> f64 {\n\
                 xs.iter().fold(0.0, |a, b| a + b)\n\
             }\n\
             pub fn looped(xs: &[f64]) -> f64 {\n\
                 let mut acc = 0.0;\n\
                 for x in xs { acc += x; }\n\
                 acc\n\
             }\n\
             pub fn pinned(xs: &[f64]) -> f64 {\n\
                 tsda_core::math::sum_stable(xs.iter().copied())\n\
             }\n\
             pub fn peak(xs: &[f64]) -> f64 {\n\
                 xs.iter().fold(0.0_f64, |m, v| m.max(v.abs()))\n\
             }\n",
        )];
        let cfg = cfg_with(|c| c.r4_crates = vec!["a".into()]);
        let findings = run(files, &cfg);
        let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2, 8, 12, 16], "{findings:?}");
    }

    #[test]
    fn r4_skips_other_crates() {
        let src = "pub fn mean(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n";
        let files = vec![lib_file("other", src)];
        let cfg = cfg_with(|c| c.r4_crates = vec!["a".into()]);
        assert!(run(files, &cfg).is_empty());
    }
}
